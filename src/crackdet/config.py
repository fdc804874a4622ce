"""Run configuration: one nested structure holding every tunable default.

A config loads from a single JSON file; unknown keys are rejected with their
full path named, and individual values can be overridden from the command line
with ``--set section.key=value``. The ``model``, ``neck``, ``eval`` and
``synthetic`` sections are the library's own ``ModelSection``,
``NeckSettings``, ``EvalConfig`` and ``SyntheticConfig``. Each section checks
its fields' types and values when built, in code or at load; loading adds the
neck's geometry check. The effective config is echoed into every artifact.
The assigner's and the loss's weights are constants of ``assignment`` and
``losses``, not settings.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields

from .dataio import SyntheticConfig, read_json
from .errors import ConfigError, check_choice, check_fields
from .evaluator import EvalConfig
from .model import ModelSection, neck_config
from .neck import NeckSettings

__version__ = "0.1.0"


@dataclass
class NumericsSection:
    dtype: str = "float64"

    def __post_init__(self):
        check_choice("numerics.dtype", self.dtype, ("float64", "float32"))


@dataclass
class TrainingSection:
    batch_size: int = 4
    steps: int = 300
    lr: float = 4e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        check_fields("training", self, (("batch_size", 1, math.inf, "[)"),
                                        ("steps", 1, math.inf, "[)"),
                                        ("lr", 0, math.inf, "()"),
                                        ("momentum", 0, 1, "[)"),
                                        ("weight_decay", 0, math.inf, "[)"),
                                        ("seed", 0, math.inf, "[)")))


@dataclass
class RunConfig:
    numerics: NumericsSection = field(default_factory=NumericsSection)
    model: ModelSection = field(default_factory=ModelSection)
    neck: NeckSettings = field(default_factory=NeckSettings)
    eval: EvalConfig = field(default_factory=EvalConfig)
    # built before ``synthetic``, so ``--seed -1`` names training.seed first
    training: TrainingSection = field(default_factory=TrainingSection)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)


def _apply(section, values: dict, path: str, into: dict):
    """Write ``values`` into ``into``, each key checked against the section's
    fields (a JSON list given for a tuple field becomes a tuple); an unknown
    key raises ConfigError. The section checks each value when it is built."""
    names = {f.name for f in fields(section)}
    for key, value in values.items():
        if key not in names:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        if isinstance(value, list) and isinstance(getattr(section, key), tuple):
            value = tuple(value)
        into[key] = value


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then the JSON file, then --set overrides, strictly validated.

    Each section is built once from its defaults and collected values, so
    its own ``__post_init__`` checks the final combination.
    """
    cfg = RunConfig()
    changes = {f.name: {} for f in fields(cfg)}
    if path is not None:
        raw = read_json(path, ConfigError)
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for name, values in raw.items():
            if name not in changes:
                raise ConfigError(f"unknown config section '{name}'")
            if not isinstance(values, dict):
                raise ConfigError(f"config section '{name}' must be an object")
            _apply(getattr(cfg, name), values, name, changes[name])
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form section.key=value")
        dotted, raw_value = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key '{dotted}' is not of the form section.key")
        section_name, key = parts
        if section_name not in changes:
            raise ConfigError(f"unknown config key '{dotted}'")
        try:
            value = json.loads(raw_value)
        except (ValueError, RecursionError):  # not JSON: the section's type check names the key
            value = raw_value
        _apply(getattr(cfg, section_name), {key: value}, section_name, changes[section_name])
    cfg = RunConfig(**{f.name: f.default_factory(**changes[f.name]) for f in fields(cfg)})
    neck_config(cfg.model, cfg.neck)
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    """Plain JSON values; an unset neck block count reads as the blocks built."""
    out = dataclasses.asdict(cfg)
    out["model"]["backbone_widths"] = list(out["model"]["backbone_widths"])
    out["neck"]["num_attention_blocks"] = len(cfg.neck.active_slots())
    return out
