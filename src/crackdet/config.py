"""Run configuration: one nested structure holding every tunable default.

A config loads from a single JSON file; unknown keys are rejected with their
full path named, and individual values can be overridden from the command line
with ``--set section.key=value``. The ``neck``, ``assignment``, ``eval`` and
``synthetic`` sections are the library's own ``NeckSettings``,
``AssignConfig``, ``EvalConfig`` and ``SyntheticConfig``. Each section checks
its own values when it is built, in code or at load; loading adds the neck's
geometry check. The effective config is echoed into every output artifact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from types import UnionType
from typing import get_args, get_type_hints

from .assignment import AssignConfig
from .dataio import SyntheticConfig
from .errors import ConfigError, check_choice, check_ranges
from .evaluator import EvalConfig
from .model import neck_config
from .neck import NeckSettings

__version__ = "0.1.0"


@dataclass
class NumericsSection:
    dtype: str = "float64"
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        check_choice("numerics.dtype", self.dtype, ("float64", "float32"))
        check_ranges("numerics", self, (("bn_eps", 0, math.inf, "()"),
                                        ("bn_momentum", 0, 1, "[]")))


@dataclass
class ModelSection:
    num_classes: int = 3
    image_size: int = 64
    backbone_widths: tuple = (32, 48, 64, 96, 128)
    head_channels: int = 96
    score_thr: float = 0.05
    nms_iou: float = 0.65

    def __post_init__(self):
        check_ranges("model", self, (("num_classes", 1, math.inf, "[)"),
                                     ("image_size", 0, math.inf, "()"),
                                     ("head_channels", 1, math.inf, "[)"),
                                     ("score_thr", 0, 1, "[)"),
                                     ("nms_iou", 0, 1, "[]")))
        widths = self.backbone_widths
        if len(widths) != 5 or not all(_fits(w, int) and w >= 1 for w in widths):
            raise ConfigError(f"model.backbone_widths must list five positive integer stage "
                              f"widths, got {list(widths)}")
        if self.image_size % 32:
            raise ConfigError("model.image_size must be divisible by 32")


@dataclass
class LossSection:
    w_cls: float = 1.0
    w_reg: float = 2.0

    def __post_init__(self):
        check_ranges("loss", self, (("w_cls", 0, math.inf, "[)"), ("w_reg", 0, math.inf, "[)")))


@dataclass
class TrainingSection:
    batch_size: int = 4
    steps: int = 300
    epochs: int | None = None
    lr: float = 4e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: str = "cosine"
    seed: int = 0

    def __post_init__(self):
        check_choice("training.schedule", self.schedule, ("cosine", "constant"))
        check_ranges("training", self, (("steps", 1, math.inf, "[)"),
                                        ("epochs", 1, math.inf, "[)"),
                                        ("lr", 0, math.inf, "()"),
                                        ("momentum", 0, 1, "[)"),
                                        ("weight_decay", 0, math.inf, "[)"),
                                        ("seed", 0, math.inf, "[)")))


@dataclass
class RunConfig:
    numerics: NumericsSection = field(default_factory=NumericsSection)
    model: ModelSection = field(default_factory=ModelSection)
    neck: NeckSettings = field(default_factory=NeckSettings)
    assignment: AssignConfig = field(default_factory=AssignConfig)
    loss: LossSection = field(default_factory=LossSection)
    eval: EvalConfig = field(default_factory=EvalConfig)
    # built before ``synthetic``, so ``--seed -1`` names training.seed first
    training: TrainingSection = field(default_factory=TrainingSection)
    synthetic: SyntheticConfig = field(default_factory=partial(
        SyntheticConfig, num_classes=3, min_shapes=2, max_shapes=4))


def _fits(value, hint) -> bool:
    """Whether ``value`` fits a field annotation: an int fits a float, a bool
    fits only a bool, and None fits only an ``X | None`` field."""
    if isinstance(hint, UnionType):
        return any(_fits(value, h) for h in get_args(hint))
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _apply(section, values: dict, path: str) -> dict:
    """``values`` checked against the section's fields (a JSON list becomes a
    tuple); unknown keys and mistyped values raise ConfigError."""
    hints = get_type_hints(type(section))
    out = {}
    for key, value in values.items():
        if key not in hints:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        hint = hints[key]
        if hint is tuple and isinstance(value, list):
            value = tuple(value)
        if not _fits(value, hint):
            raise ConfigError(f"config key '{path}.{key}' expects "
                              f"{getattr(hint, '__name__', hint)}, got {value!r}")
        out[key] = value
    return out


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then the JSON file, then --set overrides, strictly validated.

    Each section is built once from its defaults and collected values, so
    its own ``__post_init__`` checks the final combination (and the neck's
    fills an unset block count, so the echo names the blocks that are built).
    """
    cfg = RunConfig()
    changes = {f.name: {} for f in fields(cfg)}
    if path is not None:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for name, values in raw.items():
            if name not in changes:
                raise ConfigError(f"unknown config section '{name}'")
            if not isinstance(values, dict):
                raise ConfigError(f"config section '{name}' must be an object")
            changes[name].update(_apply(getattr(cfg, name), values, name))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form section.key=value")
        dotted, raw_value = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key '{dotted}' is not of the form section.key")
        section_name, key = parts
        if section_name not in changes:
            raise ConfigError(f"unknown config section '{section_name}'")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        changes[section_name].update(_apply(getattr(cfg, section_name), {key: value},
                                            section_name))
    cfg = RunConfig(**{f.name: f.default_factory(**changes[f.name]) for f in fields(cfg)})
    neck_config(cfg.model.image_size, cfg.model.backbone_widths, vars(cfg.neck))
    return cfg


def config_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["model"]["backbone_widths"] = list(out["model"]["backbone_widths"])
    return out
