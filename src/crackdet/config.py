"""Run configuration: one nested structure holding every tunable default.

A config loads from a single JSON file; unknown keys are rejected with their
full path named, and individual values can be overridden from the command line
with ``--set section.key=value``. The ``assignment`` and ``synthetic`` sections
are the library's own ``AssignConfig`` and ``SyntheticConfig``. Every section
is built once from its final values and validated when the config loads. The
effective config is echoed into every output artifact for provenance.
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
from .errors import ConfigError
from .evaluator import EvalConfig
from .model import neck_config

__version__ = "0.1.0"


@dataclass
class NumericsSection:
    dtype: str = "float64"
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1


@dataclass
class ModelSection:
    num_classes: int = 3
    image_size: int = 64
    backbone_widths: tuple = (32, 48, 64, 96, 128)
    head_channels: int = 96
    score_thr: float = 0.05
    nms_iou: float = 0.65


@dataclass
class NeckSection:
    out_channels: int = 96
    csp_depth: int = 1
    placement: str = "top_down_only"
    num_attention_blocks: int = 2
    attn_heads: int = 2
    attn_key_dim: int = 16
    attn_value_dim: int | None = None
    attn_scale: float | None = None
    attn_residual: bool = True
    downsample: str = "conv"


@dataclass
class LossSection:
    w_cls: float = 1.0
    w_reg: float = 2.0


@dataclass
class EvalSection:
    max_dets: int = 100


@dataclass
class TrainingSection:
    batch_size: int = 4
    steps: int = 300
    epochs: int | None = None
    lr: float = 4e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    optimizer_convention: str = "standard"  # or "swapped"
    schedule: str = "cosine"
    seed: int = 0


@dataclass
class RunConfig:
    numerics: NumericsSection = field(default_factory=NumericsSection)
    model: ModelSection = field(default_factory=ModelSection)
    neck: NeckSection = field(default_factory=NeckSection)
    assignment: AssignConfig = field(default_factory=AssignConfig)
    loss: LossSection = field(default_factory=LossSection)
    eval: EvalSection = field(default_factory=EvalSection)
    synthetic: SyntheticConfig = field(default_factory=partial(
        SyntheticConfig, num_classes=3, min_shapes=2, max_shapes=4))
    training: TrainingSection = field(default_factory=TrainingSection)


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

    Each section is built once from its collected values, so its own
    ``__post_init__`` checks the final combination.
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
    for name, values in changes.items():
        setattr(cfg, name, dataclasses.replace(getattr(cfg, name), **values))
    validate_config(cfg)
    return cfg


# Scalar bounds checked at load: (key, low, high, ends), where ends "[)" reads
# low <= value < high. A NaN fails every row; an unset (None) optional value
# is skipped. Under the "swapped" convention the momentum row reads (and names)
# training.weight_decay and the weight-decay row training.momentum.
_BOUNDS = (
    ("numerics.bn_eps", 0, math.inf, "()"),
    ("numerics.bn_momentum", 0, 1, "[]"),
    ("training.steps", 1, math.inf, "[)"),
    ("training.epochs", 1, math.inf, "[)"),
    ("training.lr", 0, math.inf, "()"),
    ("training.momentum", 0, 1, "[)"),
    ("training.weight_decay", 0, math.inf, "[)"),
    ("training.seed", 0, math.inf, "[)"),
    ("synthetic.seed", 0, math.inf, "[)"),
    ("loss.w_cls", 0, math.inf, "[)"),
    ("loss.w_reg", 0, math.inf, "[)"),
    ("model.head_channels", 1, math.inf, "[)"),
    ("model.num_classes", 1, math.inf, "[)"),
    ("model.image_size", 0, math.inf, "()"),
    ("model.score_thr", 0, 1, "[)"),
    ("model.nms_iou", 0, 1, "[]"),
    ("neck.attn_scale", 0, math.inf, "()"),
)
_SWAPPED = {"training.momentum": "training.weight_decay",
            "training.weight_decay": "training.momentum"}
_CHOICES = (("numerics.dtype", ("float64", "float32")),
            ("training.optimizer_convention", ("standard", "swapped")),
            ("training.schedule", ("cosine", "constant")))


def _value(cfg: RunConfig, key: str):
    section, name = key.split(".")
    return getattr(getattr(cfg, section), name)


def validate_config(cfg: RunConfig):
    for key, allowed in _CHOICES:
        if _value(cfg, key) not in allowed:
            raise ConfigError(f"unknown {key} '{_value(cfg, key)}'")
    swapped = cfg.training.optimizer_convention == "swapped"
    for key, low, high, ends in _BOUNDS:
        key = _SWAPPED.get(key, key) if swapped else key
        value = _value(cfg, key)
        if value is None:
            continue
        above = low < value if ends[0] == "(" else low <= value
        below = value < high if ends[1] == ")" else value <= high
        if not (above and below):
            raise ConfigError(f"{key} must be in {ends[0]}{low}, {high}{ends[1]}, got {value}")
    widths = cfg.model.backbone_widths
    if len(widths) != 5 or not all(_fits(w, int) and w >= 1 for w in widths):
        raise ConfigError(f"model.backbone_widths must list five positive integer stage widths, "
                          f"got {list(widths)}")
    if cfg.model.image_size % 32:
        raise ConfigError("model.image_size must be divisible by 32")
    neck_config(cfg.model.image_size, cfg.model.backbone_widths, vars(cfg.neck))
    eval_config(cfg)


def eval_config(cfg: RunConfig) -> EvalConfig:
    return EvalConfig(max_dets=cfg.eval.max_dets)


def config_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["model"]["backbone_widths"] = list(out["model"]["backbone_widths"])
    return out


def optimizer_settings(cfg: TrainingSection) -> tuple[float, float]:
    """(momentum, weight_decay); the "swapped" convention exchanges the two."""
    if cfg.optimizer_convention == "swapped":
        return cfg.weight_decay, cfg.momentum
    return cfg.momentum, cfg.weight_decay
