"""Run configuration: one nested structure holding every tunable default.

A config loads from a single JSON file; unknown keys are rejected with their
full path named, and individual values can be overridden from the command line
with ``--set section.key=value``. The effective config is echoed into every
output artifact for provenance.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError

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
class AssignmentSection:
    lambda_cls: float = 1.0
    lambda_loc: float = 3.0
    lambda_center: float = 1.0
    center_cost_mode: str = "soft_center_prior"
    eta: float = 1.0
    epsilon: float = 1e-7
    alpha: float = 10.0
    beta: float = 3.0
    dynamic_k_cap: int = 10
    iou_floor: float = 1e-7
    prob_clamp: float = 1e-7


@dataclass
class LossSection:
    w_cls: float = 1.0
    w_reg: float = 2.0


@dataclass
class EvalSection:
    max_dets: int = 100


@dataclass
class SyntheticSection:
    num_images: int = 200
    image_size: int = 64
    num_classes: int = 3
    min_shapes: int = 2
    max_shapes: int = 4
    seed: int = 0


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
    assignment: AssignmentSection = field(default_factory=AssignmentSection)
    loss: LossSection = field(default_factory=LossSection)
    eval: EvalSection = field(default_factory=EvalSection)
    synthetic: SyntheticSection = field(default_factory=SyntheticSection)
    training: TrainingSection = field(default_factory=TrainingSection)


def _apply(section, values: dict, path: str):
    valid = {f.name: f for f in fields(section)}
    for key, value in values.items():
        if key not in valid:
            raise ConfigError(f"unknown config key '{path}.{key}'")
        current = getattr(section, key)
        if isinstance(current, tuple) and isinstance(value, list):
            value = tuple(value)
        setattr(section, key, value)


def load_config(path=None, overrides=()) -> RunConfig:
    """Defaults, then the JSON file, then --set overrides, strictly validated."""
    cfg = RunConfig()
    if path is not None:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        section_names = {f.name for f in fields(cfg)}
        for name, values in raw.items():
            if name not in section_names:
                raise ConfigError(f"unknown config section '{name}'")
            if not isinstance(values, dict):
                raise ConfigError(f"config section '{name}' must be an object")
            _apply(getattr(cfg, name), values, name)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form section.key=value")
        dotted, raw_value = item.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key '{dotted}' is not of the form section.key")
        section_name, key = parts
        if section_name not in {f.name for f in fields(cfg)}:
            raise ConfigError(f"unknown config section '{section_name}'")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        _apply(getattr(cfg, section_name), {key: value}, section_name)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    if cfg.numerics.dtype not in ("float64", "float32"):
        raise ConfigError(f"unknown dtype '{cfg.numerics.dtype}'")
    if cfg.training.optimizer_convention not in ("standard", "swapped"):
        raise ConfigError(f"unknown optimizer_convention '{cfg.training.optimizer_convention}'")
    if cfg.training.schedule not in ("cosine", "constant"):
        raise ConfigError(f"unknown schedule '{cfg.training.schedule}'")
    if len(cfg.model.backbone_widths) != 5:
        raise ConfigError("backbone_widths must list five stage widths")
    if cfg.model.image_size % 32:
        raise ConfigError("model.image_size must be divisible by 32")


def config_dict(cfg: RunConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["model"]["backbone_widths"] = list(out["model"]["backbone_widths"])
    return out


def optimizer_settings(cfg: TrainingSection) -> tuple[float, float]:
    """(momentum, weight_decay); the "swapped" convention exchanges the two."""
    if cfg.optimizer_convention == "swapped":
        return cfg.weight_decay, cfg.momentum
    return cfg.momentum, cfg.weight_decay
