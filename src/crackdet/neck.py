"""Multi-scale feature fusion with attention blocks at configurable points.

The neck runs a top-down pass (coarse levels upsampled and merged into finer
ones through CSP layers) followed by a bottom-up pass (fine levels downsampled
by stride-2 convs and merged back). Attention blocks can be installed at four
slots — on the coarsest input, after the first top-down CSP layer, and after
each bottom-up CSP layer — or as a single block on the final coarse output.
Placement changes parameter layout only, never output shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .attention import Attention4DConfig, Attention4DParams, attention4d_forward, init_attention4d
from .errors import ConfigError, ShapeError, check_choice, check_fields
from .numerics import BatchNorm, Tensor

PLACEMENT_SLOTS = {
    "top_down_only": ("td_c5", "td_c4"),
    "bottom_up_only": ("bu_c4", "bu_c5"),
    "single_at_end": ("end",),
    "both": ("td_c5", "td_c4", "bu_c4", "bu_c5"),
}


@dataclass
class PyramidFeatures:
    """Feature maps at strides 8, 16, 32 (p3 the largest)."""

    p3: Tensor
    p4: Tensor
    p5: Tensor

    def levels(self):
        return (self.p3, self.p4, self.p5)


@dataclass
class NeckSettings:
    """The neck's run settings, the config's ``neck`` section, with the run's
    defaults; checks every rule that needs no pyramid geometry. An unset
    (None) ``num_attention_blocks`` stays unset and means every slot of the
    placement, so ``dataclasses.replace`` with another placement counts that
    placement's slots."""

    out_channels: int = 96
    csp_depth: int = 1
    placement: str = "top_down_only"
    num_attention_blocks: int | None = None
    attn_heads: int = 2
    attn_key_dim: int = 16

    def __post_init__(self):
        check_fields("neck", self, (("num_attention_blocks", 1, 4, "[]"),
                                    ("attn_heads", 1, math.inf, "[)"),
                                    ("attn_key_dim", 1, math.inf, "[)"),
                                    ("out_channels", 1, math.inf, "[)"),
                                    ("csp_depth", 0, math.inf, "[)")))
        check_choice("neck.placement", self.placement, PLACEMENT_SLOTS)
        slots = PLACEMENT_SLOTS[self.placement]
        if self.num_attention_blocks is not None and self.num_attention_blocks > len(slots):
            raise ConfigError(f"placement '{self.placement}' offers {len(slots)} slots, "
                              f"got num_attention_blocks={self.num_attention_blocks}")
        if self.out_channels % 2:
            raise ConfigError(f"neck.out_channels must be even (CSP splits channels in half), "
                              f"got {self.out_channels}")

    def active_slots(self) -> tuple[str, ...]:
        return PLACEMENT_SLOTS[self.placement][:self.num_attention_blocks]


@dataclass(kw_only=True)
class NeckConfig(NeckSettings):
    """The settings plus the pyramid they apply to: the input channels and
    (H, W) of levels p3, p4, p5."""

    in_channels: tuple[int, int, int]
    spatial: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        super().__post_init__()
        for (ha, wa), (hb, wb) in zip(self.spatial, self.spatial[1:]):
            if ha != 2 * hb or wa != 2 * wb:
                raise ConfigError(f"pyramid spatial sizes must halve level to level, got {self.spatial}")
        _slot_configs(self)  # ConfigError unless heads*key_dim <= 8*channels at every slot


@dataclass
class ConvBNLayer(nm.Module):
    """1x1 or 3x3/s2 conv followed by batchnorm and SiLU."""

    w: Tensor
    bn: BatchNorm
    stride2: bool = False

    def __call__(self, x):
        return nm.conv_bn(x, self.w, self.bn, stride2=self.stride2, act=True)


def _conv_bn(rng, in_ch, out_ch, dtype, stride2=False):
    fan_in = in_ch * (9 if stride2 else 1)
    bound = 1.0 / np.sqrt(fan_in)
    shape = (out_ch, in_ch, 3, 3) if stride2 else (out_ch, in_ch)
    w = Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)
    return ConvBNLayer(w, BatchNorm(out_ch, dtype=dtype), stride2=stride2)


@dataclass
class CSPParams(nm.Module):
    """Split-transform-merge block: two half-width branches, one stacked with
    residual bottlenecks, concatenated and fused back to the output width."""

    a: ConvBNLayer
    b: ConvBNLayer
    bottleneck: list[ConvBNLayer]
    final: ConvBNLayer


def init_csp(rng, in_ch, out_ch, depth, dtype=np.float64) -> CSPParams:
    hidden = out_ch // 2
    return CSPParams(
        a=_conv_bn(rng, in_ch, hidden, dtype),
        b=_conv_bn(rng, in_ch, hidden, dtype),
        bottleneck=[_conv_bn(rng, hidden, hidden, dtype) for _ in range(depth)],
        final=_conv_bn(rng, 2 * hidden, out_ch, dtype),
    )


def csp_layer(x: Tensor, p: CSPParams) -> Tensor:
    if x.shape[1] != p.a.w.shape[1]:
        raise ShapeError(f"csp_layer: expected {p.a.w.shape[1]} channels, got {x.shape[1]}")
    a = p.a(x)
    b = p.b(x)
    for layer in p.bottleneck:
        b = nm.add(b, layer(b))
    return p.final(nm.concat([a, b], axis=1))


@dataclass
class NeckParams(nm.Module):
    attn: dict[str, Attention4DParams]
    csp_td4: CSPParams
    csp_td3: CSPParams
    csp_bu4: CSPParams
    csp_bu5: CSPParams
    down3: ConvBNLayer
    down4: ConvBNLayer

    prefix = "neck"


def _slot_configs(cfg: NeckConfig) -> dict[str, Attention4DConfig]:
    """Attention config of each active slot, sized to the feature it refines."""
    c3, c4, c5 = cfg.in_channels
    s3, s4, s5 = cfg.spatial
    oc = cfg.out_channels
    geometry = {"td_c5": (c5, s5), "td_c4": (c4, s4), "bu_c4": (oc, s4), "bu_c5": (oc, s5),
                "end": (oc, s5)}
    out = {}
    for slot in cfg.active_slots():
        try:
            out[slot] = Attention4DConfig(channels=geometry[slot][0], heads=cfg.attn_heads,
                                          key_dim=cfg.attn_key_dim, spatial=geometry[slot][1])
        except ShapeError as exc:
            raise ConfigError(f"neck.attn_heads * neck.attn_key_dim too large for attention "
                              f"slot '{slot}': {exc}") from exc
    return out


def init_neck(cfg: NeckConfig, rng: np.random.Generator, dtype=np.float64) -> NeckParams:
    c3, c4, c5 = cfg.in_channels
    oc = cfg.out_channels
    attn = {slot: init_attention4d(acfg, rng, dtype=dtype)
            for slot, acfg in _slot_configs(cfg).items()}
    return NeckParams(
        attn=attn,
        csp_td4=init_csp(rng, c5 + c4, c4, cfg.csp_depth, dtype),
        csp_td3=init_csp(rng, c4 + c3, oc, cfg.csp_depth, dtype),
        csp_bu4=init_csp(rng, oc + c4, oc, cfg.csp_depth, dtype),
        csp_bu5=init_csp(rng, oc + c5, oc, cfg.csp_depth, dtype),
        down3=_conv_bn(rng, oc, oc, dtype, stride2=True),
        down4=_conv_bn(rng, oc, oc, dtype, stride2=True),
    )


def neck_forward(c: PyramidFeatures, p: NeckParams) -> PyramidFeatures:
    """Fuse a 3-level pyramid; every output level carries neck.out_channels."""

    def refine(slot, x):
        return attention4d_forward(x, p.attn[slot]) if slot in p.attn else x

    a5 = refine("td_c5", c.p5)
    u4 = nm.concat([nm.upsample2x(a5), c.p4], axis=1)
    a4 = refine("td_c4", csp_layer(u4, p.csp_td4))
    u3 = nm.concat([nm.upsample2x(a4), c.p3], axis=1)
    q3 = csp_layer(u3, p.csp_td3)

    d4 = nm.concat([p.down3(q3), a4], axis=1)
    q4 = refine("bu_c4", csp_layer(d4, p.csp_bu4))
    d5 = nm.concat([p.down4(q4), a5], axis=1)
    q5 = refine("bu_c5", csp_layer(d5, p.csp_bu5))
    q5 = refine("end", q5)
    return PyramidFeatures(q3, q4, q5)


def parameter_count(cfg: NeckConfig) -> int:
    """Total trainable scalars of the neck under cfg."""
    params = init_neck(cfg, np.random.default_rng(0))
    return sum(t.data.size for _, t in params.params())


def describe_layout(cfg: NeckConfig) -> dict:
    """Block-by-block layout summary for the --dump-arch CLI output."""
    from .attention import attention4d_param_count

    blocks = [{"slot": slot, "channels": acfg.channels, "spatial": list(acfg.spatial),
               "parameters": attention4d_param_count(acfg)}
              for slot, acfg in _slot_configs(cfg).items()]
    return {
        "placement": cfg.placement,
        "num_attention_blocks": len(cfg.active_slots()),
        "attention_blocks": blocks,
        "total_parameters": parameter_count(cfg),
    }
