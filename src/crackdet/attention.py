"""Multi-head attention over the spatial tokens of a 4D feature map.

The block projects the map to query/key/value with 1x1 conv + batchnorm,
scores every (query token, key token) pair per head, adds a learned positional
bias, mixes the head axis before and after the softmax ("talking heads"),
re-projects with a second 1x1 conv + batchnorm, and adds the input back.
Values are as wide as keys, and logits are scaled by key_dim^-1/2. The
output projection starts at zero, so a fresh block is exactly the identity
map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ShapeError
from .numerics import BatchNorm, Tensor


@dataclass(kw_only=True)
class Attention4DConfig:
    channels: int
    heads: int
    key_dim: int
    spatial: tuple[int, int]

    def __post_init__(self):
        if self.heads * self.key_dim > 8 * self.channels:
            raise ShapeError(
                f"heads*key_dim = {self.heads * self.key_dim} exceeds 8*channels = {8 * self.channels}")


@dataclass
class Attention4DParams(nm.Module):
    cfg: Attention4DConfig
    w_q: Tensor
    bn_q: BatchNorm
    w_k: Tensor
    bn_k: BatchNorm
    w_v: Tensor
    bn_v: BatchNorm
    pos_bias: Tensor
    t_pre: Tensor
    t_post: Tensor
    w_out: Tensor
    bn_out: BatchNorm

    prefix = "attn"


def init_attention4d(cfg: Attention4DConfig, rng: np.random.Generator,
                     dtype=np.float64) -> Attention4DParams:
    """Fresh parameters: fan-in uniform projections, zero positional bias,
    identity head mixing. The output batchnorm scale starts at zero, so the
    block is exactly the identity map at initialization
    (and, unlike a zero weight matrix, the zero scale keeps the output
    batchnorm away from its degenerate zero-variance point)."""
    c, h, d = cfg.channels, cfg.heads, cfg.key_dim
    bound = 1.0 / math.sqrt(c)

    def uniform(rows, cols):
        return Tensor(rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype),
                      requires_grad=True)

    hw = cfg.spatial[0] * cfg.spatial[1]
    bn_out = BatchNorm(c, dtype=dtype)
    bn_out.gamma.data[...] = 0.0
    return Attention4DParams(
        cfg=cfg,
        w_q=uniform(h * d, c),
        bn_q=BatchNorm(h * d, dtype=dtype),
        w_k=uniform(h * d, c),
        bn_k=BatchNorm(h * d, dtype=dtype),
        w_v=uniform(h * d, c),
        bn_v=BatchNorm(h * d, dtype=dtype),
        pos_bias=Tensor(np.zeros((h, hw, hw), dtype=dtype), requires_grad=True),
        t_pre=Tensor(np.eye(h, dtype=dtype), requires_grad=True),
        t_post=Tensor(np.eye(h, dtype=dtype), requires_grad=True),
        w_out=uniform(c, h * d),
        bn_out=bn_out,
    )


def attention4d_forward(x: Tensor, p: Attention4DParams, return_attn=False):
    """Refine a (B, C, H, W) feature map; output keeps the same shape.

    Set ``return_attn`` to also get the post-mixing attention weights
    (B, heads, H*W, H*W) for inspection.
    """
    cfg = p.cfg
    b, c, hh, ww = x.shape
    if (hh, ww) != tuple(cfg.spatial):
        raise ShapeError(f"attention4d: expected spatial size {tuple(cfg.spatial)}, got {(hh, ww)}")
    if c != cfg.channels:
        raise ShapeError(f"attention4d: expected {cfg.channels} channels, got {c}")
    h, d = cfg.heads, cfg.key_dim
    hw = hh * ww

    q = nm.reshape(nm.conv_bn(x, p.w_q, p.bn_q), (b, h, d, hw))
    k = nm.reshape(nm.conv_bn(x, p.w_k, p.bn_k), (b, h, d, hw))
    v = nm.reshape(nm.conv_bn(x, p.w_v, p.bn_v), (b, h, d, hw))

    logits = nm.mul(nm.matmul_tokens(nm.transpose(q, (0, 1, 3, 2)), k), 1.0 / math.sqrt(d))
    logits = nm.add_posbias(logits, p.pos_bias)
    # talking heads: a 1x1 conv with the heads as the channel axis
    attn = nm.softmax_lastdim(nm.conv1x1(logits, p.t_pre))
    attn = nm.conv1x1(attn, p.t_post)

    tokens = nm.matmul_tokens(v, nm.transpose(attn, (0, 1, 3, 2)))
    y = nm.reshape(tokens, (b, h * d, hh, ww))
    out = nm.add(x, nm.conv_bn(y, p.w_out, p.bn_out))
    if return_attn:
        return out, attn
    return out


def attention4d_param_count(cfg: Attention4DConfig) -> int:
    """Trainable scalar count as a closed form of (C, h, d, H, W)."""
    c, h, d = cfg.channels, cfg.heads, cfg.key_dim
    hw = cfg.spatial[0] * cfg.spatial[1]
    projections = 4 * h * d * c  # q, k and v in, the output back
    bn = 2 * (3 * h * d + c)
    return projections + bn + h * hw * hw + 2 * h * h
