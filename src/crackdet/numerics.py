"""Minimal dense-array autodiff engine.

Tensors wrap numpy arrays and record the ops applied to them; calling
``backward()`` on a scalar result replays the recorded graph in reverse and
accumulates gradients additively into every tensor created with
``requires_grad=True``. Shapes are strict: elementwise ops accept equal shapes
or a python scalar, nothing else broadcasts. All parameterized layers
(conv1x1, conv3x3s2, batchnorm, the fused conv_bn, positional bias) spell
out their own backward rules instead.

The default dtype is float64; float32 can be requested per tensor for speed.
A gradient always takes the dtype of the tensor it flows into, so a float64
loss term does not turn a float32 network's backward into float64.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ShapeError


class _Mode(threading.local):
    """Per-thread engine flags, so independent graphs can run concurrently."""

    def __init__(self):
        self.grad_enabled = True
        self.training = True
        self.bn_stats_enabled = True
        self.check_finite = False


_mode = _Mode()


@contextlib.contextmanager
def _set_mode(flag, value):
    """Set one engine flag inside the block, restoring it on exit (also on a raise)."""
    prev = getattr(_mode, flag)
    setattr(_mode, flag, value)
    try:
        yield
    finally:
        setattr(_mode, flag, prev)


def no_grad():
    """Disable graph recording inside the block."""
    return _set_mode("grad_enabled", False)


def eval_mode():
    """Batchnorm normalizes with (and leaves alone) its running stats inside the block."""
    return _set_mode("training", False)


def frozen_bn_stats():
    """Suspend running-statistic updates so repeated evals are side-effect free."""
    return _set_mode("bn_stats_enabled", False)


def finite_checks():
    """Validate every op output for NaN/inf, raising NumericsError naming the op."""
    return _set_mode("check_finite", True)


class Tensor:
    """A dense array plus an optional gradient and the op that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.requires_grad = requires_grad
        self.op = op
        self._parents = parents
        self._backward = backward
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse pass from a scalar; gradients accumulate into .grad fields."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if g.dtype != node.data.dtype:  # a float64 loss term must not upcast a float32 net
                g = g.astype(node.data.dtype)
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.array(g)  # a copy: g may be shared with other nodes
                else:
                    node.grad += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    grads[id(parent)] = pg

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def as_tensor(x, like=None):
    """Wrap a constant; tensors pass through untouched."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data, op, parents, backward):
    if _mode.check_finite and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite output in op '{op}'")
    if _mode.grad_enabled and any(p.requires_grad or p._parents for p in parents):
        return Tensor(data, op=op, parents=parents, backward=backward)
    return Tensor(data, op=op)


def _needs_grad(t):
    """Whether a gradient reaching ``t`` goes anywhere: it is a leaf that
    requires grad or the output of a recorded op."""
    return t.requires_grad or bool(t._parents)


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _is_scalar(x):
    return not isinstance(x, Tensor) and np.ndim(x) == 0


# -- elementwise ---------------------------------------------------------


def add(a, b):
    if _is_scalar(b):
        a = as_tensor(a)
        return _make(a.data + b, "add_const", (a,), lambda g: (g,))
    if _is_scalar(a):
        return add(b, a)
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "add")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a, b):
    if _is_scalar(b):
        return add(a, -b)
    if _is_scalar(a):
        return add(neg(b), a)
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "sub")
    return _make(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def neg(a):
    a = as_tensor(a)
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def mul(a, b):
    if _is_scalar(b):
        a = as_tensor(a)
        return _make(a.data * b, "mul_const", (a,), lambda g: (g * b,))
    if _is_scalar(a):
        return mul(b, a)
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "mul")
    return _make(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def _sigmoid_np(x):
    """Logistic on a raw array as 0.5 * (1 + tanh(x / 2)): one transcendental
    ufunc, and no overflow at any x (tanh saturates to +-1)."""
    s = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(a):
    a = as_tensor(a)
    out = _sigmoid_np(a.data)
    return _make(out, "sigmoid", (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    """log(1 + exp(x)), computed stably; derivative is sigmoid(x)."""
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)
    return _make(out, "softplus", (a,), lambda g: (g * _sigmoid_np(a.data),))


def silu(a):
    """x * sigmoid(x) — smooth everywhere, so finite differences stay honest."""
    a = as_tensor(a)
    s = _sigmoid_np(a.data)
    return _make(a.data * s, "silu", (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))


# -- reductions and reshaping --------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)

    def backward(g):
        if axis is None:
            return (np.full_like(a.data, 1.0) * g,)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), "sum", (a,), backward)


def reshape(a, shape):
    a = as_tensor(a)
    return _make(a.data.reshape(shape), "reshape", (a,),
                 lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    a = as_tensor(a)
    inv = np.argsort(axes)
    return _make(a.data.transpose(axes), "transpose", (a,),
                 lambda g: (g.transpose(inv),))


def concat(parts, axis):
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return _make(np.concatenate([p.data for p in parts], axis=axis), "concat",
                 tuple(parts), backward)


def take(a, indices, axis=0):
    """Gather slices along an axis; backward scatter-adds (indices may repeat)."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (slice(None),) * axis + (indices,), g)
        return (ga,)

    return _make(np.take(a.data, indices, axis=axis), "take", (a,), backward)


# -- contractions ---------------------------------------------------------


def matmul_tokens(a, b):
    """Batched matrix product: (..., m, k) @ (..., k, n) with equal leading dims."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul_tokens: operands must have rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul_tokens: inner dims {a.data.shape} vs {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul_tokens: leading dims {a.data.shape} vs {b.data.shape}")

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return (ga, gb)

    return _make(a.data @ b.data, "matmul_tokens", (a, b), backward)


def conv1x1(x, w, b=None):
    """Pointwise conv: x (B,Ci,H,W), w (Co,Ci), optional bias (Co,) -> (B,Co,H,W).

    One matmul over the (B, Ci, H*W) view. Outside ``conv_bn`` this is the
    engine's one channel mix: the head's biased convs and the talking-heads
    mix over the head axis run through it.
    """
    x, w = as_tensor(x), as_tensor(w)
    out = _conv_forward(x.data, w.data, stride2=False)
    Co = w.data.shape[0]
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.data.shape != (Co,):
            raise ShapeError(f"conv1x1: bias shape {b.data.shape} != ({Co},)")
        out = out + b.data[:, None, None]
        parents = (x, w, b)

    def backward(g):
        gx, gw = _conv_backward(g, x.data, w.data, _needs_grad(x))
        return (gx, gw) if b is None else (gx, gw, g.sum(axis=(0, 2, 3)))

    return _make(out, "conv1x1", parents, backward)


def _im2col3x3s2(x):
    """(B, Ci*9, Ho*Wo) patches of x zero-padded by one; row i*9 + 3*dy + dx
    holds xpad[b, i, 2y+dy, 2x+dx] at column y*Wo + x. The padding is never
    materialised: tap dy reads input row 2y+dy-1, which is off the top edge
    only for dy = 0, y = 0 (and likewise for dx)."""
    B, Ci, H, W = x.shape
    Ho, Wo = H // 2, W // 2
    cols = np.empty((B, Ci, 3, 3, Ho, Wo), dtype=x.dtype)
    cols[:, :, 0, :, 0, :] = 0.0
    cols[:, :, :, 0, :, 0] = 0.0
    for dy in range(3):
        for dx in range(3):
            cols[:, :, dy, dx, dy == 0:, dx == 0:] = \
                x[:, :, dy != 1:H - (dy == 0):2, dx != 1:W - (dx == 0):2]
    return cols.reshape(B, Ci * 9, Ho * Wo)


def _conv_forward(x, w, stride2):
    """Raw-array forward of conv3x3s2 (``stride2``) or conv1x1: x (B,Ci,H,W)
    by w (Co,Ci,3,3) or (Co,Ci) -> (B,Co,Ho,Wo), one matmul either way."""
    op = "conv3x3s2" if stride2 else "conv1x1"
    if x.ndim != 4:
        raise ShapeError(f"{op}: input must be 4-D, got {x.shape}")
    B, Ci, H, W = x.shape
    if w.ndim != (4 if stride2 else 2) or w.shape[1:] != ((Ci, 3, 3) if stride2 else (Ci,)):
        raise ShapeError(f"{op}: weight {w.shape} incompatible with input {x.shape}")
    Co = w.shape[0]
    if not stride2:
        return (w @ x.reshape(B, Ci, H * W)).reshape(B, Co, H, W)
    if H % 2 or W % 2:
        raise ShapeError(f"conv3x3s2: spatial size {(H, W)} must be even")
    Ho, Wo = H // 2, W // 2
    return (w.reshape(Co, Ci * 9) @ _im2col3x3s2(x)).reshape(B, Co, Ho, Wo)


# The taps with dy, dx in {1, 2} each read whole even or odd rows and columns,
# so together they cover every input pixel once: they assign, the others add.
_COL2IM_TAPS = ((1, 1), (1, 2), (2, 1), (2, 2), (0, 0), (0, 1), (0, 2), (1, 0), (2, 0))


def _conv_backward(g, x, w, need_gx=True):
    """Raw-array backward of ``_conv_forward``: (gx, gw) for the output
    gradient g (B,Co,Ho,Wo), stride 2 when w is (Co,Ci,3,3); gx is None
    unless ``need_gx``.

    The weight gradient is one batched matmul against the input matrix (the
    (B, Ci, H*W) view, or the im2col patches rebuilt here: keeping the
    forward's measured no faster and held ~8 MB more at a train step's peak),
    summed over the batch. The input gradient is one (Ci*9, Co) @ (Co, Ho*Wo)
    matmul and a col2im: nine strided writes over the slices ``_im2col3x3s2``
    reads, into an unpadded, unzeroed buffer.
    """
    B, Ci, H, W = x.shape
    Co = w.shape[0]
    stride2 = w.ndim == 4
    gf = g.reshape(B, Co, -1)
    cols = _im2col3x3s2(x) if stride2 else x.reshape(B, Ci, H * W)
    gw = (gf @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    if not need_gx:
        return None, gw
    gcols = w.reshape(Co, -1).T @ gf
    if not stride2:
        return gcols.reshape(x.shape), gw
    gcols = gcols.reshape(B, Ci, 3, 3, H // 2, W // 2)
    gx = np.empty_like(x)
    for dy, dx in _COL2IM_TAPS:
        dst = gx[:, :, dy != 1:H - (dy == 0):2, dx != 1:W - (dx == 0):2]
        src = gcols[:, :, dy, dx, dy == 0:, dx == 0:]
        if dy and dx:
            dst[...] = src
        else:
            dst += src
    return gx, gw


def conv3x3s2(x, w):
    """3x3 conv, stride 2, pad 1: x (B,Ci,H,W) even H,W; w (Co,Ci,3,3) -> (B,Co,H/2,W/2).

    A matmul over im2col patches. The patches are rebuilt in the backward
    rather than kept, so none outlives the op.
    """
    x, w = as_tensor(x), as_tensor(w)
    out = _conv_forward(x.data, w.data, stride2=True)
    return _make(out, "conv3x3s2", (x, w),
                 lambda g: _conv_backward(g, x.data, w.data, _needs_grad(x)))


def upsample2x(x):
    """Nearest-neighbor doubling of H and W."""
    x = as_tensor(x)

    def backward(g):
        B, C, H2, W2 = g.shape
        return (g.reshape(B, C, H2 // 2, 2, W2 // 2, 2).sum(axis=(3, 5)),)

    return _make(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), "upsample2x", (x,), backward)


def avgpool2x2(x):
    """2x2 stride-2 average pooling; requires even spatial size."""
    x = as_tensor(x)
    B, C, H, W = x.data.shape
    if H % 2 or W % 2:
        raise ShapeError(f"avgpool2x2: spatial size {(H, W)} must be even")
    out = x.data.reshape(B, C, H // 2, 2, W // 2, 2).mean(axis=(3, 5))

    def backward(g):
        return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25,)

    return _make(out, "avgpool2x2", (x,), backward)


def softmax_lastdim(x):
    """Row softmax along the last axis, stabilized by max subtraction."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _make(out, "softmax_lastdim", (x,), backward)


def add_posbias(x, bias):
    """Add a per-head (h,i,j) bias to logits (b,h,i,j)."""
    x, bias = as_tensor(x), as_tensor(bias)
    if x.data.shape[1:] != bias.data.shape:
        raise ShapeError(f"add_posbias: bias {bias.data.shape} vs logits {x.data.shape}")
    return _make(x.data + bias.data[None], "add_posbias", (x, bias),
                 lambda g: (g, g.sum(axis=0)))


# -- batch normalization ---------------------------------------------------


def batchnorm(x, gamma, beta, state, eps, momentum):
    """Per-channel normalization of (B,C,H,W) over the (B,H,W) slice.

    Train mode normalizes with batch statistics and nudges ``state`` (running
    mean/var) by an exponential moving average; ``eval_mode()`` normalizes with
    the stored running statistics. Differentiable w.r.t. x, gamma, beta.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    B, C, H, W = x.data.shape
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(f"batchnorm: gamma/beta must be ({C},)")
    if eps <= 0:
        raise ShapeError("batchnorm: eps must be > 0")
    n = B * H * W
    if n == 0:
        raise ShapeError("batchnorm: channel slices are empty")
    training = _mode.training
    if training:
        m = x.data.mean(axis=(0, 2, 3))
        v = x.data.var(axis=(0, 2, 3))
        if _mode.bn_stats_enabled:
            unbiased = v * (n / max(1, n - 1))
            state.mean += momentum * (m - state.mean)
            state.var += momentum * (unbiased - state.var)
    else:
        m, v = state.mean, state.var
    istd = 1.0 / np.sqrt(v + eps)
    xhat = (x.data - m[None, :, None, None]) * istd[None, :, None, None]
    out = xhat * gamma.data[None, :, None, None] + beta.data[None, :, None, None]

    def backward(g):
        gbeta = g.sum(axis=(0, 2, 3))
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gxhat = g * gamma.data[None, :, None, None]
        if training:
            gx = (istd[None, :, None, None] / n) * (
                n * gxhat
                - gxhat.sum(axis=(0, 2, 3))[None, :, None, None]
                - xhat * (gxhat * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
            )
        else:
            gx = gxhat * istd[None, :, None, None]
        return (gx, ggamma, gbeta)

    return _make(out, "batchnorm", (x, gamma, beta), backward)


def _conv_bn_train(x, w, bn, stride2, act):
    """``conv_bn`` as one graph node with parents (x, w, gamma, beta).

    Forward: the conv matmul, the batchnorm with batch statistics in train
    mode (nudging ``bn.state`` as ``batchnorm`` does: same momentum, unbiased
    variance, ``frozen_bn_stats()``) or the running statistics in eval mode,
    then SiLU. The backward takes the SiLU derivative from the saved sigmoid
    and output, then gbeta, ggamma and the conv-output gradient from the
    saved ``xhat``, using sum(gxhat) = gamma*gbeta and sum(gxhat*xhat) =
    gamma*ggamma (Ioffe & Szegedy 2015), then ``_conv_backward``.
    """
    z = _conv_forward(x.data, w.data, stride2)
    B, Co, Ho, Wo = z.shape
    gamma, beta, state = bn.gamma, bn.beta, bn.state
    if gamma.data.shape != (Co,) or beta.data.shape != (Co,):
        raise ShapeError(f"batchnorm: gamma/beta must be ({Co},)")
    if bn.eps <= 0:
        raise ShapeError("batchnorm: eps must be > 0")
    n = B * Ho * Wo
    if n == 0:
        raise ShapeError("batchnorm: channel slices are empty")
    training = _mode.training
    xhat = z.reshape(B, Co, Ho * Wo)  # normalized in place
    if training:
        m = xhat.mean(axis=(0, 2))
        xhat -= m[:, None]
        v = np.square(xhat).mean(axis=(0, 2))
        if _mode.bn_stats_enabled:
            state.mean += bn.momentum * (m - state.mean)
            state.var += bn.momentum * (v * (n / max(1, n - 1)) - state.var)
    else:
        v = state.var
        xhat -= state.mean[:, None]
    istd = 1.0 / np.sqrt(v + bn.eps)
    xhat *= istd[:, None]
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]
    if act:
        s = _sigmoid_np(out)
        out *= s

    def backward(g):
        gy = g.reshape(B, Co, Ho * Wo)
        if act:  # silu'(y) = s + silu(y) * (1 - s)
            gy = np.subtract(1.0, s)
            gy *= out
            gy += s
            gy *= g.reshape(B, Co, Ho * Wo)
        gbeta = gy.sum(axis=(0, 2))
        gz = gy * xhat
        ggamma = gz.sum(axis=(0, 2))
        k = (gamma.data * istd)[:, None]
        if training:  # gz = k * (gy - gbeta / n - xhat * ggamma / n)
            np.multiply(xhat, (-ggamma / n)[:, None], out=gz)
            gz += gy
            gz -= (gbeta / n)[:, None]
            gz *= k
        else:
            np.multiply(gy, k, out=gz)
        gx, gw = _conv_backward(gz, x.data, w.data, _needs_grad(x))
        return gx, gw, ggamma, gbeta

    return _make(out.reshape(B, Co, Ho, Wo), "conv_bn", (x, w, gamma, beta), backward)


def conv_bn(x, w, bn, stride2=False, act=False):
    """conv3x3s2 (``stride2``) or conv1x1 by ``w``, then the BatchNorm ``bn``,
    then SiLU when ``act`` is set.

    Under ``no_grad()`` in eval mode the batchnorm is a fixed per-channel
    affine map, so it is folded into the conv on every call (nothing is
    cached, so loaded or updated parameters take effect at once):
    ``scale = gamma / sqrt(var + eps)``, ``w' = w * scale`` and
    ``b' = beta - mean * scale``. The chain is then one matmul, an in-place
    bias and SiLU, and one 'conv_bn' tensor with no backward. Otherwise
    (training, or grad on) it is one 'conv_bn' node with a hand-written
    backward, ``_conv_bn_train``.
    """
    if _mode.training or _mode.grad_enabled:
        return _conv_bn_train(as_tensor(x), as_tensor(w), bn, stride2, act)
    if bn.eps <= 0:
        raise ShapeError("batchnorm: eps must be > 0")
    w = as_tensor(w).data
    scale = bn.gamma.data / np.sqrt(bn.state.var + bn.eps)
    if scale.shape != w.shape[:1]:
        raise ShapeError(f"conv_bn: batchnorm of {scale.shape[0]} channels after weight {w.shape}")
    y = _conv_forward(as_tensor(x).data, w * scale.reshape((-1,) + (1,) * (w.ndim - 1)), stride2)
    y += (bn.beta.data - bn.state.mean * scale)[:, None, None]
    if act:
        y *= _sigmoid_np(y)
    return _make(y, "conv_bn", (), None)


@dataclass
class BNState:
    """Running statistics for one batchnorm layer (not trainable)."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, channels, dtype=np.float64):
        return cls(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))


class BatchNorm:
    """Parameter bundle (gamma, beta, running stats) for one normalized layer."""

    eps, momentum = 1e-5, 0.1  # library defaults; detector_from_config sets the run's

    def __init__(self, channels, dtype=np.float64):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.state = BNState.fresh(channels, dtype)

    def __call__(self, x):
        return batchnorm(x, self.gamma, self.beta, self.state, self.eps, self.momentum)

    def params(self, prefix):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def states(self, prefix):
        yield f"{prefix}.running_mean", self.state.mean
        yield f"{prefix}.running_var", self.state.var


class Module:
    """A parameter tree: each subclass lists its ``children()`` once, as
    ``(suffix, Tensor | BatchNorm | Module | None)`` pairs, and every walk
    derives from that list, skipping absent (None) children. ``prefix`` names
    the root when no prefix is passed."""

    prefix = ""

    def children(self):
        raise NotImplementedError

    def _named(self, prefix):
        prefix = self.prefix if prefix is None else prefix
        for suffix, child in self.children():
            if child is not None:
                yield (f"{prefix}.{suffix}" if prefix else suffix), child

    def params(self, prefix=None):
        """(name, Tensor) for every trainable tensor, in children order."""
        for name, child in self._named(prefix):
            if isinstance(child, Tensor):
                yield name, child
            else:
                yield from child.params(name)

    def states(self, prefix=None):
        """(name, array) for every batchnorm running statistic."""
        for name, child in self._named(prefix):
            if not isinstance(child, Tensor):
                yield from child.states(name)

    def batchnorms(self):
        """Every BatchNorm layer, in children order."""
        for _, child in self.children():
            if isinstance(child, BatchNorm):
                yield child
            elif isinstance(child, Module):
                yield from child.batchnorms()


# -- gradient checking ------------------------------------------------------


def finite_diff_check(f, params, h=1e-5, max_coords=None, rng=None):
    """Compare analytic gradients of the scalar ``f()`` against central differences.

    ``params`` is a sequence of tensors that f closes over. Returns
    the max over checked coordinates of |analytic - numeric| / max(1, |analytic|).
    With ``max_coords`` set, a seeded subset of coordinates across all parameters
    is checked instead of every scalar (mandatory for big composites; fresh
    draws per call spread coverage across repeated checks). Running BN stats
    are frozen throughout so f is evaluated as a pure function. Any non-finite
    intermediate raises NumericsError naming the offending op.
    """
    tensors = list(params)
    with frozen_bn_stats():
        for t in tensors:
            t.zero_grad()
        with finite_checks():
            out = f()
        if not isinstance(out, Tensor):
            raise NumericsError("finite_diff_check: f must return a Tensor scalar")
        out.backward()
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

        coords = [(pi, ci) for pi, t in enumerate(tensors) for ci in range(t.data.size)]
        if max_coords is not None and len(coords) > max_coords:
            rng = rng or np.random.default_rng(0)
            picks = rng.choice(len(coords), size=max_coords, replace=False)
            coords = [coords[i] for i in sorted(picks)]

        def eval_scalar():
            with no_grad():
                val = float(f().data)
            if not np.isfinite(val):
                with finite_checks(), no_grad():
                    f()
                raise NumericsError("non-finite value of f during finite differencing")
            return val

        max_err = 0.0
        for pi, ci in coords:
            flat = tensors[pi].data.reshape(-1)
            orig = flat[ci]
            flat[ci] = orig + h
            fp = eval_scalar()
            flat[ci] = orig - h
            fm = eval_scalar()
            flat[ci] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[pi].reshape(-1)[ci]
            max_err = max(max_err, abs(a - numeric) / max(1.0, abs(a)))
    return max_err
