"""Minimal dense-array autodiff engine.

Tensors wrap numpy arrays and record the ops applied to them; calling
``backward()`` on a scalar result replays the recorded graph in reverse and
accumulates gradients additively into every tensor created with
``requires_grad=True``. Every op is a function of this module (``add``,
``mul``, ``reshape``, ``conv_bn``, ``batchnorm(x, bn)``, ...); ``Tensor``
has no arithmetic operators or shape methods. Shapes are strict: elementwise
ops take equal shapes, ``mul`` also a python scalar as its second operand,
and nothing broadcasts. All parameterized layers
(conv1x1, conv3x3s2, the fused conv_bn, positional bias) spell out their own
backward rules instead; the convs share one raw-array forward and backward.
``batchnorm`` is ``conv_bn`` with an identity 1x1 weight, and SiLU runs
only inside ``conv_bn`` (``act``): neither records a node of its own.

Activations are (B, C, H, W) arrays. The convs' weight gradient is one 2-D
GEMM against a channel-major input matrix with one column per output pixel
of the whole batch: for conv3x3s2 the (Ci*9, B*Ho*Wo) im2col patches,
released as soon as the weight gradient is formed. Its forward and its
input gradient build their patches, or patch gradients, for one group of
consecutive images at a time (one (Co, Ci*9) block product per image,
landing in (B, Co, Ho*Wo) order; one (Ci*9, Co) GEMM and a col2im per
group). Batchnorm's per-channel sums over the batch and the pixels are
matvecs by a ones vector and row dot products, never ``sum(axis=(0, 2))``
over an elementwise product.

Engine flags are per thread: ``in_two_threads`` hands a copy of the caller's
to the new thread of its second call, and ``folds_bn`` is conv_bn's fold test.

The default dtype is float64; float32 can be requested per tensor for speed.
A gradient always takes the dtype of the tensor it flows into, so a float64
loss term does not turn a float32 network's backward into float64.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading

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


def folds_bn():
    """Whether ``conv_bn`` folds its batchnorm: eval mode under ``no_grad()``."""
    return not (_mode.training or _mode.grad_enabled)


def in_two_threads(fn, first, second):
    """``(fn(first), fn(second))``, the second call on a new thread with a copy
    of this thread's engine flags; either error is raised once both are done."""
    flags, out = dict(vars(_mode)), {}

    def run():
        vars(_mode).update(flags)
        try:
            out["result"] = fn(second)
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    try:
        here = fn(first)
    finally:
        thread.join()
    if "error" in out:
        raise out["error"]
    return here, out["result"]


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
        """Reverse pass from a scalar; gradients accumulate into .grad fields.

        The walk releases the graph as it goes: each node drops its backward
        closure and parents once it has passed its gradient on, freeing the
        arrays the closure saved. ``data`` and the leaves' ``grad`` stay; a
        second backward() through a released node raises NumericsError.

        A closure returns, per parent, g, a view of g, or an array it
        allocated for that parent alone (sharing no memory with g), which
        the walk then owns. The walk adds in place, or hands over as a
        leaf's ``grad``, only arrays it owns; a borrowed one is copied first.
        """
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
            if node._backward is _released:
                raise NumericsError(f"backward() through op '{node.op}', whose graph an "
                                    f"earlier backward() released")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        owned = {id(self)}
        while topo:
            node = topo.pop()  # children first; the list drops each node as it goes
            g = grads.pop(id(node), None)
            mine = id(node) in owned
            backward, parents = node._backward, node._parents
            if backward is not None:
                node._backward, node._parents = _released, ()
            if g is None:
                continue
            if g.dtype != node.data.dtype:  # a float64 loss term must not upcast a float32 net
                g, mine = g.astype(node.data.dtype), True
            if node.requires_grad:
                if node.grad is None:
                    node.grad = g if mine else np.array(g)
                else:
                    node.grad += g
            if backward is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key not in grads:
                    grads[key] = pg
                    if not np.may_share_memory(pg, g):
                        owned.add(key)
                elif key in owned:
                    grads[key] += pg
                else:
                    grads[key] = np.add(grads[key], pg, out=np.empty_like(grads[key]))
                    owned.add(key)


def as_tensor(x, like=None):
    """Wrap a constant in ``like``'s dtype, else keeping a floating array's
    dtype (anything else becomes float64); tensors pass through untouched."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=None if like is None else like.data.dtype))


def _released(g):
    """The backward of a node after a backward() walk released its graph."""
    raise NumericsError("backward() through a graph an earlier backward() released")


def _make(data, op, parents, backward):
    if _mode.check_finite and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite output in op '{op}'")
    if _mode.grad_enabled and any(_needs_grad(p) for p in parents):
        return Tensor(data, op=op, parents=parents, backward=backward)
    return Tensor(data, op=op)


def _needs_grad(t):
    """Whether a gradient reaching ``t`` goes anywhere: it is a leaf that
    requires grad or the output of a recorded op (released ones included, so
    that a backward through them raises rather than passing nothing)."""
    return t.requires_grad or t._backward is not None


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# -- elementwise ---------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "add")
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _same_shape(a, b, "sub")
    return _make(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a, b):
    """a * b, where b is a tensor of a's shape or a python scalar."""
    if not isinstance(b, Tensor) and np.ndim(b) == 0:
        a = as_tensor(a)
        return _make(a.data * b, "mul_const", (a,), lambda g: (g * b,))
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


# -- reductions and reshaping --------------------------------------------


def tsum(a):
    """The sum of every entry, as a 0-d tensor."""
    a = as_tensor(a)
    return _make(a.data.sum(), "sum", (a,), lambda g: (np.full_like(a.data, 1.0) * g,))


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


def take(a, indices):
    """Gather rows (slices along axis 0); backward scatter-adds (indices may repeat)."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.intp)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, indices, g)
        return (ga,)

    return _make(a.data[indices], "take", (a,), backward)


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
    """The channel-major (Ci*9, B*Ho*Wo) patches of x zero-padded by one:
    row i*9 + 3*dy + dx is tap (dy, dx) of input channel i, column
    b*Ho*Wo + y*Wo + x is output pixel (y, x) of image b, and the entry is
    xpad[b, i, 2y+dy, 2x+dx]. The input is read through its (Ci, B, H, W)
    transpose, so each GEMM of the backward covers the whole batch in one
    call. The padding is never materialised: tap dy reads input row
    2y+dy-1, which is off the top edge only for dy = 0, y = 0 (and likewise
    for dx)."""
    B, Ci, H, W = x.shape
    Ho, Wo = H // 2, W // 2
    xt = x.transpose(1, 0, 2, 3)
    cols = np.empty((Ci, 3, 3, B, Ho, Wo), dtype=x.dtype)
    cols[:, 0, :, :, 0, :] = 0.0
    cols[:, :, 0, :, :, 0] = 0.0
    for dy in range(3):
        for dx in range(3):
            cols[:, dy, dx, :, dy == 0:, dx == 0:] = \
                xt[:, :, dy != 1:H - (dy == 0):2, dx != 1:W - (dx == 0):2]
    return cols.reshape(Ci * 9, B * Ho * Wo)


# The stride-2 conv builds its im2col patches for one group of consecutive
# images at a time, sized so that a group's patches take about one L2 cache:
# the forward never holds a full-batch patch matrix, and the small late
# layers, whose patches fit many times over, stay one matmul per call.
_PATCH_GROUP_BYTES = 1 << 20


def _images_per_group(patch_bytes):
    """Images per group when one image's patches take ``patch_bytes``."""
    return max(1, _PATCH_GROUP_BYTES // max(1, patch_bytes))


def _conv_forward(x, w, stride2):
    """Raw-array forward of conv3x3s2 (``stride2``) or conv1x1: x (B,Ci,H,W)
    by w (Co,Ci,3,3) or (Co,Ci) -> (B,Co,Ho,Wo), one matmul either way.

    conv1x1 is (Co, Ci) @ (B, Ci, H*W). conv3x3s2 is the (Co, Ci*9) weight
    by the channel-major patches seen as (G, Ci*9, Ho*Wo) column blocks, one
    per image, for each group of G images in turn: each product lands in its
    rows of the (B, Co, Ho*Wo) output, so no transposed copy of the output
    and no full-batch patch matrix is made.
    """
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
    L = (H // 2) * (W // 2)
    wmat = w.reshape(Co, Ci * 9)
    out = np.empty((B, Co, L), dtype=np.result_type(x, w))
    G = _images_per_group(Ci * 9 * L * x.itemsize)
    for b in range(0, B, G):
        xg = x[b:b + G]
        cols = _im2col3x3s2(xg).reshape(Ci * 9, len(xg), L).transpose(1, 0, 2)
        np.matmul(wmat, cols, out=out[b:b + G])
    return out.reshape(B, Co, H // 2, W // 2)


def _conv_backward(g, x, w, need_gx=True):
    """Raw-array backward of ``_conv_forward``: (gx, gw) for the output
    gradient g (B,Co,Ho,Wo), stride 2 when w is (Co,Ci,3,3); gx is None
    unless ``need_gx``.

    g is copied once to channel-major (Co, B*Ho*Wo) order, to match the
    input matrix: the channel-major (Ci*9, B*Ho*Wo) patches, rebuilt here
    for the whole batch, or for conv1x1 a (Ci, B*H*W) transposed copy of x.
    gw is then one (Co, B*Ho*Wo) @ (B*Ho*Wo, Ci*k) GEMM for either conv (a
    sum over images in any other order would change the training numerics),
    and the input matrix is released at once. conv1x1's gx is the (Ci, Co)
    @ (B, Co, H*W) matmul. conv3x3s2's gx is formed per image group, as in
    the forward: the group's patch gradient is a (Ci*9, Co) @ (Co,
    G*Ho*Wo) GEMM, and a col2im folds it back in place (five shifted adds
    over contiguous rows) before four strided copies, through gx's (Ci, B,
    ...) transpose, fill the group's part of an unpadded, unzeroed buffer.
    """
    B, Ci, H, W = x.shape
    Co = w.shape[0]
    stride2 = w.ndim == 4
    L = g.size // (B * Co)
    gf = np.ascontiguousarray(g.reshape(B, Co, L).transpose(1, 0, 2)).reshape(Co, B * L)
    cols = _im2col3x3s2(x) if stride2 else x.reshape(B, Ci, L).transpose(1, 0, 2).reshape(Ci, B * L)
    gw = (gf @ cols.T).reshape(w.shape)
    del cols
    if not need_gx:
        return None, gw
    wmat = w.reshape(Co, -1)
    if not stride2:
        return (wmat.T @ g.reshape(B, Co, L)).reshape(x.shape), gw
    # col2im by parity class: input row 2Y + p is read by tap dy = 1 at
    # output row Y (p = 0), or by dy = 2 at Y and dy = 0 at Y + 1 (p = 1),
    # and columns likewise. So the taps with dy, dx >= 1 are gx's four
    # parity planes once the dy = 0 and dx = 0 taps are added into them,
    # shifted by one output pixel; four strided copies then interleave them.
    Ho, Wo = H // 2, W // 2
    gx = np.empty((B, Ci, Ho, 2, Wo, 2), dtype=x.dtype)
    gxt = gx.transpose(1, 0, 2, 3, 4, 5)
    G = _images_per_group(Ci * 9 * L * x.itemsize)
    for b in range(0, B, G):
        gc = (wmat.T @ gf[:, b * L:(b + G) * L]).reshape(Ci, 3, 3, -1, Ho, Wo)
        gc[:, 1, 2, ..., :-1] += gc[:, 1, 0, ..., 1:]
        gc[:, 2, 1, ..., :-1, :] += gc[:, 0, 1, ..., 1:, :]
        gc[:, 2, 2, ..., :-1] += gc[:, 2, 0, ..., 1:]
        gc[:, 2, 2, ..., :-1, :] += gc[:, 0, 2, ..., 1:, :]
        gc[:, 2, 2, ..., :-1, :-1] += gc[:, 0, 0, ..., 1:, 1:]
        for p in range(2):
            for q in range(2):
                gxt[:, b:b + G, :, p, :, q] = gc[:, 1 + p, 1 + q]
    return gx.reshape(x.shape), gw


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
        # Each 2x2 window's sum by strided adds, in the order numpy's
        # reshape(..., 2, W/2, 2).sum(axis=(3, 5)) takes, so the result is
        # bit for bit the same: the two row pairs, or all four taps in turn
        # when W/2 is 1, then onto +0 (an all -0 window sums to +0).
        top, bottom = g[:, :, 0::2], g[:, :, 1::2]
        out = top[..., 0::2] + top[..., 1::2]
        if g.shape[3] == 2:
            out += bottom[..., 0::2]
            out += bottom[..., 1::2]
        else:
            out += bottom[..., 0::2] + bottom[..., 1::2]
        out += 0.0
        return (out,)

    return _make(np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), "upsample2x", (x,), backward)


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


def _check_bn(bn, channels):
    """The gamma/beta-shape and eps checks of every batchnorm path."""
    if bn.gamma.data.shape != (channels,) or bn.beta.data.shape != (channels,):
        raise ShapeError(f"batchnorm: gamma/beta must be ({channels},)")
    if bn.eps <= 0:
        raise ShapeError("batchnorm: eps must be > 0")


def _channel_sum(a):
    """Per-channel sum of a (B, C, L) array over its (B, L) slices: one
    matvec by ones(L) per image, then a sum over the B images."""
    return (a @ np.ones(a.shape[2], dtype=a.dtype)).sum(axis=0)


def _channel_dot(a, b):
    """Per-channel sum of a * b over the (B, L) slices of two (B, C, L)
    arrays, without forming a * b: B*C row dot products, each a (1, L) @
    (L, 1) matmul, then a sum over the B images."""
    return (a[..., None, :] @ b[..., :, None]).sum(axis=0)[:, 0, 0]


def _silu_of_half(h):
    """SiLU in three passes from its half-scale input ``h = y / 2``, in place:
    with t = 1 + tanh(h) = 2 * sigmoid(y), silu(y) = h * t. ``h`` becomes
    silu(y); returns ``t``."""
    t = np.tanh(h)
    t += 1.0
    h *= t
    return t


def _bn_forward(z, bn, act):
    """The one batchnorm: normalize the raw (B, C, L) array ``z`` over its
    (B, L) slices (centring it in place), then SiLU when ``act`` is set;
    returns ``(out, backward)``, where ``backward`` maps the output gradient
    to ``(gz, ggamma, gbeta)``.

    Train mode uses the batch statistics and moves the running mean and the
    unbiased running variance by ``bn.momentum`` (not under
    ``frozen_bn_stats()``); eval mode uses the running statistics. Every
    per-channel reduction over the (B, L) slices is a matmul form rather
    than a ``sum(axis=(0, 2))``: the mean and gbeta are ``_channel_sum``
    matvecs, and the variance and ggamma are ``_channel_dot`` row dot
    products, so the backward builds no ``gy * xhat`` array just to sum it.
    Only the centred ``xc`` is kept; xhat = xc * istd enters every formula
    through per-channel factors. The backward takes the SiLU derivative
    from the saved ``1 + tanh`` and output, then gbeta, ggamma and gz, using
    sum(gxhat) = gamma*gbeta and sum(gxhat*xhat) = gamma*ggamma (Ioffe &
    Szegedy 2015).
    """
    B, C, L = z.shape
    _check_bn(bn, C)
    n = B * L
    if n == 0:
        raise ShapeError("batchnorm: channel slices are empty")
    training = _mode.training
    xc = z  # centred in place; xhat = xc * istd is never stored
    if training:
        m = _channel_sum(xc) / n
        xc -= m[:, None]
        v = _channel_dot(xc, xc) / n
        if _mode.bn_stats_enabled:
            bn.running_mean += bn.momentum * (m - bn.running_mean)
            bn.running_var += bn.momentum * (v * (n / max(1, n - 1)) - bn.running_var)
    else:
        v = bn.running_var
        xc -= bn.running_mean[:, None]
    istd = 1.0 / np.sqrt(v + bn.eps)
    # With SiLU the affine map runs at half scale, h = y / 2, which is the
    # sigmoid's own tanh argument: with t = 1 + tanh(h) = 2 * sigmoid(y),
    # silu(y) = h * t, two passes fewer than y * sigmoid(y).
    half = 0.5 if act else 1.0
    k = (bn.gamma.data * istd * half)[:, None]
    out = xc * k
    out += (bn.beta.data * half)[:, None]
    if act:
        t = _silu_of_half(out)

    def backward(g):
        # With SiLU, gy is twice dL/dy: 2 * silu'(y) = t + silu(y) * (2 - t).
        # The sums below then carry the factor 2 too, and ``half`` takes it
        # out of gz, ggamma and gbeta.
        gy = g.reshape(B, C, L)
        if act:
            gy = np.subtract(2.0, t)
            gy *= out
            gy += t
            gy *= g.reshape(B, C, L)
        gbeta = _channel_sum(gy)
        ggamma = _channel_dot(gy, xc) * istd
        if training:  # gz = k * (gy - gbeta / n - xhat * ggamma / n)
            gz = np.multiply(xc, (-istd * ggamma / n)[:, None])
            gz += gy
            gz -= (gbeta / n)[:, None]
            gz *= k
        else:
            gz = gy * k
        return gz, ggamma * half, gbeta * half

    return out, backward


def batchnorm(x, bn):
    """The BatchNorm ``bn`` over the (B,H,W) slices of x (B,C,H,W): ``conv_bn``
    with an identity 1x1 weight, whose matmul passes x through exactly."""
    x = as_tensor(x)
    return conv_bn(x, np.eye(len(bn.gamma.data), dtype=x.dtype), bn)


def _conv_bn_train(x, w, bn, stride2, act):
    """``conv_bn`` as one graph node with parents (x, w, gamma, beta): the
    conv matmul, ``_bn_forward`` on its output, and a backward that chains
    ``_conv_backward`` onto the batchnorm's."""
    z = _conv_forward(x.data, w.data, stride2)
    B, Co, Ho, Wo = z.shape
    out, bn_backward = _bn_forward(z.reshape(B, Co, Ho * Wo), bn, act)

    def backward(g):
        gz, ggamma, gbeta = bn_backward(g)
        gx, gw = _conv_backward(gz, x.data, w.data, _needs_grad(x))
        return gx, gw, ggamma, gbeta

    return _make(out.reshape(B, Co, Ho, Wo), "conv_bn", (x, w, bn.gamma, bn.beta), backward)


def conv_bn(x, w, bn, stride2=False, act=False):
    """conv3x3s2 (``stride2``) or conv1x1 by ``w``, then the BatchNorm ``bn``,
    then SiLU when ``act`` is set.

    Under ``no_grad()`` in eval mode the batchnorm is a fixed per-channel
    affine map, so it is folded into the conv on every call (nothing is
    cached, so loaded or updated parameters take effect at once):
    ``scale = gamma / sqrt(var + eps)``, ``w' = w * scale`` and
    ``b' = beta - mean * scale``. With SiLU both are halved, as in
    ``_bn_forward``, which is exact: the matmul and the in-place bias give
    y / 2 bit for bit, and ``_silu_of_half`` finishes in three passes. The
    result is one 'conv_bn' tensor with no backward. Otherwise (training, or
    grad on) it is one 'conv_bn' node with a hand-written backward,
    ``_conv_bn_train``.
    """
    if not folds_bn():
        return _conv_bn_train(as_tensor(x), as_tensor(w), bn, stride2, act)
    w = as_tensor(w).data
    _check_bn(bn, w.shape[0])
    half = 0.5 if act else 1.0
    scale = bn.gamma.data * half / np.sqrt(bn.running_var + bn.eps)
    y = _conv_forward(as_tensor(x).data, w * scale.reshape((-1,) + (1,) * (w.ndim - 1)), stride2)
    y += (bn.beta.data * half - bn.running_mean * scale)[:, None, None]
    if act:
        _silu_of_half(y)
    return _make(y, "conv_bn", (), None)


class Module:
    """A parameter tree whose layout is its dataclass fields, in field order.
    A ``Tensor`` field is a parameter, an ``np.ndarray`` field a running
    statistic, a ``Module`` field a subtree; a list field ``name`` gives the
    entries ``name0``, ``name1``, ... and a dict field ``name`` gives
    ``name.<key>`` in sorted key order; any other field (a config, a size, a
    flag) holds no parameters. A name is its field path, so checkpoint keys
    are field names, and every array field is saved as a state: a lookup
    table a block needs must not be an array field. ``prefix`` names the root
    when no prefix is passed."""

    prefix = ""

    def children(self):
        """(suffix, Tensor | np.ndarray | Module) for every entry of the fields."""
        for field in dataclasses.fields(self):
            yield from _entries(field.name, getattr(self, field.name))

    def _walk(self, prefix, kind):
        prefix = self.prefix if prefix is None else prefix
        for suffix, child in self.children():
            name = f"{prefix}.{suffix}" if prefix else suffix
            if isinstance(child, Module):
                yield from child._walk(name, kind)
            elif isinstance(child, kind):
                yield name, child

    def params(self, prefix=None):
        """(name, Tensor) for every trainable tensor, in field order."""
        return self._walk(prefix, Tensor)

    def states(self, prefix=None):
        """(name, array) for every running statistic, in field order."""
        return self._walk(prefix, np.ndarray)


def _entries(name, value):
    if isinstance(value, (Tensor, np.ndarray, Module)):
        yield name, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _entries(f"{name}{i}", item)
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _entries(f"{name}.{key}", value[key])


@dataclasses.dataclass(init=False, eq=False)
class BatchNorm(Module):
    """One normalized layer: trainable gamma and beta, and the running mean
    and variance (not trainable) that train mode updates and eval mode
    normalizes with. ``batchnorm`` and ``conv_bn`` take the bundle whole."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    eps, momentum = 1e-5, 0.1  # the run's values: no setting overrides them

    def __init__(self, channels, dtype=np.float64):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


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
