import contextlib
import dataclasses
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from crackdet import numerics as nm
from crackdet.errors import NumericsError, ShapeError
from crackdet.numerics import BatchNorm, Tensor, finite_diff_check

from oracles import (batchnorm_stats, conv1x1_backward_loop, conv1x1_loop,
                     conv3x3s2_backward_loop, conv3x3s2_loop, conv_bn_backward_loop, conv_bn_loop,
                     matmul_loop, softmax_row)


class TestConv1x1:
    def test_identity_weights(self, rng):
        x = rng.normal(size=(2, 4, 3, 3))
        out = nm.conv1x1(Tensor(x), Tensor(np.eye(4)))
        assert np.array_equal(out.data, x)

    def test_zero_weights_bias_only(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        b = np.array([3.5, -1.25, 0.5])
        out = nm.conv1x1(Tensor(x), Tensor(np.zeros((3, 3))), Tensor(b))
        for o in range(3):
            assert np.all(out.data[:, o] == b[o])

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        out = nm.conv1x1(Tensor(x), Tensor(w), Tensor(b))
        assert np.abs(out.data - conv1x1_loop(x, w, b)).max() < 1e-12

    def test_loop_oracle_larger_shape(self, rng):
        x = rng.normal(size=(4, 16, 8, 8))
        w = rng.normal(size=(6, 16))
        out = nm.conv1x1(Tensor(x), Tensor(w))
        assert np.abs(out.data - conv1x1_loop(x, w)).max() < 1e-12

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            nm.conv1x1(Tensor(rng.normal(size=(1, 3, 2, 2))), Tensor(rng.normal(size=(4, 5))))


class TestConv3x3s2:
    @pytest.mark.parametrize("seed,shape,co", [
        (0, (2, 3, 4, 4), 5),
        (1, (1, 5, 6, 10), 3),
        (2, (3, 1, 8, 2), 7),
        (3, (2, 7, 2, 6), 4),
    ])
    def test_matches_loop_oracle(self, seed, shape, co):
        r = np.random.default_rng(seed)
        x = r.normal(size=shape)
        w = r.normal(size=(co, shape[1], 3, 3))
        out = nm.conv3x3s2(Tensor(x), Tensor(w))
        assert out.shape == (shape[0], co, shape[2] // 2, shape[3] // 2)
        assert np.abs(out.data - conv3x3s2_loop(x, w)).max() < 1e-12

    def test_odd_spatial_size_rejected(self, rng):
        with pytest.raises(ShapeError):
            nm.conv3x3s2(Tensor(rng.normal(size=(1, 2, 5, 4))), Tensor(rng.normal(size=(3, 2, 3, 3))))


def _mode_ctx(training):
    """Train mode (the default) or eval_mode()."""
    return contextlib.nullcontext() if training else nm.eval_mode()


class TestFloat32:
    """A float32 graph stays float32: outputs and every gradient an op returns."""

    @staticmethod
    def _dtypes(out, parents):
        grads = out._backward(np.ones_like(out.data))
        assert len(grads) == len(parents)
        return [out.data.dtype] + [g.dtype for g in grads]

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_conv1x1(self, rng, with_bias):
        x = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
        parents = [x, w]
        if with_bias:
            parents.append(Tensor(rng.normal(size=6).astype(np.float32), requires_grad=True))
        out = nm.conv1x1(*parents)
        assert self._dtypes(out, parents) == [np.float32] * (1 + len(parents))

    def test_conv3x3s2(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32), requires_grad=True)
        out = nm.conv3x3s2(x, w)
        assert self._dtypes(out, [x, w]) == [np.float32] * 3

    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_conv_bn(self, rng, stride2, training):
        x = Tensor(rng.normal(size=(2, 3, 4, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 3, 3) if stride2 else (5, 3)).astype(np.float32),
                   requires_grad=True)
        bn = BatchNorm(5, dtype=np.float32)
        with _mode_ctx(training):
            out = nm.conv_bn(x, w, bn, stride2, act=True)
        assert self._dtypes(out, [x, w, bn.gamma, bn.beta]) == [np.float32] * 5
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float32


@dataclasses.dataclass
class _Leaf(nm.Module):
    w: Tensor


@dataclasses.dataclass(frozen=True)
class _Cfg:
    """A config: a dataclass that is no Module, so the walk skips it whole."""

    stat: np.ndarray


@dataclasses.dataclass
class _Toy(nm.Module):
    """One field of each kind the walk reads or skips."""

    size: int
    weight: Tensor
    stat: np.ndarray
    cfg: _Cfg
    blocks: list
    slots: dict
    norm: BatchNorm

    prefix = "toy"


class TestModuleTree:
    def _toy(self):
        def leaf():
            return _Leaf(Tensor(np.zeros(2), requires_grad=True))

        return _Toy(size=3, weight=Tensor(np.ones(2), requires_grad=True), stat=np.zeros(2),
                    cfg=_Cfg(np.zeros(2)), blocks=[leaf(), leaf()],
                    slots={"z": leaf(), "a": leaf()}, norm=BatchNorm(2))

    def test_names_follow_the_fields_in_order(self):
        toy = self._toy()
        assert [name for name, _ in toy.params()] == [
            "toy.weight", "toy.blocks0.w", "toy.blocks1.w", "toy.slots.a.w", "toy.slots.z.w",
            "toy.norm.gamma", "toy.norm.beta"]
        assert [name for name, _ in toy.states()] == [
            "toy.stat", "toy.norm.running_mean", "toy.norm.running_var"]
        assert [name for name, _ in toy.params("root")][:2] == ["root.weight", "root.blocks0.w"]
        assert next(toy.params(""))[0] == "weight"

    def test_walk_yields_the_fields_themselves(self):
        toy = self._toy()
        params = dict(toy.params())
        assert params["toy.weight"] is toy.weight
        assert params["toy.slots.z.w"] is toy.slots["z"].w
        assert dict(toy.states())["toy.norm.running_var"] is toy.norm.running_var

    def test_batchnorm_is_a_field_module_with_class_constants(self):
        bn = BatchNorm(3)
        assert [f.name for f in dataclasses.fields(bn)] == [
            "gamma", "beta", "running_mean", "running_var"]
        assert "params" not in vars(BatchNorm) and "states" not in vars(BatchNorm)
        assert (bn.eps, bn.momentum) == (1e-5, 0.1)
        assert bn != BatchNorm(3) and len({bn, bn}) == 1


class TestBatchNorm:
    def test_constant_channel_maps_to_beta(self):
        x = np.full((2, 1, 3, 3), 7.25)
        bn = BatchNorm(1)
        out = nm.batchnorm(Tensor(x), bn)
        assert np.abs(out.data).max() <= 1e-6

    def test_zero_gamma_gives_beta(self, rng):
        bn = BatchNorm(2)
        bn.gamma.data[...] = 0.0
        bn.beta.data[...] = 1.0
        out = nm.batchnorm(Tensor(rng.normal(size=(3, 2, 2, 2))), bn)
        assert np.all(out.data == 1.0)

    def test_normalizes_against_direct_stats_oracle(self, rng):
        x = rng.normal(loc=2.0, scale=3.0, size=(4, 2, 3, 3))
        bn = BatchNorm(2)
        out = nm.batchnorm(Tensor(x), bn).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-10
        _, variances = batchnorm_stats(x)
        for ch in range(2):
            expected = variances[ch] / (variances[ch] + bn.eps)
            assert abs(out[:, ch].var() - expected) < 1e-6

    def test_running_stats_follow_ema(self, rng):
        x = rng.normal(loc=1.5, size=(4, 1, 2, 2))
        bn = BatchNorm(1)
        nm.batchnorm(Tensor(x), bn)
        m = x.mean()
        assert abs(bn.running_mean[0] - 0.1 * m) < 1e-12

    def test_running_var_moves_toward_unbiased_variance(self, rng):
        x = rng.normal(scale=2.0, size=(4, 1, 2, 2))
        bn = BatchNorm(1)
        nm.batchnorm(Tensor(x), bn)
        assert abs(bn.running_var[0] - (0.9 + 0.1 * x.var(ddof=1))) < 1e-12

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(1)
        bn.running_mean[...] = 2.0
        bn.running_var[...] = 4.0
        x = np.full((1, 1, 2, 2), 4.0)
        with nm.eval_mode():
            out = nm.batchnorm(Tensor(x), bn)
        expected = (4.0 - 2.0) / np.sqrt(4.0 + bn.eps)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_eval_mode_gradient_is_fixed_at_forward(self, rng):
        """A batchnorm forwarded under eval_mode() back-propagates as the
        fixed affine map gamma / sqrt(var + eps), even once the block is left."""
        bn = BatchNorm(2)
        bn.running_var[...] = [4.0, 0.25]
        bn.gamma.data[...] = [3.0, -1.0]
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        with nm.eval_mode():
            out = nm.tsum(nm.batchnorm(x, bn))
        out.backward()
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        assert np.abs(x.grad - scale[None, :, None, None]).max() < 1e-12

    def test_empty_slice_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ShapeError):
            nm.batchnorm(Tensor(np.zeros((0, 2, 3, 3))), bn)


class TestOneBatchnormCore:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm_is_conv_bn_with_identity_weight(self, rng, dtype, training):
        """The standalone op is the fused op's batchnorm: after an identity
        1x1 conv, outputs, gradients and running statistics agree bit for
        bit, and batchnorm leaves its input array as it was."""
        data = rng.normal(loc=1.0, scale=2.0, size=(2, 4, 3, 5)).astype(dtype)
        readout = nm.as_tensor(rng.normal(size=data.shape).astype(dtype))
        eye = Tensor(np.eye(4, dtype=dtype))
        results = []
        for fused in (False, True):
            bn = BatchNorm(4, dtype=dtype)
            bn.gamma.data[...] = [0.5, -1.0, 2.0, 1.5]
            bn.beta.data[...] = [0.1, 0.2, -0.3, 0.0]
            bn.running_mean[...] = [0.5, -0.5, 1.0, 0.0]
            bn.running_var[...] = [2.0, 0.5, 1.0, 3.0]
            x = Tensor(data.copy(), requires_grad=True)
            with _mode_ctx(training):
                out = nm.conv_bn(x, eye, bn) if fused else nm.batchnorm(x, bn)
            nm.tsum(nm.mul(out, readout)).backward()
            assert np.array_equal(x.data, data)
            results.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                            bn.running_mean, bn.running_var))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)


class TestAsTensor:
    @pytest.mark.parametrize("training", [True, False])
    def test_raw_float32_weight_keeps_a_float32_graph(self, rng, training):
        """A raw float32 array handed to an op is wrapped as float32, so the
        op's output stays float32 instead of turning float64."""
        x = Tensor(rng.normal(size=(2, 4, 3, 5)).astype(np.float32))
        with _mode_ctx(training):
            out = nm.conv_bn(x, np.eye(4, dtype=np.float32), BatchNorm(4, dtype=np.float32))
        assert out.dtype == np.float32

    @pytest.mark.parametrize("value,dtype", [
        (np.ones(3, dtype=np.float32), np.float32),
        (np.ones(3, dtype=np.float64), np.float64),
        (np.ones(3, dtype=np.int64), np.float64),
        ([1, 2], np.float64),
        (0.5, np.float64),
    ])
    def test_dtype_without_like(self, value, dtype):
        assert nm.as_tensor(value).dtype == dtype

    def test_like_sets_the_dtype(self):
        like = Tensor(np.zeros(2, dtype=np.float32))
        assert nm.as_tensor(np.ones(2), like=like).dtype == np.float32
        assert nm.as_tensor(np.ones(2, dtype=np.float32), like=Tensor(np.zeros(2))).dtype == np.float64


class TestConvBN:
    @staticmethod
    def _layer(rng, stride2, dtype=np.float64):
        w = rng.normal(size=(5, 3, 3, 3) if stride2 else (5, 3)).astype(dtype)
        bn = BatchNorm(5, dtype)
        bn.running_mean[...] = rng.normal(size=5)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=5)
        bn.gamma.data[...] = rng.normal(size=5)
        bn.beta.data[...] = rng.normal(size=5)
        return w, bn

    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    def test_folded_matches_op_chain(self, rng, stride2, act):
        """Under no_grad() + eval_mode() the op folds BN into the conv and
        records one node that agrees with the scalar conv, batchnorm, SiLU
        chain of the loop oracle in eval mode."""
        w, bn = self._layer(rng, stride2)
        x = rng.normal(size=(2, 3, 4, 4))
        want, _, _ = conv_bn_loop(x, w, bn.gamma.data, bn.beta.data, bn.running_mean,
                                  bn.running_var, bn.eps, bn.momentum, stride2, act, False)
        with nm.eval_mode(), nm.no_grad():
            got = nm.conv_bn(Tensor(x), Tensor(w), bn, stride2, act)
        assert got.op == "conv_bn" and got._backward is None and not got._parents
        assert np.abs(got.data - want).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    def test_folded_half_scale_silu_is_bitwise(self, rng, dtype, stride2, act):
        """The folded op runs the conv and bias at half scale and SiLU in
        three passes; halving is exact, so it equals the five-pass
        y * sigmoid(y) on the full-scale fold bit for bit."""
        w, bn = self._layer(rng, stride2, dtype)
        x = rng.normal(size=(4, 3, 8, 8)).astype(dtype)
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        want = nm._conv_forward(x, w * scale.reshape((-1,) + (1,) * (w.ndim - 1)), stride2)
        want += (bn.beta.data - bn.running_mean * scale)[:, None, None]
        if act:
            want = want * nm._sigmoid_np(want)
        with nm.eval_mode(), nm.no_grad():
            got = nm.conv_bn(Tensor(x), Tensor(w), bn, stride2, act)
        assert got.dtype == dtype and np.array_equal(got.data, want)

    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_loop_oracle(self, rng, stride2, act, training):
        """One node with parents (x, w, gamma, beta); its output and the
        running-statistic update (train mode) or none (eval mode) match the
        scalar conv -> batchnorm -> SiLU oracle."""
        w, bn = self._layer(rng, stride2)
        x = rng.normal(size=(2, 3, 4, 4))
        want, mean, var = conv_bn_loop(x, w, bn.gamma.data, bn.beta.data, bn.running_mean,
                                       bn.running_var, bn.eps, bn.momentum, stride2, act, training)
        with _mode_ctx(training):
            got = nm.conv_bn(Tensor(x), Tensor(w, requires_grad=True), bn, stride2, act)
        assert got.op == "conv_bn"
        assert got._parents[2] is bn.gamma and got._parents[3] is bn.beta
        assert np.abs(got.data - want).max() < 1e-12
        assert np.abs(bn.running_mean - mean).max() < 1e-12
        assert np.abs(bn.running_var - var).max() < 1e-12

    def test_frozen_bn_stats_keep_running_stats(self, rng):
        w, bn = self._layer(rng, stride2=True)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        with nm.frozen_bn_stats():
            nm.conv_bn(Tensor(rng.normal(size=(2, 3, 4, 4))), Tensor(w), bn, stride2=True)
        assert np.array_equal(bn.running_mean, before[0]) and np.array_equal(bn.running_var, before[1])

    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_gradcheck(self, rng, stride2, act, training):
        w, bn = self._layer(rng, stride2)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(w, requires_grad=True)
        readout = nm.as_tensor(rng.normal(size=(2, 5, 2, 2) if stride2 else (2, 5, 4, 4)))
        with _mode_ctx(training):
            err = finite_diff_check(
                lambda: nm.tsum(nm.mul(nm.conv_bn(x, w, bn, stride2, act), readout)),
                [x, w, bn.gamma, bn.beta])
        assert err < 1e-6

    # Output sizes Ho*Wo of 1, 4 and 16, as in the train step's last stages;
    # the last two are not square.
    @pytest.mark.parametrize("out_hw", [(1, 1), (1, 4), (2, 8)])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_backward_matches_loop_oracle(self, rng, out_hw, batch, stride2, act, training):
        """(gx, gw, ggamma, gbeta) equal the scalar-loop chain rule to 1e-12
        (relative to the largest gradient, when that exceeds 1)."""
        w, bn = self._layer(rng, stride2)
        in_hw = (2 * out_hw[0], 2 * out_hw[1]) if stride2 else out_hw
        x = rng.normal(size=(batch, 3) + in_hw)
        g = rng.normal(size=(batch, 5) + out_hw)
        running = None if training else (bn.running_mean.copy(), bn.running_var.copy())
        want = conv_bn_backward_loop(x, w, bn.gamma.data, bn.beta.data, bn.eps, g, stride2, act,
                                     running)
        with _mode_ctx(training):
            out = nm.conv_bn(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), bn,
                             stride2, act)
        got = out._backward(g)
        for name, a, b in zip(("gx", "gw", "ggamma", "gbeta"), got, want):
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name

    @pytest.mark.parametrize("out_hw", [(1, 1), (2, 8)])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("stride2", [False, True])
    def test_float32_backward_stays_float32(self, rng, out_hw, batch, stride2):
        """A float32 graph returns float32 gradients, near the float64 oracle."""
        w, bn64 = self._layer(rng, stride2)
        bn = BatchNorm(5, dtype=np.float32)
        bn.gamma.data[...], bn.beta.data[...] = bn64.gamma.data, bn64.beta.data
        in_hw = (2 * out_hw[0], 2 * out_hw[1]) if stride2 else out_hw
        x = rng.normal(size=(batch, 3) + in_hw).astype(np.float32)
        g = rng.normal(size=(batch, 5) + out_hw).astype(np.float32)
        w = w.astype(np.float32)
        want = conv_bn_backward_loop(x.astype(np.float64), w.astype(np.float64),
                                     bn.gamma.data.astype(np.float64),
                                     bn.beta.data.astype(np.float64), bn.eps,
                                     g.astype(np.float64), stride2, True)
        out = nm.conv_bn(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), bn,
                         stride2, act=True)
        got = out._backward(g)
        assert [a.dtype for a in got] == [np.float32] * 4
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-3 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("stride2", [False, True])
    def test_conv_backward_matches_loop_oracle(self, rng, stride2):
        """The shared raw conv backward alone, on a non-square batch."""
        w, _ = self._layer(rng, stride2)
        x = rng.normal(size=(3, 3, 4, 6))
        g = rng.normal(size=(3, 5, 2, 3) if stride2 else (3, 5, 4, 6))
        want = (conv3x3s2_backward_loop if stride2 else conv1x1_backward_loop)(x, w, g)
        for a, b in zip(nm._conv_backward(g, x, w), want):
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("op", ["conv1x1", "conv3x3s2", "conv_bn"])
    def test_input_gradient_only_where_it_goes(self, rng, op):
        """An input that neither requires grad nor has parents (the image
        batch) gets no gradient; a leaf that requires grad and an op output do."""
        shape = (5, 3, 3, 3) if op == "conv3x3s2" else (5, 3)
        w = Tensor(rng.normal(size=shape), requires_grad=True)
        bn = BatchNorm(5)
        data = rng.normal(size=(2, 3, 4, 4))

        def run(x):
            if op == "conv_bn":
                out = nm.conv_bn(x, w, bn, stride2=False, act=True)
            else:
                out = getattr(nm, op)(x, w)
            return out._backward(np.ones_like(out.data))

        gx, gw = run(Tensor(data))[:2]
        assert gx is None and gw.shape == shape
        for x in (Tensor(data, requires_grad=True), nm.mul(Tensor(data, requires_grad=True), 2.0)):
            gx = run(x)[0]
            assert gx is not None and gx.shape == data.shape

    def test_non_finite_input_names_the_op(self, rng):
        w, bn = self._layer(rng, stride2=False)
        x = rng.normal(size=(1, 3, 4, 4))
        x[0, 1, 2, 3] = np.nan
        with nm.no_grad(), nm.eval_mode(), nm.finite_checks():
            with pytest.raises(NumericsError, match="conv_bn"):
                nm.conv_bn(Tensor(x), Tensor(w), bn, act=True)

    @pytest.mark.parametrize("channels,eps", [(4, 1e-5), (5, 0.0)])
    def test_bad_batchnorm_rejected(self, rng, channels, eps):
        w, _ = self._layer(rng, stride2=False)
        bn = BatchNorm(channels)
        bn.eps = eps
        with nm.no_grad(), nm.eval_mode(), pytest.raises(ShapeError):
            nm.conv_bn(Tensor(rng.normal(size=(1, 3, 2, 2))), Tensor(w), bn)


class TestSigmoid:
    def test_matches_logistic_without_warnings(self):
        x = np.concatenate([[-np.inf, -1e3, 1e3, np.inf, 0.0], np.linspace(-40.0, 40.0, 801)])
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = nm._sigmoid_np(x)
        assert got[:5].tolist() == [0.0, 0.0, 1.0, 1.0, 0.5]
        assert np.abs(got - want).max() <= 2.3e-16


class TestSoftmax:
    def test_constant_rows_uniform(self):
        out = nm.softmax_lastdim(Tensor(np.full((2, 5), 3.0)))
        assert np.abs(out.data - 0.2).max() < 1e-12

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 4))
        a = nm.softmax_lastdim(Tensor(x)).data
        b = nm.softmax_lastdim(Tensor(x + 7.3)).data
        assert np.abs(a - b).max() < 1e-12

    def test_reference_row(self):
        out = nm.softmax_lastdim(Tensor(np.array([1.0, 2.0, 3.0]))).data
        expected = np.array([0.09003057, 0.24472847, 0.66524096])
        assert np.abs(out - expected).max() < 1e-7

    def test_matches_scalar_oracle(self, rng):
        x = rng.normal(size=(2, 3, 5))
        out = nm.softmax_lastdim(Tensor(x)).data
        for idx in np.ndindex(2, 3):
            assert np.abs(out[idx] - softmax_row(list(x[idx]))).max() < 1e-12

    def test_rows_sum_to_one_in_unit_interval(self, rng):
        x = rng.normal(scale=20.0, size=(4, 7))
        out = nm.softmax_lastdim(Tensor(x)).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestMatmulTokens:
    def test_identity(self, rng):
        a = rng.normal(size=(2, 3, 4))
        out = nm.matmul_tokens(Tensor(a), Tensor(np.broadcast_to(np.eye(4), (2, 4, 4)).copy()))
        assert np.abs(out.data - a).max() < 1e-15

    def test_zeros(self, rng):
        a = np.zeros((1, 1, 3))
        b = rng.normal(size=(1, 3, 5))
        assert np.all(nm.matmul_tokens(Tensor(a), Tensor(b)).data == 0.0)

    def test_matches_triple_loop(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        out = nm.matmul_tokens(Tensor(a), Tensor(b))
        assert np.abs(out.data - matmul_loop(a, b)).max() < 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            nm.matmul_tokens(Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 5, 6))))
        with pytest.raises(ShapeError):
            nm.matmul_tokens(Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(3, 4, 6))))


class TestFiniteDiffCheck:
    def test_quadratic_exact(self, rng):
        x = Tensor(rng.normal(size=7), requires_grad=True)
        err = finite_diff_check(lambda: nm.tsum(nm.mul(x, x)), [x])
        assert err < 1e-9

    def test_softmax_sum_is_constant(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        err = finite_diff_check(lambda: nm.tsum(nm.softmax_lastdim(x)), [x])
        assert err < 1e-7

    def test_nonfinite_names_offending_op(self):
        x = Tensor(np.array([1.0, np.inf]), requires_grad=True)  # sigmoid(x) is finite
        with pytest.raises(NumericsError, match="'mul'"):
            finite_diff_check(lambda: nm.tsum(nm.mul(nm.sigmoid(x), x)), [x])

    def test_fanout_accumulates_both_consumers(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def f():
            y = nm.softmax_lastdim(x)
            return nm.add(nm.tsum(nm.mul(y, y)), nm.tsum(nm.mul(x, x)))

        assert finite_diff_check(f, [x]) < 1e-7

    def test_sampled_coordinates_are_deterministic(self, rng):
        x = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
        f = lambda: nm.tsum(nm.mul(x, x))
        a = finite_diff_check(f, [x], max_coords=5, rng=np.random.default_rng(3))
        b = finite_diff_check(f, [x], max_coords=5, rng=np.random.default_rng(3))
        assert a == b


@pytest.mark.parametrize("seed", range(12))
def test_elementwise_ops_gradcheck(seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.uniform(0.5, 3.0, size=(3, 4)), requires_grad=True)
    y = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    ones = nm.as_tensor(np.ones((3, 4)))

    def f():
        a = nm.mul(nm.sigmoid(x), nm.softplus(y))
        b = nm.sub(nm.sigmoid(nm.mul(y, 0.1)), nm.add(nm.mul(x, x), ones))
        e = nm.sub(a, b)
        c = nm.mul(e, nm.sigmoid(e))  # SiLU
        d = nm.sub(nm.mul(b, 0.5), c)
        return nm.add(nm.tsum(nm.softplus(nm.mul(d, d))), nm.mul(nm.tsum(nm.sigmoid(x)), 0.25))

    assert finite_diff_check(f, [x, y]) < 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_structural_ops_gradcheck(seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(2, 4, 4, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(3, 4, 3, 3)), requires_grad=True)
    readout = r.normal(size=(2, 3, 4, 4))

    def f():
        y = nm.conv3x3s2(x, w)
        up = nm.upsample2x(y)
        sliced = nm.take(nm.reshape(y, (2 * 3, 4)), np.array([0, 2, 2, 5]))
        return nm.add(nm.tsum(nm.mul(up, nm.as_tensor(readout))),
                      nm.tsum(nm.mul(sliced, sliced)))

    assert finite_diff_check(f, [x, w]) < 1e-6


def test_grad_mode_is_thread_local(rng):
    import threading

    results = {}
    release = threading.Event()

    def inside_no_grad():
        with nm.no_grad():
            release.wait(timeout=5)
            y = nm.mul(Tensor(rng.normal(size=3), requires_grad=True), 2.0)
            results["untracked"] = not y._parents

    def outside():
        x = Tensor(np.ones(3), requires_grad=True)
        nm.tsum(nm.mul(x, x)).backward()
        results["tracked"] = x.grad is not None

    t1 = threading.Thread(target=inside_no_grad)
    t1.start()
    t2 = threading.Thread(target=outside)
    t2.start()
    t2.join()
    release.set()
    t1.join()
    assert results == {"tracked": True, "untracked": True}


class TestInTwoThreads:
    def test_second_call_runs_on_a_new_thread_with_the_callers_flags(self):
        def flags(tag):
            return tag, threading.current_thread(), dict(vars(nm._mode))

        with nm.no_grad(), nm.eval_mode(), nm.frozen_bn_stats(), nm.finite_checks():
            want = dict(vars(nm._mode))
            here, there = nm.in_two_threads(flags, "a", "b")
        assert here == ("a", threading.current_thread(), want)
        assert there[0] == "b" and there[1] is not threading.current_thread()
        assert there[2] == want
        assert vars(nm._mode) == {"grad_enabled": True, "training": True,
                                  "bn_stats_enabled": True, "check_finite": False}

    def test_worker_error_is_raised_once_the_worker_ended(self):
        worker = []

        def fn(which):
            if which == "second":
                worker.append(threading.current_thread())
                raise KeyError(which)
            return which

        with pytest.raises(KeyError, match="second"):
            nm.in_two_threads(fn, "first", "second")
        assert not worker[0].is_alive()

    def test_caller_error_waits_for_the_worker(self):
        release, finished = threading.Event(), []

        def fn(which):
            if which == "first":
                release.set()
                raise ValueError("first")
            release.wait(timeout=5)
            finished.append(which)

        with pytest.raises(ValueError, match="first"):
            nm.in_two_threads(fn, "first", "second")
        assert finished == ["second"]


@pytest.mark.parametrize("helper,flag,inside", [
    (nm.no_grad, "grad_enabled", False),
    (nm.eval_mode, "training", False),
    (nm.frozen_bn_stats, "bn_stats_enabled", False),
    (nm.finite_checks, "check_finite", True),
])
def test_mode_helpers_nest_and_restore_on_raise(helper, flag, inside):
    outside = getattr(nm._mode, flag)
    assert outside != inside
    with helper():
        with helper():
            assert getattr(nm._mode, flag) == inside
        assert getattr(nm._mode, flag) == inside
        with pytest.raises(RuntimeError), helper():
            raise RuntimeError("inner")
        assert getattr(nm._mode, flag) == inside
    assert getattr(nm._mode, flag) == outside
    with pytest.raises(RuntimeError), helper():
        raise RuntimeError("outer")
    assert getattr(nm._mode, flag) == outside


def test_updown_identity_for_pooling(rng):
    """2x2 average pooling (a numpy reshape-mean) undoes upsample2x exactly."""
    x = rng.normal(size=(2, 3, 5, 4))
    up = nm.upsample2x(Tensor(x)).data
    assert up.shape == (2, 3, 10, 8)
    assert np.array_equal(up.reshape(2, 3, 5, 2, 4, 2).mean(axis=(3, 5)), x)


def test_strict_shape_errors(rng):
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 2)))
    for op in (nm.add, nm.sub, nm.mul):
        with pytest.raises(ShapeError):
            op(a, b)


class TestBackwardWalk:
    def test_shared_gradient_is_not_added_into(self):
        """``add`` hands one array to both parents; summing a later
        contribution into one of them must leave the other's alone."""
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        nm.tsum(nm.add(nm.add(a, b), a)).backward()
        assert a.grad.tolist() == [2.0, 2.0] and b.grad.tolist() == [1.0, 1.0]
        c = Tensor(np.zeros((2, 3)), requires_grad=True)
        d = Tensor(np.zeros((2, 3)), requires_grad=True)
        nm.tsum(nm.sub(nm.add(c, d), nm.reshape(nm.reshape(c, (3, 2)), (2, 3)))).backward()
        assert c.grad.tolist() == [[0.0] * 3] * 2 and d.grad.tolist() == [[1.0] * 3] * 2

    def test_leaf_gradients_never_alias(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        nm.tsum(nm.add(a, b)).backward()
        a.grad += 1.0
        assert b.grad.tolist() == [1.0] * 3

    def test_on_grad_gets_each_reached_leaf_once_with_its_final_grad(self):
        """Two consumers of ``a`` both run before it is handed over; the
        constant ``c`` and the unreached ``d`` never are; a leaf root is
        handed over with its unit gradient."""
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.full(2, 3.0), requires_grad=True)
        c = Tensor(np.ones(2))
        d = Tensor(np.ones(2), requires_grad=True)
        nm.mul(d, 2.0)
        seen = []
        loss = nm.tsum(nm.add(nm.add(nm.mul(a, b), a), c))
        loss.backward(on_grad=lambda leaf: seen.append((leaf, leaf.grad.tolist())))
        assert sorted((id(t), g) for t, g in seen) == sorted(
            [(id(a), [4.0, 4.0]), (id(b), [1.0, 1.0])])
        assert c.grad is None and d.grad is None
        root, seen = Tensor(np.array(2.0), requires_grad=True), []
        root.backward(on_grad=seen.append)
        assert seen == [root] and root.grad == 1.0

    def test_backward_releases_the_graph(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
        y = nm.conv3x3s2(x, w)
        loss = nm.tsum(nm.mul(y, y))
        before = y.data.copy()
        loss.backward()
        for t in (y, loss):
            assert t._parents == () and t._backward is nm._released
        assert np.array_equal(y.data, before) and x.grad.shape == x.data.shape
        assert w.grad is not None

    def test_second_backward_raises(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        h = nm.sigmoid(x)
        loss = nm.tsum(nm.mul(h, h))
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(NumericsError, match="released"):
            loss.backward()
        with pytest.raises(NumericsError, match="released"):  # a new graph on a released node
            nm.tsum(nm.mul(h, 2.0)).backward()
        assert np.array_equal(x.grad, grad)


class TestUpsampleBackward:
    @pytest.mark.parametrize("shape", [(4, 96, 8, 8), (4, 96, 4, 4), (2, 3, 6, 10),
                                       (3, 5, 4, 2), (1, 2, 2, 2), (2, 2, 2, 6)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_window_sum(self, rng, shape, dtype):
        """The strided adds give numpy's sum over each 2x2 window bit for bit,
        signed zeros included."""
        B, C, H2, W2 = shape
        up = nm.upsample2x(Tensor(np.zeros((B, C, H2 // 2, W2 // 2), dtype=dtype),
                                  requires_grad=True))
        for g in (rng.normal(size=shape) * rng.choice([1.0, 1e8, 1e-8, 0.0], size=shape),
                  rng.choice([0.0, -0.0], size=shape)):
            g = g.astype(dtype)
            (got,) = up._backward(g)
            want = g.reshape(B, C, H2 // 2, 2, W2 // 2, 2).sum(axis=(3, 5))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestStride2Groups:
    def test_group_size_changes_no_bit(self, rng, monkeypatch):
        """One image per group, a few, or the whole batch: the forward and
        both gradients are the same bytes."""
        x = rng.normal(size=(5, 6, 8, 6))
        w = rng.normal(size=(7, 6, 3, 3))
        g = rng.normal(size=(5, 7, 4, 3))
        results = []
        for group_bytes in (1, 2 * 6 * 9 * 12 * 8, 1 << 30):
            monkeypatch.setattr(nm, "_PATCH_GROUP_BYTES", group_bytes)
            results.append([a.tobytes() for a in
                            (nm._conv_forward(x, w, True), *nm._conv_backward(g, x, w))])
        assert results[0] == results[1] == results[2]
        assert np.abs(nm._conv_forward(x, w, True) - conv3x3s2_loop(x, w)).max() < 1e-12

    def test_peak_memory_below_full_batch_patches(self, rng):
        """On (8, 32, 32, 32) -> 48 channels the forward holds one group's
        patches, never the (288, 2048) full-batch matrix (4.7 MB), and the
        backward that matrix once, for the weight gradient, without a
        full-batch patch gradient beside it."""
        x = rng.normal(size=(8, 32, 32, 32))
        w = rng.normal(size=(48, 32, 3, 3))
        g = rng.normal(size=(8, 48, 16, 16))
        patches = 32 * 9 * 8 * 16 * 16 * x.itemsize
        peaks = []
        for run in (lambda: nm._conv_forward(x, w, True), lambda: nm._conv_backward(g, x, w)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < patches and peaks[1] < 1.25 * patches
