import contextlib
import warnings

import numpy as np
import pytest

from crackdet import numerics as nm
from crackdet.errors import NumericsError, ShapeError
from crackdet.numerics import BatchNorm, Tensor, finite_diff_check

from oracles import (batchnorm_stats, conv1x1_loop, conv3x3s2_loop, conv_bn_loop, matmul_loop,
                     softmax_row)


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
        assert bn.state.mean.dtype == bn.state.var.dtype == np.float32


class TestBatchNorm:
    def test_constant_channel_maps_to_beta(self):
        x = np.full((2, 1, 3, 3), 7.25)
        bn = BatchNorm(1)
        out = bn(Tensor(x))
        assert np.abs(out.data).max() <= 1e-6

    def test_zero_gamma_gives_beta(self, rng):
        bn = BatchNorm(2)
        bn.gamma.data[...] = 0.0
        bn.beta.data[...] = 1.0
        out = bn(Tensor(rng.normal(size=(3, 2, 2, 2))))
        assert np.all(out.data == 1.0)

    def test_normalizes_against_direct_stats_oracle(self, rng):
        x = rng.normal(loc=2.0, scale=3.0, size=(4, 2, 3, 3))
        bn = BatchNorm(2)
        out = bn(Tensor(x)).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-10
        _, variances = batchnorm_stats(x)
        for ch in range(2):
            expected = variances[ch] / (variances[ch] + bn.eps)
            assert abs(out[:, ch].var() - expected) < 1e-6

    def test_running_stats_follow_ema(self, rng):
        x = rng.normal(loc=1.5, size=(4, 1, 2, 2))
        bn = BatchNorm(1)
        bn(Tensor(x))
        m = x.mean()
        assert abs(bn.state.mean[0] - 0.1 * m) < 1e-12

    def test_running_var_moves_toward_unbiased_variance(self, rng):
        x = rng.normal(scale=2.0, size=(4, 1, 2, 2))
        bn = BatchNorm(1)
        bn(Tensor(x))
        assert abs(bn.state.var[0] - (0.9 + 0.1 * x.var(ddof=1))) < 1e-12

    def test_eval_mode_uses_running_stats(self, rng):
        bn = BatchNorm(1)
        bn.state.mean[...] = 2.0
        bn.state.var[...] = 4.0
        x = np.full((1, 1, 2, 2), 4.0)
        with nm.eval_mode():
            out = bn(Tensor(x))
        expected = (4.0 - 2.0) / np.sqrt(4.0 + bn.eps)
        assert np.abs(out.data - expected).max() < 1e-12

    def test_eval_mode_gradient_is_fixed_at_forward(self, rng):
        """A batchnorm forwarded under eval_mode() back-propagates as the
        fixed affine map gamma / sqrt(var + eps), even once the block is left."""
        bn = BatchNorm(2)
        bn.state.var[...] = [4.0, 0.25]
        bn.gamma.data[...] = [3.0, -1.0]
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        with nm.eval_mode():
            out = nm.tsum(bn(x))
        out.backward()
        scale = bn.gamma.data / np.sqrt(bn.state.var + bn.eps)
        assert np.abs(x.grad - scale[None, :, None, None]).max() < 1e-12

    def test_empty_slice_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ShapeError):
            bn(Tensor(np.zeros((0, 2, 3, 3))))


class TestConvBN:
    @staticmethod
    def _layer(rng, stride2):
        w = rng.normal(size=(5, 3, 3, 3) if stride2 else (5, 3))
        bn = BatchNorm(5)
        bn.state.mean[...] = rng.normal(size=5)
        bn.state.var[...] = rng.uniform(0.5, 2.0, size=5)
        bn.gamma.data[...] = rng.normal(size=5)
        bn.beta.data[...] = rng.normal(size=5)
        return w, bn

    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    def test_folded_matches_op_chain(self, rng, stride2, act):
        """Under no_grad() + eval_mode() the op folds BN into the conv and
        records one node that agrees with the explicit conv, batchnorm, silu
        chain of the standalone ops."""
        w, bn = self._layer(rng, stride2)
        x = rng.normal(size=(2, 3, 4, 4))
        with nm.eval_mode():
            conv = nm.conv3x3s2(Tensor(x), Tensor(w)) if stride2 else nm.conv1x1(Tensor(x), Tensor(w))
            want = nm.batchnorm(conv, bn.gamma, bn.beta, bn.state, bn.eps, bn.momentum)
            want = nm.silu(want) if act else want
            with nm.no_grad():
                got = nm.conv_bn(Tensor(x), Tensor(w), bn, stride2, act)
        assert want.op == ("silu" if act else "batchnorm")
        assert got.op == "conv_bn" and got._backward is None and not got._parents
        assert np.abs(got.data - want.data).max() < 1e-12

    @pytest.mark.parametrize("stride2", [False, True])
    @pytest.mark.parametrize("act", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_loop_oracle(self, rng, stride2, act, training):
        """One node with parents (x, w, gamma, beta); its output and the
        running-statistic update (train mode) or none (eval mode) match the
        scalar conv -> batchnorm -> SiLU oracle."""
        w, bn = self._layer(rng, stride2)
        x = rng.normal(size=(2, 3, 4, 4))
        want, mean, var = conv_bn_loop(x, w, bn.gamma.data, bn.beta.data, bn.state.mean,
                                       bn.state.var, bn.eps, bn.momentum, stride2, act, training)
        with _mode_ctx(training):
            got = nm.conv_bn(Tensor(x), Tensor(w, requires_grad=True), bn, stride2, act)
        assert got.op == "conv_bn"
        assert got._parents[2] is bn.gamma and got._parents[3] is bn.beta
        assert np.abs(got.data - want).max() < 1e-12
        assert np.abs(bn.state.mean - mean).max() < 1e-12
        assert np.abs(bn.state.var - var).max() < 1e-12

    def test_frozen_bn_stats_keep_running_stats(self, rng):
        w, bn = self._layer(rng, stride2=True)
        before = (bn.state.mean.copy(), bn.state.var.copy())
        with nm.frozen_bn_stats():
            nm.conv_bn(Tensor(rng.normal(size=(2, 3, 4, 4))), Tensor(w), bn, stride2=True)
        assert np.array_equal(bn.state.mean, before[0]) and np.array_equal(bn.state.var, before[1])

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

    def f():
        a = nm.mul(nm.sigmoid(x), nm.softplus(y))
        b = nm.sub(nm.sigmoid(nm.mul(y, 0.1)), nm.add(nm.mul(x, x), 1.0))
        c = nm.silu(nm.sub(a, b))
        d = nm.add(nm.neg(c), nm.mul(b, 0.5))
        return nm.add(nm.tsum(nm.softplus(nm.mul(d, d))), nm.mul(nm.tsum(nm.sigmoid(x)), 0.25))

    assert finite_diff_check(f, [x, y]) < 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_structural_ops_gradcheck(seed):
    r = np.random.default_rng(seed)
    x = Tensor(r.normal(size=(2, 4, 4, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(3, 4, 3, 3)), requires_grad=True)
    readout = r.normal(size=(2, 3, 2, 2))

    def f():
        y = nm.conv3x3s2(x, w)
        up = nm.upsample2x(y)
        pooled = nm.avgpool2x2(up)
        sliced = nm.take(nm.reshape(pooled, (2 * 3, 4)), np.array([0, 2, 2, 5]), axis=0)
        return nm.add(nm.tsum(nm.mul(pooled, nm.as_tensor(readout))),
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
    x = rng.normal(size=(2, 3, 5, 4))
    assert np.array_equal(nm.avgpool2x2(nm.upsample2x(Tensor(x))).data, x)


def test_strict_shape_errors(rng):
    a = Tensor(rng.normal(size=(2, 3)))
    b = Tensor(rng.normal(size=(3, 2)))
    for op in (nm.add, nm.sub, nm.mul):
        with pytest.raises(ShapeError):
            op(a, b)
