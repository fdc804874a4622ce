import numpy as np
import pytest

from crackdet import numerics as nm
from crackdet.attention import (Attention4DConfig, attention4d_forward,
                                attention4d_param_count, init_attention4d)
from crackdet.errors import ShapeError
from crackdet.numerics import Tensor, finite_diff_check

from oracles import attention4d_loop


def randomized_block(rng, channels=8, heads=2, key_dim=4, spatial=(4, 4)):
    """Fresh block pushed off its identity-init point."""
    cfg = Attention4DConfig(channels=channels, heads=heads, key_dim=key_dim, spatial=spatial)
    p = init_attention4d(cfg, rng)
    p.bn_out.gamma.data[...] = rng.normal(size=channels)
    p.pos_bias.data[...] = rng.normal(size=p.pos_bias.data.shape) * 0.3
    p.t_pre.data[...] += rng.normal(size=p.t_pre.data.shape) * 0.2
    p.t_post.data[...] += rng.normal(size=p.t_post.data.shape) * 0.2
    return cfg, p


class TestInit:
    def test_identity_at_init_with_residual(self, rng):
        cfg = Attention4DConfig(channels=6, heads=2, key_dim=4, spatial=(3, 3))
        p = init_attention4d(cfg, rng)
        x = rng.normal(size=(2, 6, 3, 3))
        out = attention4d_forward(Tensor(x), p)
        assert np.abs(out.data - x).max() < 1e-12

    def test_same_seed_identical(self):
        cfg = Attention4DConfig(channels=4, heads=2, key_dim=2, spatial=(2, 2))
        a = init_attention4d(cfg, np.random.default_rng(11))
        b = init_attention4d(cfg, np.random.default_rng(11))
        for (_, ta), (_, tb) in zip(a.params(), b.params()):
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        cfg = Attention4DConfig(channels=4, heads=2, key_dim=2, spatial=(2, 2))
        for seed in range(10):
            a = init_attention4d(cfg, np.random.default_rng(seed))
            b = init_attention4d(cfg, np.random.default_rng(seed + 1000))
            assert not np.array_equal(a.w_q.data, b.w_q.data)

    def test_sanity_bound_enforced(self):
        with pytest.raises(ShapeError):
            Attention4DConfig(channels=2, heads=8, key_dim=8, spatial=(2, 2))


class TestForward:
    def test_shape_preserved(self, rng):
        cfg, p = randomized_block(rng, channels=16, heads=2, key_dim=4, spatial=(6, 6))
        out = attention4d_forward(Tensor(rng.normal(size=(2, 16, 6, 6))), p)
        assert out.shape == (2, 16, 6, 6)

    def test_spatial_mismatch_names_expected_size(self, rng):
        cfg, p = randomized_block(rng, spatial=(4, 4))
        with pytest.raises(ShapeError, match=r"\(4, 4\)"):
            attention4d_forward(Tensor(rng.normal(size=(1, 8, 5, 5))), p)

    def test_uniform_attention_limit(self, rng):
        # zero query projection + zero bias -> every output token is the
        # input token plus the spatial mean of the value tokens; with
        # identity-like v/out paths (values are key_dim = c wide) the value
        # tokens are the input tokens themselves.
        c, h = 4, 1
        cfg = Attention4DConfig(channels=c, heads=h, key_dim=c, spatial=(3, 3))
        p = init_attention4d(cfg, np.random.default_rng(0))
        p.w_q.data[...] = 0.0
        p.w_v.data[...] = np.eye(c)
        p.w_out.data[...] = np.eye(c)
        for bn in (p.bn_v, p.bn_out):
            bn.running_mean[...] = 0.0
            bn.running_var[...] = 1.0
            bn.gamma.data[...] = np.sqrt(1.0 + bn.eps)
            bn.beta.data[...] = 0.0
        x = np.random.default_rng(1).normal(size=(2, c, 3, 3))
        with nm.eval_mode():
            out = attention4d_forward(Tensor(x), p)
        expected = np.broadcast_to(x.mean(axis=(2, 3))[:, :, None, None], x.shape)
        assert np.abs(out.data - x - expected).max() < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_loop_oracle_single_head(self, seed):
        rng = np.random.default_rng(seed)
        cfg, p = randomized_block(rng, channels=8, heads=1, key_dim=4, spatial=(4, 4))
        x = rng.normal(size=(1, 8, 4, 4))
        fast = attention4d_forward(Tensor(x), p).data
        slow = attention4d_loop(x, p)
        assert np.abs(fast - slow).max() < 1e-10

    def test_matches_loop_oracle_multi_head(self, rng):
        cfg, p = randomized_block(rng, channels=6, heads=3, key_dim=2, spatial=(2, 3))
        x = rng.normal(size=(2, 6, 2, 3))
        fast = attention4d_forward(Tensor(x), p).data
        slow = attention4d_loop(x, p)
        assert np.abs(fast - slow).max() < 1e-10


class TestProperties:
    def test_attention_rows_sum_to_one_with_identity_post_mix(self, rng):
        cfg, p = randomized_block(rng, spatial=(3, 3))
        p.t_post.data[...] = np.eye(cfg.heads)
        _, attn = attention4d_forward(Tensor(rng.normal(size=(2, 8, 3, 3))), p,
                                      return_attn=True)
        assert np.abs(attn.data.sum(axis=-1) - 1.0).max() < 1e-6

    def test_post_mix_rows_sum_to_mixing_row_sums(self, rng):
        cfg, p = randomized_block(rng, spatial=(3, 3))
        _, attn = attention4d_forward(Tensor(rng.normal(size=(1, 8, 3, 3))), p,
                                      return_attn=True)
        row_sums = p.t_post.data.sum(axis=1)
        assert np.abs(attn.data.sum(axis=-1) - row_sums[None, :, None]).max() < 1e-6

    def test_permutation_equivariance_without_positional_bias(self, rng):
        cfg, p = randomized_block(rng, channels=6, heads=2, key_dim=3, spatial=(2, 2))
        p.pos_bias.data[...] = 0.0
        x = rng.normal(size=(2, 6, 2, 2))
        perm = np.array([2, 0, 3, 1])
        xt = x.reshape(2, 6, 4)[:, :, perm].reshape(2, 6, 2, 2)
        out = attention4d_forward(Tensor(x), p).data.reshape(2, 6, 4)
        out_perm = attention4d_forward(Tensor(xt), p).data.reshape(2, 6, 4)
        assert np.abs(out[:, :, perm] - out_perm).max() < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check_every_parameter_group(self, seed):
        rng = np.random.default_rng(seed)
        cfg, p = randomized_block(rng, channels=8, heads=4, key_dim=2, spatial=(3, 3))
        x = Tensor(rng.normal(size=(2, 8, 3, 3)), requires_grad=True)
        readout = rng.normal(size=(2, 8, 3, 3))
        f = lambda: nm.tsum(nm.mul(attention4d_forward(x, p), nm.as_tensor(readout)))
        for name, tensor in [("x", x)] + list(p.params()):
            err = finite_diff_check(f, [tensor], max_coords=6, rng=rng)
            assert err < 1e-4, f"group {name}: {err}"

    def test_parameter_count_formula_matches_allocation(self, rng):
        for heads, d, spatial in ((2, 4, (3, 3)), (4, 2, (2, 5)), (1, 8, (4, 4))):
            cfg = Attention4DConfig(channels=8, heads=heads, key_dim=d, spatial=spatial)
            p = init_attention4d(cfg, rng)
            actual = sum(t.data.size for _, t in p.params())
            assert attention4d_param_count(cfg) == actual
