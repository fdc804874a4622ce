from dataclasses import fields

import numpy as np
import pytest

from crackdet import numerics as nm
from crackdet.config import load_config
from crackdet.errors import ConfigError
from crackdet.model import build_detector
from crackdet.neck import (NeckConfig, NeckSettings, PyramidFeatures, csp_layer,
                           describe_layout, init_csp, init_neck, neck_forward, parameter_count)
from crackdet.numerics import Tensor, finite_diff_check


def tiny_cfg(**kwargs):
    base = dict(in_channels=(4, 6, 8), out_channels=4,
                spatial=((8, 8), (4, 4), (2, 2)), csp_depth=1,
                attn_heads=2, attn_key_dim=4)
    base.update(kwargs)
    return NeckConfig(**base)


def tiny_pyramid(rng, cfg, batch=1, requires_grad=False):
    arrays = [rng.normal(size=(batch, c, h, w))
              for c, (h, w) in zip(cfg.in_channels, cfg.spatial)]
    return PyramidFeatures(*[Tensor(a, requires_grad=requires_grad) for a in arrays])


def randomize_attention(params, rng):
    for block in params.attn.values():
        block.bn_out.gamma.data[...] = rng.normal(size=block.bn_out.gamma.data.shape)
        block.pos_bias.data[...] = rng.normal(size=block.pos_bias.data.shape) * 0.1


class TestNeckSettings:
    def test_one_default_per_setting(self):
        """The config's neck section is the settings class that NeckConfig
        extends, so a NeckConfig given only its pyramid has the run's settings."""
        run = load_config().neck
        assert type(run) is NeckSettings and issubclass(NeckConfig, NeckSettings)
        cfg = NeckConfig(in_channels=(64, 96, 128), spatial=((8, 8), (4, 4), (2, 2)))
        assert {f.name: getattr(cfg, f.name) for f in fields(NeckSettings)} == vars(run)


class TestCSPLayer:
    def test_zero_final_conv_gives_zeros(self, rng):
        p = init_csp(rng, 6, 4, depth=2)
        p.final.w.data[...] = 0.0
        out = csp_layer(Tensor(rng.normal(size=(2, 6, 5, 5))), p)
        assert np.all(out.data == 0.0)

    def test_shape_contract(self, rng):
        p = init_csp(rng, 32, 32, depth=1)
        out = csp_layer(Tensor(rng.normal(size=(2, 32, 10, 10))), p)
        assert out.shape == (2, 32, 10, 10)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        p = init_csp(rng, 4, 4, depth=1)
        x = Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True)
        readout = rng.normal(size=(1, 4, 4, 4))
        params = [x] + [t for _, t in p.params("csp")]
        err = finite_diff_check(lambda: nm.tsum(nm.mul(csp_layer(x, p), nm.as_tensor(readout))),
                                params, max_coords=40, rng=rng)
        assert err < 1e-4


class TestNeckForward:
    def test_fullscale_pyramid_spatial_sizes_preserved(self):
        # full-scale 80/40/20 pyramid geometry at thin widths in float32
        rng = np.random.default_rng(0)
        cfg = NeckConfig(in_channels=(8, 16, 32), out_channels=8,
                         spatial=((80, 80), (40, 40), (20, 20)),
                         attn_heads=1, attn_key_dim=4, csp_depth=1)
        p = init_neck(cfg, rng, dtype=np.float32)
        feats = PyramidFeatures(
            Tensor(rng.normal(size=(2, 8, 80, 80)).astype(np.float32)),
            Tensor(rng.normal(size=(2, 16, 40, 40)).astype(np.float32)),
            Tensor(rng.normal(size=(2, 32, 20, 20)).astype(np.float32)))
        with nm.no_grad():
            out = neck_forward(feats, p)
        assert out.p3.shape == (2, 8, 80, 80)
        assert out.p4.shape == (2, 8, 40, 40)
        assert out.p5.shape == (2, 8, 20, 20)

    def test_upsample_constant_map(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.5))
        up = nm.upsample2x(x)
        assert up.shape == (1, 1, 4, 4)
        assert np.all(up.data == 3.5)

    @pytest.mark.parametrize("placement", ["top_down_only", "bottom_up_only",
                                           "single_at_end", "both"])
    def test_output_shapes_identical_across_placements(self, rng, placement):
        cfg = tiny_cfg(placement=placement, num_attention_blocks=None)
        p = init_neck(cfg, rng)
        out = neck_forward(tiny_pyramid(rng, cfg, batch=2), p)
        for level, (h, w) in zip(out.levels(), cfg.spatial):
            assert level.shape == (2, cfg.out_channels, h, w)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError, match="placement"):
            tiny_cfg(placement="sideways")

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(placement="single_at_end", num_attention_blocks=3)

    @pytest.mark.parametrize("placement,blocks,expected", [
        ("both", 2, ("td_c5", "td_c4")),
        ("both", 3, ("td_c5", "td_c4", "bu_c4")),
        ("top_down_only", 1, ("td_c5",)),
        ("bottom_up_only", 1, ("bu_c4",)),
    ])
    def test_block_count_truncates_top_down_first(self, rng, placement, blocks, expected):
        cfg = tiny_cfg(placement=placement, num_attention_blocks=blocks)
        assert cfg.active_slots() == expected
        p = init_neck(cfg, rng)
        assert tuple(sorted(p.attn, key=list(expected).index)) == expected
        out = neck_forward(tiny_pyramid(rng, cfg), p)
        assert out.p5.shape == (1, cfg.out_channels, 2, 2)

    @pytest.mark.parametrize("seed", range(3))
    def test_end_to_end_gradient_check(self, seed):
        rng = np.random.default_rng(seed)
        cfg = tiny_cfg()
        p = init_neck(cfg, rng)
        randomize_attention(p, rng)
        feats = tiny_pyramid(rng, cfg, requires_grad=True)
        readouts = [rng.normal(size=(1, 4, h, w)) for h, w in cfg.spatial]
        params = list(feats.levels()) + [t for _, t in p.params()]

        def f():
            out = neck_forward(feats, p)
            terms = [nm.tsum(nm.mul(level, nm.as_tensor(r)))
                     for level, r in zip(out.levels(), readouts)]
            return nm.add(nm.add(terms[0], terms[1]), terms[2])

        assert finite_diff_check(f, params, max_coords=40, rng=rng) < 1e-4


class TestParameterCount:
    def test_placement_ordering_matches_reported_trend(self):
        # 40.2M > 38.5M > 37.8M ordering at full scale; structure must agree
        counts = {placement: parameter_count(tiny_cfg(placement=placement,
                                                      num_attention_blocks=None))
                  for placement in ("both", "top_down_only", "single_at_end")}
        assert counts["both"] > counts["top_down_only"] > counts["single_at_end"]

    def test_strictly_increasing_in_block_count(self):
        counts = [parameter_count(tiny_cfg(placement="both", num_attention_blocks=n))
                  for n in (1, 2, 3, 4)]
        assert counts == sorted(counts) and len(set(counts)) == 4

    def test_deterministic(self):
        cfg = tiny_cfg()
        assert parameter_count(cfg) == parameter_count(cfg)

    def test_csp_depth_difference_is_exact_bottleneck_cost(self):
        c0 = parameter_count(tiny_cfg(csp_depth=0))
        c2 = parameter_count(tiny_cfg(csp_depth=2))
        # each bottleneck: 1x1 conv (hidden x hidden) + BN(gamma, beta); the
        # four CSP layers have hidden widths out_ch//2 = (3, 2, 2, 2) for
        # td4 (out c4=6) and the three out_channels=4 layers
        per_depth = sum(h * h + 2 * h for h in (3, 2, 2, 2))
        assert c2 - c0 == 2 * per_depth

    def test_layout_description_lists_blocks(self):
        cfg = tiny_cfg(placement="both", num_attention_blocks=3)
        layout = describe_layout(cfg)
        assert [b["slot"] for b in layout["attention_blocks"]] == ["td_c5", "td_c4", "bu_c4"]
        assert layout["total_parameters"] == parameter_count(cfg)
        assert all(b["parameters"] > 0 for b in layout["attention_blocks"])
