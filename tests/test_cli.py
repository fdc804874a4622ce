import dataclasses
import hashlib
import itertools
import json
import os
import re

import numpy as np
import pytest

import crackdet
from crackdet.cli import _json_ready, main
from crackdet.config import (ModelSection, NumericsSection, RunConfig, TrainingSection,
                             __version__, config_dict, load_config)
from crackdet.errors import ConfigError
from crackdet.dataio import SyntheticConfig
from crackdet.neck import NeckSettings

TINY = [
    "--set", "model.backbone_widths=[2,3,4,6,8]",
    "--set", "model.head_channels=4",
    "--set", "neck.out_channels=4",
    "--set", "neck.attn_key_dim=4",
    "--set", "synthetic.num_images=10",
    "--set", "synthetic.num_classes=2",
    "--set", "model.num_classes=2",
    "--set", "training.steps=6",
]


def make_eval_fixture(tmp_path):
    gt = {
        "images": [{"id": 1, "file_name": "a.ppm", "width": 100, "height": 100}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 10]}],
        "categories": [{"id": 1, "name": "crack"}],
    }
    dets = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 6], "score": 0.9}]
    gt_path = tmp_path / "gt.json"
    det_path = tmp_path / "dets.json"
    gt_path.write_text(json.dumps(gt))
    det_path.write_text(json.dumps(dets))
    return str(gt_path), str(det_path)


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"neck": {"bogus_knob": 3}}))
        with pytest.raises(ConfigError, match="neck.bogus_knob"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"wheels": {}}))
        with pytest.raises(ConfigError, match="wheels"):
            load_config(path)

    def test_overrides_applied(self):
        cfg = load_config(overrides=["training.lr=0.5", "neck.placement=both"])
        assert cfg.training.lr == 0.5
        assert cfg.neck.placement == "both"

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["training.lr"])

    @pytest.mark.parametrize("override", ["training.lr=fast", "assignment.lambda_loc=abc",
                                          "model.num_classes=true"])
    def test_mistyped_value_exit_1(self, tmp_path, capsys, override):
        rc = main(["stats", "--dataset", str(tmp_path / "none.json"), "--out", str(tmp_path / "o"),
                   "--set", override])
        assert rc == 1
        assert override.split("=")[0] in capsys.readouterr().err

    def test_int_fits_float_and_list_becomes_tuple(self):
        cfg = load_config(overrides=["training.lr=1", "model.backbone_widths=[1,2,3,4,5]"])
        assert cfg.training.lr == 1
        assert cfg.model.backbone_widths == (1, 2, 3, 4, 5)
        with pytest.raises(ConfigError, match="neck.attn_key_dim"):
            load_config(overrides=["neck.attn_key_dim=null"])
        with pytest.raises(ConfigError, match="training.lr"):
            load_config(overrides=["training.lr=false"])

    def test_value_nested_past_the_parser_depth_stays_a_string(self):
        """A --set value too deep for the JSON parser is kept as the raw
        string, as a non-JSON value is, and fails the key's type check."""
        deep = "[" * 3000 + "]" * 3000
        with pytest.raises(ConfigError, match="config key 'model.head_channels' expects int"):
            load_config(overrides=[f"model.head_channels={deep}"])

    @pytest.mark.parametrize("value,key", [
        ("[" * 3000 + "]" * 3000, "model.head_channels"),
        ("x" * 5000, "neck.placement"),
        ("1" + "0" * 5000, "training.lr"),
    ], ids=["nested-list", "long-choice", "long-number"])
    def test_long_rejected_value_cut_in_the_error_line(self, tmp_path, capsys, value, key):
        rc = main(["gen-data", "--set", f"{key}={value}", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert key in err and "..." in err and len(err.encode()) < 300, err

    @pytest.mark.parametrize("key", ["training.lr", "model.score_thr"])
    def test_float_value_too_large_for_a_float_rejected(self, key):
        """An int fits a float field, but not one no float can hold."""
        with pytest.raises(ConfigError, match=f"^{key} must be a finite number, got 1000"):
            load_config(overrides=[f"{key}=1{'0' * 400}"])

    def test_section_validated_on_final_values(self, tmp_path):
        cfg = load_config(overrides=["synthetic.min_shapes=5", "synthetic.max_shapes=6"])
        assert (cfg.synthetic.min_shapes, cfg.synthetic.max_shapes) == (5, 6)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"synthetic": {"min_shapes": 5}}))
        assert load_config(path, ["synthetic.max_shapes=5"]).synthetic.max_shapes == 5
        with pytest.raises(ConfigError, match="synthetic.max_shapes must be at least "
                                              r"synthetic.min_shapes \(5\), got 4"):
            load_config(path)

    def test_default_config_echo(self):
        assert config_dict(load_config()) == {
            "numerics": {"dtype": "float64"},
            "model": {"num_classes": 3, "image_size": 64,
                      "backbone_widths": [32, 48, 64, 96, 128], "head_channels": 96,
                      "score_thr": 0.05, "nms_iou": 0.65},
            "neck": {"out_channels": 96, "csp_depth": 1, "placement": "top_down_only",
                     "num_attention_blocks": 2, "attn_heads": 2, "attn_key_dim": 16},
            "synthetic": {"num_images": 200, "image_size": 64, "num_classes": 3,
                          "min_shapes": 2, "max_shapes": 4, "seed": 0},
            "training": {"batch_size": 4, "steps": 300, "lr": 0.004, "seed": 0},
        }

    def test_one_synthetic_default(self):
        """The run's synthetic set is the library's default set."""
        assert RunConfig().synthetic == SyntheticConfig()

    def test_config_echo_loads_back_exactly(self, tmp_path):
        """The echo holds the unrounded values (six decimals would turn both
        of these into other values), so reloading it gives the same run."""
        gt_path, det_path = make_eval_fixture(tmp_path)
        overrides = ["training.lr=0.00123456789", "model.score_thr=3e-9"]
        assert main(["eval", "--gt", gt_path, "--dets", det_path, "--out", str(tmp_path / "o")]
                    + [arg for o in overrides for arg in ("--set", o)]) == 0
        echo = json.loads((tmp_path / "o" / "eval.json").read_text())["config"]
        assert echo["training"]["lr"] == 0.00123456789
        assert echo["model"]["score_thr"] == 3e-9
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        assert config_dict(load_config(tmp_path / "echo.json")) == \
            config_dict(load_config(overrides=overrides))

    @pytest.mark.parametrize("overrides, count, digest", [
        ([], 175, "45a556d308afe44a"),
        (["neck.placement=both", "neck.num_attention_blocks=2", "neck.csp_depth=2"], 195,
         "420178bd101e2c83"),
        (["neck.placement=single_at_end", "neck.num_attention_blocks=1"], 152,
         "d6dbc69397b07d2b"),
    ])
    def test_state_dict_keys_pinned(self, overrides, count, digest):
        from crackdet.train import detector_from_config

        detector = detector_from_config(load_config(overrides=overrides),
                                        np.random.default_rng(0))
        keys = list(detector.state_dict())
        assert len(keys) == count
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("placement, slots", [
        ("top_down_only", ["td_c4", "td_c5"]),
        ("both", ["bu_c4", "bu_c5", "td_c4", "td_c5"]),
        ("single_at_end", ["end"]),
    ])
    def test_unset_block_count_resolves_to_every_slot(self, placement, slots):
        """With no neck.num_attention_blocks a placement gets all of its
        slots; the resolved count is what the echo records and what is built."""
        from crackdet.train import detector_from_config

        cfg = load_config(overrides=[f"neck.placement={placement}"])
        assert config_dict(cfg)["neck"]["num_attention_blocks"] == len(slots)
        assert sorted(detector_from_config(cfg, np.random.default_rng(0)).neck.attn) == slots

    def test_explicit_block_count_kept(self):
        cfg = load_config(overrides=["neck.placement=both", "neck.num_attention_blocks=2"])
        assert cfg.neck.num_attention_blocks == 2
        assert cfg.neck.active_slots() == ("td_c5", "td_c4")
        unset = load_config(overrides=["neck.placement=both", "neck.num_attention_blocks=null"])
        assert unset.neck.num_attention_blocks is None
        assert len(unset.neck.active_slots()) == 4

    def test_unset_block_count_follows_a_replaced_placement(self):
        """Derived with ``dataclasses.replace`` or loaded with the override,
        the settings count the new placement's slots; the echo names the
        count either way, and an explicit count stays as set."""
        loaded = load_config(overrides=["neck.placement=both"])
        derived = dataclasses.replace(load_config().neck, placement="both")
        assert derived == loaded.neck
        assert len(derived.active_slots()) == len(loaded.neck.active_slots()) == 4
        assert config_dict(loaded)["neck"] == {**dataclasses.asdict(derived),
                                               "num_attention_blocks": 4}
        assert json.dumps(config_dict(load_config())["neck"]["num_attention_blocks"]) == "2"
        explicit = load_config(overrides=["neck.placement=both", "neck.num_attention_blocks=2"])
        assert dataclasses.replace(explicit.neck, csp_depth=2).num_attention_blocks == 2
        assert dataclasses.replace(derived, placement="single_at_end").active_slots() == ("end",)


@pytest.fixture(scope="module")
def two_image_set(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("two") / "data"
    assert main(["gen-data", "--out", str(data_dir), "--set", "synthetic.num_images=2"]) == 0
    return str(data_dir)


class TestConfigRejectedAtLoad:
    """Bad config values stop `stats` at load: exit 1, an error line, no
    traceback and no artifact, although `stats` builds no detector."""

    def _stats_fails(self, data_dir, tmp_path, capsys, extra):
        out_dir = tmp_path / "out"
        rc = main(["stats", "--dataset", data_dir, "--out", str(out_dir), *extra])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out_dir / "stats.json").exists()
        return err

    def test_non_object_config_file(self, two_image_set, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1]")
        err = self._stats_fails(two_image_set, tmp_path, capsys, ["--config", str(path)])
        assert "JSON object" in err

    @pytest.mark.parametrize("override,message", [
        ("neck.placement=bogus", "placement"),
        ("neck.out_channels=95", "out_channels"),
        ("neck.num_attention_blocks=7", "num_attention_blocks"),
        ("neck.attn_heads=0", "attn_heads"),
        ("neck.attn_key_dim=0", "attn_key_dim"),
        ("neck.out_channels=0", "out_channels"),
        ("neck.out_channels=-2", "out_channels"),
        ("neck.csp_depth=-1", "csp_depth"),
        ("neck.attn_heads=100", "heads*key_dim"),
    ])
    def test_bad_neck_value(self, two_image_set, tmp_path, capsys, override, message):
        err = self._stats_fails(two_image_set, tmp_path, capsys, ["--set", override])
        assert message in err

    @pytest.mark.parametrize("override,message", [
        ("model.head_channels=0", "head_channels"),
        ("model.head_channels=-4", "head_channels"),
        ("model.backbone_widths=[32,48,0,96,128]", "backbone_widths"),
        ("model.backbone_widths=[-1,48,64,96,128]", "backbone_widths"),
        ("model.backbone_widths=[32,48,64,96,\"x\"]", "backbone_widths"),
        ("model.num_classes=0", "model.num_classes"),
        ("model.num_classes=-1", "model.num_classes"),
        ("model.image_size=0", "model.image_size"),
        ("model.image_size=-32", "model.image_size"),
        ("model.score_thr=1", "model.score_thr"),
        ("model.score_thr=2", "model.score_thr"),
        ("model.score_thr=-0.1", "model.score_thr"),
        ("model.nms_iou=1.5", "model.nms_iou"),
        ("model.nms_iou=-1", "model.nms_iou"),
    ])
    def test_bad_model_value(self, two_image_set, tmp_path, capsys, override, message):
        err = self._stats_fails(two_image_set, tmp_path, capsys, ["--set", override])
        assert message in err

    @pytest.mark.parametrize("override,message", [
        ("training.steps=0", "training.steps"),
        ("training.steps=-1", "training.steps"),
        ("training.batch_size=0", "training.batch_size"),
        ("training.batch_size=-4", "training.batch_size"),
        ("training.lr=0", "training.lr"),
        ("training.lr=-1", "training.lr"),
        ("training.lr=NaN", "training.lr"),
        ("training.lr=Infinity", "training.lr"),
        # momentum, weight_decay and the loss weights are no longer settable:
        # each fails as an unknown key
        ("training.momentum=5", "training.momentum"),
        ("training.momentum=1", "training.momentum"),
        ("training.momentum=-0.1", "training.momentum"),
        ("training.momentum=NaN", "training.momentum"),
        ("training.weight_decay=-1", "training.weight_decay"),
        ("training.weight_decay=NaN", "training.weight_decay"),
        ("training.weight_decay=Infinity", "training.weight_decay"),
        ("loss.w_cls=-1", "loss.w_cls"),
        ("loss.w_cls=NaN", "loss.w_cls"),
        ("loss.w_reg=-0.5", "loss.w_reg"),
        ("loss.w_reg=Infinity", "loss.w_reg"),
    ])
    def test_bad_training_value(self, two_image_set, tmp_path, capsys, override, message):
        err = self._stats_fails(two_image_set, tmp_path, capsys, ["--set", override])
        assert message in err

    @pytest.mark.parametrize("override", [
        "assignment.lambda_cls=0", "assignment.lambda_loc=Infinity",
        "assignment.lambda_center=NaN", "assignment.lambda_center=-1",
        "assignment.alpha=NaN", "assignment.alpha=1", "assignment.alpha=Infinity",
        "assignment.beta=NaN", "assignment.beta=-Infinity", "assignment.beta=Infinity",
        # iou_floor and prob_clamp are no longer settable: each fails as an unknown key
        "assignment.iou_floor=0", "assignment.iou_floor=1.5", "assignment.iou_floor=NaN",
        "assignment.prob_clamp=0", "assignment.prob_clamp=0.5", "assignment.prob_clamp=0.7",
        "assignment.prob_clamp=NaN",
    ])
    def test_bad_assignment_value(self, two_image_set, tmp_path, capsys, override):
        err = self._stats_fails(two_image_set, tmp_path, capsys, ["--set", override])
        assert override.split("=")[0] in err

    @pytest.mark.parametrize("command,extra,key", [
        ("gen-data", ["--seed", "-1"], "training.seed"),
        ("train-toy", ["--set", "training.seed=-1"], "training.seed"),
        ("train-toy", ["--set", "synthetic.seed=-1"], "synthetic.seed"),
        ("train-toy", ["--set", "neck.attn_heads=0"], "neck.attn_heads"),
        ("gen-data", ["--set", "synthetic.image_size=0"], "synthetic.image_size"),
        ("gen-data", ["--set", "synthetic.image_size=1"], "synthetic.image_size"),
        ("gen-data", ["--set", "synthetic.image_size=-5"], "synthetic.image_size"),
        ("gen-data", ["--set", "synthetic.num_images=0"], "synthetic.num_images"),
        ("gen-data", ["--set", "synthetic.num_images=-1"], "synthetic.num_images"),
        ("gen-data", ["--set", "synthetic.image_size=16"], "synthetic.image_size"),
        ("gen-data", ["--set", "synthetic.image_size=17"], "synthetic.image_size"),
        ("train-toy", ["--set", "assignment.alpha=NaN"], "assignment.alpha"),
        ("train-toy", ["--set", "assignment.lambda_loc=Infinity"], "assignment.lambda_loc"),
        ("gen-data", ["--set", "synthetic.num_classes=9"], "synthetic.num_classes"),
        ("gen-data", ["--set", "synthetic.num_classes=0"], "synthetic.num_classes"),
        ("gen-data", ["--set", "synthetic.min_shapes=-1"], "synthetic.min_shapes"),
        ("gen-data", ["--set", "synthetic.max_shapes=1"], "synthetic.max_shapes"),
        ("train-toy", ["--set", "synthetic.min_shapes=5"], "synthetic.max_shapes"),
    ])
    def test_bad_value_stops_gen_data_and_train_toy(self, tmp_path, capsys, command, extra,
                                                     key):
        """A negative seed (which numpy's generator rejects with a raw
        ValueError), a zero head count, a non-finite assignment weight, a
        synthetic image size below 18 (too small for some shapes), a
        synthetic set of no images, a class count outside 1..5 or a shape
        count range that runs backwards fails at load, naming its key."""
        out_dir = tmp_path / "out"
        rc = main([command, "--out", str(out_dir)] + TINY + extra)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("overrides", [
        ["training.lr=5e-324", "training.steps=1", "training.batch_size=1"],
        ["training.lr=1e300", "training.seed=0"],
    ])
    def test_training_range_edges_still_load(self, overrides):
        """The smallest positive and a huge learning rate load, as do one
        step, a batch of one and seed 0: each value is bounded under its own
        key only."""
        load_config(overrides=overrides)

    @pytest.mark.parametrize("override", ["neck.out_channels=0", "model.head_channels=0",
                                          "model.backbone_widths=[32,48,0,96,128]",
                                          "neck.attn_heads=100", "model.num_classes=0",
                                          "model.image_size=0"])
    @pytest.mark.parametrize("command", ["stats", "assign-debug"])
    def test_rejected_alike_by_stats_and_assign_debug(self, two_image_set, tmp_path, capsys,
                                                      command, override):
        """A value that would only fail once a detector is built (a raw
        OverflowError from the init, or the attention's heads*key_dim limit)
        stops every subcommand at load."""
        out_dir = tmp_path / "out"
        rc = main([command, "--dataset", two_image_set, "--out", str(out_dir),
                   "--set", override])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("override", ["model.score_thr=0", "model.score_thr=0.99",
                                          "model.nms_iou=0", "model.nms_iou=1",
                                          "model.num_classes=1"])
    def test_model_range_edges_still_load(self, override):
        load_config(overrides=[override])

    def test_valid_neck_values_still_run(self, two_image_set, tmp_path):
        rc = main(["stats", "--dataset", two_image_set, "--out", str(tmp_path / "out"),
                   "--set", "neck.placement=both", "--set", "neck.num_attention_blocks=4"])
        assert rc == 0

    def test_zero_csp_depth_still_runs(self, two_image_set, tmp_path):
        rc = main(["assign-debug", "--dataset", two_image_set, "--out", str(tmp_path / "out"),
                   "--set", "neck.csp_depth=0"])
        assert rc == 0


class TestSectionsCheckThemselves:
    """A section built in code checks its own values when it is built, as
    ``load_config`` would: a library caller gets the CLI's ConfigError
    naming the key, not a raw numpy error or a silently different run."""

    @pytest.mark.parametrize("build,message", [
        (lambda: NumericsSection(dtype="float16"),
         "unknown numerics.dtype 'float16' (expected one of float64|float32)"),
        (lambda: NeckSettings(placement="sideways"),
         "unknown neck.placement 'sideways' (expected one of "
         "top_down_only|bottom_up_only|single_at_end|both)"),
        (lambda: ModelSection(image_size=48), "model.image_size must be divisible by 32"),
        (lambda: dataclasses.replace(load_config().training, lr=-1),
         "training.lr must be in (0, inf), got -1"),
        # a mistyped value fails with the message load_config gives it
        (lambda: TrainingSection(lr="fast"), "config key 'training.lr' expects float, got 'fast'"),
        (lambda: TrainingSection(steps=2.5), "config key 'training.steps' expects int, got 2.5"),
        (lambda: ModelSection(backbone_widths=5),
         "config key 'model.backbone_widths' expects tuple, got 5"),
        (lambda: ModelSection(num_classes=True),
         "config key 'model.num_classes' expects int, got True"),
        (lambda: NeckSettings(num_attention_blocks="big"),
         "config key 'neck.num_attention_blocks' expects int | None, got 'big'"),
        (lambda: SyntheticConfig(num_classes="3"),
         "config key 'synthetic.num_classes' expects int, got '3'"),
    ], ids=["dtype", "placement", "image_size", "replace", "lr_type", "steps_type",
            "backbone_widths_type", "num_classes_type",
            "num_attention_blocks_type", "synthetic_type"])
    def test_rejected_at_construction(self, build, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    # one out-of-range value per RunConfig section
    BAD = {"numerics": ("dtype", "float16"), "model": ("nms_iou", 1.5),
           "neck": ("csp_depth", -1), "training": ("steps", 0),
           "synthetic": ("num_images", 0)}

    @pytest.mark.parametrize("section", dataclasses.fields(RunConfig), ids=lambda f: f.name)
    def test_every_section_checks_itself(self, section):
        key, value = self.BAD[section.name]
        section.default_factory()
        with pytest.raises(ConfigError, match=re.escape(f"{section.name}.{key}")):
            section.default_factory(**{key: value})

    def test_numpy_scalars_fit(self):
        section = TrainingSection(steps=np.int64(3), lr=np.float32(0.5), seed=np.int64(0))
        assert section.steps == 3 and section.lr == 0.5
        assert TrainingSection(lr=np.int64(1)).lr == 1


# The keys of the option-selected forks no run took: an epoch count beside
# training.steps, a constant learning rate, average-pool downsampling and a
# reciprocal centre cost; then the values that only repeated a constant:
# batchnorm's eps and momentum, the attention block's value width, scale and
# residual switch, the assignment costs' IoU floor and probability clamp, the
# two sections of constants (the assigner's weights and the loss weights),
# SGD's momentum and weight decay, and the eval section's one value, max_dets.
# Each value is the one the old echo held by default.
REMOVED_KEYS = {"training.epochs": 2, "training.schedule": "cosine",
                "neck.downsample": "conv", "assignment.center_cost_mode": "soft_center_prior",
                "assignment.eta": 1.0, "assignment.epsilon": 1e-7,
                "numerics.bn_eps": 1e-5, "numerics.bn_momentum": 0.1,
                "neck.attn_value_dim": None, "neck.attn_scale": None, "neck.attn_residual": True,
                "assignment.iou_floor": 1e-7, "assignment.prob_clamp": 1e-7,
                "assignment.lambda_cls": 1.0, "assignment.lambda_loc": 3.0,
                "assignment.lambda_center": 1.0, "assignment.alpha": 10.0,
                "assignment.beta": 3.0, "assignment.dynamic_k_cap": 10,
                "loss.w_cls": 1.0, "loss.w_reg": 2.0,
                "training.momentum": 0.9, "training.weight_decay": 5e-4, "eval.max_dets": 100}
REMOVED_SECTIONS = ("assignment", "loss", "eval")


class TestRemovedKeys:
    """A removed key is an unknown key: given by --set or in a --config file
    (an echo written before its removal), it fails at load naming the key. In
    a file, a key of a removed section fails naming its section."""

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    @pytest.mark.parametrize("source", ["set", "config"])
    def test_cli_exit_1_naming_the_key(self, tmp_path, capsys, key, source):
        section, name = key.split(".")
        message = f"unknown config key '{key}'"
        if source == "set":
            extra = ["--set", f"{key}={json.dumps(REMOVED_KEYS[key])}"]
        else:
            echo = config_dict(load_config())
            assert (section in echo) == (section not in REMOVED_SECTIONS)
            echo.setdefault(section, {})[name] = REMOVED_KEYS[key]
            (tmp_path / "old.json").write_text(json.dumps(echo))
            extra = ["--config", str(tmp_path / "old.json")]
            if section in REMOVED_SECTIONS:
                message = f"unknown config section '{section}'"
        out_dir = tmp_path / "out"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY + extra)
        err = capsys.readouterr().err
        assert rc == 1 and err == f"error: {message}\n"
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_load_config_raises_naming_the_key(self, key):
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key '{key}'")):
            load_config(overrides=[f"{key}={json.dumps(REMOVED_KEYS[key])}"])

    def test_config_has_23_settable_values(self):
        """Each section's keys, so that a removal names the keys it moved."""
        cfg = config_dict(load_config())
        assert {name: sorted(section) for name, section in cfg.items()} == {
            "numerics": ["dtype"],
            "model": ["backbone_widths", "head_channels", "image_size", "nms_iou",
                      "num_classes", "score_thr"],
            "neck": ["attn_heads", "attn_key_dim", "csp_depth", "num_attention_blocks",
                     "out_channels", "placement"],
            "training": ["batch_size", "lr", "seed", "steps"],
            "synthetic": ["image_size", "max_shapes", "min_shapes", "num_classes",
                          "num_images", "seed"],
        }
        assert sum(len(section) for section in cfg.values()) == 23
        assert not set(cfg) & set(REMOVED_SECTIONS)
        assert not {f"{s}.{k}" for s in cfg for k in cfg[s]} & set(REMOVED_KEYS)


class TestNeckGeometryRejected:
    """heads*key_dim must not exceed 8 * the channels of any active slot: the
    one check that spans sections (the slots' channels come from the model's
    backbone widths), made when load_config builds the neck's config."""

    def test_cli_exit_1_with_one_line_naming_keys_and_slot(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["train-toy", "--out", str(out_dir), "--set", "neck.attn_key_dim=1000"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == ("error: neck.attn_heads * neck.attn_key_dim too large for attention "
                       "slot 'td_c5': heads*key_dim = 2000 exceeds 8*channels = 1024\n")
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("overrides,slot", [
        (["neck.attn_key_dim=1000"], "td_c5"),
        (["neck.placement=bottom_up_only", "neck.out_channels=4", "neck.attn_key_dim=20"],
         "bu_c4"),
        (["neck.placement=single_at_end", "neck.out_channels=2", "neck.attn_heads=3",
          "neck.attn_key_dim=6"], "end"),
    ])
    def test_load_config_names_the_slot(self, overrides, slot):
        with pytest.raises(ConfigError, match=re.escape(
                f"neck.attn_heads * neck.attn_key_dim too large for attention slot '{slot}'")):
            load_config(overrides=overrides)

    def test_largest_product_still_loads(self):
        """At heads*key_dim == 8*channels of the narrowest slot it loads."""
        load_config(overrides=["neck.placement=bottom_up_only", "neck.out_channels=4",
                               "neck.attn_key_dim=16"])


def test_version_matches_pyproject():
    """``crackdet --version`` and every artifact's ``version`` give the
    package's version, which must be the one ``pyproject.toml`` installs."""
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        assert crackdet.__version__ == tomllib.load(fh)["project"]["version"]


class TestStats:
    def test_stats_on_generated_dataset(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        rc = main(["gen-data", "--out", str(data_dir),
                   "--set", "synthetic.num_images=5"])
        assert rc == 0
        out_dir = tmp_path / "out"
        rc = main(["stats", "--dataset", str(data_dir), "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "stats.json").read_text())
        assert payload["version"] == __version__
        assert "config" in payload
        assert payload["totals"]["images"] == 5

    def test_stats_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"images": [], "annotations": [], "categories": []}))
        rc = main(["stats", "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "stats.json").read_text())
        assert payload["totals"]["annotations"] == 0

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["stats", "--dataset", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1


class TestAnnotationsRejected:
    """A malformed annotation file stops `stats` with exit 1 and one error
    line naming the file and the bad entry, never a traceback."""

    VOC = """<annotation><filename>a.ppm</filename>
  <size>{size}</size>
  <object><name>crack</name>
    <bndbox><xmin>{xmin}</xmin><ymin>1</ymin><xmax>9</xmax><ymax>9</ymax></bndbox>
  </object>
</annotation>"""
    COCO = {"images": [{"id": 1, "file_name": "a.ppm", "width": 10, "height": 10}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 4, 3]}],
            "categories": [{"id": 1, "name": "crack"}]}

    def _stats_fails(self, dataset, tmp_path, capsys, *messages):
        rc = main(["stats", "--dataset", str(dataset), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert all(m in err for m in messages), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("size,xmin,messages", [
        ("<height>10</height>", "1", ("a.xml", "<size>", "<width>")),
        ("<width>10</width><height>10</height>", "one", ("a.xml", "object[0]", "<xmin>", "one")),
        # An image size is a finite integer of at least 1, never cut to one.
        ("<width>-5</width><height>10</height>", "1",
         ("a.xml: <size>: <width> must be an integer of at least 1, got '-5'",)),
        ("<width>10</width><height>64.7</height>", "1",
         ("a.xml: <size>: <height> must be an integer of at least 1, got '64.7'",)),
        ("<width>0</width><height>10</height>", "1", ("a.xml: <size>: <width>",)),
        # A box with area must share some of it with its image.
        ("<width>5</width><height>5</height>", "6",
         ("a.xml: object[0]: box [6.0, 1.0, 9.0, 9.0] lies wholly outside its 5x5 image",)),
    ])
    def test_voc(self, tmp_path, capsys, size, xmin, messages):
        voc = tmp_path / "voc"
        voc.mkdir()
        (voc / "a.xml").write_text(self.VOC.format(size=size, xmin=xmin))
        self._stats_fails(voc, tmp_path, capsys, *messages)

    def test_voc_empty_name(self, tmp_path, capsys):
        voc = tmp_path / "voc"
        voc.mkdir()
        xml = self.VOC.format(size="<width>10</width><height>10</height>", xmin="1")
        (voc / "a.xml").write_text(xml.replace("<name>crack</name>", "<name></name>"))
        self._stats_fails(voc, tmp_path, capsys,
                          "a.xml: object[0] <name> must be a non-empty string")

    @pytest.mark.parametrize("section,entry,messages", [
        ("annotations", dict(COCO["annotations"][0], bbox=[0, 0, "w", 3]),
         ("ann.json", "annotations[0].bbox")),
        ("images", 5, ("ann.json", "images[0]", "must be an object")),
        ("images", dict(COCO["images"][0], width="x"), ("ann.json", "images[0].width")),
        ("categories", {"id": [1], "name": "crack"}, ("ann.json", "categories[0].id")),
        ("annotations", dict(COCO["annotations"][0], category_id=[1]),
         ("ann.json", "annotations[0].category_id")),
        ("annotations", dict(COCO["annotations"][0], bbox=[float("nan"), 0, 10, 10]),
         ("ann.json", "annotations[0].bbox", "finite")),
        ("annotations", dict(COCO["annotations"][0], bbox=[0, 0, 4, float("inf")]),
         ("ann.json", "annotations[0].bbox", "finite")),
        ("categories", {"id": None, "name": "crack"}, ("ann.json", "categories[0].id")),
        # A string or a bool where a number goes is rejected, never read as
        # one: "3e0" is not 3 and true is not id 1.
        ("images", dict(COCO["images"][0], width=" 64 "),
         ("ann.json", "images[0].width must be a finite number, got ' 64 '")),
        ("images", dict(COCO["images"][0], height=True),
         ("ann.json", "images[0].height must be a finite number, got True")),
        ("annotations", dict(COCO["annotations"][0], bbox=["1", 2, 3, 4]),
         ("ann.json", "annotations[0].bbox[0] must be a finite number")),
        ("annotations", dict(COCO["annotations"][0], bbox=[1, 2, "3e0", 1]),
         ("ann.json", "annotations[0].bbox[2] must be a finite number")),
        ("annotations", dict(COCO["annotations"][0], bbox=[1, 2, 3, True]),
         ("ann.json", "annotations[0].bbox[3] must be a finite number")),
        ("images", dict(COCO["images"][0], id=True),
         ("ann.json", "images[0].id must be a number or string, got bool")),
        ("annotations", dict(COCO["annotations"][0], category_id=False),
         ("ann.json", "annotations[0].category_id must be a number or string, got bool")),
        # An error line quotes at most the first 80 characters of a value.
        ("annotations", dict(COCO["annotations"][0], bbox=[json.loads("[" * 200 + "]" * 200),
                                                           0, 4, 3]),
         ("ann.json", "annotations[0].bbox[0]", "got " + "[" * 80 + "...\n")),
        # An image size is a finite integer of at least 1, as in VOC, and a
        # name is not empty.
        ("images", dict(COCO["images"][0], width=-5),
         ("ann.json", "images[0].width must be an integer of at least 1, got -5")),
        ("images", dict(COCO["images"][0], height=0), ("ann.json", "images[0].height")),
        ("images", dict(COCO["images"][0], width=64.7), ("ann.json", "images[0].width", "64.7")),
        ("images", dict(COCO["images"][0], file_name=""),
         ("ann.json", "images[0].file_name must be a non-empty string")),
        ("categories", {"id": 1, "name": ""},
         ("ann.json", "categories[0].name must be a non-empty string")),
        ("annotations", dict(COCO["annotations"][0], bbox=[10, 2, 5, 5]),
         ("ann.json: annotations[0]: box [10.0, 2.0, 15.0, 7.0] lies wholly outside its "
          "10x10 image",)),
    ])
    def test_coco(self, tmp_path, capsys, section, entry, messages):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(dict(self.COCO, **{section: [entry]})))
        self._stats_fails(path, tmp_path, capsys, *messages)

    @pytest.mark.parametrize("command,section,entry,key,got", [
        ("stats", "categories", {"id": 1, "name": ["crack"]}, "categories[0].name", "list"),
        ("eval", "categories", {"id": 1, "name": ["crack"]}, "categories[0].name", "list"),
        ("assign-debug", "images", dict(COCO["images"][0], file_name=5), "images[0].file_name",
         "int"),
    ])
    def test_name_that_is_not_a_string(self, tmp_path, capsys, command, section, entry, key,
                                       got):
        """A category name or file name is a string: anything else stops
        the command at load, naming the file and the entry."""
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(dict(self.COCO, **{section: [entry]})))
        dets = tmp_path / "dets.json"
        dets.write_text("[]")
        args = {"stats": ["--dataset", str(path)],
                "eval": ["--gt", str(path), "--dets", str(dets)],
                "assign-debug": ["--dataset", str(path)]}[command]
        rc = main([command, *args, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {path}: {key} must be a string, got {got}\n"
        assert not (tmp_path / "out").exists()


class TestEvalCommand:
    def test_hand_case_values_in_json(self, tmp_path):
        gt_path, det_path = make_eval_fixture(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["eval", "--gt", gt_path, "--dets", det_path, "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "eval.json").read_text())
        agg = payload["aggregate"]
        assert agg["ap50"] == 1.0
        assert agg["ap75"] == 0.0
        assert agg["ap"] == 0.3
        assert (out_dir / "eval.txt").exists()

    def test_analyze_outputs(self, tmp_path):
        gt_path, det_path = make_eval_fixture(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(["analyze", "--gt", gt_path, "--dets", det_path, "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "analyze.json").read_text())
        assert payload["aps"]["FN"] == 1.0
        csv_lines = (out_dir / "pr_curves.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("recall,")

    def test_deterministic_output_bytes(self, tmp_path):
        gt_path, det_path = make_eval_fixture(tmp_path)
        blobs = []
        for tag in ("o1", "o2"):
            out_dir = tmp_path / tag
            assert main(["eval", "--gt", gt_path, "--dets", det_path,
                         "--out", str(out_dir)]) == 0
            blobs.append((out_dir / "eval.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestMixedIdTypes:
    """COCO ids may be numbers or strings, and a file may mix them: every
    command that reads one runs without comparing an int id with a str id."""

    @staticmethod
    def _image(image_id):
        return {"id": image_id, "file_name": f"{image_id}.ppm", "width": 100, "height": 100}

    @pytest.mark.parametrize("command,report,section,key", [
        ("eval", "eval.json", "aggregate", "ap"),
        ("analyze", "analyze.json", "aps", "C75"),
    ])
    def test_eval_and_analyze_on_mixed_image_ids(self, tmp_path, command, report, section, key):
        """Image ids and category ids both mix 1 and "b"; the id-keyed
        per-class entries list numbers before strings."""
        anns = [{"id": 1, "image_id": 1, "category_id": "b", "bbox": [0, 0, 40, 40]},
                {"id": 2, "image_id": "b", "category_id": 1, "bbox": [10, 10, 30, 30]}]
        gt = {"images": [self._image(1), self._image("b")], "annotations": anns,
              "categories": [{"id": "b", "name": "block"}, {"id": 1, "name": "crack"}]}
        dets = [{"image_id": a["image_id"], "category_id": a["category_id"], "bbox": a["bbox"],
                 "score": 0.9} for a in anns]
        (tmp_path / "gt.json").write_text(json.dumps(gt))
        (tmp_path / "dets.json").write_text(json.dumps(dets))
        out_dir = tmp_path / "out"
        rc = main([command, "--gt", str(tmp_path / "gt.json"),
                   "--dets", str(tmp_path / "dets.json"), "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / report).read_text())
        assert payload[section][key] == 1.0
        per_class = payload["per_class"] if command == "eval" else payload["per_class_aps"]["C75"]
        assert list(per_class) == ["1", "b"]

    @pytest.mark.parametrize("ids", [[10, 2, 1], [2.5, 1, 10], ["b", "a", "10"]])
    def test_ids_of_one_type_keep_sort_keys_order(self, ids):
        body = {"per_class": {i: {"name": str(i), "ap": 0.1234567} for i in ids},
                "aggregate": {"ap": 1 / 3}}
        assert json.dumps(_json_ready(body, digits=6), indent=2) == \
            json.dumps(_json_ready(body, digits=6), indent=2, sort_keys=True)
        assert list(_json_ready(body)["per_class"]) == sorted(ids)

    def test_stats_on_mixed_category_ids(self, tmp_path, capsys):
        """The printed table lists categories in the file's order; stats.json
        keys them by name."""
        cats = [{"id": 2, "name": "pothole"}, {"id": "b", "name": "block"},
                {"id": 1, "name": "crack"}]
        anns = [{"id": k, "image_id": 1, "category_id": c["id"], "bbox": [0, 0, 10, 10]}
                for k, c in enumerate(cats)]
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"images": [self._image(1)], "annotations": anns,
                                    "categories": cats}))
        rc = main(["stats", "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["pothole", "block", "crack"]
        histogram = json.loads((tmp_path / "o" / "stats.json").read_text())["histogram"]
        assert histogram == {c["name"]: {"small": 1, "medium": 0, "large": 0} for c in cats}


class TestResultsRejected:
    """A malformed results file stops `eval` and `analyze` with exit 1, one
    error line naming the bad entry, no traceback and no report."""

    GOOD = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 10, 6], "score": 0.9}

    @pytest.mark.parametrize("results,message", [
        ([dict(GOOD, bbox=[0, 0, 10])], "results[0]"),
        ([dict(GOOD, bbox="abcd")], "results[0]"),
        ([dict(GOOD, bbox="1234")], "results[0]"),
        ([dict(GOOD, bbox=[0, 0, "x", 1])], "results[0]"),
        ([dict(GOOD, score="high")], "results[0]"),
        ([GOOD, dict(GOOD, bbox=None)], "results[1]"),
        ({"detections": 5}, "results"),
        ([1], "results[0]"),
        ([GOOD, dict(GOOD, image_id=[1])], "results[1]"),
        ([dict(GOOD, category_id={"id": 1})], "results[0]"),
        # NaN and inf fail the number rule before a Detection is built; these
        # five rows keep the ids they had when they matched Detection's
        # "invalid detection", so their recorded test names still run.
        pytest.param([dict(GOOD, bbox=[float("nan"), 0, 1, 1])],
                     "results[0].bbox[0] must be a finite number",
                     id="results10-invalid detection"),
        pytest.param([dict(GOOD, bbox=[0, 0, float("inf"), 1])],
                     "results[0].bbox[2] must be a finite number",
                     id="results11-invalid detection"),
        pytest.param([dict(GOOD, score=float("nan"))],
                     "results[0].score must be a finite number",
                     id="results12-invalid detection"),
        ([dict(GOOD, bbox=[0, 0, -3, 1])], "results[0]: invalid detection"),
        pytest.param([dict(GOOD, bbox=[float("nan"), 0, 1, 1])], "bad.json: results[0].bbox[0]",
                     id="results14-results[0]: invalid detection"),
        pytest.param([dict(GOOD, score=float("inf"))], "bad.json: results[0].score",
                     id="results15-results[0]: invalid detection"),
        ([GOOD, dict(GOOD, bbox=[0, 0, 1, -0.5])], "results[1]: invalid detection"),
        ([dict(GOOD, score="0.9")], "bad.json: results[0].score must be a finite number"),
        ([dict(GOOD, score=True)], "bad.json: results[0].score must be a finite number"),
        ([dict(GOOD, bbox=[0, "0", 1, 1])], "bad.json: results[0].bbox[1] must be a finite"),
        ([dict(GOOD, image_id=True)], "bad.json: results[0].image_id must be a number or"),
    ])
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_exit_1_with_error_line(self, tmp_path, capsys, command, results, message):
        gt_path, _ = make_eval_fixture(tmp_path)
        det_path = tmp_path / "bad.json"
        det_path.write_text(json.dumps(results))
        out_dir = tmp_path / "out"
        rc = main([command, "--gt", gt_path, "--dets", str(det_path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err
        assert not out_dir.exists()

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        gt_path, _ = make_eval_fixture(tmp_path)
        det_path = tmp_path / "bad.json"
        det_path.write_text("[{")
        rc = main(["eval", "--gt", gt_path, "--dets", str(det_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_exit_0_and_report(self, tmp_path):
        out_dir = tmp_path / "out"
        rc = main(["gradcheck", "--seeds", "1", "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "gradcheck.json").read_text())
        assert payload["passed"] is True
        assert set(payload["max_errors"]) == {"conv1x1", "batchnorm", "softmax",
                                              "attention4d", "csp_layer", "neck",
                                              "soft_cls_loss", "giou_loss"}

    def test_exit_2_on_numerical_failure(self, tmp_path, monkeypatch):
        import crackdet.cli as cli
        monkeypatch.setattr(cli, "_gradcheck_suite", lambda seeds: {"conv1x1": 0.5})
        rc = main(["gradcheck", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_is_a_usage_error(self, tmp_path, capsys, seeds):
        """Zero seeds would check nothing and still report a pass."""
        out_dir = tmp_path / "o"
        assert main(["gradcheck", "--seeds", seeds, "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: --seeds must be at least 1, got {seeds}\n"
        assert not out_dir.exists()


class TestUsageErrors:
    """A command line argparse rejects exits 1 after argparse's usage line and
    message (the rows of ``test_entry_point.py``); exit 2 stays with the
    numerical checks. In process, ``--help`` and ``--version`` leave ``main``
    as argparse's ``SystemExit(0)``."""

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0 and capsys.readouterr().out


def test_allocation_too_large_exits_1(two_image_set, tmp_path, capsys, monkeypatch):
    """An array too large for the machine (numpy raises a MemoryError) exits
    1 with one error line, not a traceback, and writes nothing."""
    import crackdet.model

    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.98 TiB for an array with shape "
                          "(10000000000, 96) and data type float64")

    monkeypatch.setattr(crackdet.model, "init_head", too_large)
    out_dir = tmp_path / "out"
    rc = main(["assign-debug", "--dataset", two_image_set, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: Unable to allocate 6.98 TiB") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_image_index_out_of_range_names_flag_and_dataset(two_image_set, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["assign-debug", "--dataset", two_image_set, "--image-index", "2",
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (f"error: --image-index 2 is out of range: "
                                       f"{two_image_set} holds images 0..1\n")
    assert not out_dir.exists()


def fresh_checkpoint(tmp_path):
    """An untrained checkpoint of the default config."""
    from crackdet.train import detector_from_config

    path = tmp_path / "ckpt.npz"
    np.savez(path, **detector_from_config(load_config(), np.random.default_rng(0)).state_dict())
    return path


class TestTrainInferPipeline:
    def test_train_assign_debug_infer(self, tmp_path):
        out_dir = tmp_path / "train"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY)
        assert rc == 0
        assert (out_dir / "loss.csv").exists()
        assert (out_dir / "checkpoint.npz").exists()
        report = json.loads((out_dir / "train_report.json").read_text())
        assert report["steps"] == 6
        lines = (out_dir / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "step,cls,reg,total,num_pos"
        assert len(lines) == 7

        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir)] + TINY) == 0
        dbg_dir = tmp_path / "dbg"
        rc = main(["assign-debug", "--dataset", str(data_dir), "--image-index", "0",
                   "--checkpoint", str(out_dir / "checkpoint.npz"),
                   "--out", str(dbg_dir)] + TINY)
        assert rc == 0
        dbg = json.loads((dbg_dir / "assign_debug.json").read_text())
        assert dbg["num_anchors"] == 64 + 16 + 4
        assert len(dbg["dynamic_k"]) == dbg["num_gt"]

        inf_dir = tmp_path / "inf"
        rc = main(["infer", "--checkpoint", str(out_dir / "checkpoint.npz"),
                   "--images", str(data_dir), "--out", str(inf_dir)] + TINY)
        assert rc == 0
        dets = json.loads((inf_dir / "detections.json").read_text())["detections"]
        for row in dets:
            assert set(row) == {"image_id", "category_id", "bbox", "score"}

    def test_infer_on_a_dataset_with_no_images(self, tmp_path, capsys):
        """As ``stats`` and ``eval`` do on an empty set, ``infer`` writes an
        empty result with the config echo and exits 0."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "annotations.json").write_text(
            json.dumps({"images": [], "annotations": [], "categories": []}))
        rc = main(["infer", "--checkpoint", str(fresh_checkpoint(tmp_path)),
                   "--images", str(data_dir), "--out", str(tmp_path / "inf")])
        assert rc == 0
        assert capsys.readouterr().out == "0 detections over 0 images\n"
        payload = json.loads((tmp_path / "inf" / "detections.json").read_text())
        assert payload["detections"] == [] and "config" in payload

    def test_infer_rejects_checkpoint_with_extra_blocks(self, tmp_path, capsys):
        """A two-block checkpoint loaded into a one-block neck names the first
        entry the model lacks instead of dropping the td_c4 weights."""
        out_dir = tmp_path / "train"
        assert main(["train-toy", "--out", str(out_dir)] + TINY
                    + ["--set", "training.steps=3"]) == 0
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir)] + TINY) == 0
        capsys.readouterr()
        inf_dir = tmp_path / "inf"
        rc = main(["infer", "--checkpoint", str(out_dir / "checkpoint.npz"),
                   "--images", str(data_dir), "--out", str(inf_dir)] + TINY
                  + ["--set", "neck.num_attention_blocks=1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "unexpected entry 'param:neck.attn.td_c4." in err
        assert not (inf_dir / "detections.json").exists()

    @pytest.mark.parametrize("category_id", [7, 0, "b"])
    def test_assign_debug_rejects_category_outside_num_classes(self, tmp_path, capsys,
                                                               category_id):
        """A GT category id that is not one of 1..model.num_classes (an id
        past the last class, 0, or a string) names the annotation instead of
        an IndexError in the cost matrix or reading the last class's score."""
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--set", "synthetic.num_images=2"]) == 0
        path = data_dir / "annotations.json"
        coco = json.loads(path.read_text())
        ann = coco["annotations"][0]
        assert ann["image_id"] == coco["images"][0]["id"]
        ann["category_id"] = category_id
        coco["categories"].append({"id": category_id, "name": "extra"})
        path.write_text(json.dumps(coco))
        capsys.readouterr()
        out_dir = tmp_path / "out"
        rc = main(["assign-debug", "--dataset", str(data_dir), "--image-index", "0",
                   "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert (f"annotation {ann['id']} has category id {category_id!r}, "
                "not in 1..model.num_classes (3)") in err
        assert not (out_dir / "assign_debug.json").exists()

    @pytest.mark.parametrize("command", ["infer", "assign-debug"])
    def test_image_size_mismatch_named(self, tmp_path, capsys, command):
        """A 128-px set through a 64-px model names both sizes, not the
        attention block's pyramid size."""
        ckpt = fresh_checkpoint(tmp_path)
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--set", "synthetic.num_images=2",
                     "--set", "synthetic.image_size=128"]) == 0
        capsys.readouterr()
        flag = "--images" if command == "infer" else "--dataset"
        rc = main([command, "--checkpoint", str(ckpt), flag, str(data_dir),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert "images are 128x128 px, but the model takes 64x64" in err

    @pytest.mark.parametrize("command", ["infer", "assign-debug"])
    @pytest.mark.parametrize("damage", ["truncated", "text", "empty", "object", "npy"])
    def test_unreadable_checkpoint_named(self, tmp_path, capsys, command, damage):
        """A cut-off zip, a text file, an empty file, a member that only
        unpickling could read and a plain .npy array each fail with exit 1
        and an error naming the checkpoint, not a zipfile or numpy traceback."""
        ckpt = fresh_checkpoint(tmp_path)
        if damage == "object":
            np.savez(ckpt, weights=np.array([None], dtype=object))
        elif damage == "npy":
            with open(ckpt, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            ckpt.write_bytes({"truncated": ckpt.read_bytes()[:1000], "text": b"not a checkpoint\n",
                              "empty": b""}[damage])
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--set", "synthetic.num_images=2"]) == 0
        capsys.readouterr()
        flag = "--images" if command == "infer" else "--dataset"
        rc = main([command, "--checkpoint", str(ckpt), flag, str(data_dir),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert f"error: {ckpt}: not a readable checkpoint .npz" in err

    def test_mixed_image_sizes_named(self, tmp_path, capsys):
        from crackdet.dataio import write_ppm

        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--set", "synthetic.num_images=3"]) == 0
        write_ppm(data_dir / "images" / "img_00002.ppm", np.zeros((32, 32, 3), dtype=np.uint8))
        capsys.readouterr()
        rc = main(["infer", "--checkpoint", str(fresh_checkpoint(tmp_path)), "--images",
                   str(data_dir), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert "img_00002.ppm: image is 32x32 px, but the batch's first is 64x64" in err

    def test_odd_image_in_a_later_chunk_named(self, tmp_path, capsys):
        """infer normalizes 8 images at a time, but image 9 of 10 with another
        size still fails before any detection is written."""
        from crackdet.dataio import write_ppm

        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--set", "synthetic.num_images=10"]) == 0
        write_ppm(data_dir / "images" / "img_00009.ppm", np.zeros((48, 64, 3), dtype=np.uint8))
        capsys.readouterr()
        rc = main(["infer", "--checkpoint", str(fresh_checkpoint(tmp_path)), "--images",
                   str(data_dir), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert "img_00009.ppm: image is 64x48 px, but the batch's first is 64x64" in err
        assert not (tmp_path / "o" / "detections.json").exists()

    def test_train_and_infer_normalize_one_batch_at_a_time(self, tmp_path, monkeypatch):
        """No call normalizes more than max(batch_size, 8) images: train-toy's
        steps and self-evaluation and infer's chunks alike."""
        from test_train import watch_normalize

        sizes = watch_normalize(monkeypatch)
        out_dir, data_dir = tmp_path / "train", tmp_path / "data"
        assert main(["train-toy", "--out", str(out_dir)] + TINY) == 0
        assert sizes == [4] * 6 + [8, 2]
        assert main(["gen-data", "--out", str(data_dir)] + TINY) == 0
        assert main(["infer", "--checkpoint", str(out_dir / "checkpoint.npz"), "--images",
                     str(data_dir), "--out", str(tmp_path / "inf")] + TINY) == 0
        assert sizes == [4] * 6 + [8, 2] * 2

    def test_epochs_flag_switches_schedule(self, tmp_path):
        """--epochs N sets training.steps to N passes over the set: 8 images
        at batch 4 give 2 steps a pass. The echo records the steps run and no
        epoch count, and run again through --config it gives the same bytes."""
        out_dir, again = tmp_path / "ep", tmp_path / "again"
        assert main(["train-toy", "--epochs", "2", "--out", str(out_dir)] + TINY
                    + ["--set", "synthetic.num_images=8"]) == 0
        loss = (out_dir / "loss.csv").read_bytes()
        assert len(loss.decode().strip().splitlines()) == 1 + 4
        echo = json.loads((out_dir / "train_report.json").read_text())["config"]
        assert echo["training"]["steps"] == 4 and "epochs" not in echo["training"]
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        assert main(["train-toy", "--config", str(tmp_path / "echo.json"),
                     "--out", str(again)]) == 0
        assert (again / "loss.csv").read_bytes() == loss

    def test_step_lr_follows_the_cosine_schedule(self, tmp_path, monkeypatch):
        """Each training step updates every parameter once, inside the
        backward walk, with one lr: training.lr at the first step and less at
        each later one, as ``cosine_lr`` gives over training.steps."""
        import crackdet.train as train

        real_step, calls = train.SGD.step, []

        def watched_step(opt, lr, tensors=None):
            tensors = [t for _, t in opt.params] if tensors is None else list(tensors)
            calls.append((lr, [id(t) for t in tensors], len(opt.params)))
            real_step(opt, lr, tensors)

        monkeypatch.setattr(train.SGD, "step", watched_step)
        rc = main(["train-toy", "--out", str(tmp_path / "lr")] + TINY
                  + ["--set", "training.lr=0.01"])
        steps = [(lr, list(group)) for lr, group in
                 itertools.groupby(calls, key=lambda call: call[0])]
        lrs = [lr for lr, _ in steps]
        assert rc == 0 and lrs == [train.cosine_lr(0.01, step, 6) for step in range(6)]
        assert lrs[0] == 0.01 and all(a > b for a, b in zip(lrs, lrs[1:]))
        for _, group in steps:
            stepped = [key for _, keys, _ in group for key in keys]
            assert len(stepped) == len(set(stepped)) == group[0][2]

    def test_epochs_flag_with_zero_batch_size_exit_1(self, tmp_path, capsys):
        """A zero batch size fails when the config loads, before --epochs
        divides by it."""
        out_dir = tmp_path / "bs"
        rc = main(["train-toy", "--epochs", "2", "--out", str(out_dir)] + TINY
                  + ["--set", "training.batch_size=0"])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert "training.batch_size must be in [1, inf), got 0" in err
        assert not (out_dir / "checkpoint.npz").exists()

    @pytest.mark.parametrize("batch_size", [0, 4])
    def test_batch_size_outside_image_count_exit_1(self, tmp_path, capsys, batch_size):
        out_dir = tmp_path / "bs"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY
                  + ["--set", "synthetic.num_images=2",
                     "--set", f"training.batch_size={batch_size}"])
        assert rc == 1
        err = capsys.readouterr().err
        # a batch size below 1 fails at load; one above the image count in train-toy
        assert (f"training.batch_size must be in [1, inf), got {batch_size}" if batch_size < 1
                else "training.batch_size must be in 1..synthetic.num_images (2), got 4") in err
        assert not (out_dir / "checkpoint.npz").exists()

    @pytest.mark.parametrize("extra,key", [
        (["--set", "training.steps=0"], "training.steps"),
        (["--set", "training.steps=-2"], "training.steps"),
        (["--epochs", "0"], "training.steps"),
    ])
    def test_no_steps_exit_1_without_artifacts(self, tmp_path, capsys, extra, key):
        out_dir = tmp_path / "zero"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY + extra)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not (out_dir / "checkpoint.npz").exists()
        assert not (out_dir / "loss.csv").exists()

    def test_max_dets_below_one_exit_1(self, tmp_path, capsys):
        """eval.max_dets is no key now: any value fails at load, naming it."""
        out_dir = tmp_path / "md"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY + ["--set", "eval.max_dets=0"])
        assert rc == 1
        assert "max_dets" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.npz").exists()

    def test_divergence_exit_2_without_checkpoint(self, tmp_path, capsys):
        out_dir = tmp_path / "div"
        rc = main(["train-toy", "--out", str(out_dir),
                   "--set", "training.lr=1e6", "--set", "training.steps=20"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at step ") and "Traceback" not in err
        assert not (out_dir / "checkpoint.npz").exists()

    def test_momentum_out_of_range_exit_1_without_artifacts(self, tmp_path, capsys):
        """training.momentum is no key now: any value fails at load, naming it."""
        out_dir = tmp_path / "mom"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY
                  + ["--set", "training.momentum=5", "--set", "training.steps=5"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "training.momentum" in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_non_finite_parameter_exit_2_without_checkpoint(self, tmp_path, capsys, monkeypatch):
        """A non-finite gradient on the last step passes the loss guard (that
        loss was computed before the update) but leaves a NaN parameter: the
        run stops naming the entry and writes nothing."""
        import crackdet.train as train

        real_step, steps = train.SGD.step, []

        def poisoned_step(opt, lr, tensors=None):
            target = opt.params[1][1]
            if any(t is target for t in tensors):
                steps.append(lr)
                if len(steps) == 3:
                    target.grad[...] = np.nan
            real_step(opt, lr, tensors)

        monkeypatch.setattr(train.SGD, "step", poisoned_step)
        out_dir = tmp_path / "nan"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY + ["--set", "training.steps=3"])
        err = capsys.readouterr().err
        assert rc == 2 and len(steps) == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert "'param:" in err and "non-finite" in err
        assert not (out_dir / "checkpoint.npz").exists()
        assert not (out_dir / "loss.csv").exists()

    def test_infer_rejects_checkpoint_of_another_dtype(self, tmp_path, capsys):
        """A float32 checkpoint loaded into the default float64 model names the
        entry and both dtypes instead of casting silently."""
        out_dir = tmp_path / "train"
        assert main(["train-toy", "--out", str(out_dir)] + TINY
                    + ["--set", "training.steps=3", "--set", "numerics.dtype=float32"]) == 0
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir)] + TINY) == 0
        capsys.readouterr()
        inf_dir = tmp_path / "inf"
        rc = main(["infer", "--checkpoint", str(out_dir / "checkpoint.npz"),
                   "--images", str(data_dir), "--out", str(inf_dir)] + TINY)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "float32" in err and "float64" in err
        assert not (inf_dir / "detections.json").exists()

    def test_eval_accepts_wrapped_detections(self, tmp_path):
        gt_path, det_path = make_eval_fixture(tmp_path)
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"detections": json.loads(
            open(det_path).read()), "version": "x"}))
        out_dir = tmp_path / "out"
        rc = main(["eval", "--gt", gt_path, "--dets", str(wrapped), "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "eval.json").read_text())
        assert payload["aggregate"]["ap50"] == 1.0

    def test_loss_csv_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for tag in ("r1", "r2"):
            out_dir = tmp_path / tag
            assert main(["train-toy", "--out", str(out_dir)] + TINY) == 0
            blobs.append((out_dir / "loss.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_dump_arch_writes_layout(self, tmp_path):
        out_dir = tmp_path / "arch"
        rc = main(["gen-data", "--dump-arch", "--out", str(out_dir)] + TINY)
        assert rc == 0
        arch = json.loads((out_dir / "arch.json").read_text())["arch"]
        assert arch["placement"] == "top_down_only"
        assert [b["slot"] for b in arch["attention_blocks"]] == ["td_c5", "td_c4"]
        assert arch["total_parameters"] > 0

    @pytest.mark.parametrize("argv", [["gradcheck", "--seeds", "0"],
                                      ["infer", "--checkpoint", "nope.npz", "--images", "nope"]])
    def test_dump_arch_not_left_by_a_failed_command(self, tmp_path, argv):
        """arch.json is written after the command returns, so one that fails
        leaves no arch.json behind."""
        out_dir = tmp_path / "arch"
        assert main(argv + ["--dump-arch", "--out", str(out_dir)] + TINY) == 1
        assert not (out_dir / "arch.json").exists()
