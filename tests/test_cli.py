import hashlib
import json
import os

import numpy as np
import pytest

from crackdet.cli import main
from crackdet.config import __version__, config_dict, load_config
from crackdet.errors import ConfigError, CrackdetError

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

    def test_swapped_optimizer_convention_exchanges_values(self):
        from crackdet.config import optimizer_settings
        cfg = load_config()
        assert optimizer_settings(cfg.training) == (0.9, 5e-4)
        cfg_alt = load_config(overrides=["training.optimizer_convention=swapped"])
        assert optimizer_settings(cfg_alt.training) == (5e-4, 0.9)


    @pytest.mark.parametrize("override", ["training.lr=fast", "assignment.lambda_loc=abc",
                                          "model.num_classes=true"])
    def test_mistyped_value_exit_1(self, tmp_path, capsys, override):
        rc = main(["stats", "--dataset", str(tmp_path / "none.json"), "--out", str(tmp_path / "o"),
                   "--set", override])
        assert rc == 1
        assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["training.epochs=null", "neck.attn_scale=0.5"])
    def test_typed_values_still_load(self, override):
        key, value = override.split("=")
        cfg = load_config(overrides=[override])
        section, name = key.split(".")
        assert getattr(getattr(cfg, section), name) == json.loads(value)

    def test_int_fits_float_and_list_becomes_tuple(self):
        cfg = load_config(overrides=["training.lr=1", "model.backbone_widths=[1,2,3,4,5]"])
        assert cfg.training.lr == 1
        assert cfg.model.backbone_widths == (1, 2, 3, 4, 5)
        with pytest.raises(ConfigError, match="neck.attn_key_dim"):
            load_config(overrides=["neck.attn_key_dim=null"])
        with pytest.raises(ConfigError, match="training.lr"):
            load_config(overrides=["training.lr=false"])

    def test_section_validated_on_final_values(self, tmp_path):
        cfg = load_config(overrides=["synthetic.min_shapes=5", "synthetic.max_shapes=6"])
        assert (cfg.synthetic.min_shapes, cfg.synthetic.max_shapes) == (5, 6)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"synthetic": {"min_shapes": 5}}))
        assert load_config(path, ["synthetic.max_shapes=5"]).synthetic.max_shapes == 5
        with pytest.raises(CrackdetError, match="shapes_per_image"):
            load_config(path)

    def test_default_config_echo(self):
        assert config_dict(load_config()) == {
            "numerics": {"dtype": "float64", "bn_eps": 1e-05, "bn_momentum": 0.1},
            "model": {"num_classes": 3, "image_size": 64,
                      "backbone_widths": [32, 48, 64, 96, 128], "head_channels": 96,
                      "score_thr": 0.05, "nms_iou": 0.65},
            "neck": {"out_channels": 96, "csp_depth": 1, "placement": "top_down_only",
                     "num_attention_blocks": 2, "attn_heads": 2, "attn_key_dim": 16,
                     "attn_value_dim": None, "attn_scale": None, "attn_residual": True,
                     "downsample": "conv"},
            "assignment": {"lambda_cls": 1.0, "lambda_loc": 3.0, "lambda_center": 1.0,
                           "center_cost_mode": "soft_center_prior", "eta": 1.0,
                           "epsilon": 1e-07, "alpha": 10.0, "beta": 3.0, "dynamic_k_cap": 10,
                           "iou_floor": 1e-07, "prob_clamp": 1e-07},
            "loss": {"w_cls": 1.0, "w_reg": 2.0},
            "eval": {"max_dets": 100},
            "synthetic": {"num_images": 200, "image_size": 64, "num_classes": 3,
                          "min_shapes": 2, "max_shapes": 4, "seed": 0},
            "training": {"batch_size": 4, "steps": 300, "epochs": None, "lr": 0.004,
                         "momentum": 0.9, "weight_decay": 0.0005,
                         "optimizer_convention": "standard", "schedule": "cosine", "seed": 0},
        }

    @pytest.mark.parametrize("overrides, count, digest", [
        ([], 175, "45a556d308afe44a"),
        (["neck.placement=both", "neck.downsample=pool", "neck.csp_depth=2"], 185,
         "d03bcc9a3806f343"),
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
        ("neck.attn_value_dim=0", "attn_value_dim"),
        ("neck.downsample=stride", "downsample"),
        ("neck.out_channels=0", "out_channels"),
        ("neck.out_channels=-2", "out_channels"),
        ("neck.csp_depth=-1", "csp_depth"),
        ("neck.attn_heads=100", "heads*key_dim"),
        ("neck.attn_scale=NaN", "neck.attn_scale"),
        ("neck.attn_scale=Infinity", "neck.attn_scale"),
        ("neck.attn_scale=0", "neck.attn_scale"),
        ("neck.attn_scale=-0.5", "neck.attn_scale"),
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
        ("training.epochs=0", "training.epochs"),
        ("training.epochs=-3", "training.epochs"),
        ("numerics.bn_eps=0", "numerics.bn_eps"),
        ("numerics.bn_eps=-1e-5", "numerics.bn_eps"),
        ("numerics.bn_eps=Infinity", "numerics.bn_eps"),
        ("numerics.bn_eps=NaN", "numerics.bn_eps"),
        ("numerics.bn_momentum=5", "numerics.bn_momentum"),
        ("numerics.bn_momentum=-0.1", "numerics.bn_momentum"),
        ("numerics.bn_momentum=NaN", "numerics.bn_momentum"),
        ("training.lr=0", "training.lr"),
        ("training.lr=-1", "training.lr"),
        ("training.lr=NaN", "training.lr"),
        ("training.lr=Infinity", "training.lr"),
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

    @pytest.mark.parametrize("override,message", [
        ("training.weight_decay=5", "training.weight_decay"),
        ("training.momentum=-1", "training.momentum"),
    ])
    def test_swapped_convention_bounds_name_the_source_key(self, two_image_set, tmp_path,
                                                           capsys, override, message):
        """Under "swapped" weight_decay becomes the momentum (bounded to [0, 1))
        and momentum the weight decay (bounded below by 0): each bound names
        the key the value came from."""
        err = self._stats_fails(two_image_set, tmp_path, capsys,
                                ["--set", "training.optimizer_convention=swapped",
                                 "--set", override])
        assert message in err

    @pytest.mark.parametrize("command,extra,key", [
        ("gen-data", ["--seed", "-1"], "training.seed"),
        ("train-toy", ["--set", "training.seed=-1"], "training.seed"),
        ("train-toy", ["--set", "synthetic.seed=-1"], "synthetic.seed"),
        ("train-toy", ["--set", "neck.attn_scale=NaN"], "neck.attn_scale"),
    ])
    def test_bad_value_stops_gen_data_and_train_toy(self, tmp_path, capsys, command, extra,
                                                     key):
        """A negative seed (which numpy's generator rejects with a raw
        ValueError) or a non-finite attention scale fails at load."""
        out_dir = tmp_path / "out"
        rc = main([command, "--out", str(out_dir)] + TINY + extra)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    @pytest.mark.parametrize("overrides", [
        ["training.optimizer_convention=swapped"],
        ["training.momentum=0", "training.weight_decay=0", "loss.w_cls=0", "loss.w_reg=0"],
    ])
    def test_training_range_edges_still_load(self, overrides):
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
                   "--set", "neck.attn_value_dim=1", "--set", "neck.placement=both",
                   "--set", "neck.num_attention_blocks=4"])
        assert rc == 0

    def test_zero_csp_depth_still_runs(self, two_image_set, tmp_path):
        rc = main(["assign-debug", "--dataset", two_image_set, "--out", str(tmp_path / "out"),
                   "--set", "neck.csp_depth=0"])
        assert rc == 0


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
    ])
    def test_voc(self, tmp_path, capsys, size, xmin, messages):
        voc = tmp_path / "voc"
        voc.mkdir()
        (voc / "a.xml").write_text(self.VOC.format(size=size, xmin=xmin))
        self._stats_fails(voc, tmp_path, capsys, *messages)

    @pytest.mark.parametrize("section,entry,messages", [
        ("annotations", dict(COCO["annotations"][0], bbox=[0, 0, "w", 3]),
         ("ann.json", "annotations[0].bbox")),
        ("images", 5, ("ann.json", "images[0]", "must be an object")),
        ("images", dict(COCO["images"][0], width="x"), ("ann.json", "images[0].width")),
        ("categories", {"id": [1], "name": "crack"}, ("ann.json", "categories[0].id")),
        ("annotations", dict(COCO["annotations"][0], category_id=[1]),
         ("ann.json", "annotations[0].category_id")),
    ])
    def test_coco(self, tmp_path, capsys, section, entry, messages):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(dict(self.COCO, **{section: [entry]})))
        self._stats_fails(path, tmp_path, capsys, *messages)


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
        ([dict(GOOD, bbox=[float("nan"), 0, 1, 1])], "invalid detection"),
        ([dict(GOOD, bbox=[0, 0, float("inf"), 1])], "invalid detection"),
        ([dict(GOOD, score=float("nan"))], "invalid detection"),
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
        monkeypatch.setattr(cli, "_gradcheck_suite", lambda cfg, seeds: {"conv1x1": 0.5})
        rc = main(["gradcheck", "--out", str(tmp_path / "o")])
        assert rc == 2


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

    def test_epochs_flag_switches_schedule(self, tmp_path):
        out_dir = tmp_path / "ep"
        rc = main(["train-toy", "--epochs", "2", "--out", str(out_dir)] + TINY)
        assert rc == 0
        lines = (out_dir / "loss.csv").read_text().strip().splitlines()
        # 10 images / batch 4 -> 2 steps per epoch -> 4 steps total
        assert len(lines) == 1 + 2 * (10 // 4)

    @pytest.mark.parametrize("batch_size", [0, 4])
    def test_batch_size_outside_image_count_exit_1(self, tmp_path, capsys, batch_size):
        out_dir = tmp_path / "bs"
        rc = main(["train-toy", "--out", str(out_dir)] + TINY
                  + ["--set", "synthetic.num_images=2",
                     "--set", f"training.batch_size={batch_size}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "training.batch_size must be in 1..synthetic.num_images (2)" in err
        assert not (out_dir / "checkpoint.npz").exists()

    @pytest.mark.parametrize("extra,key", [
        (["--set", "training.steps=0"], "training.steps"),
        (["--set", "training.steps=-2"], "training.steps"),
        (["--set", "training.epochs=0"], "training.epochs"),
        (["--epochs", "0"], "training.epochs"),
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

        def poisoned_step(opt, lr):
            steps.append(lr)
            if len(steps) == 3:
                opt.params[1][1].grad[...] = np.nan
            real_step(opt, lr)

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
