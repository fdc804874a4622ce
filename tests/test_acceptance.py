"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 7 trains the full
default configuration (300 steps, batch 4) and dominates the runtime.
"""

import functools
import json
import time

import numpy as np
import pytest

from crackdet import numerics as nm
from crackdet.assignment import (DYNAMIC_K_CAP, LAMBDA_CENTER, LAMBDA_CLS, LAMBDA_LOC,
                                 classification_cost, dynamic_assign, location_cost, total_cost)
from crackdet.attention import Attention4DConfig, attention4d_forward, init_attention4d
from crackdet.cli import _gradcheck_suite, main
from crackdet.config import load_config
from crackdet.dataio import (SyntheticConfig, gen_synthetic, load_coco, load_voc, save_coco,
                             save_voc, stats)
from crackdet.evaluator import ERROR_STAGES, error_breakdown, evaluate
from crackdet.model import Detection
from crackdet.neck import NeckConfig, parameter_count
from crackdet.numerics import Tensor
from crackdet.train import predict_dataset, train_toy

from oracles import assign_oracle, attention4d_loop
from test_assignment import as_plain_lists, random_instance
from test_evaluator import make_index, random_scene


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS" + (f" ({detail})" if detail else ""))
        return run
    return wrap


@criterion("1 gradient suite")
def test_criterion_1_gradient_suite():
    start = time.time()
    results = _gradcheck_suite(seeds=100)
    elapsed = time.time() - start
    expected = {"conv1x1", "batchnorm", "softmax", "attention4d", "csp_layer",
                "neck", "soft_cls_loss", "giou_loss"}
    assert set(results) == expected
    for name, err in results.items():
        assert err < 1e-4, f"{name} gradient error {err}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(results.values())
    return f"8 op families x 100 seeds, worst {worst:.2e}, {elapsed:.1f}s"


@criterion("2 attention oracle")
def test_criterion_2_attention_oracle():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cfg = Attention4DConfig(channels=8, heads=1, key_dim=4, spatial=(4, 4))
        p = init_attention4d(cfg, rng)
        p.bn_out.gamma.data[...] = rng.normal(size=8)
        p.pos_bias.data[...] = rng.normal(size=p.pos_bias.data.shape) * 0.3
        p.t_pre.data[...] += rng.normal(size=p.t_pre.data.shape) * 0.2
        p.t_post.data[...] += rng.normal(size=p.t_post.data.shape) * 0.2
        x = rng.normal(size=(1, 8, 4, 4))
        fast = attention4d_forward(Tensor(x), p).data
        slow = attention4d_loop(x, p)
        worst = max(worst, float(np.abs(fast - slow).max()))
    assert worst < 1e-10, f"oracle mismatch {worst}"

    identity_worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cfg = Attention4DConfig(channels=8, heads=4, key_dim=4, spatial=(4, 4))
        p = init_attention4d(cfg, rng)
        x = rng.normal(size=(2, 8, 4, 4))
        out = attention4d_forward(Tensor(x), p).data
        identity_worst = max(identity_worst, float(np.abs(out - x).max()))
    assert identity_worst < 1e-12, f"identity-at-init diff {identity_worst}"
    return f"50-seed oracle worst {worst:.2e}; identity worst {identity_worst:.2e}"


@criterion("3 assignment oracle")
def test_criterion_3_assignment_oracle():
    for seed in range(200):
        cm = random_instance(seed)
        out = dynamic_assign(cm)
        owner, ks, unassigned = assign_oracle(*as_plain_lists(cm), cap=DYNAMIC_K_CAP)
        assert {a: g for a, g in enumerate(out.gt_index) if g >= 0} == owner, f"seed {seed}"
        assert out.unassigned_gts == unassigned, f"seed {seed}"
        scaled = dynamic_assign(cm.scaled(7.25))
        assert np.array_equal(out.gt_index, scaled.gt_index), f"seed {seed} scaling"
        assert np.array_equal(out.soft_label, scaled.soft_label), f"seed {seed} scaling"
    return "200 instances, set equality and scaling invariance"


@criterion("4 cost arithmetic")
def test_criterion_4_cost_arithmetic():
    assert location_cost(1.0) == 0.0
    assert abs(location_cost(0.5) - 0.693147) < 1e-6
    assert abs(classification_cost(0.5, 1.0) - 0.173287) < 1e-6
    assert (LAMBDA_CLS, LAMBDA_LOC, LAMBDA_CENTER) == (1.0, 3.0, 1.0)
    assert total_cost(1.0, 1.0, 1.0) == 5.0
    return "theta(1)=0, theta(0.5), delta(1,0.5), lambda=(1,3,1)"


@criterion("5 evaluator hand cases")
def test_criterion_5_evaluator_hand_cases():
    index = make_index([(1, 1, (0.0, 0.0, 10.0, 10.0))], categories=("crack",))
    dets = [Detection(image_id=1, category_id=1, score=0.9, box=(0.0, 0.0, 10.0, 6.0))]
    report = evaluate(index, dets)
    assert report.aggregate["ap50"] == 1.0
    assert report.aggregate["ap75"] == 0.0
    assert report.aggregate["ap"] == 0.3

    gts = [(1, 1, (0.0, 0.0, 100.0, 100.0)), (2, 1, (0.0, 0.0, 120.0, 110.0))]
    large_only = make_index(gts, categories=("crack",))
    dets = [Detection(image_id=g[0], category_id=g[1], score=0.9, box=g[2]) for g in gts]
    report = evaluate(large_only, dets)
    assert report.aggregate["ap_small"] == -1.0
    assert report.aggregate["ar_small"] == -1.0
    assert "-1.000" in report.to_table()

    checked = 0
    for seed in range(100):
        index, dets = random_scene(seed)
        if not index.annotations:
            continue
        breakdown = error_breakdown(index, dets)
        values = [breakdown.aps[s] for s in ERROR_STAGES]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12, f"seed {seed}: chain not monotone {values}"
        assert values[-1] == 1.0, f"seed {seed}: FN != 1.0"
        checked += 1
    assert checked >= 90
    return f"AP trio exact, sentinel -1.000, {checked} monotone chains"


@criterion("6 ablation structure")
def test_criterion_6_ablation_structure():
    def cfg(placement, blocks=None):
        return NeckConfig(in_channels=(32, 64, 128), out_channels=64,
                          spatial=((16, 16), (8, 8), (4, 4)), placement=placement,
                          num_attention_blocks=blocks, attn_heads=2, attn_key_dim=8)

    counts = [parameter_count(cfg("both", n)) for n in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(counts, counts[1:])), counts
    by_placement = {p: parameter_count(cfg(p)) for p in
                    ("both", "top_down_only", "single_at_end")}
    assert by_placement["both"] > by_placement["top_down_only"] > by_placement["single_at_end"]
    return f"blocks 1..4 -> {counts}; both > top_down > single"


@criterion("7 toy training smoke test")
def test_criterion_7_toy_training():
    start = time.time()
    cfg = load_config()
    assert cfg.synthetic.num_images == 200 and cfg.synthetic.image_size == 64
    assert cfg.synthetic.num_classes == 3 and cfg.synthetic.seed == 0
    assert cfg.training.steps == 300 and cfg.training.batch_size == 4
    detector, index, raw_images, rows = train_toy(cfg)
    head = float(np.mean([r[3] for r in rows[:10]]))
    tail = float(np.mean([r[3] for r in rows[-10:]]))
    assert tail <= 0.5 * head, f"loss ratio {tail / head:.3f} > 0.5"

    image_ids = [im.id for im in index.images]
    detections = predict_dataset(detector, raw_images, image_ids)
    report = evaluate(index, detections)
    ap50 = report.aggregate["ap50"]
    elapsed = time.time() - start
    assert ap50 >= 0.5, f"self-eval AP50 {ap50:.3f} < 0.5"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    return f"loss ratio {tail / head:.3f}, AP50 {ap50:.3f}, {elapsed:.0f}s"


@criterion("8 data round trips")
def test_criterion_8_data_round_trips(tmp_path):
    from test_dataio import fixture_index

    index = fixture_index(num_images=50)
    coco_path = tmp_path / "ds.json"
    save_coco(index, coco_path)
    back = load_coco(coco_path)
    assert [a.box for a in back.annotations] == [a.box for a in index.annotations]

    voc1 = tmp_path / "voc1"
    save_voc(index, voc1)
    mid = load_voc(voc1)
    coco2 = tmp_path / "ds2.json"
    save_coco(mid, coco2)
    voc2 = tmp_path / "voc2"
    save_voc(load_coco(coco2), voc2)
    a, b = load_voc(voc1), load_voc(voc2)
    assert [ann.box for ann in a.annotations] == [ann.box for ann in b.annotations]

    for seed in range(5):
        _, generated = gen_synthetic(SyntheticConfig(num_images=15, num_classes=5, min_shapes=1,
                                                     max_shapes=3, seed=seed))
        table = stats(generated)
        assert sum(sum(row.values()) for row in table.values()) == len(generated.annotations)
    return "50-image COCO/VOC round trips exact; stats conserve counts"


@criterion("9 determinism")
def test_criterion_9_determinism(tmp_path):
    # byte-identical loss CSVs from two cmd_train_toy runs with one seed/config
    # (a reduced schedule: determinism is scale-independent)
    args = ["--set", "model.backbone_widths=[4,6,8,12,16]",
            "--set", "model.head_channels=8",
            "--set", "neck.out_channels=8",
            "--set", "neck.attn_key_dim=4",
            "--set", "synthetic.num_images=20",
            "--set", "training.steps=12"]
    blobs = []
    for tag in ("r1", "r2"):
        out_dir = tmp_path / tag
        assert main(["train-toy", "--out", str(out_dir)] + args) == 0
        blobs.append((out_dir / "loss.csv").read_bytes())
    assert blobs[0] == blobs[1], "loss CSVs differ between identical runs"

    # evaluator reports are byte-identical across reruns and across any order
    # of the input detections (the scene's scores are distinct)
    index, dets = random_scene(42, num_images=6)
    assert len({d.score for d in dets}) == len(dets)

    def reports(detections):
        return (json.dumps(evaluate(index, detections).to_dict(), sort_keys=True),
                json.dumps(error_breakdown(index, detections).to_dict(), sort_keys=True))

    base = reports(dets)
    assert reports(dets) == base, "evaluator reports differ between identical calls"
    for perm in (list(reversed(range(len(dets)))),
                 np.random.default_rng(9).permutation(len(dets))):
        assert reports([dets[i] for i in perm]) == base, \
            "evaluator reports depend on the order of the detections"
    return "identical loss CSVs; evaluator reports bitwise equal across reruns and permutations"
