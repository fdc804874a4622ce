import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackdet import evaluator as evaluator_module
from crackdet.dataio import Annotation, Category, DatasetIndex, ImageInfo
from crackdet.errors import ConfigError, CrackdetError
from crackdet.evaluator import (ERROR_STAGES, METRIC_KEYS, SENTINEL, EvalConfig,
                                _cross_class_overlaps, _pr_curves, compute_ap, error_breakdown,
                                evaluate, match_detections)
from crackdet.geometry import iou, iou_matrix
from crackdet.model import Detection

from oracles import ap_101_reference, cross_class_overlaps_loop, greedy_match_loop


def make_index(gts, num_images=4, categories=("crack", "pothole")):
    """gts: list of (image_id, category_id, box)."""
    images = [ImageInfo(id=i, file_name=f"im{i}.ppm", width=200, height=200)
              for i in range(1, num_images + 1)]
    cats = [Category(id=i + 1, name=n) for i, n in enumerate(categories)]
    anns = [Annotation(id=k + 1, image_id=g[0], category_id=g[1], box=g[2])
            for k, g in enumerate(gts)]
    return DatasetIndex(images=images, annotations=anns, categories=cats)


def det(image_id, category_id, score, box):
    return Detection(image_id=image_id, category_id=category_id, score=score, box=box)


def random_scene(seed, num_images=4, num_classes=2):
    """Detections loosely correlated with GTs, plus noise FPs."""
    r = np.random.default_rng(seed)
    gts, dets = [], []
    for image_id in range(1, num_images + 1):
        for _ in range(int(r.integers(0, 4))):
            x, y = r.uniform(0, 150, size=2)
            w, h = r.uniform(10, 45, size=2)
            cat = int(r.integers(1, num_classes + 1))
            box = (x, y, x + w, y + h)
            gts.append((image_id, cat, box))
            if r.random() < 0.8:
                dx1, dy1, dx2, dy2 = r.normal(scale=4.0, size=4)
                x1 = min(box[0] + dx1, box[2] + dx2 - 1.0)
                y1 = min(box[1] + dy1, box[3] + dy2 - 1.0)
                dbox = (x1, y1, max(box[2] + dx2, x1 + 1.0), max(box[3] + dy2, y1 + 1.0))
                dcat = cat if r.random() < 0.85 else int(r.integers(1, num_classes + 1))
                dets.append(det(image_id, dcat, float(r.uniform(0.3, 1.0)), dbox))
        for _ in range(int(r.integers(0, 3))):
            x, y = r.uniform(0, 160, size=2)
            w, h = r.uniform(8, 30, size=2)
            dets.append(det(image_id, int(r.integers(1, num_classes + 1)),
                            float(r.uniform(0.05, 0.6)), (x, y, x + w, y + h)))
    return make_index(gts, num_images=num_images), dets


class TestMatchDetections:
    def test_single_tp(self):
        tp, ignore, matched = match_detections([(0, 0, 10, 6)], [0.9], [(0, 0, 10, 10)], 0.5)
        assert tp.tolist() == [True] and matched.tolist() == [True]

    def test_threshold_boundary_is_inclusive(self):
        tp, _, _ = match_detections([(0, 0, 10, 6)], [0.9], [(0, 0, 10, 10)], 0.6)
        assert tp.tolist() == [True]
        tp, _, _ = match_detections([(0, 0, 10, 6)], [0.9], [(0, 0, 10, 10)], 0.75)
        assert tp.tolist() == [False]

    def test_duplicate_detection_is_fp(self):
        tp, _, matched = match_detections([(0, 0, 10, 9), (0, 0, 10, 9)], [0.9, 0.8],
                                          [(0, 0, 10, 10)], 0.5)
        assert tp.tolist() == [True, False]
        assert matched.tolist() == [True]

    def test_prefers_unignored_gt(self):
        gt = [(0, 0, 10, 10), (1, 0, 11, 10)]
        tp, ignore, _ = match_detections([(0, 0, 10, 10)], [0.9], gt, 0.5,
                                         gt_ignore=[True, False])
        assert tp.tolist() == [True] and ignore.tolist() == [False]

    def test_match_only_ignored_gt_ignores_detection(self):
        tp, ignore, _ = match_detections([(0, 0, 10, 10)], [0.9], [(0, 0, 10, 10)], 0.5,
                                         gt_ignore=[True])
        assert tp.tolist() == [False] and ignore.tolist() == [True]

    def test_threshold_sequence_gives_one_row_per_threshold(self):
        # IoU exactly 0.6: inclusive at 0.6, a miss at 0.65.
        tp, ignore, matched = match_detections([(0, 0, 10, 6)], [0.9], [(0, 0, 10, 10)],
                                               (0.5, 0.6, 0.65))
        assert tp.tolist() == [[True], [True], [False]]
        assert ignore.tolist() == [[False]] * 3
        assert matched.tolist() == [[True], [True], [False]]

    def test_equal_iou_goes_to_last_gt(self):
        gt = [(0, 0, 10, 10), (0, 0, 10, 10), (20, 20, 30, 30)]
        _, _, matched = match_detections([(0, 0, 10, 10)], [0.9], gt, (0.5, 1.0))
        assert matched.tolist() == [[False, True, False]] * 2

    def test_unignored_gt_wins_over_higher_iou_ignored_ones(self):
        # GT 1 (IoU 0.6) is the only non-ignored one; GTs 0 and 2 (IoU 1) tie.
        gt = [(0, 0, 10, 10), (0, 0, 10, 6), (0, 0, 10, 10)]
        tp, ignore, matched = match_detections([(0, 0, 10, 10)], [0.9], gt, (0.5, 0.7),
                                               gt_ignore=[True, False, True])
        assert tp.tolist() == [[True], [False]]
        assert ignore.tolist() == [[False], [True]]
        assert matched.tolist() == [[False, True, False], [False, False, True]]

    def test_zero_area_boxes_match_nothing(self):
        tp, ignore, matched = match_detections([(5, 5, 5, 9)], [0.9], [(5, 5, 5, 9)],
                                               (0.1, 0.5))
        assert not tp.any() and not ignore.any() and not matched.any()

    @pytest.mark.parametrize("n_det,n_gt", [(0, 2), (3, 0), (0, 0)])
    def test_empty_sides_give_empty_flags(self, n_det, n_gt):
        dets = [(0, 0, 10, 10)] * n_det
        gts = [(0, 0, 10, 10)] * n_gt
        tp, ignore, matched = match_detections(dets, [0.5] * n_det, gts, (0.5, 0.75))
        assert tp.shape == ignore.shape == (2, n_det) and matched.shape == (2, n_gt)
        assert not tp.any() and not ignore.any() and not matched.any()
        tp, _, matched = match_detections(dets, [0.5] * n_det, gts, 0.5)
        assert tp.shape == (n_det,) and matched.shape == (n_gt,)


class TestEvalConfig:
    @pytest.mark.parametrize("max_dets", [0, -1])
    def test_max_dets_below_one_rejected(self, max_dets):
        with pytest.raises(ConfigError, match="max_dets"):
            EvalConfig(max_dets=max_dets)

    @pytest.mark.parametrize("thresholds", [(), (0.0, 0.5), (0.5, 1.5), (-0.1,),
                                            (float("nan"),)])
    def test_bad_iou_thresholds_rejected(self, thresholds):
        with pytest.raises(ConfigError, match="iou_thresholds"):
            EvalConfig(iou_thresholds=thresholds)

    def test_descending_thresholds_rejected(self):
        with pytest.raises(CrackdetError, match="ascending"):
            EvalConfig(iou_thresholds=(0.75, 0.5))

    def test_threshold_one_accepted(self):
        assert EvalConfig(iou_thresholds=(0.5, 1.0)).iou_thresholds == (0.5, 1.0)


class TestComputeAP:
    def test_all_tp_is_one(self):
        assert compute_ap([True, True, True], [False] * 3, 3) == 1.0

    def test_sentinel_when_no_gts(self):
        assert compute_ap([], [], 0) == SENTINEL

    def test_single_tp_single_gt(self):
        assert compute_ap([True], [False], 1) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_plain_reference(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 25))
        flags = r.random(n) < 0.5
        num_gt = int(flags.sum() + r.integers(0, 5))
        if num_gt == 0:
            num_gt = 1
        mine = compute_ap(flags, np.zeros(n, dtype=bool), num_gt)
        assert mine == pytest.approx(ap_101_reference(list(flags), num_gt), abs=1e-12)
        # Ignored detections drop out, wherever they sit: a random share, a
        # leading run, and the whole row.
        lead = np.arange(n) < r.integers(1, n + 1)
        for ignore in (r.random(n) < 0.3, lead | (r.random(n) < 0.2), np.ones(n, dtype=bool)):
            mine = compute_ap(flags, ignore, num_gt)
            want = ap_101_reference(list(flags), num_gt, ignore=list(ignore))
            assert mine == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_block_rows_match_single_rows(self, seed):
        """Each row of one (S, n) block is bitwise the curve of that row alone."""
        r = np.random.default_rng(seed)
        S, n = 6, int(r.integers(1, 40))
        tp = r.random((S, n)) < 0.5
        ignore = r.random((S, n)) < 0.3
        ignore[1, :3] = True
        ignore[2] = True
        num_gt = int(tp.sum(axis=1).max()) + 1
        grid = EvalConfig().recall_grid()
        block = _pr_curves(tp, ignore, num_gt, grid)
        assert block.shape == (S, len(grid))
        for s in range(S):
            alone = _pr_curves(tp[s:s + 1], ignore[s:s + 1], num_gt, grid)
            assert np.array_equal(block[s], alone[0])
            assert compute_ap(tp[s], ignore[s], num_gt, grid) == float(block[s].mean())
        assert not block[2].any()
        assert _pr_curves(tp, ignore, 0, grid) is None


class TestEvaluateHandCases:
    def test_iou06_case(self):
        index = make_index([(1, 1, (0.0, 0.0, 10.0, 10.0))], categories=("crack",))
        dets = [det(1, 1, 0.9, (0.0, 0.0, 10.0, 6.0))]  # IoU exactly 0.6
        report = evaluate(index, dets)
        agg = report.aggregate
        assert agg["ap50"] == 1.0
        assert agg["ap75"] == 0.0
        assert agg["ap"] == pytest.approx(0.3, abs=1e-12)

    def test_empty_detections(self):
        index = make_index([(1, 1, (0, 0, 50, 50)), (2, 2, (0, 0, 40, 40))])
        report = evaluate(index, [])
        assert report.aggregate["ap"] == 0.0
        assert report.aggregate["ar"] == 0.0

    def test_perfect_detections(self):
        gts = [(1, 1, (0.0, 0.0, 50.0, 50.0)), (2, 2, (10.0, 10.0, 120.0, 120.0)),
               (3, 1, (5.0, 5.0, 30.0, 30.0))]
        index = make_index(gts)
        dets = [det(g[0], g[1], 0.99, g[2]) for g in gts]
        report = evaluate(index, dets)
        for key in ("ap", "ap50", "ap75", "ar"):
            assert report.aggregate[key] == 1.0

    def test_missing_small_bucket_gets_sentinel(self):
        # every GT is large, so AP_S and AR_S must be exactly -1.000
        gts = [(1, 1, (0.0, 0.0, 100.0, 100.0)), (2, 2, (0.0, 0.0, 120.0, 110.0))]
        index = make_index(gts)
        dets = [det(g[0], g[1], 0.9, g[2]) for g in gts]
        report = evaluate(index, dets)
        assert report.aggregate["ap_small"] == SENTINEL
        assert report.aggregate["ar_small"] == SENTINEL
        assert report.aggregate["ap_large"] == 1.0

    def test_unknown_category_named(self):
        index = make_index([(1, 1, (0, 0, 50, 50))])
        with pytest.raises(CrackdetError, match="99"):
            evaluate(index, [det(1, 99, 0.5, (0, 0, 10, 10))])

    def test_unknown_image_named(self):
        index = make_index([(1, 1, (0, 0, 50, 50))])
        with pytest.raises(CrackdetError, match="77"):
            evaluate(index, [det(77, 1, 0.5, (0, 0, 10, 10))])

    def test_class_without_gts_is_sentinel_even_with_detections(self):
        index = make_index([(1, 1, (0, 0, 50, 50))])
        dets = [det(1, 1, 0.9, (0, 0, 50, 50)), det(1, 2, 0.8, (10, 10, 40, 40))]
        report = evaluate(index, dets)
        assert report.per_class[2]["ap"] == SENTINEL
        assert report.per_class[1]["ap"] == 1.0
        assert report.aggregate["ap"] == 1.0  # sentinel classes excluded from the mean

    def test_bucket_filtering_ignores_matched_out_of_bucket(self):
        # one small GT + one large GT; in the small bucket, the detection on
        # the large GT must be neither TP nor FP
        gts = [(1, 1, (0.0, 0.0, 20.0, 20.0)), (1, 1, (50.0, 50.0, 180.0, 180.0))]
        index = make_index(gts, categories=("crack",))
        dets = [det(1, 1, 0.95, (50.0, 50.0, 180.0, 180.0)),
                det(1, 1, 0.90, (0.0, 0.0, 20.0, 20.0))]
        report = evaluate(index, dets)
        assert report.aggregate["ap_small"] == 1.0
        assert report.aggregate["ap_large"] == 1.0


class TestEvaluateProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_values_in_range_or_sentinel(self, seed):
        index, dets = random_scene(seed)
        report = evaluate(index, dets)
        for info in list(report.per_class.values()) + [report.aggregate]:
            for key, value in info.items():
                if key == "name":
                    continue
                assert value == SENTINEL or 0.0 <= value <= 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_ap_monotone_in_iou_threshold(self, seed):
        index, dets = random_scene(seed)
        aps = []
        for thr in (0.5, 0.75, 0.9):
            report = evaluate(index, dets, EvalConfig(iou_thresholds=(thr,)))
            aps.append(report.aggregate["ap"])
        assert aps[0] >= aps[1] >= aps[2]

    @pytest.mark.parametrize("seed", range(6))
    def test_order_invariance_with_distinct_scores(self, seed):
        index, dets = random_scene(seed)
        # force distinct scores
        dets = [Detection(d.image_id, d.category_id, round(0.99 - 0.007 * i, 6), d.box)
                for i, d in enumerate(dets)]
        fwd = evaluate(index, dets).to_dict()
        rev = evaluate(index, list(reversed(dets))).to_dict()
        assert fwd == rev

    @pytest.mark.parametrize("seed", range(14))
    def test_adding_tp_for_unmatched_gt_never_decreases_ap(self, seed):
        index, dets = random_scene(seed)
        before = evaluate(index, dets)
        matched_boxes = {(d.image_id, d.category_id) for d in dets}
        target = None
        for ann in index.annotations:
            hit = any(d.image_id == ann.image_id and d.category_id == ann.category_id
                      for d in dets)
            if not hit:
                target = ann
                break
        if target is None:
            pytest.skip("every GT already covered in this scene")
        dets2 = dets + [det(target.image_id, target.category_id, 1.0, target.box)]
        after = evaluate(index, dets2)
        for key in ("ap", "ap50", "ap75"):
            b, a = before.aggregate[key], after.aggregate[key]
            if b == SENTINEL:
                continue
            assert a >= b - 1e-12

    def test_permuted_detections_bitwise_identical(self):
        index, dets = random_scene(123, num_images=6)
        assert len({d.score for d in dets}) == len(dets)

        def reports(detections):
            return (json.dumps(evaluate(index, detections).to_dict(), sort_keys=True),
                    json.dumps(error_breakdown(index, detections).to_dict(), sort_keys=True))

        base = reports(dets)
        assert reports(dets) == base
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(dets))
            assert reports([dets[i] for i in perm]) == base


class TestErrorBreakdown:
    def test_perfect_detections_all_stages_one(self):
        gts = [(1, 1, (0.0, 0.0, 50.0, 50.0)), (2, 2, (10.0, 10.0, 90.0, 90.0))]
        index = make_index(gts)
        dets = [det(g[0], g[1], 0.95, g[2]) for g in gts]
        breakdown = error_breakdown(index, dets)
        for stage in ERROR_STAGES:
            assert breakdown.aps[stage] == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_monotone_and_fn_pinned(self, seed):
        index, dets = random_scene(seed)
        if not index.annotations:
            pytest.skip("empty scene")
        breakdown = error_breakdown(index, dets)
        values = [breakdown.aps[stage] for stage in ERROR_STAGES]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12
        assert values[-1] == 1.0

    def test_wrong_class_same_box_forgiven_at_sim(self):
        # one GT of class 1; one detection with the right box, wrong class (2):
        # strict stages score 0 for class 2... and the Sim stage forgives the
        # cross-class FP so class 2 holds no GTs -> sentinel; class 1 keeps FN=1
        index = make_index([(1, 1, (0.0, 0.0, 40.0, 40.0))])
        dets = [det(1, 2, 0.9, (0.0, 0.0, 40.0, 41.0))]  # IoU 0.8 vs the class-1 GT
        breakdown = error_breakdown(index, dets)
        assert breakdown.per_class_aps["C75"][1] == 0.0
        assert breakdown.per_class_aps["C50"][1] == 0.0
        assert breakdown.per_class_aps["Loc"][1] == 0.0
        # class 2 has no GT: sentinel everywhere
        assert breakdown.per_class_aps["Sim"][2] == SENTINEL
        # the chase: class-1 FN stage pins at 1.0
        assert breakdown.per_class_aps["FN"][1] == 1.0
        assert breakdown.aps["FN"] == 1.0

    def test_sim_forgives_cross_class_fp_for_scored_class(self):
        # class 1: one perfect det + GT; class 2 det overlapping a class-1 GT
        # drags class-2... class 2 has its own GT missed, det on class-1 GT:
        # Loc counts the det as FP (AP 0); Sim ignores it (AP stays 0 from the
        # missed GT but precision curve loses the FP)
        gts = [(1, 1, (0.0, 0.0, 40.0, 40.0)), (1, 2, (100.0, 100.0, 140.0, 140.0))]
        index = make_index(gts)
        dets = [det(1, 1, 0.9, (0.0, 0.0, 40.0, 40.0)),
                det(1, 2, 0.8, (0.0, 0.0, 40.0, 40.0))]
        breakdown = error_breakdown(index, dets)
        assert breakdown.per_class_aps["Loc"][2] == 0.0
        assert breakdown.per_class_aps["Sim"][2] == 0.0
        assert breakdown.per_class_aps["BG"][2] == 0.0
        assert breakdown.per_class_aps["FN"][2] == 1.0
        assert breakdown.aps["Sim"] == breakdown.aps["Oth"]

    def test_csv_export_has_all_stages(self):
        index, dets = random_scene(4)
        breakdown = error_breakdown(index, dets)
        lines = breakdown.to_csv().strip().splitlines()
        assert lines[0] == "recall," + ",".join(ERROR_STAGES)
        assert len(lines) == 102


class TestCrossClassOverlaps:
    def test_matches_pairwise_oracle_over_seeds(self):
        hits = misses = 0
        for seed in range(40):
            index, dets = random_scene(seed, num_images=6)
            got = _cross_class_overlaps(index, dets)
            assert got.dtype == bool and got.shape == (len(dets),)
            assert got.tolist() == cross_class_overlaps_loop(index, dets)
            hits += int(got.sum())
            misses += int((~got).sum())
        assert hits > 0 and misses > 0

    def test_detections_on_images_without_gts(self):
        index = make_index([(1, 1, (0.0, 0.0, 40.0, 40.0))], num_images=3)
        dets = [det(2, 2, 0.9, (0.0, 0.0, 40.0, 40.0)),
                det(1, 2, 0.8, (0.0, 0.0, 40.0, 38.0)),
                det(3, 1, 0.7, (0.0, 0.0, 40.0, 40.0)),
                det(1, 2, 0.6, (100.0, 100.0, 120.0, 120.0))]
        got = _cross_class_overlaps(index, dets)
        assert got.tolist() == [False, True, False, False]
        assert got.tolist() == cross_class_overlaps_loop(index, dets)

    def test_same_class_detections_never_overlap_another_class(self):
        gts = [(1, 1, (0.0, 0.0, 40.0, 40.0)), (2, 1, (10.0, 10.0, 60.0, 60.0))]
        index = make_index(gts, num_images=2)
        dets = [det(g[0], 1, 0.9 - 0.1 * k, g[2]) for k, g in enumerate(gts)]
        assert _cross_class_overlaps(index, dets).tolist() == [False, False]
        assert cross_class_overlaps_loop(index, dets) == [False, False]

    def test_empty_detection_list(self):
        index, _ = random_scene(3)
        got = _cross_class_overlaps(index, [])
        assert got.dtype == bool and got.shape == (0,)
        assert cross_class_overlaps_loop(index, []) == []


# Integer corners so zero-area boxes, shared edges and exact overlaps are
# common; three score levels so ties are common.
_box = st.builds(lambda x, y, w, h: (float(x), float(y), float(x + w), float(y + h)),
                 st.integers(0, 40), st.integers(0, 40), st.integers(0, 20), st.integers(0, 20))


@st.composite
def match_cases(draw):
    """Detections and GTs drawn partly from one shared pool of boxes, so exact
    IoU ties (duplicate GTs) are common; mixed ignore flags; ascending
    thresholds that often equal one of the case's own IoUs exactly."""
    pool = draw(st.lists(_box, min_size=1, max_size=4))
    pick = st.one_of(st.sampled_from(pool), _box)
    dets = draw(st.lists(pick, max_size=8))
    gts = draw(st.lists(pick, max_size=6))
    ignore = draw(st.lists(st.booleans(), min_size=len(gts), max_size=len(gts)))
    exact = sorted({iou(d, g) for d in dets for g in gts} - {0.0})
    level = st.sampled_from((0.1, 0.3, 0.5, 0.75, 0.95, 1.0))
    if exact:
        level = st.one_of(level, st.sampled_from(exact))
    thresholds = sorted(draw(st.lists(level, min_size=1, max_size=5)))
    return dets, gts, ignore, thresholds


class TestMatchOracle:
    @given(match_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_threshold_matches_greedy_loop(self, case):
        dets, gts, ignore, thresholds = case
        scores = [1.0] * len(dets)
        rows = match_detections(dets, scores, gts, thresholds, ignore)
        tp, det_ignore, matched = rows
        assert tp.shape == det_ignore.shape == (len(thresholds), len(dets))
        assert matched.shape == (len(thresholds), len(gts))
        ious = iou_matrix(dets, gts) if dets and gts else None
        given_ious = match_detections(dets, scores, gts, thresholds, ignore, ious=ious)
        for t, thr in enumerate(thresholds):
            want = greedy_match_loop(dets, gts, thr, ignore)
            assert (tp[t].tolist(), det_ignore[t].tolist(), matched[t].tolist()) == want
            scalar = match_detections(dets, scores, gts, thr, ignore)
            assert [a.tolist() for a in scalar] == list(want)
            assert [a[t].tolist() for a in given_ious] == list(want)


class TestIouOncePerGroup:
    def test_one_iou_matrix_per_group(self, monkeypatch):
        """evaluate computes each (image, category) group's IoU once, not once
        per (threshold, bucket); error_breakdown adds one call per image."""
        index, dets = random_scene(42, 6)
        gt_keys = {(a.image_id, a.category_id) for a in index.annotations}
        det_keys = {(d.image_id, d.category_id) for d in dets}
        groups = len(gt_keys & det_keys)
        images = len({k[0] for k in gt_keys} & {k[0] for k in det_keys})
        assert groups > 0
        calls = []
        real = evaluator_module.iou_matrix
        monkeypatch.setattr(evaluator_module, "iou_matrix",
                            lambda a, b: calls.append(1) or real(a, b))
        evaluate(index, dets)
        assert 0 < len(calls) <= groups
        calls.clear()
        error_breakdown(index, dets)
        assert 0 < len(calls) <= groups + images


@st.composite
def scenes(draw):
    """A 1-4 image dataset (some images empty) and its scored detections."""
    num_images = draw(st.integers(1, 4))
    item = st.tuples(st.integers(1, num_images), st.integers(1, 2), _box)
    gts = draw(st.lists(item, max_size=8))
    dets = draw(st.lists(st.tuples(item, st.sampled_from((0.25, 0.5, 0.75))), max_size=12))
    return (make_index(gts, num_images=num_images),
            [det(image_id, cat, score, box) for (image_id, cat, box), score in dets])


class TestEvaluatorProperties:
    @given(scenes())
    @settings(max_examples=150, deadline=None)
    def test_error_breakdown_monotone_and_fn_pinned(self, scene):
        index, dets = scene
        breakdown = error_breakdown(index, dets)
        values = [breakdown.aps[stage] for stage in ERROR_STAGES]
        if not index.annotations:
            assert values == [SENTINEL] * len(ERROR_STAGES)
            return
        assert all(a <= b for a, b in zip(values, values[1:])), values
        assert breakdown.aps["FN"] == 1.0
        cats_with_gt = {a.category_id for a in index.annotations}
        for cat in (1, 2):
            fn = breakdown.per_class_aps["FN"][cat]
            assert fn == (1.0 if cat in cats_with_gt else SENTINEL)

    @given(scenes())
    @settings(max_examples=150, deadline=None)
    def test_evaluate_values_in_range(self, scene):
        index, dets = scene
        report = evaluate(index, dets)
        rows = list(report.per_class.values()) + [report.aggregate]
        for row in rows:
            for key in METRIC_KEYS:
                assert row[key] == SENTINEL or 0.0 <= row[key] <= 1.0, (key, row[key])
