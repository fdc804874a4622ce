import json
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackdet import evaluator as evaluator_module
from crackdet.dataio import Annotation, Category, DatasetIndex, ImageInfo
from crackdet.errors import CrackdetError
from crackdet.evaluator import (AREA_RANGES, ERROR_STAGES, IOU_THRESHOLDS, METRIC_KEYS,
                                MAX_DETS, RECALL_GRID, SENTINEL, ErrorBreakdown, EvalReport,
                                _aggregate,
                                _collect_groups, _pr_curves, _recall_counts, compute_ap,
                                error_breakdown, evaluate, match_detections)
from crackdet.geometry import iou, iou_matrix
from crackdet.model import Detection

from oracles import (ap_101_reference, collect_groups_two_sorts, cross_class_overlaps_loop,
                     greedy_match_loop, pr_curves_every_detection)


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


def match_one(dets, gts, iou_thr, gt_ignore=None):
    """``match_detections`` on one group, a batch of one, from its boxes."""
    return match_detections([iou_matrix(dets, gts)], iou_thr, gt_ignore)


class TestMatchDetections:
    def test_single_tp(self):
        tp, ignore, matched = match_one([(0, 0, 10, 6)], [(0, 0, 10, 10)], [0.5])
        assert tp.tolist() == [[True]] and matched.tolist() == [[True]]

    def test_threshold_boundary_is_inclusive(self):
        tp, _, _ = match_one([(0, 0, 10, 6)], [(0, 0, 10, 10)], [0.6])
        assert tp.tolist() == [[True]]
        tp, _, _ = match_one([(0, 0, 10, 6)], [(0, 0, 10, 10)], [0.75])
        assert tp.tolist() == [[False]]

    def test_duplicate_detection_is_fp(self):
        tp, _, matched = match_one([(0, 0, 10, 9), (0, 0, 10, 9)], [(0, 0, 10, 10)], [0.5])
        assert tp.tolist() == [[True, False]]
        assert matched.tolist() == [[True]]

    def test_prefers_unignored_gt(self):
        gt = [(0, 0, 10, 10), (1, 0, 11, 10)]
        tp, ignore, _ = match_one([(0, 0, 10, 10)], gt, [0.5], gt_ignore=[True, False])
        assert tp.tolist() == [[True]] and ignore.tolist() == [[False]]

    def test_match_only_ignored_gt_ignores_detection(self):
        tp, ignore, _ = match_one([(0, 0, 10, 10)], [(0, 0, 10, 10)], [0.5], gt_ignore=[True])
        assert tp.tolist() == [[False]] and ignore.tolist() == [[True]]

    def test_threshold_sequence_gives_one_row_per_threshold(self):
        # IoU exactly 0.6: inclusive at 0.6, a miss at 0.65.
        tp, ignore, matched = match_one([(0, 0, 10, 6)], [(0, 0, 10, 10)], (0.5, 0.6, 0.65))
        assert tp.tolist() == [[True], [True], [False]]
        assert ignore.tolist() == [[False]] * 3
        assert matched.tolist() == [[True], [True], [False]]

    def test_equal_iou_goes_to_last_gt(self):
        gt = [(0, 0, 10, 10), (0, 0, 10, 10), (20, 20, 30, 30)]
        _, _, matched = match_one([(0, 0, 10, 10)], gt, (0.5, 1.0))
        assert matched.tolist() == [[False, True, False]] * 2

    def test_unignored_gt_wins_over_higher_iou_ignored_ones(self):
        # GT 1 (IoU 0.6) is the only non-ignored one; GTs 0 and 2 (IoU 1) tie.
        gt = [(0, 0, 10, 10), (0, 0, 10, 6), (0, 0, 10, 10)]
        tp, ignore, matched = match_one([(0, 0, 10, 10)], gt, (0.5, 0.7),
                                        gt_ignore=[True, False, True])
        assert tp.tolist() == [[True], [False]]
        assert ignore.tolist() == [[False], [True]]
        assert matched.tolist() == [[False, True, False], [False, False, True]]

    def test_zero_area_boxes_match_nothing(self):
        tp, ignore, matched = match_one([(5, 5, 5, 9)], [(5, 5, 5, 9)], (0.1, 0.5))
        assert not tp.any() and not ignore.any() and not matched.any()

    @pytest.mark.parametrize("n_det,n_gt", [(0, 2), (3, 0), (0, 0)])
    def test_empty_sides_give_empty_flags(self, n_det, n_gt):
        dets = [(0, 0, 10, 10)] * n_det
        gts = [(0, 0, 10, 10)] * n_gt
        tp, ignore, matched = match_one(dets, gts, (0.5, 0.75))
        assert tp.shape == ignore.shape == (2, n_det) and matched.shape == (2, n_gt)
        assert not tp.any() and not ignore.any() and not matched.any()


class TestEvalConfig:
    """The evaluator's one knob, the ``max_dets`` keyword of both reports
    (``MAX_DETS`` in every run), is checked as the old ``eval`` section was."""

    @pytest.mark.parametrize("max_dets", [0, -1])
    def test_max_dets_below_one_rejected(self, max_dets):
        index, dets = random_scene(1)
        for report in (evaluate, error_breakdown):
            with pytest.raises(CrackdetError, match=f"max_dets must be an int of at least 1, "
                                                    f"got {max_dets}"):
                report(index, dets, max_dets=max_dets)

    @pytest.mark.parametrize("max_dets", [2.5, 3.0, True, "3", None])
    def test_non_integer_max_dets_rejected(self, max_dets):
        """A float would cut each group at its ceiling and a bool reads as 0
        or 1; neither reaches the grouping."""
        index, dets = random_scene(1)
        with pytest.raises(CrackdetError, match="max_dets must be an int of at least 1"):
            evaluate(index, dets, max_dets=max_dets)

    def test_numpy_integer_max_dets_accepted(self):
        index, dets = random_scene(1)
        assert evaluate(index, dets, max_dets=np.int64(1)).to_dict() == evaluate(
            index, dets, max_dets=1).to_dict()


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
        block = _pr_curves(tp, ignore, num_gt)
        assert block.shape == (S, len(RECALL_GRID))
        for s in range(S):
            alone = _pr_curves(tp[s:s + 1], ignore[s:s + 1], num_gt)
            assert np.array_equal(block[s], alone[0])
            assert compute_ap(tp[s], ignore[s], num_gt) == float(block[s].mean())
        assert not block[2].any()
        assert _pr_curves(tp, ignore, 0) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_one_gt_count_per_row(self, seed):
        """A row with no GTs is all zeros and warns nothing; every other row is
        bitwise the scalar-count curve of that row alone."""
        r = np.random.default_rng(seed)
        S, n = 8, int(r.integers(1, 40))
        tp = r.random((S, n)) < 0.5
        ignore = r.random((S, n)) < 0.3
        counts = tp.sum(axis=1) + r.integers(0, 3, S)
        counts[[0, 5]] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = _pr_curves(tp, ignore, counts)
        for s in range(S):
            if counts[s] == 0:
                assert not block[s].any()
            else:
                alone = _pr_curves(tp[s:s + 1], ignore[s:s + 1], int(counts[s]))
                assert np.array_equal(block[s], alone[0])
        assert _pr_curves(tp, ignore, np.zeros(S, dtype=int)) is None
        assert _pr_curves(tp, ignore, 0) is None

    @given(st.tuples(st.integers(1, 6), st.integers(0, 30)).flatmap(lambda shape: st.tuples(
        st.lists(st.lists(st.sampled_from("TFIX"), min_size=shape[1], max_size=shape[1]),
                 min_size=shape[0], max_size=shape[0]),
        st.lists(st.integers(0, 8), min_size=shape[0], max_size=shape[0]))))
    @settings(max_examples=300, deadline=None)
    def test_block_equals_every_detection_envelope(self, case):
        """Each row, read off its kept TPs alone, is bitwise the curve from the
        envelope over every detection. Flags: T a TP, F a FP, I ignored, X a
        TP flagged ignored; rows may hold fewer GTs than TPs."""
        block, counts = case
        flags = np.array(block, dtype="<U1").reshape(len(counts), -1)
        tp, ignore = np.isin(flags, ("T", "X")), np.isin(flags, ("I", "X"))
        got = _pr_curves(tp, ignore, np.array(counts))
        want = pr_curves_every_detection(tp, ignore, np.array(counts), RECALL_GRID)
        assert (got is None and want is None) or np.array_equal(got, want)

    def test_recall_counts_equal_searchsorted(self):
        """For every GT count up to 2,000, each grid point's TP count is the
        first recall k / n at or above it, exactly as a recall search finds it."""
        n = np.arange(1, 2001)
        got = _recall_counts(n[:, None])
        for count, row in zip(n, got):
            want = np.searchsorted(np.arange(count + 1) / count, RECALL_GRID, "left")
            assert np.array_equal(row, want), count

    @pytest.mark.parametrize("seed", range(5))
    def test_row_means_match_scalar_means(self, seed):
        """``mean(axis=1)`` over C-contiguous rows of curves is bitwise each
        row's own ``float(c.mean())``, the form the reports once used."""
        r = np.random.default_rng(seed)
        curves = np.maximum.accumulate(r.random((40, len(RECALL_GRID)))[:, ::-1], axis=1)
        curves = np.ascontiguousarray(curves[:, ::-1])
        curves[r.random(curves.shape) < 0.2] = 0.0
        for b in range(4):
            rows = curves[b * 10:(b + 1) * 10]
            assert rows.mean(axis=1).tolist() == [float(c.mean()) for c in rows]


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

    @pytest.mark.parametrize("extra", [
        [(99, 1, (0.0, 0.0, 30.0, 30.0))],
        [(99, 1, (0.0, 0.0, 30.0, 30.0)), (98, 2, (0.0, 0.0, 30.0, 30.0)),
         (99, 1, (5.0, 5.0, 30.0, 30.0))],
    ])
    def test_gts_on_unlisted_images_are_misses(self, extra):
        """A listed category's GT on an image the index does not list counts as
        a miss of its category, as on a listed image without detections."""
        gts = [(1, 1, (10.0, 10.0, 50.0, 50.0))] + extra
        dets = [det(1, 1, 0.9, (10.0, 10.0, 50.0, 50.0)), det(2, 1, 0.5, (0.0, 0.0, 20.0, 20.0))]
        index = make_index(gts, num_images=2)
        listed = replace(index, images=index.images + [
            ImageInfo(id=i, file_name=f"im{i}.ppm", width=200, height=200) for i in (98, 99)])
        report, breakdown = evaluate(index, dets), error_breakdown(index, dets)
        assert report.to_dict() == evaluate(listed, dets).to_dict()
        assert breakdown.to_dict() == error_breakdown(listed, dets).to_dict()
        crack = sum(1 for g in gts if g[1] == 1)
        assert report.per_class[1]["ar"] == pytest.approx(1 / crack, abs=1e-12)
        assert report.per_class[1]["ap"] == pytest.approx(
            ap_101_reference([True, False], crack), abs=1e-12)
        assert breakdown.per_class_aps["Loc"][1] == report.per_class[1]["ap50"]

    def test_unknown_category_named(self):
        index = make_index([(1, 1, (0, 0, 50, 50))])
        with pytest.raises(CrackdetError, match="99"):
            evaluate(index, [det(1, 99, 0.5, (0, 0, 10, 10))])

    def test_unknown_image_named(self):
        index = make_index([(1, 1, (0, 0, 50, 50))])
        with pytest.raises(CrackdetError, match="77"):
            evaluate(index, [det(77, 1, 0.5, (0, 0, 10, 10))])

    @pytest.mark.parametrize("image_id, cat, message", [
        ("1", 1, "unknown image id '1' in detections"),
        (1, "1", "unknown category id '1' in detections"),
    ])
    def test_unknown_string_id_named_by_repr(self, image_id, cat, message):
        """A string id against int ids is named with its quotes: '1', not 1,
        which the index does list."""
        index = make_index([(1, 1, (0, 0, 50, 50))])
        for report in (evaluate, error_breakdown):
            with pytest.raises(CrackdetError) as err:
                report(index, [det(image_id, cat, 0.5, (0, 0, 10, 10))])
            assert str(err.value) == message

    @pytest.mark.parametrize("ids, message", [
        ([(1, 1), (77, 1), (1, 99)], "unknown image id 77 in detections"),
        ([(1, 1), (1, 99), (77, 1)], "unknown category id 99 in detections"),
        ([(77, 99), (1, 1)], "unknown category id 99 in detections"),
    ])
    def test_first_unknown_id_in_input_order_named(self, ids, message):
        index = make_index([(1, 1, (0, 0, 50, 50))])
        dets = [det(image_id, cat, 0.5, (0, 0, 10, 10)) for image_id, cat in ids]
        for report in (evaluate, error_breakdown):
            with pytest.raises(CrackdetError) as err:
                report(index, dets)
            assert str(err.value) == message

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

    def test_unmatched_detection_outside_a_stratum_is_ignored_there(self):
        """COCO's rule for the size strata: an unmatched detection whose area
        lies outside a stratum counts there neither as a TP nor as a FP. The
        unmatched 130 x 130 detection outranks the small GT's match, so it
        halves AP in the "all" stratum but not in the small one; an unmatched
        small detection still counts as a FP in the small stratum."""
        index = make_index([(1, 1, (0.0, 0.0, 20.0, 20.0))], categories=("crack",))
        dets = [det(1, 1, 0.95, (50.0, 50.0, 180.0, 180.0)),
                det(1, 1, 0.90, (0.0, 0.0, 20.0, 20.0))]
        report = evaluate(index, dets).aggregate
        assert report["ap_small"] == 1.0
        assert report["ap"] == pytest.approx(ap_101_reference([False, True], 1), abs=1e-12)
        assert report["ap_large"] == SENTINEL
        small_fp = dets + [det(1, 1, 0.93, (100.0, 100.0, 110.0, 110.0))]
        assert evaluate(index, small_fp).aggregate["ap_small"] == pytest.approx(0.5, abs=1e-12)

    def test_higher_score_takes_the_shared_gt(self):
        """Within a group the greedy walk goes by descending score, not input
        order: the 0.9 detection (IoU 0.6) takes the GT at IoU 0.5, and the
        0.5 detection (IoU 1.0) matches only at 0.75, where the first misses."""
        index = make_index([(1, 1, (0.0, 0.0, 10.0, 10.0))], categories=("crack",))
        dets = [det(1, 1, 0.5, (0.0, 0.0, 10.0, 10.0)), det(1, 1, 0.9, (0.0, 0.0, 10.0, 6.0))]
        report = evaluate(index, dets)
        assert report.aggregate["ap50"] == 1.0
        assert report.aggregate["ap75"] == 0.5

    def test_max_dets_cuts_each_group_to_its_best_scores(self):
        """max_dets keeps each (image, category) group's best-scored
        detections; another class's detections on the image use none of it."""
        box, far = (0.0, 0.0, 50.0, 50.0), (150.0, 150.0, 190.0, 190.0)
        index = make_index([(1, 1, box), (2, 1, box)])
        dets = [det(1, 2, 0.99, far), det(1, 2, 0.98, far), det(1, 1, 0.5, box),
                det(2, 1, 0.5, box), det(2, 1, 0.9, far)]
        assert evaluate(index, dets, max_dets=1).per_class[1]["ar"] == 0.5
        assert evaluate(index, dets, max_dets=2).per_class[1]["ar"] == 1.0


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
        report = evaluate(index, dets)
        for info in list(report.per_class.values()) + [report.aggregate]:
            assert info["ap50"] >= info["ap75"]

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
        """A score-1.0 detection on a GT whose (image, category) group holds
        no detection never lowers AP. The first GT's group is emptied first,
        so every scene has such a GT."""
        index, dets = random_scene(seed)
        target = index.annotations[0]
        group = (target.image_id, target.category_id)
        dets = [d for d in dets if (d.image_id, d.category_id) != group]
        before = evaluate(index, dets)
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


def cross_flags(index, dets):
    """The per-detection cross-class flags ``_collect_groups`` returns."""
    return _collect_groups(index, dets)[1]


class TestCrossClassOverlaps:
    def test_matches_pairwise_oracle_over_seeds(self):
        hits = misses = 0
        for seed in range(40):
            index, dets = random_scene(seed, num_images=6)
            got = cross_flags(index, dets)
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
        got = cross_flags(index, dets)
        assert got.tolist() == [False, True, False, False]
        assert got.tolist() == cross_class_overlaps_loop(index, dets)

    def test_same_class_detections_never_overlap_another_class(self):
        gts = [(1, 1, (0.0, 0.0, 40.0, 40.0)), (2, 1, (10.0, 10.0, 60.0, 60.0))]
        index = make_index(gts, num_images=2)
        dets = [det(g[0], 1, 0.9 - 0.1 * k, g[2]) for k, g in enumerate(gts)]
        assert cross_flags(index, dets).tolist() == [False, False]
        assert cross_class_overlaps_loop(index, dets) == [False, False]

    def test_empty_detection_list(self):
        index, _ = random_scene(3)
        got = cross_flags(index, [])
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


@st.composite
def match_cases_per_row(draw):
    """A match case whose ignore flags differ per threshold row: one (T, n_gt)
    block of flags."""
    dets, gts, _, thresholds = draw(match_cases())
    row = st.lists(st.booleans(), min_size=len(gts), max_size=len(gts))
    block = draw(st.lists(row, min_size=len(thresholds), max_size=len(thresholds)))
    return dets, gts, block, thresholds


class TestMatchOracle:
    @given(match_cases())
    @settings(max_examples=300, deadline=None)
    def test_every_threshold_matches_greedy_loop(self, case):
        dets, gts, ignore, thresholds = case
        tp, det_ignore, matched = match_one(dets, gts, thresholds, ignore)
        assert tp.shape == det_ignore.shape == (len(thresholds), len(dets))
        assert matched.shape == (len(thresholds), len(gts))
        for t, thr in enumerate(thresholds):
            want = greedy_match_loop(dets, gts, thr, ignore)
            assert (tp[t].tolist(), det_ignore[t].tolist(), matched[t].tolist()) == want
            alone = match_one(dets, gts, [thr], ignore)
            assert [a[0].tolist() for a in alone] == list(want)

    @given(match_cases_per_row())
    @settings(max_examples=300, deadline=None)
    def test_per_row_ignores_match_greedy_loop(self, case):
        """Each row of a (T, n_gt) ignore block matches as the loop does with
        that row's flags."""
        dets, gts, block, thresholds = case
        flags = np.array(block, dtype=bool).reshape(len(thresholds), len(gts))
        tp, det_ignore, matched = match_one(dets, gts, thresholds, flags)
        for t, thr in enumerate(thresholds):
            want = greedy_match_loop(dets, gts, thr, block[t])
            assert (tp[t].tolist(), det_ignore[t].tolist(), matched[t].tolist()) == want

    @given(match_cases())
    @settings(max_examples=200, deadline=None)
    def test_flat_ignores_equal_their_broadcast_block(self, case):
        dets, gts, ignore, thresholds = case
        block = np.broadcast_to(np.array(ignore, dtype=bool), (len(thresholds), len(gts)))
        flat = match_one(dets, gts, thresholds, ignore)
        rows = match_one(dets, gts, thresholds, block)
        for a, b in zip(flat, rows):
            assert a.shape == b.shape and np.array_equal(a, b)


@st.composite
def match_batches(draw):
    """A batch of 1-5 groups, each up to 10 detections (cut to ``max_dets``, 1
    or the default) and 8 GTs drawn partly from one shared pool of boxes;
    ascending thresholds, often equal to one of the batch's own IoUs; one
    (T, n_gt) block of ignore flags per group."""
    max_dets = draw(st.sampled_from((1, MAX_DETS)))
    pool = draw(st.lists(_box, min_size=1, max_size=4))
    pick = st.one_of(st.sampled_from(pool), _box)
    sides = [(draw(st.lists(pick, max_size=10))[:max_dets], draw(st.lists(pick, max_size=8)))
             for _ in range(draw(st.integers(1, 5)))]
    exact = sorted({iou(d, g) for dets, gts in sides for d in dets for g in gts} - {0.0})
    level = st.sampled_from((0.1, 0.3, 0.5, 0.75, 0.95, 1.0))
    if exact:
        level = st.one_of(level, st.sampled_from(exact))
    thresholds = sorted(draw(st.lists(level, min_size=1, max_size=5)))
    flags = [draw(st.lists(st.lists(st.booleans(), min_size=len(gts), max_size=len(gts)),
                           min_size=len(thresholds), max_size=len(thresholds)))
             for _, gts in sides]
    return [(dets, gts, block) for (dets, gts), block in zip(sides, flags)], thresholds


class TestMatchBatchOracle:
    @given(match_batches(), st.sampled_from((1, None)))
    @settings(max_examples=300, deadline=None)
    def test_every_group_and_row_matches_greedy_loop(self, case, budget):
        """Each row of each group of one batch matches as the loop does on that
        group alone, with that row's ignore flags; a budget of 1 puts every
        group in a block of its own."""
        groups, thresholds = case
        ignore = np.concatenate([np.zeros((len(thresholds), 0), dtype=bool)]
                                + [np.array(block, dtype=bool).reshape(len(thresholds), len(gts))
                                   for _, gts, block in groups], axis=1)
        budget = budget or evaluator_module._MATCH_BLOCK_ELEMENTS
        with mock.patch.object(evaluator_module, "_MATCH_BLOCK_ELEMENTS", budget):
            tp, det_ignore, matched = match_detections(
                [iou_matrix(dets, gts) for dets, gts, _ in groups], thresholds, ignore)
        d0 = g0 = 0
        for dets, gts, block in groups:
            d1, g1 = d0 + len(dets), g0 + len(gts)
            for t, thr in enumerate(thresholds):
                want = greedy_match_loop(dets, gts, thr, block[t])
                assert (tp[t, d0:d1].tolist(), det_ignore[t, d0:d1].tolist(),
                        matched[t, g0:g1].tolist()) == want
            d0, g0 = d1, g1
        assert (d0, g0) == (tp.shape[1], matched.shape[1])


def match_one_group_at_a_time(ious, iou_thr, gt_ignore=None):
    """``match_detections`` called once per group, each a batch of one, and
    its flags concatenated: the per-group oracle of a batch."""
    thrs = np.reshape(iou_thr, -1)
    ignore = np.broadcast_to(False if gt_ignore is None else gt_ignore,
                             (len(thrs), sum(b.shape[1] for b in ious)))
    cuts = np.cumsum([0] + [b.shape[1] for b in ious])
    rows = [match_detections([b], thrs, ignore[:, c0:c1])
            for b, c0, c1 in zip(ious, cuts, cuts[1:])]
    return tuple(np.concatenate([np.zeros((len(thrs), 0), dtype=bool)] + [r[i] for r in rows],
                                axis=1) for i in range(3))


class TestMatchMemoryBound:
    def test_large_groups_beside_many_small_ones(self):
        """Two large groups, 100 overlapping detections x 50 GTs and 100 x 500
        GTs, beside 500 one-GT groups: both reports equal the per-group
        oracle's, and the traced peak stays under 8 MB (about 4 MB measured).
        Neither padding every group to the largest (502 x 40 x 100 x 500
        elements) nor one (threshold, candidate, GT) table over all 40
        thresholds of the 500-GT group alone (2 million entries) fits."""
        r = np.random.default_rng(7)
        gts, dets = [], []
        # A 10 x 5 grid of 40-px boxes 20 px apart, and a 25 x 20 grid 8 px
        # apart; two jittered detections for each box of the first, one for
        # each of the first 100 boxes of the second.
        for cat, cols, rows, step, copies in ((1, 10, 5, 20.0, 2), (2, 25, 20, 8.0, 0)):
            for i in range(cols * rows):
                x, y = step * (i % cols), step * (i // cols)
                gts.append((1, cat, (x, y, x + 40.0, y + 40.0)))
                for copy in range(copies or int(i < 100)):
                    jx, jy = r.normal(0.0, 4.0, 2)
                    dets.append(det(1, cat, float(r.uniform(0.1, 1.0)),
                                    (x + jx, y + jy, x + jx + 40.0, y + jy + 40.0)))
        for image_id in range(2, 502):
            cat = 1 + image_id % 2
            gts.append((image_id, cat, (10.0, 10.0, 50.0, 60.0)))
            for _ in range(int(r.integers(1, 4))):
                x, y = r.uniform(0.0, 20.0, 2)
                dets.append(det(image_id, cat, float(r.uniform(0.1, 1.0)),
                                (x, y, x + 40.0, y + 50.0)))
        index = make_index(gts, num_images=501)
        with mock.patch.object(evaluator_module, "match_detections", match_one_group_at_a_time):
            want = evaluate(index, dets).to_dict(), error_breakdown(index, dets).to_dict()
        tracemalloc.start()
        try:
            got = evaluate(index, dets).to_dict(), error_breakdown(index, dets).to_dict()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 8 * 2**20, peak


class TestIouOncePerGroup:
    def test_one_iou_matrix_per_group(self, monkeypatch):
        """evaluate and error_breakdown each compute one IoU matrix per image
        that holds detections and GTs: its blocks serve every (image,
        category) group and the cross-class flags alike."""
        index, dets = random_scene(42, 6)
        gt_keys = {(a.image_id, a.category_id) for a in index.annotations}
        det_keys = {(d.image_id, d.category_id) for d in dets}
        images = len({k[0] for k in gt_keys} & {k[0] for k in det_keys})
        assert images > 1
        calls = []
        real = evaluator_module.iou_matrix
        monkeypatch.setattr(evaluator_module, "iou_matrix",
                            lambda a, b: calls.append(1) or real(a, b))
        evaluate(index, dets)
        assert len(calls) == images
        calls.clear()
        error_breakdown(index, dets)
        assert len(calls) == images

    def test_one_match_walk_per_group(self, monkeypatch):
        """evaluate and error_breakdown each make one ``match_detections`` call,
        one batch holding every (image, category) group of the report, for
        every size stratum and IoU threshold together."""
        index, dets = random_scene(42, 6)
        groups, _ = _collect_groups(index, dets)
        assert len(groups.ious) > len(index.categories)
        batches = []
        real = evaluator_module.match_detections
        monkeypatch.setattr(evaluator_module, "match_detections",
                            lambda ious, *a, **k: batches.append(len(ious)) or real(ious, *a, **k))
        evaluate(index, dets)
        assert batches == [len(groups.ious)]
        batches.clear()
        error_breakdown(index, dets)
        assert batches == [len(groups.ious)]


# Scene boxes reach every size stratum: _box's small ones, boxes of exactly
# 32² and 96² (the strata's half-open bounds), medium ones and large ones.
_scene_box = st.one_of(_box, st.builds(
    lambda x, y, wh: (float(x), float(y), float(x + wh[0]), float(y + wh[1])),
    st.integers(0, 40), st.integers(0, 40),
    st.one_of(st.sampled_from(((32, 32), (16, 64), (96, 96), (64, 144))),
              st.tuples(st.integers(33, 95), st.integers(33, 95)),
              st.tuples(st.integers(97, 160), st.integers(97, 160)))))


@st.composite
def scenes(draw):
    """A 1-4 image dataset (some images empty) and its scored detections."""
    num_images = draw(st.integers(1, 4))
    item = st.tuples(st.integers(1, num_images), st.integers(1, 2), _scene_box)
    gts = draw(st.lists(item, max_size=8))
    dets = draw(st.lists(st.tuples(item, st.sampled_from((0.25, 0.5, 0.75))), max_size=12))
    return (make_index(gts, num_images=num_images),
            [det(image_id, cat, score, box) for (image_id, cat, box), score in dets])


def evaluate_per_bucket(index, detections, max_dets=MAX_DETS):
    """The report built one size stratum and one group at a time: four walks
    per group, each a batch of one with the stratum's 1-D ignore flags, then
    COCO's rule that an unmatched detection outside the stratum is ignored
    too, and one PR-curve block and one ``float(c.mean())`` per row for
    every (category, stratum)."""
    groups, _ = _collect_groups(index, detections, max_dets)
    boxes = np.array([detections[i].box for i in groups.det_order], dtype=np.float64)
    det_areas = np.array([(x2 - x1) * (y2 - y1) for x1, y1, x2, y2 in boxes])
    n_thr = len(IOU_THRESHOLDS)
    flags = {}
    for bucket, (lo, hi) in AREA_RANGES.items():
        ignore = (groups.gt_areas < lo) | (groups.gt_areas >= hi)
        tp, ign, _ = match_one_group_at_a_time(groups.ious, IOU_THRESHOLDS, ignore)
        ign |= ~tp & ((det_areas < lo) | (det_areas >= hi))
        flags[bucket] = groups.slab(tp, False), groups.slab(ign, True), ignore
    per_class = {}
    for k, cat in enumerate(index.categories):
        rows = slice(k * n_thr, (k + 1) * n_thr)
        gts = groups.gt_onehot[:, k]
        aps, recalls = {}, {}
        for bucket, (tp, ign, ignore) in flags.items():
            num_gt = int((~ignore[gts]).sum())
            curves = _pr_curves(tp[rows], ign[rows], num_gt)
            if curves is None:
                aps[bucket] = recalls[bucket] = [SENTINEL] * n_thr
            else:
                aps[bucket] = [float(c.mean()) for c in curves]
                recalls[bucket] = (tp[rows].sum(axis=1) / num_gt).tolist()
        row = {"name": cat.name,
               "ap": _aggregate(aps["all"]),
               "ap50": aps["all"][IOU_THRESHOLDS.index(0.5)],
               "ap75": aps["all"][IOU_THRESHOLDS.index(0.75)]}
        for bucket in ("small", "medium", "large"):
            row[f"ap_{bucket}"] = _aggregate(aps[bucket])
        row["ar"] = _aggregate(recalls["all"])
        for bucket in ("small", "medium", "large"):
            row[f"ar_{bucket}"] = _aggregate(recalls[bucket])
        per_class[cat.id] = row
    aggregate = {k: _aggregate([row[k] for row in per_class.values()]) for k in METRIC_KEYS}
    return EvalReport(per_class=per_class, aggregate=aggregate)


class TestEvaluateOneWalk:
    @given(scenes(), st.sampled_from((MAX_DETS, 1)))
    @settings(max_examples=200, deadline=None)
    def test_report_equals_per_bucket_walks(self, scene, max_dets):
        index, dets = scene
        want = evaluate_per_bucket(index, dets, max_dets).to_dict()
        assert evaluate(index, dets, max_dets=max_dets).to_dict() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenes_equal_per_bucket_walks(self, seed):
        index, dets = random_scene(seed, 6)
        for max_dets in (MAX_DETS, 1):
            want = evaluate_per_bucket(index, dets, max_dets).to_dict()
            assert evaluate(index, dets, max_dets=max_dets).to_dict() == want


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

    @given(scenes(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_image_order_does_not_change_results(self, scene, random):
        """Images are coded by their position in ``index.images``; the order
        they are listed in must not reach the reports."""
        index, dets = scene
        images = list(index.images)
        random.shuffle(images)
        shuffled = replace(index, images=images)
        assert evaluate(shuffled, dets).to_dict() == evaluate(index, dets).to_dict()
        assert error_breakdown(shuffled, dets).to_dict() == error_breakdown(index, dets).to_dict()

    @given(scenes())
    @settings(max_examples=100, deadline=None)
    def test_string_image_ids_do_not_change_results(self, scene):
        """Mapping every image id to a string, in the GTs and the detections
        alike, leaves both reports equal."""
        index, dets = scene
        name = lambda image_id: f"img-{image_id}"
        renamed = replace(index,
                          images=[replace(im, id=name(im.id)) for im in index.images],
                          annotations=[replace(a, image_id=name(a.image_id))
                                       for a in index.annotations])
        renamed_dets = [d._replace(image_id=name(d.image_id)) for d in dets]
        assert evaluate(renamed, renamed_dets).to_dict() == evaluate(index, dets).to_dict()
        assert (error_breakdown(renamed, renamed_dets).to_dict()
                == error_breakdown(index, dets).to_dict())


@st.composite
def grouping_scenes(draw):
    """Up to 40 detections on 1-3 listed images and 3 listed categories, with
    scores from two levels, so that ties within and across images and
    categories are the rule; GTs also on the unlisted image 9 and the
    unlisted category 7."""
    num_images = draw(st.integers(1, 3))
    listed = st.tuples(st.integers(1, num_images), st.integers(1, 3), _scene_box)
    unlisted = st.tuples(st.sampled_from((1, 9)), st.sampled_from((1, 7)), _scene_box)
    gts = draw(st.lists(st.one_of(listed, unlisted), max_size=10))
    dets = draw(st.lists(st.tuples(listed, st.sampled_from((0.25, 0.5))), max_size=40))
    return (make_index(gts, num_images=num_images, categories=("crack", "pothole", "patch")),
            [det(image_id, cat, score, box) for (image_id, cat, box), score in dets])


class TestGroupingOracle:
    @given(grouping_scenes(), st.sampled_from((1, 2, 100)))
    @settings(max_examples=300, deadline=None)
    def test_one_sort_grouping_equals_two_sorts(self, scene, max_dets):
        """The one-sort grouping gives the two-sort oracle's order, slab slots,
        width, IoU blocks, GT arrays and cross-class flags."""
        index, dets = scene
        groups, cross = _collect_groups(index, dets, max_dets)
        want = collect_groups_two_sorts(index, dets, max_dets)
        assert groups.det_order.tolist() == want["det_order"].tolist()
        assert [s.tolist() for s in groups.slots] == [s.tolist() for s in want["slots"]]
        assert groups.width == want["width"]
        assert [b.shape for b in groups.ious] == [b.shape for b in want["ious"]]
        assert all(np.array_equal(a, b) for a, b in zip(groups.ious, want["ious"]))
        assert groups.gt_areas.tolist() == want["gt_areas"].tolist()
        assert groups.gt_onehot.tolist() == want["gt_onehot"].tolist()
        assert cross.tolist() == want["cross"].tolist()


def nine_class_scene(seed=23):
    """Four 256-px images, nine categories: 1-6 with GTs of every size, 7 only
    large, 8 only small, 9 none (detections only), so several (category,
    stratum) cells are empty. Each GT has a jittered detection and a
    lower-scored duplicate; each image has background detections of every
    category."""
    r = np.random.default_rng(seed)
    sides = {"small": (8.0, 30.0), "medium": (34.0, 90.0), "large": (100.0, 160.0)}
    allowed = {7: ("large",), 8: ("small",), 9: ()}
    gts, dets = [], []
    for image_id in range(1, 5):
        for cat in range(1, 10):
            for size in allowed.get(cat, tuple(sides)):
                w, h = r.uniform(*sides[size], 2)
                x, y = r.uniform(0.0, 256.0 - max(w, h), 2)
                box = (x, y, x + w, y + h)
                gts.append((image_id, cat, box))
                for score in r.uniform(0.2, 1.0, 2):
                    j = r.normal(0.0, 0.08, 4) * (w, h, w, h)
                    dbox = (box[0] + j[0], box[1] + j[1], box[2] + max(j[2], 1.0 - w),
                            box[3] + max(j[3], 1.0 - h))
                    dets.append(det(image_id, cat, float(score), dbox))
            for _ in range(3):
                x, y = r.uniform(0.0, 200.0, 2)
                w, h = r.uniform(5.0, 56.0, 2)
                dets.append(det(image_id, cat, float(r.uniform(0.05, 0.7)), (x, y, x + w, y + h)))
    categories = tuple(f"class{k}" for k in range(1, 10))
    return make_index(gts, num_images=4, categories=categories), dets


def error_breakdown_per_category(index, detections):
    """``error_breakdown`` with its per-class tail as a loop: one PR-curve
    block per category with GTs, each stage AP a 1-D ``mean`` of its curve,
    and the mean curves ``np.mean`` over a list of those blocks."""
    groups, cross = _collect_groups(index, detections)
    tp, _, _ = match_detections(groups.ious, (0.10, 0.50, 0.75))
    loc, none = tp[0], np.zeros_like(tp[0])
    tps = groups.slab(np.stack([tp[2], tp[1], loc, loc, loc]), False)
    igns = groups.slab(np.stack([none, none, none, ~loc & cross[groups.det_order], ~loc]), True)
    num_gt = groups.gt_onehot.sum(axis=0)
    by_cat = {}
    for k, cat in enumerate(index.categories):
        if num_gt[k]:
            rows = slice(5 * k, 5 * k + 5)
            stages = _pr_curves(tps[rows], igns[rows], int(num_gt[k]))
            by_cat[cat.id] = np.concatenate([stages[[0, 1, 2, 3, 3, 4]],
                                             np.ones((1, len(RECALL_GRID)))])
    mean_curves = (np.mean(list(by_cat.values()), axis=0) if by_cat
                   else np.zeros((len(ERROR_STAGES), len(RECALL_GRID))))
    aps, per_class_aps, curves = {}, {}, {}
    for s, stage in enumerate(ERROR_STAGES):
        per_class_aps[stage] = {c.id: float(by_cat[c.id][s].mean()) if c.id in by_cat
                                else SENTINEL for c in index.categories}
        aps[stage] = _aggregate(per_class_aps[stage].values())
        curves[stage] = mean_curves[s]
    return ErrorBreakdown(aps=aps, per_class_aps=per_class_aps, curves=curves)


class TestNineCategories:
    """Nine categories, past the eight at which numpy's pairwise sum changes
    its grouping, with empty strata: the per-class tables taken as arrays
    equal the ones built a row and a category at a time, to the byte."""

    def test_scene_has_empty_strata(self):
        report = evaluate(*nine_class_scene())
        assert report.per_class[7]["ap_small"] == report.per_class[8]["ap_large"] == SENTINEL
        assert all(v == SENTINEL for k, v in report.per_class[9].items() if k != "name")
        assert all(report.per_class[k]["ap_medium"] > 0.0 for k in range(1, 7))

    @pytest.mark.parametrize("seed", (23, 24))
    def test_reports_equal_row_by_row_builds(self, seed):
        index, dets = nine_class_scene(seed)
        assert (json.dumps(evaluate(index, dets).to_dict())
                == json.dumps(evaluate_per_bucket(index, dets).to_dict()))
        assert (json.dumps(error_breakdown(index, dets).to_dict())
                == json.dumps(error_breakdown_per_category(index, dets).to_dict()))
