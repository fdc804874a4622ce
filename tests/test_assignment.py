import json
import math

import numpy as np
import pytest

from crackdet.assignment import (ALPHA, BETA, DYNAMIC_K_CAP, LAMBDA_CENTER, LAMBDA_CLS,
                                 LAMBDA_LOC, CostMatrix, build_cost_matrix,
                                 center_cost_from_distance, classification_cost,
                                 dynamic_assign, location_cost, total_cost)
from crackdet.config import load_config
from crackdet.errors import ConfigError

from oracles import assign_oracle


def random_instance(seed):
    """Random geometric scene: <=6 GTs, <=32 anchors, costs from fake preds."""
    r = np.random.default_rng(seed)
    num_gt = int(r.integers(1, 7))
    num_anchors = int(r.integers(4, 33))
    points = r.uniform(0, 100, size=(num_anchors, 2))
    strides = r.choice([8.0, 16.0, 32.0], size=num_anchors)
    xy = r.uniform(0, 70, size=(num_gt, 2))
    wh = r.uniform(10, 40, size=(num_gt, 2))
    gt_boxes = np.concatenate([xy, xy + wh], axis=1)
    gt_labels = r.integers(0, 3, size=num_gt)
    probs = r.uniform(0.02, 0.98, size=(num_anchors, 3))
    centers = points + r.normal(scale=4.0, size=points.shape)
    half = r.uniform(3, 25, size=(num_anchors, 2))
    pred_boxes = np.concatenate([centers - half, centers + half], axis=1)
    return build_cost_matrix(probs, pred_boxes, points, strides, gt_boxes, gt_labels)


def as_plain_lists(cm: CostMatrix):
    cost = [[float(v) for v in row] for row in cm.cost]
    iou = [[float(v) for v in row] for row in cm.iou]
    cand = [[bool(v) for v in row] for row in cm.candidates]
    return cost, iou, cand


class TestCostTerms:
    def test_classification_cost_zero_gap(self):
        assert classification_cost(0.5, 0.5) == 0.0

    def test_classification_cost_reference_value(self):
        # y=1, y_hat=0.5: CE = ln 2, modulator 0.25
        assert abs(classification_cost(0.5, 1.0) - 0.173287) < 1e-6

    def test_classification_cost_confident_negative(self):
        assert classification_cost(1e-7, 0.0) < 1e-12

    def test_location_cost_values(self):
        assert location_cost(1.0) == 0.0
        assert abs(location_cost(0.5) - 0.693147) < 1e-6
        assert abs(location_cost(0.0) - 16.118096) < 1e-6

    @pytest.mark.parametrize("field", ["iou_floor", "prob_clamp"])
    def test_cost_floors_are_constants(self, field):
        """Both floors are 1e-7 and no setting: a probability of exactly 0 or 1
        costs what 1e-7 from that end does, and a config that sets either
        floor fails as an unknown key."""
        assert classification_cost(0.0, 1.0) == classification_cost(1e-7, 1.0)
        assert classification_cost(1.0, 0.0) == classification_cost(1.0 - 1e-7, 0.0)
        assert location_cost(0.0) == location_cost(1e-9) == -math.log(1e-7)
        with pytest.raises(ConfigError, match=f"unknown config key 'assignment.{field}'"):
            load_config(overrides=[f"assignment.{field}=1e-7"])

    def test_location_cost_strictly_decreasing(self):
        ious = np.linspace(1e-6, 1.0, 50)
        costs = location_cost(ious)
        assert np.all(np.diff(costs) < 0)

    def test_center_cost_soft_prior(self):
        assert center_cost_from_distance(3.0) == 1.0
        assert abs(center_cost_from_distance(4.0) - 10.0) < 1e-12
        d = np.linspace(0, 8, 30)
        assert np.all(np.diff(center_cost_from_distance(d)) > 0)

    def test_center_cost_normalizes_by_stride(self):
        """The cost matrix's centre term reads the centre distance in strides:
        two anchors alike but for their strides, 10 and 5, differ by the
        prior at distances 1 and 2 (the centres lie 10 px apart)."""
        pred = np.array([[14.0, 12.0, 22.0, 20.0]] * 2)
        cm = build_cost_matrix(np.full((2, 1), 0.5), pred, np.full((2, 2), 10.0),
                               np.array([10.0, 5.0]), [[0.0, 0.0, 20.0, 20.0]], [0])
        want = LAMBDA_CENTER * (center_cost_from_distance(1.0) - center_cost_from_distance(2.0))
        assert cm.cost[0, 0] - cm.cost[0, 1] == pytest.approx(want)

    def test_total_cost_weighted_sum(self):
        assert total_cost(0.0, 0.0, 0.0) == 0.0
        assert abs(total_cost(0.1733, 0.6931, 1.0) - 3.2526) < 1e-4
        one = total_cost(0.3, 0.2, 0.1)
        assert total_cost(0.6, 0.4, 0.2) == pytest.approx(2 * one)

    def test_config_validation(self):
        """The constants meet what the cost needs of them: positive finite
        weights, alpha > 1 so the prior grows with distance, a finite beta and
        a dynamic-k cap of at least one match."""
        for weight in (LAMBDA_CLS, LAMBDA_LOC, LAMBDA_CENTER):
            assert 0.0 < weight < math.inf
        assert 1.0 < ALPHA < math.inf and math.isfinite(BETA)
        assert isinstance(DYNAMIC_K_CAP, int) and DYNAMIC_K_CAP >= 1

    @pytest.mark.parametrize("field,value", [
        ("lambda_cls", 0.0), ("lambda_loc", math.inf), ("lambda_center", math.nan),
        ("alpha", math.nan), ("alpha", math.inf), ("beta", math.nan), ("beta", -math.inf),
        ("iou_floor", 0.0), ("iou_floor", 1.5), ("iou_floor", math.nan),
        ("prob_clamp", 0.0), ("prob_clamp", 0.5), ("prob_clamp", 0.7), ("prob_clamp", math.nan),
    ])
    def test_out_of_range_or_non_finite_rejected(self, field, value):
        """The weights and the two cost floors are constants, so a config
        that sets one, to any value, fails as an unknown key."""
        with pytest.raises(ConfigError, match=f"unknown config key 'assignment.{field}'"):
            load_config(overrides=[f"assignment.{field}={json.dumps(value)}"])

    def test_center_cost_clamp_keeps_near_values_bitwise(self):
        d = np.linspace(0.0, 150.0, 301)
        assert np.array_equal(center_cost_from_distance(d), ALPHA ** (d - BETA))
        far = center_cost_from_distance(np.array([400.0, 1e4, 1e300]))
        assert np.all(np.isfinite(far)) and np.all(far == far[0])


class TestDynamicAssign:
    def test_single_forced_match(self):
        cm = CostMatrix(cost=np.array([[2.5]]), iou=np.array([[0.4]]),
                        candidates=np.array([[True]]))
        out = dynamic_assign(cm)
        assert out.gt_index.tolist() == [0]
        assert out.k_per_gt.tolist() == [1]
        assert out.soft_label[0] == 0.4

    def test_contested_anchor_goes_to_cheaper_gt(self):
        # both GTs want anchor 0; GT1 is cheaper there, GT0 falls back to 1
        cost = np.array([[1.0, 3.0, np.inf],
                         [0.5, np.inf, 4.0]])
        iou = np.array([[0.4, 0.3, 0.0],
                        [0.45, 0.0, 0.2]])
        cand = np.isfinite(cost)
        out = dynamic_assign(CostMatrix(cost, iou, cand))
        assert out.gt_index[0] == 1
        assert out.gt_index[1] == 0
        assert out.unassigned_gts == []
        oracle_owner, oracle_k, oracle_un = assign_oracle(*as_plain_lists(
            CostMatrix(cost, iou, cand)), cap=10)
        assert {a: g for a, g in enumerate(out.gt_index) if g >= 0} == oracle_owner

    def test_gt_without_candidates_reported(self):
        cost = np.array([[np.inf, np.inf], [1.0, 2.0]])
        iou = np.array([[0.0, 0.0], [0.6, 0.1]])
        cand = np.isfinite(cost)
        out = dynamic_assign(CostMatrix(cost, iou, cand))
        assert out.unassigned_gts == [0]
        assert (out.gt_index >= 0).sum() >= 1

    def test_soft_labels_equal_matched_iou(self):
        cm = random_instance(5)
        out = dynamic_assign(cm)
        for a in np.where(out.gt_index >= 0)[0]:
            assert out.soft_label[a] == cm.iou[out.gt_index[a], a]

    def test_dynamic_k_is_rounded_iou_sum(self):
        iou = np.array([[0.9, 0.8, 0.75, 0.1]])
        cost = np.ones((1, 4))
        cand = np.ones((1, 4), dtype=bool)
        out = dynamic_assign(CostMatrix(cost, iou, cand))
        # top-4 iou sum = 2.55 -> round-half-up -> 3
        assert out.k_per_gt.tolist() == [3]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive_oracle(self, seed):
        cm = random_instance(seed)
        out = dynamic_assign(cm)
        owner, ks, unassigned = assign_oracle(*as_plain_lists(cm), cap=DYNAMIC_K_CAP)
        assert {a: g for a, g in enumerate(out.gt_index) if g >= 0} == owner
        assert out.unassigned_gts == unassigned
        for g, k in ks.items():
            assert out.k_per_gt[g] == k

    @pytest.mark.parametrize("seed", range(15))
    def test_positive_scaling_invariance(self, seed):
        cm = random_instance(seed)
        base = dynamic_assign(cm)
        for factor in (0.03125, 5.0, 512.0):
            scaled = dynamic_assign(cm.scaled(factor))
            assert np.array_equal(base.gt_index, scaled.gt_index)
            assert np.array_equal(base.soft_label, scaled.soft_label)

    @pytest.mark.parametrize("seed", range(15))
    def test_no_anchor_serves_two_gts_and_candidates_get_served(self, seed):
        cm = random_instance(seed)
        out = dynamic_assign(cm)
        matched = out.gt_index[out.gt_index >= 0]
        for g in range(cm.cost.shape[0]):
            anchors = np.flatnonzero(out.gt_index == g)
            assert len(set(anchors.tolist())) == len(anchors)
            if cm.candidates[g].any():
                assert len(anchors) >= 1 or g in out.unassigned_gts

    def test_targets_matrix_places_soft_labels(self):
        cm = random_instance(3)
        out = dynamic_assign(cm)
        labels = np.zeros(cm.cost.shape[0], dtype=np.intp)
        targets = out.targets(labels, 3)
        pos = np.where(out.gt_index >= 0)[0]
        assert np.allclose(targets[pos, 0], out.soft_label[pos])
        assert np.all(targets[:, 1:] == 0.0)


class TestBuildCostMatrix:
    def test_candidates_are_points_inside_gt(self, rng):
        points = np.array([[5.0, 5.0], [50.0, 50.0], [10.0, 10.0]])
        strides = np.array([8.0, 8.0, 8.0])
        gt = np.array([[0.0, 0.0, 12.0, 12.0]])
        probs = np.full((3, 2), 0.5)
        boxes = np.concatenate([points - 4, points + 4], axis=1)
        cm = build_cost_matrix(probs, boxes, points, strides, gt, np.array([0]))
        assert cm.candidates.tolist() == [[True, False, True]]
        assert np.isinf(cm.cost[0, 1])
        assert np.isfinite(cm.cost[0, 0]) and np.isfinite(cm.cost[0, 2])

    def test_cost_uses_predicted_probability_of_gt_class(self, rng):
        points = np.array([[5.0, 5.0]])
        strides = np.array([8.0])
        gt = np.array([[0.0, 0.0, 10.0, 10.0]])
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
        probs = np.array([[0.9, 0.1]])
        cm_good = build_cost_matrix(probs, boxes, points, strides, gt, np.array([0]))
        cm_bad = build_cost_matrix(probs, boxes, points, strides, gt, np.array([1]))
        assert cm_good.cost[0, 0] < cm_bad.cost[0, 0]

    def test_thin_box_between_stride_32_rows_has_no_stride_32_candidate(self):
        """At 256 px a 9-px-thin box (y 20-29) lies between the stride-32
        centre rows at y 16 and 48: the inside-box rule gives it candidates
        at strides 8 (rows 20 and 28) and 16 (row 24), none at stride 32."""
        from crackdet.model import anchor_points

        points_xy, strides = anchor_points(256)
        boxes = np.concatenate([points_xy - strides[:, None], points_xy + strides[:, None]], 1)
        gt = np.array([[20.0, 20.0, 200.0, 29.0]])
        cm = build_cost_matrix(np.full((len(points_xy), 3), 0.5), boxes, points_xy, strides,
                               gt, np.array([0]))
        per_stride = {s: int(cm.candidates[0, strides == s].sum()) for s in (8, 16, 32)}
        assert per_stride == {8: 46, 16: 12, 32: 0}

    def test_candidate_costs_finite_for_huge_predicted_distances(self):
        from crackdet.model import anchor_points, decode_boxes

        points_xy, strides = anchor_points(64)
        distances = np.zeros((len(points_xy), 4))
        distances[:, 2:] = 1e4  # right and bottom edges pushed far away
        boxes = decode_boxes(distances, points_xy, strides)
        probs = np.full((len(points_xy), 3), 0.5)
        gt = np.array([[8.0, 8.0, 40.0, 40.0]])
        cm = build_cost_matrix(probs, boxes, points_xy, strides, gt, np.array([0]))
        assert cm.candidates.sum() == 26
        assert np.all(np.isfinite(cm.cost[cm.candidates]))
        assert dynamic_assign(cm).num_pos >= 1
