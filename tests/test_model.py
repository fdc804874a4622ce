import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crackdet import numerics as nm
from crackdet.errors import ShapeError
from crackdet.geometry import iou
from crackdet.model import (AnchorPoint, Detection, anchor_points, backbone_forward,
                            build_detector, decode, decode_boxes, encode_box,
                            head_forward, init_backbone, init_head, nms, points_arrays)
from crackdet.neck import PyramidFeatures
from crackdet.numerics import Tensor, finite_diff_check
from oracles import nms_loop


class TestBackbone:
    def test_stride_arithmetic_64(self, rng):
        p = init_backbone((4, 5, 6, 7, 8), rng)
        feats = backbone_forward(Tensor(rng.normal(size=(1, 3, 64, 64))), p)
        assert feats.p3.shape[2:] == (8, 8)
        assert feats.p4.shape[2:] == (4, 4)
        assert feats.p5.shape[2:] == (2, 2)

    def test_stride_arithmetic_320(self, rng):
        p = init_backbone((2, 2, 2, 2, 2), rng)
        with nm.no_grad():
            feats = backbone_forward(Tensor(rng.normal(size=(1, 3, 320, 320))), p)
        assert feats.p3.shape[2:] == (40, 40)
        assert feats.p4.shape[2:] == (20, 20)
        assert feats.p5.shape[2:] == (10, 10)

    def test_indivisible_size_rejected(self, rng):
        p = init_backbone((2, 2, 2, 2, 2), rng)
        with pytest.raises(ShapeError):
            backbone_forward(Tensor(rng.normal(size=(1, 3, 48, 48))), p)

    def test_gradient_check(self, rng):
        p = init_backbone((2, 3, 3, 4, 4), rng)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)), requires_grad=True)
        readout = rng.normal(size=(1, 3, 4, 4))
        params = [x] + [t for _, t in p.params()]
        err = finite_diff_check(
            lambda: nm.tsum(nm.mul(backbone_forward(x, p).p3, nm.as_tensor(readout))),
            params, max_coords=40, rng=rng)
        assert err < 1e-4


class TestHead:
    def pyramid(self, rng, channels=6, batch=2):
        return PyramidFeatures(Tensor(rng.normal(size=(batch, channels, 8, 8))),
                               Tensor(rng.normal(size=(batch, channels, 4, 4))),
                               Tensor(rng.normal(size=(batch, channels, 2, 2))))

    def test_shape_contract_and_nonnegative_distances(self, rng):
        p = init_head(6, 4, num_classes=3, rng=rng)
        preds = head_forward(self.pyramid(rng), p)
        for cls, dist, hw in zip(preds.cls_logits, preds.distances, (8, 4, 2)):
            assert cls.shape == (2, 3, hw, hw)
            assert dist.shape == (2, 4, hw, hw)
            assert np.all(dist.data >= 0.0)

    def test_zero_weights_give_bias_logits(self, rng):
        p = init_head(6, 4, num_classes=2, rng=rng)
        p.w_cls.data[...] = 0.0
        preds = head_forward(self.pyramid(rng), p)
        for cls in preds.cls_logits:
            for k in range(2):
                assert np.all(cls.data[:, k] == p.b_cls.data[k])

    def test_gradient_check(self, rng):
        p = init_head(4, 4, num_classes=2, rng=rng)
        feats = PyramidFeatures(Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True),
                                Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True),
                                Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True))
        readout = rng.normal(size=(1, 2, 4, 4))
        params = list(feats.levels()) + [t for _, t in p.params()]

        def f():
            preds = head_forward(feats, p)
            return nm.add(nm.tsum(nm.mul(preds.cls_logits[0], nm.as_tensor(readout))),
                          nm.tsum(nm.mul(preds.distances[1], preds.distances[1])))

        assert finite_diff_check(f, params, max_coords=40, rng=rng) < 1e-4


class TestAnchors:
    def test_total_count_for_640(self):
        points = anchor_points(640)
        assert len(points) == 80 * 80 + 40 * 40 + 20 * 20 == 8400

    def test_enumeration_deterministic_and_complete(self):
        points = anchor_points(64)
        assert points == anchor_points(64)
        seen = {(p.level, p.cx, p.cy) for p in points}
        assert len(seen) == len(points) == 64 + 16 + 4
        assert points[0] == AnchorPoint(4.0, 4.0, 8, 3)
        assert points[1] == AnchorPoint(12.0, 4.0, 8, 3)  # row-major: x fastest
        assert points[64].stride == 16

    def test_levels_ordered_3_first(self):
        points = anchor_points(64)
        levels = [p.level for p in points]
        assert levels == sorted(levels)


class TestDecode:
    def test_zero_distances_degenerate_box(self):
        boxes = decode_boxes(np.zeros((1, 4)), np.array([[100.0, 100.0]]), np.array([8.0]))
        assert boxes.tolist() == [[100.0, 100.0, 100.0, 100.0]]

    def test_unit_distances_stride_8(self):
        boxes = decode_boxes(np.ones((1, 4)), np.array([[100.0, 100.0]]), np.array([8.0]))
        assert boxes.tolist() == [[92.0, 92.0, 108.0, 108.0]]

    def test_decode_encode_identity(self, rng):
        for _ in range(50):
            point = AnchorPoint(float(rng.uniform(20, 80)), float(rng.uniform(20, 80)),
                                int(rng.choice([8, 16, 32])), 3)
            x1 = point.cx - rng.uniform(0.1, 30)
            y1 = point.cy - rng.uniform(0.1, 30)
            x2 = point.cx + rng.uniform(0.1, 30)
            y2 = point.cy + rng.uniform(0.1, 30)
            dist = encode_box((x1, y1, x2, y2), point)
            back = decode_boxes(np.array([dist]), np.array([[point.cx, point.cy]]),
                                np.array([float(point.stride)]))[0]
            assert np.abs(back - np.array([x1, y1, x2, y2])).max() < 1e-9

    def test_detections_sorted_and_thresholded(self, rng):
        points = anchor_points(64)
        n = len(points)
        probs = np.full((n, 2), 0.01)
        probs[3, 0] = 0.9
        probs[40, 1] = 0.7
        dists = np.ones((n, 4))
        dets = decode(probs, dists, points, score_thr=0.05, nms_iou=0.65, image_id=7)
        assert [d.score for d in dets] == sorted((d.score for d in dets), reverse=True)
        assert all(d.score > 0.05 for d in dets)
        assert dets[0].category_id == 1 and dets[0].image_id == 7

    def test_grid_mismatch_rejected(self):
        points = anchor_points(64)
        with pytest.raises(ShapeError):
            decode(np.zeros((5, 2)), np.zeros((5, 4)), points, 0.05, 0.65)


class TestNMS:
    def test_no_kept_pair_overlaps_above_threshold(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            xy = r.uniform(0, 40, size=(12, 2))
            wh = r.uniform(4, 20, size=(12, 2))
            boxes = np.concatenate([xy, xy + wh], axis=1)
            scores = r.uniform(0.1, 1.0, size=12)
            keep = nms(boxes, scores, 0.5)
            for i, a in enumerate(keep):
                for b in keep[i + 1:]:
                    assert iou(tuple(boxes[a]), tuple(boxes[b])) <= 0.5

    @staticmethod
    def _random_case(seed):
        """Integer-grid boxes (some of zero area, some repeated) with scores
        drawn from a few levels, so IoU and score ties both occur."""
        r = np.random.default_rng(seed)
        n = seed % 30
        xy = r.integers(0, 20, size=(n, 2)).astype(float)
        wh = r.integers(0, 12, size=(n, 2)).astype(float)
        boxes = np.concatenate([xy, xy + wh], axis=1)
        if n > 2:
            boxes[r.integers(0, n)] = boxes[r.integers(0, n)]
        scores = r.choice([0.2, 0.5, 0.7, 0.9], size=n) if seed % 2 else r.uniform(0.1, 1.0, n)
        return boxes, scores

    @pytest.mark.parametrize("iou_thr", [0.0, 0.3, 0.5, 0.65, 1.0])
    def test_matches_scalar_oracle(self, iou_thr):
        for seed in range(240):
            boxes, scores = self._random_case(seed)
            assert nms(boxes, scores, iou_thr) == nms_loop(boxes, scores, iou_thr), seed

    @pytest.mark.parametrize("boxes,scores,iou_thr,expected", [
        (np.zeros((0, 4)), np.zeros(0), 0.5, []),
        (np.array([[1.0, 2.0, 3.0, 4.0]]), np.array([0.3]), 0.5, [0]),
        (np.array([[5.0, 5.0, 5.0, 5.0]] * 3), np.array([0.4, 0.4, 0.4]), 0.0, [0, 1, 2]),
        (np.array([[0.0, 0.0, 4.0, 4.0]] * 3), np.array([0.4, 0.6, 0.6]), 0.5, [1]),
        (np.array([[0.0, 0.0, 4.0, 4.0]] * 3), np.array([0.4, 0.6, 0.6]), 1.0, [1, 2, 0]),
        (np.array([[0.0, 0.0, 4.0, 4.0], [3.0, 3.0, 8.0, 8.0], [4.0, 0.0, 8.0, 4.0]]),
         np.array([0.9, 0.8, 0.7]), 0.0, [0, 2]),
    ])
    def test_edge_cases_match_oracle(self, boxes, scores, iou_thr, expected):
        assert nms(boxes, scores, iou_thr) == nms_loop(boxes, scores, iou_thr) == expected

    def test_keeps_highest_scoring_of_duplicates(self):
        boxes = np.array([[0, 0, 10, 10], [0.5, 0, 10, 10], [30, 30, 40, 40]], dtype=float)
        scores = np.array([0.6, 0.9, 0.5])
        keep = nms(boxes, scores, 0.5)
        assert keep == [1, 2]


GRID32 = anchor_points(32)  # 16 + 4 + 1 anchors
SCORE_THR, NMS_IOU = 0.05, 0.65
score_levels = st.sampled_from([0.0, 0.03, SCORE_THR, 0.2, 0.5, 0.5, 0.9])
grid_probs = hnp.arrays(np.float64, (len(GRID32), 2), elements=score_levels)
grid_dists = hnp.arrays(np.float64, (len(GRID32), 4), elements=st.sampled_from([0.0, 0.5, 1.0, 3.0]))


class TestDecodeProperties:
    """Post-processing invariants on the 32-px grid, with score ties, exact
    threshold hits and zero distances drawn often."""

    @given(hnp.arrays(np.float64, (len(GRID32), 2),
                      elements=st.sampled_from([0.0, 0.01, SCORE_THR])), grid_dists)
    @settings(max_examples=60, deadline=None)
    def test_empty_image_gives_nothing(self, probs, dists):
        assert decode(probs, dists, GRID32, SCORE_THR, NMS_IOU) == []

    @given(grid_probs)
    @settings(max_examples=100, deadline=None)
    def test_zero_distances_keep_every_candidate(self, probs):
        dets = decode(probs, np.zeros((len(GRID32), 4)), GRID32, SCORE_THR, NMS_IOU)
        assert len(dets) == int((probs > SCORE_THR).sum())

    @given(grid_probs, grid_dists)
    @settings(max_examples=150, deadline=None)
    def test_sorted_thresholded_and_suppressed(self, probs, dists):
        dets = decode(probs, dists, GRID32, SCORE_THR, NMS_IOU, image_id=3)
        assert [(-d.score, d.category_id) for d in dets] == \
            sorted((-d.score, d.category_id) for d in dets)
        assert all(d.score > SCORE_THR and d.image_id == 3 for d in dets)
        for i, a in enumerate(dets):
            for b in dets[i + 1:]:
                if a.category_id == b.category_id:
                    assert iou(a.box, b.box) <= NMS_IOU

    @given(hnp.arrays(bool, (len(GRID32),)), st.sampled_from([0.2, 0.5, 0.9]))
    @settings(max_examples=100, deadline=None)
    def test_tied_scores_lowest_anchor_wins(self, above, level):
        """Every anchor predicts a near-copy of one box (IoU > nms_iou), told
        apart by a small per-anchor stretch; with one shared score the
        lowest-index candidate is the one detection left."""
        assume(above.any())
        dists = np.array([encode_box((0.0, 0.0, 32.0 + i / 64, 32.0), p)
                          for i, p in enumerate(GRID32)])
        probs = np.where(above, level, 0.01)[:, None]
        dets = decode(probs, dists, GRID32, SCORE_THR, NMS_IOU)
        xy, strides = points_arrays(GRID32)
        first = int(np.flatnonzero(above)[0])
        assert [d.box for d in dets] == [tuple(decode_boxes(dists, xy, strides)[first].tolist())]

    @given(hnp.arrays(np.int64, (12, 4), elements=st.integers(0, 6)),
           hnp.arrays(np.float64, (12,), elements=st.sampled_from([0.3, 0.6])),
           st.sampled_from([0.0, 0.5, 0.99]))
    @settings(max_examples=150, deadline=None)
    def test_nms_greedy_invariants(self, corners, scores, iou_thr):
        """Kept boxes overlap each other by at most iou_thr, every dropped box
        overlaps a kept one that outranks it, and an exact duplicate (same
        box, same score) never survives its lower-index twin."""
        boxes = np.concatenate([np.minimum(corners[:, :2], corners[:, 2:]),
                                np.maximum(corners[:, :2], corners[:, 2:])], axis=1).astype(float)
        keep = nms(boxes, scores, iou_thr)
        rank = {i: (-scores[i], i) for i in range(len(scores))}
        assert keep == sorted(keep, key=rank.get)
        for i, a in enumerate(keep):
            for b in keep[i + 1:]:
                assert iou(tuple(boxes[a]), tuple(boxes[b])) <= iou_thr
        for j in set(range(len(scores))) - set(keep):
            assert any(rank[k] < rank[j] and iou(tuple(boxes[k]), tuple(boxes[j])) > iou_thr
                       for k in keep)
        for i in range(len(scores)):
            for j in range(i + 1, len(scores)):
                twins = (boxes[i] == boxes[j]).all() and scores[i] == scores[j]
                if twins and iou(tuple(boxes[i]), tuple(boxes[j])) > iou_thr:
                    assert j not in keep


class TestDetectorBundle:
    def test_predict_roundtrip_state_dict(self, rng):
        det = build_detector(2, 64, (2, 3, 4, 5, 6),
                             dict(out_channels=4, csp_depth=1, attn_heads=1, attn_key_dim=4),
                             4, rng)
        imgs = rng.normal(size=(1, 3, 64, 64))
        before, _ = det.predict_arrays(imgs)
        blob = det.state_dict()
        det2 = build_detector(2, 64, (2, 3, 4, 5, 6),
                              dict(out_channels=4, csp_depth=1, attn_heads=1, attn_key_dim=4),
                              4, np.random.default_rng(999))
        det2.load_state_dict(blob)
        after, _ = det2.predict_arrays(imgs)
        assert np.array_equal(before, after)

    def test_invalid_detection_rejected(self):
        with pytest.raises(ShapeError):
            Detection(image_id=1, category_id=1, score=0.5, box=(10, 10, 5, 20))
