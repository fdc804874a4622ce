import math
import pickle
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crackdet import numerics as nm
from crackdet.errors import NumericsError, ShapeError
from crackdet.geometry import iou
from crackdet.model import (Detection, ModelSection, anchor_points, backbone_forward,
                            build_detector, decode, decode_boxes, head_forward,
                            init_backbone, init_head, nms)
from crackdet.neck import NeckSettings, PyramidFeatures
from crackdet.numerics import Tensor, finite_diff_check
from oracles import anchor_points_loop, decode_loop, encode_box, nms_loop

# A two-class 64-px detector with narrow stages, neck and head.
TINY_MODEL = ModelSection(num_classes=2, backbone_widths=(2, 3, 4, 5, 6), head_channels=4)
TINY_NECK = NeckSettings(out_channels=4, csp_depth=1, attn_heads=1, attn_key_dim=4)


def batchnorms(module):
    """Every BatchNorm layer under ``module``, in children order."""
    for _, child in module.children():
        if isinstance(child, nm.BatchNorm):
            yield child
        elif isinstance(child, nm.Module):
            yield from batchnorms(child)


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


def perturbed_backbone(rng, dtype):
    """A backbone whose batchnorms fold to a non-trivial affine map."""
    p = init_backbone((4, 5, 6, 7, 8), rng, dtype)
    for bn in batchnorms(p):
        c = len(bn.gamma.data)
        bn.running_mean[...] = rng.normal(size=c)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=c)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=c)
        bn.beta.data[...] = rng.normal(size=c)
    return p


@pytest.fixture
def thread_starts(monkeypatch):
    """Records every ``threading.Thread`` started while the test runs."""
    started, real = [], threading.Thread

    class Spy(real):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


class TestBackboneSplit:
    """Eval mode under no_grad() runs the second half of a batch on a second
    thread; the levels must be the bytes of one image at a time."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("batch", [2, 3, 8])
    def test_split_matches_single_images_bit_for_bit(self, rng, thread_starts, dtype, batch):
        p = perturbed_backbone(rng, dtype)
        images = rng.normal(size=(batch, 3, 64, 64)).astype(dtype)
        with nm.no_grad(), nm.eval_mode():
            whole = backbone_forward(Tensor(images), p)
            assert len(thread_starts) == 1
            ones = [backbone_forward(Tensor(images[i:i + 1]), p) for i in range(batch)]
        assert len(thread_starts) == 1  # a one-image batch is not split
        for got, parts in zip(whole.levels(), zip(*(one.levels() for one in ones))):
            want = np.concatenate([part.data for part in parts])
            assert got.data.dtype == want.dtype == dtype
            assert got.data.shape == want.shape and got.data.tobytes() == want.tobytes()

    def test_split_is_stable_under_fast_thread_switching(self, rng):
        """The two halves share only read-only parameters: with the
        interpreter switching threads every 10 µs, every repeat gives the
        same bytes."""
        p = perturbed_backbone(rng, np.float64)
        images = Tensor(rng.normal(size=(8, 3, 64, 64)))
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            with nm.no_grad(), nm.eval_mode():
                runs = [[lvl.data.tobytes() for lvl in backbone_forward(images, p).levels()]
                        for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        assert all(run == runs[0] for run in runs)

    def test_predict_matches_per_image_predict(self, rng, thread_starts):
        det = TestDetectorBundle._small_detector(rng)
        images = rng.normal(size=(8, 3, 64, 64))
        dets = det.predict(images, image_ids=range(10, 18))
        assert len(thread_starts) == 1 and dets
        assert dets == [d for i in range(8)
                        for d in det.predict(images[i:i + 1], image_ids=[10 + i])]

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_non_finite_pixel_in_either_half_names_conv_bn(self, rng, bad):
        """Images 0 and 2 run on the calling thread, image 4 on the worker,
        which must take the caller's finite_checks flag."""
        p = perturbed_backbone(rng, np.float64)
        images = rng.normal(size=(5, 3, 64, 64))
        images[bad, 1, 5, 7] = np.nan
        with nm.no_grad(), nm.eval_mode(), nm.finite_checks():
            with pytest.raises(NumericsError, match="conv_bn"):
                backbone_forward(Tensor(images), p)
        assert not nm._mode.check_finite and nm._mode.training

    def test_worker_error_reaches_caller_after_join(self, rng):
        p = perturbed_backbone(rng, np.float64)
        stage, seen = p.stage[3], {}

        class Boom(Exception):
            pass

        def failing(x):
            if x.shape[0] == 1:  # the worker's half of a 3-image batch
                seen["worker"] = threading.current_thread()
                raise Boom
            return stage(x)

        p.stage[3] = failing
        with nm.no_grad(), nm.eval_mode(), pytest.raises(Boom):
            backbone_forward(Tensor(rng.normal(size=(3, 3, 64, 64))), p)
        assert seen["worker"] is not threading.current_thread()
        assert not seen["worker"].is_alive()

    def test_train_and_grad_forwards_start_no_thread(self, rng, monkeypatch):
        """Batch statistics couple the images in train mode, and a recorded
        graph needs one batch-wide node per op, so neither forward splits."""
        def no_thread(*args, **kwargs):
            raise AssertionError("a forward with batch coupling started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        det = TestDetectorBundle._small_detector(rng)
        images = det.input_batch(rng.normal(size=(4, 3, 64, 64)))
        det.forward(images)  # train mode, grad on
        with nm.no_grad():
            det.forward(images)  # train mode: batch statistics
        with nm.eval_mode():
            logits, _ = det.forward(images)  # test_folded_predict_matches_op_chain's path
        assert logits._parents


class TestHead:
    def pyramid(self, rng, channels=6, batch=2):
        return PyramidFeatures(Tensor(rng.normal(size=(batch, channels, 8, 8))),
                               Tensor(rng.normal(size=(batch, channels, 4, 4))),
                               Tensor(rng.normal(size=(batch, channels, 2, 2))))

    def test_shape_contract_and_nonnegative_distances(self, rng):
        p = init_head(6, 4, num_classes=3, rng=rng)
        cls, dist = head_forward(self.pyramid(rng), p)
        assert cls.shape == (2, 8 * 8 + 4 * 4 + 2 * 2, 3)
        assert dist.shape == (2, 8 * 8 + 4 * 4 + 2 * 2, 4)
        assert np.all(dist.data >= 0.0)

    def test_rows_follow_anchor_points(self, rng):
        """Row n of both outputs is the cell of ``anchor_points`` row n: the
        levels from stride 8 up, row-major (x fastest) within a level."""
        p = init_head(6, 4, num_classes=3, rng=rng)
        pyramid = self.pyramid(rng)
        cls, dist = head_forward(pyramid, p)
        _, strides = anchor_points(64)
        start = 0
        for feat in pyramid.levels():
            h, w = feat.shape[2:]
            rows = slice(start, start + h * w)
            level_cls = nm.conv1x1(p.stem_cls(feat), p.w_cls, p.b_cls).data
            level_dist = nm.softplus(nm.conv1x1(p.stem_reg(feat), p.w_reg, p.b_reg)).data
            for got, level in ((cls, level_cls), (dist, level_dist)):
                want = level.transpose(0, 2, 3, 1).reshape(2, h * w, -1)
                assert np.array_equal(got.data[:, rows], want)
            assert np.all(strides[rows] == 64 // h)
            start += h * w
        assert start == len(strides)

    def test_zero_weights_give_bias_logits(self, rng):
        p = init_head(6, 4, num_classes=2, rng=rng)
        p.w_cls.data[...] = 0.0
        cls, _ = head_forward(self.pyramid(rng), p)
        for k in range(2):
            assert np.all(cls.data[:, :, k] == p.b_cls.data[k])

    def test_gradient_check(self, rng):
        p = init_head(4, 4, num_classes=2, rng=rng)
        feats = PyramidFeatures(Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True),
                                Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True),
                                Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True))
        readout = rng.normal(size=(1, 4 * 4 + 2 * 2 + 2 * 2, 2))
        params = list(feats.levels()) + [t for _, t in p.params()]

        def f():
            cls, dist = head_forward(feats, p)
            return nm.add(nm.tsum(nm.mul(cls, nm.as_tensor(readout))), nm.tsum(nm.mul(dist, dist)))

        assert finite_diff_check(f, params, max_coords=40, rng=rng) < 1e-4


class TestAnchors:
    def test_total_count_for_640(self):
        xy, strides = anchor_points(640)
        assert xy.shape == (8400, 2) and strides.shape == (8400,)
        assert len(strides) == 80 * 80 + 40 * 40 + 20 * 20 == 8400

    def test_enumeration_deterministic_and_complete(self):
        xy, strides = anchor_points(64)
        again_xy, again_strides = anchor_points(64)
        assert np.array_equal(xy, again_xy) and np.array_equal(strides, again_strides)
        seen = {(s, x, y) for s, (x, y) in zip(strides.tolist(), xy.tolist())}
        assert len(seen) == len(strides) == 64 + 16 + 4
        assert xy[0].tolist() == [4.0, 4.0] and strides[0] == 8
        assert xy[1].tolist() == [12.0, 4.0] and strides[1] == 8  # row-major: x fastest
        assert strides[64] == 16

    def test_levels_ordered_3_first(self):
        _, strides = anchor_points(64)
        assert np.all(np.diff(strides) >= 0)

    @pytest.mark.parametrize("size", [32, 64, 640])
    def test_matches_loop_oracle(self, size):
        xy, strides = anchor_points(size)
        got = list(zip(xy[:, 0].tolist(), xy[:, 1].tolist(), strides.tolist()))
        assert got == anchor_points_loop(size)


class TestDecode:
    def test_zero_distances_degenerate_box(self):
        boxes = decode_boxes(np.zeros((1, 4)), np.array([[100.0, 100.0]]), np.array([8.0]))
        assert boxes.tolist() == [[100.0, 100.0, 100.0, 100.0]]

    def test_unit_distances_stride_8(self):
        boxes = decode_boxes(np.ones((1, 4)), np.array([[100.0, 100.0]]), np.array([8.0]))
        assert boxes.tolist() == [[92.0, 92.0, 108.0, 108.0]]

    def test_decode_encode_identity(self, rng):
        for _ in range(50):
            cx, cy = rng.uniform(20, 80, size=2)
            stride = float(rng.choice([8, 16, 32]))
            x1 = cx - rng.uniform(0.1, 30)
            y1 = cy - rng.uniform(0.1, 30)
            x2 = cx + rng.uniform(0.1, 30)
            y2 = cy + rng.uniform(0.1, 30)
            dist = encode_box((x1, y1, x2, y2), cx, cy, stride)
            back = decode_boxes(np.array([dist]), np.array([[cx, cy]]), np.array([stride]))[0]
            assert np.abs(back - np.array([x1, y1, x2, y2])).max() < 1e-9

    def test_detections_sorted_and_thresholded(self, rng):
        xy, strides = anchor_points(64)
        n = len(xy)
        probs = np.full((n, 2), 0.01)
        probs[3, 0] = 0.9
        probs[40, 1] = 0.7
        dists = np.ones((n, 4))
        dets = decode(probs, dists, xy, strides, score_thr=0.05, nms_iou=0.65, image_id=7)
        assert [d.score for d in dets] == sorted((d.score for d in dets), reverse=True)
        assert all(d.score > 0.05 for d in dets)
        assert dets[0].category_id == 1 and dets[0].image_id == 7

    def test_grid_mismatch_rejected(self):
        xy, strides = anchor_points(64)
        with pytest.raises(ShapeError):
            decode(np.zeros((5, 2)), np.zeros((5, 4)), xy, strides, 0.05, 0.65)

    @staticmethod
    def _assert_same(got, want):
        """Equal detections in the same order, with the same Python type per field."""
        assert got == want
        for g, w in zip(got, want):
            fields = [(g.image_id, w.image_id), (g.category_id, w.category_id),
                      (g.score, w.score)] + list(zip(g.box, w.box))
            assert [type(a) for a, _ in fields] == [type(b) for _, b in fields]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("score_thr,nms_iou", [(0.05, 0.65), (0.3, 0.3), (0.0, 0.9)])
    def test_matches_loop_oracle(self, dtype, score_thr, nms_iou):
        """Scores from a few levels tie across classes and anchors, so the
        final order leans on every tie-break."""
        xy, strides = anchor_points(64)
        for seed in range(6):
            r = np.random.default_rng(seed)
            levels = np.array([0.01, 0.3, 0.5, 0.5, 0.9]) if seed % 2 else r.uniform(size=5)
            probs = r.choice(levels, size=(len(xy), 3)).astype(dtype)
            dists = r.uniform(0.0, 3.0, size=(len(xy), 4)).astype(dtype)
            self._assert_same(decode(probs, dists, xy, strides, score_thr, nms_iou, image_id=seed),
                              decode_loop(probs, dists, xy, strides, score_thr, nms_iou,
                                          image_id=seed))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fresh_detector_matches_loop_oracle(self, dtype):
        for seed in range(3):
            r = np.random.default_rng(seed)
            det = build_detector(TINY_MODEL, TINY_NECK, r, dtype)
            probs, dists = det.predict_arrays(r.normal(size=(2, 3, 64, 64)))
            for b, image_id in enumerate((5, np.int64(6))):
                for score_thr, nms_iou in [(0.05, 0.65), (0.1, 0.2)]:
                    self._assert_same(
                        decode(probs[b], dists[b], det.points_xy, det.strides,
                               score_thr, nms_iou, image_id=image_id),
                        decode_loop(probs[b], dists[b], det.points_xy, det.strides,
                                    score_thr, nms_iou, image_id=image_id))


class TestSharedIoU:
    """decode builds one IoU matrix per image over the anchors any class puts
    over the threshold; suppression still stays within a class."""

    def test_same_anchor_in_two_classes_both_kept(self):
        xy, strides = anchor_points(64)
        probs = np.full((len(xy), 2), 0.01)
        probs[5] = [0.9, 0.8]
        dets = decode(probs, np.ones((len(xy), 4)), xy, strides, 0.05, 0.65)
        assert [(d.category_id, d.score) for d in dets] == [(1, 0.9), (2, 0.8)]
        assert dets[0].box == dets[1].box

    def test_overlapping_anchors_in_two_classes_both_kept(self):
        xy, strides = anchor_points(64)
        dists = np.ones((len(xy), 4))
        for a, box in ((0, (0.0, 0.0, 20.0, 10.0)), (1, (0.0, 0.0, 20.0, 11.0))):
            dists[a] = encode_box(box, *xy[a], strides[a])
        probs = np.full((len(xy), 2), 0.01)
        probs[0, 0], probs[1, 1] = 0.9, 0.8
        dets = decode(probs, dists, xy, strides, 0.05, 0.65)
        assert [(d.category_id, d.score) for d in dets] == [(1, 0.9), (2, 0.8)]
        assert iou(dets[0].box, dets[1].box) > 0.65
        probs[1] = [0.8, 0.01]  # the same two boxes in one class: the lower one goes
        assert [d.score for d in decode(probs, dists, xy, strides, 0.05, 0.65)] == [0.9]

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("sets", ["disjoint", "identical"])
    @pytest.mark.parametrize("nms_iou", [0.3, 0.65])
    def test_candidate_sets_match_loop_oracle(self, size, sets, nms_iou):
        """Per-class candidate sets that share no anchor, or all the same
        anchors with other scores; tied scores lean on every tie-break."""
        xy, strides = anchor_points(size)
        n, k = len(xy), 3
        candidates = suppressed = 0
        for seed in range(3):
            r = np.random.default_rng(seed)
            picked = r.choice(n, size=min(n, 180), replace=False)
            probs = np.full((n, k), 0.01)
            levels = [0.3, 0.5, 0.5, 0.9]
            if sets == "disjoint":
                for c, part in enumerate(np.array_split(picked, k)):
                    probs[part, c] = r.choice(levels, len(part))
            else:
                probs[picked] = r.choice(levels, (len(picked), k))
            dists = r.uniform(1.0, 4.0, size=(n, 4))
            got = decode(probs, dists, xy, strides, 0.05, nms_iou, image_id=seed)
            TestDecode._assert_same(got, decode_loop(probs, dists, xy, strides, 0.05, nms_iou,
                                                     image_id=seed))
            candidates += int((probs > 0.05).sum())
            suppressed += int((probs > 0.05).sum()) - len(got)
        assert 0 < suppressed < candidates

    def test_iou_covers_candidate_anchors_only(self):
        """At 640 px an IoU matrix over all 8,400 anchors would take 564 MB;
        over 40 candidates decode stays far below 2 MB at its peak."""
        xy, strides = anchor_points(640)
        r = np.random.default_rng(0)
        probs = np.full((len(xy), 3), 0.01)
        probs[r.choice(len(xy), 40, replace=False), r.integers(0, 3, 40)] = 0.9
        dists = r.uniform(0.0, 3.0, size=(len(xy), 4))
        tracemalloc.start()
        try:
            dets = decode(probs, dists, xy, strides, 0.05, 0.65)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < len(dets) <= 40
        assert peak < 2 * 2**20


class TestDetection:
    FIELDS = (1, 2, 0.5, (1.0, 2.0, 3.0, 4.0))

    @pytest.mark.parametrize("score,box", [
        (0.5, (10.0, 10.0, 5.0, 20.0)), (0.5, (0.0, 5.0, 1.0, 4.0)),
        (0.5, (0.0, 0.0, 1.0, math.nan)), (0.5, (-math.inf, 0.0, 1.0, 1.0)),
        (math.nan, (0.0, 0.0, 1.0, 1.0)), (math.inf, (0.0, 0.0, 1.0, 1.0)),
    ])
    def test_every_construction_path_validates(self, score, box):
        bad = (1, 2, score, box)
        good = Detection(*self.FIELDS)
        paths = {
            "positional": lambda: Detection(*bad),
            "keyword": lambda: Detection(image_id=1, category_id=2, score=score, box=box),
            "_make": lambda: Detection._make(bad),
            "_replace": lambda: good._replace(score=score, box=box),
            # a record that skipped validation is checked again when unpickled
            "pickle": lambda: pickle.loads(pickle.dumps(tuple.__new__(Detection, bad))),
        }
        for name, build in paths.items():
            with pytest.raises(ShapeError, match="invalid detection"):
                build()
                pytest.fail(f"{name} accepted {bad}")

    @pytest.mark.parametrize("bad", ["nan_distance", "inf_probability"])
    def test_decode_validates_its_rows(self, bad):
        """``decode`` checks its rows in one batch and builds them unchecked;
        a bad row raises the ShapeError that building it alone raises."""
        xy, strides = anchor_points(64)
        probs, dists = np.full((len(xy), 2), 0.01), np.ones((len(xy), 4))
        probs[3, 0] = probs[40, 1] = 0.9
        if bad == "nan_distance":
            dists[40, 2] = math.nan
            row = (7, 2, 0.9, tuple(decode_boxes(dists, xy, strides)[40].tolist()))
        else:
            probs[3, 0] = math.inf
            row = (7, 1, math.inf, tuple(decode_boxes(dists, xy, strides)[3].tolist()))
        with pytest.raises(ShapeError, match="invalid detection") as alone:
            Detection(*row)
        with pytest.raises(ShapeError, match="invalid detection") as decoded:
            decode(probs, dists, xy, strides, 0.05, 0.65, image_id=7)
        assert str(decoded.value) == str(alone.value)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decode_rows_are_plain_detections(self, dtype):
        """``decode``'s rows carry the field types per-row construction gives:
        int ids, a float score and a tuple of four floats."""
        xy, strides = anchor_points(64)
        r = np.random.default_rng(0)
        probs = r.uniform(size=(len(xy), 3)).astype(dtype)
        dets = decode(probs, r.uniform(0.0, 3.0, size=(len(xy), 4)).astype(dtype), xy, strides,
                      0.05, 0.65, image_id=7)
        assert dets
        for d in dets:
            assert type(d) is Detection and [type(v) for v in d[:3]] == [int, int, float]
            assert type(d.box) is tuple and [type(v) for v in d.box] == [float] * 4
            assert Detection(*d) == d and pickle.loads(pickle.dumps(d)) == d

    def test_valid_record_round_trips(self):
        d = Detection(*self.FIELDS)
        for back in (pickle.loads(pickle.dumps(d)), Detection._make(self.FIELDS),
                     d._replace(), Detection(image_id=1, category_id=2, score=0.5,
                                             box=(1.0, 2.0, 3.0, 4.0))):
            assert back == d and type(back) is Detection

    def test_immutable(self):
        d = Detection(*self.FIELDS)
        with pytest.raises(AttributeError):
            d.score = 0.9
        with pytest.raises(AttributeError):
            d.note = "no per-instance attributes"
        assert d == Detection(*self.FIELDS)

    def test_equal_records_hash_equally(self):
        a, b = Detection(*self.FIELDS), Detection(*self.FIELDS)
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a == self.FIELDS and tuple(a) == self.FIELDS  # a tuple of its fields
        assert a != b._replace(score=0.25)

    def test_repr_names_the_fields(self):
        assert repr(Detection(*self.FIELDS)) == \
            "Detection(image_id=1, category_id=2, score=0.5, box=(1.0, 2.0, 3.0, 4.0))"


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
        # a chain with IoU 1/3 between neighbours only: A suppresses B, so B's
        # overlap with C does not count; C is kept and suppresses D
        (np.array([[0.0, 0.0, 4.0, 4.0], [2.0, 0.0, 6.0, 4.0], [4.0, 0.0, 8.0, 4.0],
                   [6.0, 0.0, 10.0, 4.0]]), np.array([0.9, 0.8, 0.7, 0.6]), 0.3, [0, 2]),
    ])
    def test_edge_cases_match_oracle(self, boxes, scores, iou_thr, expected):
        assert nms(boxes, scores, iou_thr) == nms_loop(boxes, scores, iou_thr) == expected

    def test_keeps_highest_scoring_of_duplicates(self):
        boxes = np.array([[0, 0, 10, 10], [0.5, 0, 10, 10], [30, 30, 40, 40]], dtype=float)
        scores = np.array([0.6, 0.9, 0.5])
        keep = nms(boxes, scores, 0.5)
        assert keep == [1, 2]


GRID32 = anchor_points(32)  # 16 + 4 + 1 anchors: (centres, strides)
N32 = len(GRID32[1])
SCORE_THR, NMS_IOU = 0.05, 0.65
score_levels = st.sampled_from([0.0, 0.03, SCORE_THR, 0.2, 0.5, 0.5, 0.9])
grid_probs = hnp.arrays(np.float64, (N32, 2), elements=score_levels)
grid_dists = hnp.arrays(np.float64, (N32, 4), elements=st.sampled_from([0.0, 0.5, 1.0, 3.0]))


class TestDecodeProperties:
    """Post-processing invariants on the 32-px grid, with score ties, exact
    threshold hits and zero distances drawn often."""

    @given(hnp.arrays(np.float64, (N32, 2),
                      elements=st.sampled_from([0.0, 0.01, SCORE_THR])), grid_dists)
    @settings(max_examples=60, deadline=None)
    def test_empty_image_gives_nothing(self, probs, dists):
        assert decode(probs, dists, *GRID32, SCORE_THR, NMS_IOU) == []

    @given(grid_probs)
    @settings(max_examples=100, deadline=None)
    def test_zero_distances_keep_every_candidate(self, probs):
        dets = decode(probs, np.zeros((N32, 4)), *GRID32, SCORE_THR, NMS_IOU)
        assert len(dets) == int((probs > SCORE_THR).sum())

    @given(grid_probs, grid_dists)
    @settings(max_examples=150, deadline=None)
    def test_sorted_thresholded_and_suppressed(self, probs, dists):
        dets = decode(probs, dists, *GRID32, SCORE_THR, NMS_IOU, image_id=3)
        assert [(-d.score, d.category_id) for d in dets] == \
            sorted((-d.score, d.category_id) for d in dets)
        assert all(d.score > SCORE_THR and d.image_id == 3 for d in dets)
        for i, a in enumerate(dets):
            for b in dets[i + 1:]:
                if a.category_id == b.category_id:
                    assert iou(a.box, b.box) <= NMS_IOU

    @given(hnp.arrays(bool, (N32,)), st.sampled_from([0.2, 0.5, 0.9]))
    @settings(max_examples=100, deadline=None)
    def test_tied_scores_lowest_anchor_wins(self, above, level):
        """Every anchor predicts a near-copy of one box (IoU > nms_iou), told
        apart by a small per-anchor stretch; with one shared score the
        lowest-index candidate is the one detection left."""
        assume(above.any())
        xy, strides = GRID32
        dists = np.array([encode_box((0.0, 0.0, 32.0 + i / 64, 32.0), cx, cy, s)
                          for i, ((cx, cy), s) in enumerate(zip(xy.tolist(), strides.tolist()))])
        probs = np.where(above, level, 0.01)[:, None]
        dets = decode(probs, dists, xy, strides, SCORE_THR, NMS_IOU)
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
    @pytest.mark.parametrize("shape", [(1, 3, 128, 128), (2, 3, 64, 32), (3, 64, 64)])
    def test_input_of_another_size_named(self, rng, shape):
        det = build_detector(TINY_MODEL, TINY_NECK, rng, np.float64)
        size = "x".join(map(str, shape[2:]))
        with pytest.raises(ShapeError, match=f"images are {size} px, but the model takes 64x64"):
            det.predict_arrays(rng.normal(size=shape))

    def test_predict_roundtrip_state_dict(self, rng):
        det = build_detector(TINY_MODEL, TINY_NECK, rng, np.float64)
        imgs = rng.normal(size=(1, 3, 64, 64))
        before, _ = det.predict_arrays(imgs)
        blob = det.state_dict()
        det2 = build_detector(TINY_MODEL, TINY_NECK, np.random.default_rng(999), np.float64)
        det2.load_state_dict(blob)
        after, _ = det2.predict_arrays(imgs)
        assert np.array_equal(before, after)

    def test_predict_arrays_leaves_train_mode_and_running_stats(self, rng):
        det = build_detector(TINY_MODEL, TINY_NECK, rng, np.float64)
        imgs = rng.normal(size=(2, 3, 64, 64))
        with nm.no_grad():
            det.forward(det.input_batch(imgs))  # train mode: moves the running stats
        before = {name: arr.copy() for name, arr in det.states()}
        det.predict_arrays(imgs)
        assert nm._mode.training and nm._mode.grad_enabled
        assert all(np.array_equal(arr, before[name]) for name, arr in det.states())
        with nm.no_grad():
            det.forward(det.input_batch(imgs))
        assert any(not np.array_equal(arr, before[name]) for name, arr in det.states())

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_detector_from_config_running_stats_dtype_and_identity(self, dtype):
        """Every batchnorm's running statistics have the run's dtype, and
        ``states()`` yields the layers' own arrays, not copies."""
        from crackdet.config import load_config
        from crackdet.train import detector_from_config

        cfg = load_config(overrides=[f"numerics.dtype={dtype}", "neck.placement=both",
                                     "neck.num_attention_blocks=4"])
        det = detector_from_config(cfg, np.random.default_rng(0))
        layers = list(batchnorms(det))
        running_means = [arr for name, arr in det.states() if name.endswith(".running_mean")]
        assert len(layers) == len(running_means) > 0
        assert all(arr.dtype == np.dtype(dtype) for arr in running_means)
        assert all(bn.running_mean is arr for bn, arr in zip(layers, running_means))

    @staticmethod
    def _small_detector(rng, dtype=np.float64):
        return build_detector(TINY_MODEL, TINY_NECK, rng, dtype)

    @pytest.mark.parametrize("num_ids", [2, 4])
    def test_predict_rejects_image_id_count_mismatch(self, rng, num_ids):
        det = self._small_detector(rng)
        images = rng.normal(size=(3, 3, 64, 64))
        with pytest.raises(ShapeError, match=f"3 images but {num_ids} image ids"):
            det.predict(images, image_ids=list(range(7, 7 + num_ids)))
        dets = det.predict(images, image_ids=[7, 8, 9])
        assert {d.image_id for d in dets} == {7, 8, 9}

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("perturb", [False, True])
    def test_folded_predict_matches_op_chain(self, rng, dtype, tol, perturb):
        """predict_arrays folds every conv->BN(->SiLU) into one op; the same
        eval-mode forward with grad on records them unfolded, as graph nodes.
        Folding reorders the arithmetic, so the two agree to ``tol`` (relative
        to max(1, |value|)), not bit for bit."""
        det = self._small_detector(rng, dtype)
        if perturb:
            for bn in batchnorms(det):
                c = len(bn.gamma.data)
                bn.running_mean[...] = rng.normal(size=c)
                bn.running_var[...] = rng.uniform(0.5, 2.0, size=c)
                bn.gamma.data[...] = rng.uniform(0.5, 1.5, size=c) * rng.choice([-1, 1], size=c)
                bn.beta.data[...] = rng.normal(size=c)
        imgs = rng.normal(size=(2, 3, 64, 64))
        probs, dists = det.predict_arrays(imgs)
        with nm.eval_mode():
            logits, chain_dists = det.forward(det.input_batch(imgs))
        assert logits._parents  # the reference recorded the chain
        for got, want in ((probs, nm.sigmoid(logits).data), (dists, chain_dists.data)):
            assert got.dtype == want.dtype == dtype
            assert (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max() <= tol

    def test_predict_runs_no_batchnorm_op(self, rng, monkeypatch):
        """Neither inference nor training calls the standalone batchnorm: the
        train-mode forward records fused conv_bn nodes with parents."""
        det = self._small_detector(rng)
        imgs = rng.normal(size=(2, 3, 64, 64))
        calls = []
        real = nm.batchnorm
        monkeypatch.setattr(nm, "batchnorm", lambda *args: calls.append(1) or real(*args))
        det.predict(imgs)
        stem, _ = det.forward(det.input_batch(imgs))
        assert calls == []
        while stem.op != "conv_bn":  # back through the flattening and the class conv
            stem = stem._parents[0]
        assert stem._parents[2] is det.head.stem_cls.bn.gamma

    def test_train_forward_records_one_conv_bn_node_per_unit(self, rng):
        """Every call of a conv->BN(->SiLU) unit (backbone stages, CSP convs,
        head stems, attention projections) is one conv_bn node with parents
        (x, w, gamma, beta): one per unit, three for the head stems shared by
        the levels. No batchnorm, silu or conv3x3s2 node remains, and conv1x1
        nodes are only the head's biased convs and the talking-heads mix."""
        neck = replace(TINY_NECK, placement="both", num_attention_blocks=4)
        det = build_detector(TINY_MODEL, neck, rng, np.float64)
        nodes, stack = {}, list(det.forward(det.input_batch(rng.normal(size=(2, 3, 64, 64)))))
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        ops = [t.op for t in nodes.values()]
        assert not {"batchnorm", "silu", "conv3x3s2"} & set(ops)
        units = [t for t in nodes.values() if t.op == "conv_bn"]
        stems = (det.head.stem_cls.bn, det.head.stem_reg.bn)
        want = Counter({id(bn.gamma): 3 if bn in stems else 1 for bn in batchnorms(det)})
        assert Counter(id(t._parents[2]) for t in units) == want
        betas = {id(bn.gamma): bn.beta for bn in batchnorms(det)}
        assert all(t._parents[3] is betas[id(t._parents[2])] for t in units)
        unit_weights = {id(t._parents[1]) for t in units}
        mixes = [t for t in nodes.values() if t.op == "conv1x1"]
        assert len(mixes) == 2 * 3 + 2 * 4  # cls/reg per level, pre/post mix per block
        assert not any(id(t._parents[1]) in unit_weights for t in mixes)

    def test_invalid_detection_rejected(self):
        with pytest.raises(ShapeError):
            Detection(image_id=1, category_id=1, score=0.5, box=(10, 10, 5, 20))

    @pytest.mark.parametrize("box,score", [
        ((float("nan"), 0.0, 1.0, 1.0), 0.5), ((0.0, 0.0, 1.0, float("nan")), 0.5),
        ((0.0, 0.0, float("inf"), 1.0), 0.5), ((float("-inf"), 0.0, 1.0, 1.0), 0.5),
        ((0.0, float("inf"), 1.0, float("inf")), 0.5), ((0.0, 0.0, 1.0, 1.0), float("inf")),
        ((0.0, 0.0, 1.0, 1.0), float("nan")), ((0.0, 0.0, 1.0, 1.0), float("-inf")),
    ])
    def test_non_finite_detection_rejected(self, box, score):
        with pytest.raises(ShapeError):
            Detection(image_id=1, category_id=1, score=score, box=box)

    def test_detector_assign_matches_the_spelled_out_steps(self, rng):
        from crackdet.assignment import build_cost_matrix, dynamic_assign

        det = build_detector(TINY_MODEL, TINY_NECK, rng, np.float64)
        probs, dists = det.predict_arrays(rng.normal(size=(1, 3, 64, 64)))
        gt, labels = np.array([[4.0, 6.0, 40.0, 30.0], [20.0, 20.0, 60.0, 60.0]]), np.array([0, 1])
        cm, asg = det.assign(probs[0], dists[0], gt, labels)
        boxes = decode_boxes(dists[0], det.points_xy, det.strides)
        want_cm = build_cost_matrix(probs[0], boxes, det.points_xy, det.strides, gt, labels)
        want = dynamic_assign(want_cm)
        assert np.array_equal(cm.cost, want_cm.cost) and np.array_equal(cm.iou, want_cm.iou)
        assert np.array_equal(asg.gt_index, want.gt_index) and asg.num_pos > 0


def test_train_toy_float32_end_to_end(monkeypatch):
    """Ten float32 training steps on the default architecture: every loss is
    finite and every parameter, gradient and running statistic stays float32,
    also the gradients reaching each conv backward (the GIoU terms are
    float64, and must not upcast the network's backward)."""
    from crackdet.config import load_config
    from crackdet.train import train_toy

    seen = set()
    real = nm._conv_backward
    monkeypatch.setattr(nm, "_conv_backward",
                        lambda g, *args: seen.add(g.dtype) or real(g, *args))
    cfg = load_config(overrides=["numerics.dtype=float32", "training.steps=10",
                                 "synthetic.num_images=8"])
    det, _, _, rows = train_toy(cfg)
    assert seen == {np.dtype(np.float32)}
    assert len(rows) == 10
    assert all(np.isfinite(r[1:4]).all() for r in rows)
    params = list(det.params())
    assert all(t.data.dtype == np.float32 for _, t in params)
    assert all(t.grad is not None and t.grad.dtype == np.float32 for _, t in params)
    assert all(arr.dtype == np.float32 for _, arr in det.states())
