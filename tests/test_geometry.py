import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crackdet.dataio import (Annotation, Category, DatasetIndex, ImageInfo, load_coco,
                             save_coco)
from crackdet.errors import ShapeError
from crackdet.evaluator import AREA_RANGES
from crackdet.geometry import SIZE_RANGES, iou, iou_matrix, size_bucket
from crackdet.losses import giou_loss
from crackdet.model import decode_boxes
from crackdet.numerics import Tensor

coords = st.floats(min_value=-500, max_value=500, allow_nan=False, width=32)
sizes = st.floats(min_value=0.0, max_value=300, allow_nan=False, width=32)
# sizes bounded away from zero so translations cannot absorb a box's extent
solid_sizes = st.floats(min_value=0.0009765625, max_value=300, allow_nan=False, width=32)


def boxes(size_strategy=sizes):
    return st.builds(lambda x, y, w, h: (x, y, x + w, y + h),
                     coords, coords, size_strategy, size_strategy)


def giou_by_loss(pred, gt):
    """(GIoU, the predicted box as decoded) for one box pair through
    ``giou_loss``: ``pred`` is encoded at its own centre with stride 1, so
    the loss of the pair is 1 - GIoU."""
    x1, y1, x2, y2 = pred
    point = np.array([[(x1 + x2) / 2.0, (y1 + y2) / 2.0]])
    cx, cy = point[0]
    distances = np.array([[cx - x1, cy - y1, x2 - cx, y2 - cy]])
    stride = np.ones(1)
    loss = giou_loss(Tensor(distances), point, stride, np.array([gt], dtype=np.float64))
    return 1.0 - float(loss.data), tuple(decode_boxes(distances, point, stride)[0])


class TestIoU:
    def test_identical_boxes(self):
        b = (1, 2, 5, 6)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_known_overlap(self):
        assert abs(iou((0, 0, 2, 2), (1, 0, 3, 2)) - 2.0 / 6.0) < 1e-12

    def test_degenerate_box_is_zero(self):
        z = (1, 1, 1, 1)
        assert iou(z, z) == 0.0
        assert iou(z, (0, 0, 2, 2)) == 0.0

    @given(boxes(), boxes())
    @settings(max_examples=150, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(boxes(), boxes(), st.floats(min_value=0.125, max_value=7, width=32))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, a, b, s):
        scaled = lambda bx: tuple(v * s for v in bx)
        assert abs(iou(a, b) - iou(scaled(a), scaled(b))) < 1e-6


class TestGIoU:
    """GIoU (Rezatofighi et al. 2019) as ``giou_loss`` computes it."""

    def test_identical_boxes(self):
        b = (0, 0, 3, 3)
        assert giou_by_loss(b, b)[0] == 1.0

    def test_touching_boxes(self):
        # enclosing box equals the union, so the penalty vanishes
        assert giou_by_loss((0, 0, 1, 1), (0, 1, 1, 2))[0] == 0.0

    def test_separated_boxes(self):
        v, _ = giou_by_loss((0, 0, 1, 1), (2, 0, 3, 1))
        assert abs(v - (-1.0 / 3.0)) < 1e-12

    @given(boxes(solid_sizes), boxes(solid_sizes))
    @settings(max_examples=150, deadline=None)
    def test_never_exceeds_iou(self, a, b):
        v, decoded = giou_by_loss(a, b)
        assert v <= iou(decoded, b) + 1e-12

    @given(boxes(solid_sizes), boxes(solid_sizes), coords, coords)
    @settings(max_examples=100, deadline=None)
    def test_translation_invariance(self, a, b, dx, dy):
        shift = lambda bx: (bx[0] + dx, bx[1] + dy, bx[2] + dx, bx[3] + dy)
        assert abs(giou_by_loss(a, b)[0] - giou_by_loss(shift(a), shift(b))[0]) < 1e-6


class TestConversions:
    def test_round_trip(self, tmp_path):
        """Corners to the centre form and back, through save_coco and
        load_coco with ``center_boxes``."""
        b = (1.5, 2.25, 8.0, 11.0)
        index = DatasetIndex(
            images=[ImageInfo(id=1, file_name="a.jpg", width=20, height=20)],
            annotations=[Annotation(id=1, image_id=1, category_id=1, box=b)],
            categories=[Category(id=1, name="crack")])
        path = tmp_path / "center.json"
        save_coco(index, path, center_boxes=True)
        assert np.allclose(load_coco(path, center_boxes=True).annotations[0].box, b)


class TestSizeBuckets:
    @pytest.mark.parametrize("area,expected", [
        (900, "small"),
        (1023.999, "small"),
        (1024, "medium"),
        (5000, "medium"),
        (9216, "large"),
        (1e9, "large"),
        (0, "small"),
    ])
    def test_boundaries(self, area, expected):
        assert size_bucket(area) == expected

    def test_negative_area_rejected(self):
        with pytest.raises(ShapeError):
            size_bucket(-1.0)

    def test_nan_area_rejected(self):
        with pytest.raises(ShapeError, match="nan"):
            size_bucket(math.nan)

    @given(st.floats(min_value=0, max_value=1e8, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_buckets_partition(self, area):
        low, high = SIZE_RANGES[size_bucket(area)]
        assert low <= area < high

    def test_one_table_tiles_the_areas(self):
        ranges = list(SIZE_RANGES.values())
        assert ranges[0][0] == 0.0 and ranges[-1][1] == math.inf
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert AREA_RANGES == {"all": (0.0, math.inf), **SIZE_RANGES}


def test_iou_matrix_matches_scalar(rng):
    a = rng.uniform(0, 50, size=(6, 2))
    aw = rng.uniform(1, 20, size=(6, 2))
    b = rng.uniform(0, 50, size=(4, 2))
    bw = rng.uniform(1, 20, size=(4, 2))
    boxes_a = np.concatenate([a, a + aw], axis=1)
    boxes_b = np.concatenate([b, b + bw], axis=1)
    mat = iou_matrix(boxes_a, boxes_b)
    for i in range(6):
        for j in range(4):
            assert abs(mat[i, j] - iou(tuple(boxes_a[i]), tuple(boxes_b[j]))) < 1e-12


def _iou_matrix_reference(a, b):
    """The broadcast formula, one temporary per step."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


@pytest.mark.parametrize("n", [84, 252, 600])
def test_iou_matrix_in_place_is_bit_identical(rng, n):
    """Same bytes as the broadcast formula, degenerate boxes included
    (zero-size, inverted, NaN, -0.0), and for a set against itself."""
    a = rng.uniform(0, 64, size=(n, 4))
    a[: n // 2, 2:] = a[: n // 2, :2] + rng.uniform(0, 20, size=(n // 2, 2))
    a[::5, 2] = a[::5, 0]
    a[1::7, 3] = a[1::7, 1] - 1.0
    a[2] = -0.0
    a[3, 1] = np.nan
    b = a[::-1].copy()
    b[::3] += rng.uniform(-2, 2, size=b[::3].shape)
    for x, y in ((a, b), (b, a), (a, a), (a[:5], b)):
        got = iou_matrix(x, y)
        assert got.tobytes() == _iou_matrix_reference(x, y).tobytes()
    assert iou_matrix(a, a).tobytes() == iou_matrix(a, a.copy()).tobytes()
