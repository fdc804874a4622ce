"""Axis-aligned corner boxes (x1, y1, x2, y2): IoU and the COCO size buckets.

A box is a 4-sequence, a set of boxes an (N, 4) array. The centre-form
annotation convention is handled only at the serialization boundary, in
``dataio``; GIoU lives in ``losses.giou_loss``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

SMALL_MAX_AREA = 32.0 * 32.0
MEDIUM_MAX_AREA = 96.0 * 96.0

# [low, high) box areas per COCO size bucket (Lin et al. 2014); a boundary
# area goes to the larger bucket. Read by ``size_bucket`` and the evaluator.
SIZE_RANGES = {
    "small": (0.0, SMALL_MAX_AREA),
    "medium": (SMALL_MAX_AREA, MEDIUM_MAX_AREA),
    "large": (MEDIUM_MAX_AREA, math.inf),
}


def iou(a, b) -> float:
    """Intersection over union; 0 by convention when the union has no area."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (N,4) vs (M,4) corner boxes -> (N,M).

    Three (N, M) buffers, reused in place: the clipped overlap widths become
    the intersections, the heights the result, and the other the union.
    When ``a is b`` (a set against itself) the areas are computed once.
    """
    same = a is b
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = a if same else np.asarray(b, dtype=np.float64).reshape(-1, 4)
    inter = np.minimum(a[:, None, 2], b[None, :, 2])
    tmp = np.maximum(a[:, None, 0], b[None, :, 0])
    inter -= tmp
    np.clip(inter, 0.0, None, out=inter)
    ih = np.minimum(a[:, None, 3], b[None, :, 3])
    np.maximum(a[:, None, 1], b[None, :, 1], out=tmp)
    ih -= tmp
    np.clip(ih, 0.0, None, out=ih)
    inter *= ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = area_a if same else (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=tmp)
    union -= inter
    out = ih
    out.fill(0.0)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def size_bucket(area: float) -> str:
    """Name of the ``SIZE_RANGES`` bucket holding a box area (the last for an
    infinite one)."""
    if not area >= 0:
        raise ShapeError(f"box area {area} is negative or NaN")
    for name, (_, high) in SIZE_RANGES.items():
        if area < high:
            break
    return name
