"""Dynamic soft-label assignment of anchors to ground truths.

Each (ground truth, anchor) pair gets a cost combining a quality-style
classification term, a log-IoU location term, and a center-proximity term.
Candidates are the anchors whose point lies inside the ground-truth box:
everything else carries infinite cost. Per ground truth, a dynamic match
count k is read off the sum of its top candidate IoUs, the k cheapest
candidates are selected, and anchors claimed by several ground truths go
to the cheapest claimant. Matched anchors carry the IoU of their pair as a
soft classification label.

The weights are fixed: the cost weights lambda = (1, 3, 1) and the soft
center prior alpha = 10, beta = 3 are RTMDet's (Lyu et al., arXiv:2212.07784);
the dynamic-k cap of 10 is YOLOX's SimOTA (Ge et al., arXiv:2107.08430).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import iou_matrix

_FLOOR = 1e-7
LAMBDA_CLS, LAMBDA_LOC, LAMBDA_CENTER = 1.0, 3.0, 1.0
ALPHA, BETA = 10.0, 3.0
DYNAMIC_K_CAP = 10
# Ceiling of the exponent d - beta, so that far-off candidates cost
# alpha ** cap = 1e150 instead of overflowing to inf.
_CENTER_EXPONENT_CAP = math.log(1e150) / math.log(ALPHA)


def classification_cost(y_hat, y):
    """Cross entropy against the soft label, damped by the squared gap; y_hat
    is clipped to [_FLOOR, 1 - _FLOOR] so the logs stay finite."""
    y_hat = np.clip(np.asarray(y_hat, dtype=np.float64), _FLOOR, 1.0 - _FLOOR)
    y = np.asarray(y, dtype=np.float64)
    ce = -(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat))
    return ce * (y - y_hat) ** 2


def location_cost(iou):
    """-log(IoU), clamped so a zero overlap costs -log(_FLOOR), a finite cost."""
    return -np.log(np.maximum(np.asarray(iou, dtype=np.float64), _FLOOR))


def center_cost_from_distance(d):
    """Soft center prior ``alpha ** (d - beta)`` of a stride-normalized center distance d."""
    d = np.asarray(d, dtype=np.float64)
    return ALPHA ** np.minimum(d - BETA, _CENTER_EXPONENT_CAP)


def total_cost(delta, theta, rho):
    return LAMBDA_CLS * np.asarray(delta) + LAMBDA_LOC * np.asarray(theta) \
        + LAMBDA_CENTER * np.asarray(rho)


@dataclass
class CostMatrix:
    """(num_gt, num_anchors) costs with the companion IoU grid and candidate mask.

    Non-candidate entries hold +inf cost; all candidate entries are finite.
    """

    cost: np.ndarray
    iou: np.ndarray
    candidates: np.ndarray

    def __post_init__(self):
        if not (self.cost.shape == self.iou.shape == self.candidates.shape):
            raise ConfigError("cost, iou and candidate grids must share one shape")

    def scaled(self, factor: float) -> "CostMatrix":
        return CostMatrix(self.cost * factor, self.iou, self.candidates)


def build_cost_matrix(pred_probs: np.ndarray, pred_boxes: np.ndarray,
                      points_xy: np.ndarray, strides: np.ndarray,
                      gt_boxes: np.ndarray, gt_labels: np.ndarray) -> CostMatrix:
    """Assemble the per-(gt, anchor) cost grid from one image's predictions.

    pred_probs (N,K) post-sigmoid, pred_boxes (N,4) corner form, gt_labels (G,)
    zero-based class indices.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    ious = iou_matrix(gt_boxes, pred_boxes)
    inside_x = (points_xy[None, :, 0] >= gt_boxes[:, None, 0]) & (points_xy[None, :, 0] <= gt_boxes[:, None, 2])
    inside_y = (points_xy[None, :, 1] >= gt_boxes[:, None, 1]) & (points_xy[None, :, 1] <= gt_boxes[:, None, 3])
    candidates = inside_x & inside_y

    y_hat = pred_probs[:, np.asarray(gt_labels, dtype=np.intp)].T
    delta = classification_cost(y_hat, ious)
    theta = location_cost(ious)
    centers = np.stack([(pred_boxes[:, 0] + pred_boxes[:, 2]) / 2.0,
                        (pred_boxes[:, 1] + pred_boxes[:, 3]) / 2.0], axis=1)
    gt_centers = np.stack([(gt_boxes[:, 0] + gt_boxes[:, 2]) / 2.0,
                           (gt_boxes[:, 1] + gt_boxes[:, 3]) / 2.0], axis=1)
    d = np.hypot(centers[None, :, 0] - gt_centers[:, None, 0],
                 centers[None, :, 1] - gt_centers[:, None, 1]) / strides[None, :]
    rho = center_cost_from_distance(d)

    cost = total_cost(delta, theta, rho)
    cost = np.where(candidates, cost, np.inf)
    return CostMatrix(cost=cost, iou=ious, candidates=candidates)


@dataclass
class Assignment:
    """Per-anchor verdict plus per-GT bookkeeping."""

    gt_index: np.ndarray
    soft_label: np.ndarray
    k_per_gt: np.ndarray
    unassigned_gts: list[int] = field(default_factory=list)

    @property
    def num_pos(self) -> int:
        return int((self.gt_index >= 0).sum())

    def targets(self, gt_labels: np.ndarray, num_classes: int) -> np.ndarray:
        """Soft (N, K) classification targets: matched class gets y = IoU."""
        n = len(self.gt_index)
        out = np.zeros((n, num_classes), dtype=np.float64)
        pos = np.where(self.gt_index >= 0)[0]
        labels = np.asarray(gt_labels, dtype=np.intp)[self.gt_index[pos]]
        out[pos, labels] = self.soft_label[pos]
        return out


def _dynamic_k(ious_g: np.ndarray) -> int:
    """round-half-up of the summed top-min(DYNAMIC_K_CAP, n) IoUs, clamped to [1, n]."""
    n = len(ious_g)
    top = np.sort(ious_g)[::-1][:min(DYNAMIC_K_CAP, n)]
    k = int(np.floor(top.sum() + 0.5))
    return max(1, min(k, n))


def dynamic_assign(costs: CostMatrix) -> Assignment:
    """Match anchors to ground truths by the dynamic-k rule.

    Selection per GT takes its k cheapest candidates (cost ties -> smaller
    anchor index). An anchor selected by several GTs goes to the one with the
    lowest cost for it (ties -> smaller GT index); losers are not refilled.
    A rescue sweep then gives any emptied GT its cheapest still-unassigned
    candidate, or failing that its cheapest candidate whose owner holds at
    least two anchors; a GT whose every candidate is another GT's sole anchor
    stays unassigned and is reported in ``unassigned_gts``.
    """
    num_gt, num_anchors = costs.cost.shape
    owner = np.full(num_anchors, -1, dtype=np.int64)
    k_per_gt = np.zeros(num_gt, dtype=np.int64)
    unassigned = []

    selections: list[np.ndarray] = []
    for g in range(num_gt):
        cand = np.where(costs.candidates[g])[0]
        if len(cand) == 0:
            selections.append(cand)
            unassigned.append(g)
            continue
        k = _dynamic_k(costs.iou[g, cand])
        k_per_gt[g] = k
        order = cand[np.lexsort((cand, costs.cost[g, cand]))]
        selections.append(order[:k])

    for g, sel in enumerate(selections):
        for a in sel:
            if owner[a] < 0 or costs.cost[g, a] < costs.cost[owner[a], a]:
                owner[a] = g

    claimed = {g: [] for g in range(num_gt)}
    for a in np.where(owner >= 0)[0]:
        claimed[owner[a]].append(a)

    for g in range(num_gt):
        if claimed[g] or not costs.candidates[g].any():
            continue
        cand = np.where(costs.candidates[g])[0]
        order = cand[np.lexsort((cand, costs.cost[g, cand]))]
        free = [a for a in order if owner[a] < 0]
        if free:
            a = free[0]
        else:
            rich = [a for a in order if len(claimed[owner[a]]) >= 2]
            if not rich:
                unassigned.append(g)
                continue
            a = rich[0]
            claimed[owner[a]].remove(a)
        owner[a] = g
        claimed[g].append(a)

    soft = np.zeros(num_anchors, dtype=np.float64)
    matched = owner >= 0
    soft[matched] = costs.iou[owner[matched], np.where(matched)[0]]
    return Assignment(gt_index=owner, soft_label=soft, k_per_gt=k_per_gt,
                      unassigned_gts=sorted(unassigned))
