"""Training losses mirroring the assignment costs.

Classification uses the quality-focal form — binary cross entropy against the
soft IoU label, damped by the squared gap — evaluated in logit space so no
probability clamping is needed; it is normalized by the positive count,
floored at one so background-only batches stay finite. Regression is the mean
1 - GIoU over matched anchors: one fused op on their predicted distances, with
a closed-form backward, whose value stays float64 whatever the network dtype.
The total weighs them 1 and 2, RTMDet's loss weights (Lyu et al.,
arXiv:2212.07784).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ShapeError
from .model import decode_boxes
from .numerics import Tensor

W_CLS, W_REG = 1.0, 2.0


@dataclass
class LossBreakdown:
    cls_loss: float
    reg_loss: float
    total: float
    num_pos: int


def quality_focal_terms(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise CE(sigmoid(l), y) * (y - sigmoid(l))^2, stable in logit space."""
    if logits.shape != targets.shape:
        raise ShapeError(f"loss targets {targets.shape} do not match logits {logits.shape}")
    y = nm.as_tensor(targets, like=logits)
    ce = nm.sub(nm.softplus(logits), nm.mul(y, logits))
    gap = nm.sub(y, nm.sigmoid(logits))
    return nm.mul(ce, nm.mul(gap, gap))


def soft_cls_loss_pooled(logits: Tensor, targets: np.ndarray, num_pos: int) -> Tensor:
    """Summed quality-focal loss over every anchor-class cell / max(1, num_pos)."""
    return nm.mul(nm.tsum(quality_focal_terms(logits, targets)), 1.0 / max(1, num_pos))


def giou_loss(distances: Tensor, points_xy: np.ndarray, strides: np.ndarray,
              gt_boxes: np.ndarray) -> Tensor:
    """Mean (1 - GIoU) of the boxes that the (P, 4) stride-unit (l, t, r, b)
    ``distances`` decode to at their (P, 2) cell centres and (P,) strides,
    against the (P, 4) matched GT boxes; the zero Tensor when P = 0.

    One graph node whose only parent is ``distances``. With G = I/U - (E - U)/E
    for intersection I, union U and enclosing area E, the backward takes
    dG/dI = 1/U + I/U^2 - 1/E, dG/dA = 1/E - I/U^2 for the predicted area A and
    dG/dE = -U/E^2 (Rezatofighi et al. 2019), routes them to the corners
    through the max/min branches the forward took, and maps the corner
    gradients to the distances as [-gx1, -gy1, gx2, gy2] * stride.
    """
    g = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    n = g.shape[0]
    if n == 0:
        return Tensor(np.float64(0.0))
    if distances.shape != (n, 4):
        raise ShapeError(f"giou_loss: distances {distances.shape} for {n} GT boxes")
    x1, y1, x2, y2 = decode_boxes(distances.data, points_xy, strides).T
    gx1, gy1, gx2, gy2 = g.T
    iw = np.minimum(x2, gx2) - np.maximum(x1, gx1)
    ih = np.minimum(y2, gy2) - np.maximum(y1, gy1)
    iw_pos, ih_pos = np.maximum(iw, 0.0), np.maximum(ih, 0.0)
    inter = iw_pos * ih_pos
    pw, ph = x2 - x1, y2 - y1
    union = (pw * ph + (gx2 - gx1) * (gy2 - gy1)) - inter
    ew = np.maximum(x2, gx2) - np.minimum(x1, gx1)
    eh = np.maximum(y2, gy2) - np.minimum(y1, gy1)
    enclosing = ew * eh
    giou = inter / union - (enclosing - union) / enclosing

    def backward(grad):
        dg = -(grad * (1.0 / n))
        d_area = dg * (1.0 / enclosing - inter / union ** 2)
        d_inter = dg * (1.0 / union) - d_area
        d_enc = dg * (-union / enclosing ** 2)
        d_iw = d_inter * ih_pos * (iw >= 0.0)
        d_ih = d_inter * iw_pos * (ih >= 0.0)
        d_ew, d_eh = d_enc * eh, d_enc * ew
        d_x1 = -d_area * ph - d_iw * (x1 >= gx1) - d_ew * (x1 <= gx1)
        d_y1 = -d_area * pw - d_ih * (y1 >= gy1) - d_eh * (y1 <= gy1)
        d_x2 = d_area * ph + d_iw * (x2 <= gx2) + d_ew * (x2 >= gx2)
        d_y2 = d_area * pw + d_ih * (y2 <= gy2) + d_eh * (y2 >= gy2)
        return (np.stack([-d_x1, -d_y1, d_x2, d_y2], axis=1) * strides[:, None],)

    return nm._make((1.0 - giou).sum() * (1.0 / n), "giou_loss", (distances,), backward)


def total_loss(cls_loss: Tensor, reg_loss: Tensor, num_pos: int):
    """Weighted sum; returns (scalar Tensor for backward, float LossBreakdown)."""
    total = nm.add(nm.mul(cls_loss, W_CLS), nm.mul(reg_loss, W_REG))
    breakdown = LossBreakdown(cls_loss=float(cls_loss.data), reg_loss=float(reg_loss.data),
                              total=float(total.data), num_pos=int(num_pos))
    return total, breakdown
