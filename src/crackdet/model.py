"""Tiny detection model: stand-in backbone, anchor-free head, box decoding.

The backbone is a stack of stride-2 3x3 convs emitting features at strides
8/16/32. The head is a 1x1 conv tower shared across levels that predicts K
class logits and four nonnegative edge distances (in stride units, softplus
activated) per grid cell. Decoding turns distances at a cell center into a
corner box; class-wise greedy NMS prunes overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .assignment import AssignConfig, Assignment, CostMatrix, build_cost_matrix, dynamic_assign
from .errors import DataError, ShapeError
from .geometry import iou_matrix
from .neck import ConvBNLayer, NeckConfig, NeckParams, PyramidFeatures, _conv_bn, init_neck, neck_forward
from .numerics import Tensor

STRIDES = (8, 16, 32)


@dataclass
class RawPredictions:
    """Per level: class logits (B,K,H,W) and softplus distances (B,4,H,W)."""

    cls_logits: list[Tensor]
    distances: list[Tensor]


@dataclass(frozen=True)
class Detection:
    image_id: int
    category_id: int
    score: float
    box: tuple[float, float, float, float]

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        # the sum is finite only when every coordinate and the score are
        if not (x1 <= x2 and y1 <= y2 and math.isfinite(x2 - x1 + y2 - y1 + self.score)):
            raise ShapeError(f"invalid detection {self}")


def anchor_points(image_size: int, strides=STRIDES) -> tuple[np.ndarray, np.ndarray]:
    """(N,2) cell centres in pixels and (N,) strides: every cell of every
    level exactly once, stride 8 first, row-major (x fastest) within a level."""
    xy, per_cell = [], []
    for stride in strides:
        centres = (np.arange(image_size // stride) + 0.5) * stride
        cx, cy = np.meshgrid(centres, centres)
        xy.append(np.stack([cx.ravel(), cy.ravel()], axis=1))
        per_cell.append(np.full(cx.size, float(stride)))
    return np.concatenate(xy), np.concatenate(per_cell)


@dataclass
class BackboneParams(nm.Module):
    stages: list[ConvBNLayer]

    prefix = "backbone"

    def children(self):
        return [(f"stage{i}", stage) for i, stage in enumerate(self.stages)]


def init_backbone(widths, rng, dtype=np.float64) -> BackboneParams:
    """Five stride-2 stages from RGB; the last three feed the neck."""
    chans = (3,) + tuple(widths)
    stages = [_conv_bn(rng, chans[i], chans[i + 1], dtype, stride2=True) for i in range(5)]
    return BackboneParams(stages)


def backbone_forward(image: Tensor, p: BackboneParams) -> PyramidFeatures:
    if image.shape[2] % 32 or image.shape[3] % 32:
        raise ShapeError(f"backbone: spatial size {image.shape[2:]} must be divisible by 32")
    feats = []
    x = image
    for stage in p.stages:
        x = stage(x)
        feats.append(x)
    return PyramidFeatures(feats[2], feats[3], feats[4])


@dataclass
class HeadParams(nm.Module):
    stem_cls: ConvBNLayer
    stem_reg: ConvBNLayer
    w_cls: Tensor
    b_cls: Tensor
    w_reg: Tensor
    b_reg: Tensor

    prefix = "head"

    def children(self):
        return [("stem_cls", self.stem_cls), ("stem_reg", self.stem_reg), ("w_cls", self.w_cls),
                ("b_cls", self.b_cls), ("w_reg", self.w_reg), ("b_reg", self.b_reg)]


def init_head(in_channels, hidden, num_classes, rng, dtype=np.float64,
              cls_bias_prior=-2.0) -> HeadParams:
    bound = 1.0 / np.sqrt(hidden)
    return HeadParams(
        stem_cls=_conv_bn(rng, in_channels, hidden, dtype),
        stem_reg=_conv_bn(rng, in_channels, hidden, dtype),
        w_cls=Tensor(rng.uniform(-bound, bound, size=(num_classes, hidden)).astype(dtype),
                     requires_grad=True),
        b_cls=Tensor(np.full(num_classes, cls_bias_prior, dtype=dtype), requires_grad=True),
        w_reg=Tensor(rng.uniform(-bound, bound, size=(4, hidden)).astype(dtype),
                     requires_grad=True),
        b_reg=Tensor(np.zeros(4, dtype=dtype), requires_grad=True),
    )


def head_forward(pyramid: PyramidFeatures, p: HeadParams) -> RawPredictions:
    """Shared-across-levels branch towers; distances come out nonnegative."""
    cls_logits, distances = [], []
    for feat in pyramid.levels():
        cls_logits.append(nm.conv1x1(p.stem_cls(feat), p.w_cls, p.b_cls))
        distances.append(nm.softplus(nm.conv1x1(p.stem_reg(feat), p.w_reg, p.b_reg)))
    return RawPredictions(cls_logits, distances)


def flatten_levels(tensors: list[Tensor]) -> Tensor:
    """Per-level (B,C,H,W) maps -> (B, N, C) in anchor enumeration order."""
    rows = []
    for t in tensors:
        b, c, h, w = t.shape
        rows.append(nm.reshape(nm.transpose(t, (0, 2, 3, 1)), (b, h * w, c)))
    return nm.concat(rows, axis=1)


def decode_boxes(distances: np.ndarray, points_xy: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """(N,4) stride-unit (l,t,r,b) distances at cell centers -> corner boxes."""
    off = distances * strides[:, None]
    return np.stack([points_xy[:, 0] - off[:, 0], points_xy[:, 1] - off[:, 1],
                     points_xy[:, 0] + off[:, 2], points_xy[:, 1] + off[:, 3]], axis=1)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thr: float) -> list[int]:
    """Greedy NMS; returns kept indices in descending score order (ties go to
    the lower index). One IoU matrix over the score-sorted boxes, keeping
    only each box's overlaps with lower-ranked ones; the walk visits just the
    rows with any overlap and ORs each unsuppressed one into the mask."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    overlaps = np.triu(iou_matrix(boxes[order], boxes[order]) > iou_thr, k=1)
    suppressed = np.zeros(len(order), dtype=bool)
    for pos in np.flatnonzero(overlaps.any(axis=1)):
        if not suppressed[pos]:
            suppressed |= overlaps[pos]
    return order[~suppressed].tolist()


def decode(cls_probs: np.ndarray, distances: np.ndarray, points_xy: np.ndarray,
           strides: np.ndarray, score_thr: float, nms_iou: float,
           image_id: int = 0) -> list[Detection]:
    """One image's (N,K) class probabilities + (N,4) distances -> detections
    by descending score, ties by category, then by class-wise NMS order."""
    if cls_probs.shape[0] != len(points_xy) or distances.shape[0] != len(points_xy):
        raise ShapeError("decode: predictions do not match the anchor grid")
    boxes = decode_boxes(distances, points_xy, strides)
    anchors, classes = [], []
    for k in range(cls_probs.shape[1]):
        scores = cls_probs[:, k]
        picked = np.flatnonzero(scores > score_thr)
        if len(picked):
            anchors.append(picked[nms(boxes[picked], scores[picked], nms_iou)])
            classes.append(np.full(len(anchors[-1]), k))
    if not anchors:
        return []
    anchors, classes = np.concatenate(anchors), np.concatenate(classes)
    scores = cls_probs[anchors, classes]
    order = np.lexsort((classes, -scores))
    return [Detection(image_id, k + 1, score, tuple(box))
            for k, score, box in zip(classes[order].tolist(), scores[order].tolist(),
                                     boxes[anchors[order]].tolist())]


@dataclass
class Detector(nm.Module):
    """Backbone + neck + head bundle with its anchor grid: ``points_xy`` (N,2)
    cell centres and ``strides`` (N,), in ``flatten_levels`` order."""

    backbone: BackboneParams
    neck: NeckParams
    head: HeadParams
    num_classes: int
    image_size: int
    score_thr: float = 0.05
    nms_iou: float = 0.65
    dtype: type = np.float64

    def __post_init__(self):
        self.points_xy, self.strides = anchor_points(self.image_size)

    def input_batch(self, images: np.ndarray) -> Tensor:
        return Tensor(np.asarray(images, dtype=self.dtype))

    def children(self):
        return [("backbone", self.backbone), ("neck", self.neck), ("head", self.head)]

    def state_dict(self) -> dict:
        out = {f"param:{name}": t.data for name, t in self.params()}
        out.update({f"state:{name}": arr for name, arr in self.states()})
        return out

    def load_state_dict(self, arrays: dict):
        targets = self.state_dict()
        unexpected = next((key for key in arrays if key not in targets), None)
        if unexpected is not None:
            raise DataError(f"checkpoint has unexpected entry '{unexpected}' "
                            f"(model config mismatch?)")
        for key, target in targets.items():
            if key not in arrays:
                raise DataError(f"checkpoint is missing '{key}' (model config mismatch?)")
            if arrays[key].shape != target.shape:
                raise DataError(f"checkpoint entry '{key}' has shape {arrays[key].shape}, "
                                f"model expects {target.shape}")
            target[...] = arrays[key]

    def forward(self, images: Tensor) -> RawPredictions:
        pyramid = neck_forward(backbone_forward(images, self.backbone), self.neck)
        return head_forward(pyramid, self.head)

    def predict_arrays(self, images: np.ndarray):
        """(B,3,H,W) float input -> per-image (probs (N,K), distances (N,4))."""
        with nm.no_grad(), nm.eval_mode():
            preds = self.forward(self.input_batch(images))
            probs = nm.sigmoid(flatten_levels(preds.cls_logits)).data
            dists = flatten_levels(preds.distances).data
        return probs, dists

    def predict(self, images: np.ndarray, image_ids=None) -> list[Detection]:
        probs, dists = self.predict_arrays(images)
        image_ids = image_ids if image_ids is not None else range(len(images))
        out = []
        for b, image_id in enumerate(image_ids):
            out.extend(decode(probs[b], dists[b], self.points_xy, self.strides,
                              self.score_thr, self.nms_iou, image_id=image_id))
        return out

    def assign(self, probs: np.ndarray, distances: np.ndarray, gt_boxes: np.ndarray,
               gt_labels: np.ndarray, acfg: AssignConfig) -> tuple[CostMatrix, Assignment]:
        """One image's (N,K) probabilities + (N,4) distances -> the (GT, anchor)
        cost grid on this detector's anchors and its dynamic assignment."""
        boxes = decode_boxes(distances, self.points_xy, self.strides)
        cm = build_cost_matrix(probs, boxes, self.points_xy, self.strides,
                               gt_boxes, gt_labels, acfg)
        return cm, dynamic_assign(cm, acfg)


def neck_config(image_size: int, backbone_widths, neck_cfg_kwargs: dict) -> NeckConfig:
    """The neck's config, with its input channels and pyramid sizes derived
    from the backbone's last three stages."""
    if image_size % 32:
        raise ShapeError(f"image_size {image_size} must be divisible by 32")
    spatial = tuple((image_size // s, image_size // s) for s in STRIDES)
    return NeckConfig(in_channels=tuple(backbone_widths)[2:], spatial=spatial, **neck_cfg_kwargs)


def build_detector(num_classes: int, image_size: int, backbone_widths,
                   neck_cfg_kwargs: dict, head_channels: int,
                   rng: np.random.Generator, dtype=np.float64,
                   score_thr=0.05, nms_iou=0.65) -> Detector:
    neck_cfg = neck_config(image_size, backbone_widths, neck_cfg_kwargs)
    backbone = init_backbone(backbone_widths, rng, dtype)
    neck = init_neck(neck_cfg, rng, dtype)
    head = init_head(neck_cfg.out_channels, head_channels, num_classes, rng, dtype)
    return Detector(backbone=backbone, neck=neck, head=head, num_classes=num_classes,
                    image_size=image_size, score_thr=score_thr, nms_iou=nms_iou,
                    dtype=dtype)
