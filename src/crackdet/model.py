"""Tiny detection model: stand-in backbone, anchor-free head, box decoding.

The backbone is a stack of stride-2 3x3 convs emitting features at strides
8/16/32. The head is a 1x1 conv tower shared across levels that predicts K
class logits and four nonnegative edge distances (in stride units, softplus
activated) per grid cell. Decoding turns distances at a cell center into a
corner box; class-wise greedy NMS prunes overlaps. Every class scores the
same anchors, so one image's candidates share one IoU matrix, and one greedy
walk suppresses within every class at once. A detection is a ``Detection``,
an immutable tuple that rejects an inverted or non-finite box.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat, starmap

import numpy as np

from . import numerics as nm
from .assignment import Assignment, CostMatrix, build_cost_matrix, dynamic_assign
from .errors import ConfigError, DataError, ShapeError, check_fields
from .geometry import iou_matrix
from .neck import (ConvBNLayer, NeckConfig, NeckParams, NeckSettings, PyramidFeatures, _conv_bn,
                   init_neck, neck_forward)
from .numerics import Tensor

STRIDES = (8, 16, 32)
CLS_BIAS_PRIOR = -2.0  # every class logit starts at sigmoid(-2) = 0.12


@dataclass
class ModelSection:
    num_classes: int = 3
    image_size: int = 64
    backbone_widths: tuple = (32, 48, 64, 96, 128)
    head_channels: int = 96
    score_thr: float = 0.05
    nms_iou: float = 0.65

    def __post_init__(self):
        check_fields("model", self, (("num_classes", 1, math.inf, "[)"),
                                     ("image_size", 0, math.inf, "()"),
                                     ("head_channels", 1, math.inf, "[)"),
                                     ("score_thr", 0, 1, "[)"),
                                     ("nms_iou", 0, 1, "[]")))
        widths = self.backbone_widths
        if len(widths) != 5 or not all(type(w) is int and w >= 1 for w in widths):
            raise ConfigError(f"model.backbone_widths must list five positive integer stage "
                              f"widths, got {list(widths)}")
        if self.image_size % 32:
            raise ConfigError("model.image_size must be divisible by 32")


def _valid_detection(x1, y1, x2, y2, score):
    """The rule every ``Detection`` meets, on numbers or elementwise on arrays
    of rows: an upright box, and a finite box and score. The sum is finite
    only when every coordinate and the score are."""
    return (x1 <= x2) & (y1 <= y2) & (abs(x2 - x1 + y2 - y1 + score) < math.inf)


class Detection(namedtuple("Detection", "image_id category_id score box")):
    """One detection: image id, category id, score and corner box. Every way
    of building one (positional, keyword, ``_make``, ``_replace``, unpickling)
    rejects an inverted box and a non-finite box or score."""

    __slots__ = ()

    def __new__(cls, image_id, category_id, score, box):
        x1, y1, x2, y2 = box
        if not _valid_detection(x1, y1, x2, y2, score):
            raise ShapeError("invalid detection "
                             f"{super().__new__(cls, image_id, category_id, score, box)}")
        return tuple.__new__(cls, (image_id, category_id, score, box))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def anchor_points(image_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(N,2) cell centres in pixels and (N,) strides: every cell of every
    level exactly once, stride 8 first, row-major (x fastest) within a level."""
    xy, per_cell = [], []
    for stride in STRIDES:
        centres = (np.arange(image_size // stride) + 0.5) * stride
        cx, cy = np.meshgrid(centres, centres)
        xy.append(np.stack([cx.ravel(), cy.ravel()], axis=1))
        per_cell.append(np.full(cx.size, float(stride)))
    return np.concatenate(xy), np.concatenate(per_cell)


@dataclass
class BackboneParams(nm.Module):
    stage: list[ConvBNLayer]

    prefix = "backbone"


def init_backbone(widths, rng, dtype=np.float64) -> BackboneParams:
    """Five stride-2 stages from RGB; the last three feed the neck."""
    chans = (3,) + tuple(widths)
    return BackboneParams([_conv_bn(rng, chans[i], chans[i + 1], dtype, stride2=True)
                           for i in range(5)])


def _pyramid_levels(x: Tensor, p: BackboneParams) -> list[Tensor]:
    return [x := stage(x) for stage in p.stage][2:]


def backbone_forward(image: Tensor, p: BackboneParams) -> PyramidFeatures:
    """Where ``nm.folds_bn()`` each image passes on its own, so a batch of two
    or more runs its second half on a second thread and stacks the levels back."""
    if image.shape[2] % 32 or image.shape[3] % 32:
        raise ShapeError(f"backbone: spatial size {image.shape[2:]} must be divisible by 32")
    if image.shape[0] < 2 or not nm.folds_bn():
        return PyramidFeatures(*_pyramid_levels(image, p))
    halves = nm.in_two_threads(lambda x: _pyramid_levels(Tensor(x), p),
                               *np.array_split(image.data, 2))
    return PyramidFeatures(*(nm.concat(pair, axis=0) for pair in zip(*halves)))


@dataclass
class HeadParams(nm.Module):
    stem_cls: ConvBNLayer
    stem_reg: ConvBNLayer
    w_cls: Tensor
    b_cls: Tensor
    w_reg: Tensor
    b_reg: Tensor

    prefix = "head"


def init_head(in_channels, hidden, num_classes, rng, dtype=np.float64) -> HeadParams:
    bound = 1.0 / np.sqrt(hidden)
    return HeadParams(
        stem_cls=_conv_bn(rng, in_channels, hidden, dtype),
        stem_reg=_conv_bn(rng, in_channels, hidden, dtype),
        w_cls=Tensor(rng.uniform(-bound, bound, size=(num_classes, hidden)).astype(dtype),
                     requires_grad=True),
        b_cls=Tensor(np.full(num_classes, CLS_BIAS_PRIOR, dtype=dtype), requires_grad=True),
        w_reg=Tensor(rng.uniform(-bound, bound, size=(4, hidden)).astype(dtype),
                     requires_grad=True),
        b_reg=Tensor(np.zeros(4, dtype=dtype), requires_grad=True),
    )


def _flatten_levels(tensors: list[Tensor]) -> Tensor:
    """Per-level (B,C,H,W) maps -> (B, N, C) in ``anchor_points`` order."""
    return nm.concat([nm.reshape(nm.transpose(t, (0, 2, 3, 1)),
                                 (t.shape[0], t.shape[2] * t.shape[3], t.shape[1]))
                      for t in tensors], axis=1)


def head_forward(pyramid: PyramidFeatures, p: HeadParams) -> tuple[Tensor, Tensor]:
    """Shared-across-levels branch towers: (B, N, K) class logits and (B, N, 4)
    nonnegative distances, both in ``anchor_points`` order."""
    cls_logits, distances = [], []
    for feat in pyramid.levels():
        cls_logits.append(nm.conv1x1(p.stem_cls(feat), p.w_cls, p.b_cls))
        distances.append(nm.softplus(nm.conv1x1(p.stem_reg(feat), p.w_reg, p.b_reg)))
    return _flatten_levels(cls_logits), _flatten_levels(distances)


def decode_boxes(distances: np.ndarray, points_xy: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """(N,4) stride-unit (l,t,r,b) distances at cell centers -> corner boxes."""
    off = distances * strides[:, None]
    return np.stack([points_xy[:, 0] - off[:, 0], points_xy[:, 1] - off[:, 1],
                     points_xy[:, 0] + off[:, 2], points_xy[:, 1] + off[:, 3]], axis=1)


def _greedy_keep(over: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Greedy suppression of K ranked lists at once. ``over`` (K,n,n) says
    which entries of list k overlap, both axes in k's rank order, and
    ``cand`` (K,n) which of them take part; returns the (K,n) kept mask.
    The walk visits only the rows that overlap a lower-ranked candidate, in
    rank order within each list, and drops what each still-kept row
    overlaps. ``over`` is overwritten."""
    over &= cand[:, None, :] & ~np.tri(cand.shape[1], dtype=bool)
    keep = cand.copy()
    for k, i in zip(*np.nonzero(over.any(axis=2))):
        if keep[k, i]:
            keep[k, over[k, i]] = False
    return keep


def _rank_and_suppress(overlaps: np.ndarray, scores: np.ndarray,
                       cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-wise greedy NMS over n boxes shared by K classes: ``overlaps``
    (n,n) says which pairs overlap above the threshold, ``scores`` and
    ``cand`` (K,n) give each class's scores and candidates. Returns each
    class's rank order (descending score, ties to the lower index) and the
    kept mask in that order, both (K,n)."""
    order = np.lexsort((-scores,), axis=-1)  # stable: ties keep index order
    over = np.stack([overlaps[o][:, o] for o in order])
    return order, _greedy_keep(over, np.take_along_axis(cand, order, axis=-1))


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thr: float) -> list[int]:
    """Greedy NMS; returns kept indices in descending score order (ties go to
    the lower index). The same walk as ``decode``'s, for one class."""
    order, keep = _rank_and_suppress(iou_matrix(boxes, boxes) > iou_thr, scores[None],
                                     np.ones((1, len(scores)), dtype=bool))
    return order[keep].tolist()


def decode(cls_probs: np.ndarray, distances: np.ndarray, points_xy: np.ndarray,
           strides: np.ndarray, score_thr: float, nms_iou: float,
           image_id: int = 0) -> list[Detection]:
    """One image's (N,K) class probabilities + (N,4) distances -> detections
    by descending score, ties by category, then by class-wise NMS order.

    Only the anchors over ``score_thr`` in some class are decoded, and one
    IoU matrix over them serves every class; NMS never suppresses across
    classes. The rows meet ``Detection``'s rule, checked over all of them at
    once, so each is built without its per-row check."""
    if cls_probs.shape[0] != len(points_xy) or distances.shape[0] != len(points_xy):
        raise ShapeError("decode: predictions do not match the anchor grid")
    above = cls_probs > score_thr
    anchors = np.flatnonzero(above.any(axis=1))
    if not len(anchors):
        return []
    boxes = decode_boxes(distances[anchors], points_xy[anchors], strides[anchors])
    order, keep = _rank_and_suppress(iou_matrix(boxes, boxes) > nms_iou,
                                     cls_probs[anchors].T, above[anchors].T)
    classes, rank = np.nonzero(keep)
    kept = order[classes, rank]
    scores = cls_probs[anchors[kept], classes]
    final = np.lexsort((classes, -scores))
    scores, corners = scores[final], boxes[kept[final]].T
    rows = zip(repeat(image_id), (classes[final] + 1).tolist(), scores.tolist(),
               zip(*corners.tolist()))
    if _valid_detection(*corners, scores).all():
        return list(map(tuple.__new__, repeat(Detection), rows))
    return list(starmap(Detection, rows))  # raises on the first invalid row


@dataclass
class Detector(nm.Module):
    """Backbone + neck + head bundle, of its parameters' dtype, with its anchor
    grid: ``points_xy`` (N,2) cell centres and ``strides`` (N,), the rows of its predictions."""

    backbone: BackboneParams
    neck: NeckParams
    head: HeadParams
    image_size: int
    score_thr: float
    nms_iou: float

    def __post_init__(self):
        self.points_xy, self.strides = anchor_points(self.image_size)

    def input_batch(self, images: np.ndarray) -> Tensor:
        """(B,3,H,W) images as a tensor of the model's dtype; (H, W) must be
        the ``image_size`` the pyramid and the attention blocks were built for."""
        arr = np.asarray(images, dtype=self.head.w_cls.dtype)
        if arr.shape[2:] != (self.image_size, self.image_size):
            raise ShapeError(f"images are {'x'.join(map(str, arr.shape[2:]))} px, but the "
                             f"model takes {self.image_size}x{self.image_size} "
                             f"(model.image_size)")
        return Tensor(arr)

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
            if arrays[key].dtype != target.dtype:
                raise DataError(f"checkpoint entry '{key}' has dtype {arrays[key].dtype}, "
                                f"model expects {target.dtype} (numerics.dtype mismatch?)")
            if not np.isfinite(arrays[key]).all():
                raise DataError(f"checkpoint entry '{key}' holds a non-finite value")
            target[...] = arrays[key]

    def forward(self, images: Tensor) -> tuple[Tensor, Tensor]:
        """(B, N, K) class logits and (B, N, 4) distances, see ``head_forward``."""
        pyramid = neck_forward(backbone_forward(images, self.backbone), self.neck)
        return head_forward(pyramid, self.head)

    def predict_arrays(self, images: np.ndarray):
        """(B,3,H,W) float input -> probs (B,N,K) and distances (B,N,4)."""
        with nm.no_grad(), nm.eval_mode():
            logits, dists = self.forward(self.input_batch(images))
            return nm.sigmoid(logits).data, dists.data

    def predict(self, images: np.ndarray, image_ids=None) -> list[Detection]:
        image_ids = range(len(images)) if image_ids is None else list(image_ids)
        if len(image_ids) != len(images):
            raise ShapeError(f"predict: {len(images)} images but {len(image_ids)} image ids")
        probs, dists = self.predict_arrays(images)
        out = []
        for b, image_id in enumerate(image_ids):
            out.extend(decode(probs[b], dists[b], self.points_xy, self.strides,
                              self.score_thr, self.nms_iou, image_id=image_id))
        return out

    def assign(self, probs: np.ndarray, distances: np.ndarray, gt_boxes: np.ndarray,
               gt_labels: np.ndarray) -> tuple[CostMatrix, Assignment]:
        """One image's (N,K) probabilities + (N,4) distances -> the (GT, anchor)
        cost grid on this detector's anchors and its dynamic assignment."""
        boxes = decode_boxes(distances, self.points_xy, self.strides)
        cm = build_cost_matrix(probs, boxes, self.points_xy, self.strides, gt_boxes, gt_labels)
        return cm, dynamic_assign(cm)


def neck_config(model: ModelSection, neck: NeckSettings) -> NeckConfig:
    """The neck's config, with its input channels and pyramid sizes derived
    from the backbone's last three stages."""
    spatial = tuple((model.image_size // s, model.image_size // s) for s in STRIDES)
    return NeckConfig(in_channels=model.backbone_widths[2:], spatial=spatial, **vars(neck))


def build_detector(model: ModelSection, neck: NeckSettings, rng, dtype) -> Detector:
    neck_cfg = neck_config(model, neck)
    backbone = init_backbone(model.backbone_widths, rng, dtype)
    neck_params = init_neck(neck_cfg, rng, dtype)
    head = init_head(neck_cfg.out_channels, model.head_channels, model.num_classes, rng, dtype)
    return Detector(backbone, neck_params, head, model.image_size, model.score_thr, model.nms_iou)
