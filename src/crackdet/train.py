"""Toy training loop: synthetic data, dynamic assignment, SGD with momentum.

Each step forwards a batch, snapshots the predictions to run the dynamic
soft-label assigner per image, then backpropagates the quality-focal
classification loss plus the GIoU regression loss. The learning rate follows
a cosine schedule. Everything is driven by seeded generators, so two runs
with the same config produce byte-identical logs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .config import RunConfig, optimizer_settings
from .dataio import gen_synthetic, normalize_images
from .errors import ConfigError, NumericsError
from .losses import giou_loss, soft_cls_loss_pooled, total_loss
from .model import Detector, build_detector, flatten_levels

# A step whose total loss exceeds this multiple of step 0's (the default run
# peaks near 1.1x) has diverged: train_toy stops it before any checkpoint.
DIVERGENCE_FACTOR = 1e3


def detector_from_config(cfg: RunConfig, rng: np.random.Generator) -> Detector:
    dtype = np.float64 if cfg.numerics.dtype == "float64" else np.float32
    detector = build_detector(cfg.model.num_classes, cfg.model.image_size,
                              cfg.model.backbone_widths, vars(cfg.neck), cfg.model.head_channels,
                              rng, dtype=dtype, score_thr=cfg.model.score_thr,
                              nms_iou=cfg.model.nms_iou)
    for bn in detector.batchnorms():
        bn.eps, bn.momentum = cfg.numerics.bn_eps, cfg.numerics.bn_momentum
    return detector


def image_gts(index, image_id):
    """(boxes (G,4), zero-based labels (G,)) for one image."""
    anns = [a for a in index.annotations if a.image_id == image_id]
    boxes = np.array([a.box for a in anns], dtype=np.float64).reshape(-1, 4)
    labels = np.array([a.category_id - 1 for a in anns], dtype=np.intp)
    return boxes, labels


def batch_losses(detector: Detector, images: np.ndarray, gt_per_image, cfg: RunConfig):
    """Forward a batch and assemble the assignment-driven losses.

    ``gt_per_image`` is a list of (boxes, labels) pairs aligned with the batch.
    Returns (total Tensor, LossBreakdown, assignments).
    """
    batch = len(images)
    num_classes = detector.num_classes
    preds = detector.forward(detector.input_batch(images))
    cls_flat = flatten_levels(preds.cls_logits)
    dist_flat = flatten_levels(preds.distances)
    n_anchors = cls_flat.shape[1]

    probs = nm._sigmoid_np(cls_flat.data)
    dists_np = dist_flat.data

    targets = np.zeros((batch, n_anchors, num_classes), dtype=np.float64)
    pos_rows, pos_boxes = [], []
    assignments = []
    for b in range(batch):
        boxes, labels = gt_per_image[b]
        if len(boxes) == 0:
            assignments.append(None)
            continue
        _, asg = detector.assign(probs[b], dists_np[b], boxes, labels, cfg.assignment)
        assignments.append(asg)
        targets[b] = asg.targets(labels, num_classes)
        for a in np.where(asg.gt_index >= 0)[0]:
            pos_rows.append(b * n_anchors + a)
            pos_boxes.append(boxes[asg.gt_index[a]])
    num_pos = len(pos_rows)

    cls_loss = soft_cls_loss_pooled(cls_flat, targets, num_pos)
    rows = np.array(pos_rows, dtype=np.intp)
    anchors = rows % n_anchors
    sel = nm.take(nm.reshape(dist_flat, (batch * n_anchors, 4)), rows, axis=0)
    reg_loss = giou_loss(sel, detector.points_xy[anchors], detector.strides[anchors], pos_boxes)
    total, breakdown = total_loss(cls_loss, reg_loss, num_pos,
                                  w_cls=cfg.loss.w_cls, w_reg=cfg.loss.w_reg)
    return total, breakdown, assignments


@dataclass
class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay."""

    params: list
    lr: float
    momentum: float
    weight_decay: float

    def __post_init__(self):
        self.velocity = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self, lr):
        for name, t in self.params:
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            v = self.velocity[name]
            v *= self.momentum
            v += g + self.weight_decay * t.data
            t.data -= lr * v

    def zero_grad(self):
        for _, t in self.params:
            t.zero_grad()


def cosine_lr(base_lr, step, total_steps):
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps)))


def train_toy(cfg: RunConfig, out_dir=None, progress=None):
    """Run the toy schedule; returns (detector, index, images, loss rows)."""
    if cfg.model.num_classes != cfg.synthetic.num_classes:
        raise ConfigError("model.num_classes must equal synthetic.num_classes for train-toy")
    if cfg.model.image_size != cfg.synthetic.image_size:
        raise ConfigError("model.image_size must equal synthetic.image_size for train-toy")
    if not 1 <= cfg.training.batch_size <= cfg.synthetic.num_images:
        raise ConfigError(f"training.batch_size must be in 1..synthetic.num_images "
                          f"({cfg.synthetic.num_images}), got {cfg.training.batch_size}")
    raw_images, index = gen_synthetic(cfg.synthetic)
    images = normalize_images(raw_images)

    rng = np.random.default_rng(cfg.training.seed)
    detector = detector_from_config(cfg, rng)
    momentum, weight_decay = optimizer_settings(cfg.training)
    params = list(detector.params())
    opt = SGD(params, cfg.training.lr, momentum, weight_decay)

    steps = cfg.training.steps
    if cfg.training.epochs is not None:
        per_epoch = max(1, cfg.synthetic.num_images // cfg.training.batch_size)
        steps = cfg.training.epochs * per_epoch

    gts = {im.id: image_gts(index, im.id) for im in index.images}
    image_ids = [im.id for im in index.images]
    rows = []
    for step in range(steps):
        batch_ids = rng.choice(len(image_ids), size=cfg.training.batch_size, replace=False)
        batch_imgs = images[batch_ids]
        batch_gts = [gts[image_ids[i]] for i in batch_ids]
        opt.zero_grad()
        total, breakdown, _ = batch_losses(detector, batch_imgs, batch_gts, cfg)
        total.backward()
        lr = cosine_lr(cfg.training.lr, step, steps) if cfg.training.schedule == "cosine" \
            else cfg.training.lr
        opt.step(lr)
        rows.append((step, breakdown.cls_loss, breakdown.reg_loss,
                     breakdown.total, breakdown.num_pos))
        if not math.isfinite(breakdown.total) or breakdown.total > DIVERGENCE_FACTOR * rows[0][3]:
            raise NumericsError(f"training diverged at step {step}: total loss "
                                f"{breakdown.total:.6g}, step 0 had {rows[0][3]:.6g}")
        if progress is not None:
            progress(step, breakdown)

    # The loss guard sees each step's loss before its update, so the last
    # update is checked here, once: a non-finite value writes no checkpoint.
    bad = next((key for key, arr in detector.state_dict().items()
                if not np.isfinite(arr).all()), None)
    if bad is not None:
        raise NumericsError(f"training left a non-finite value in '{bad}' after step "
                            f"{steps - 1}; no checkpoint written")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_loss_csv(os.path.join(out_dir, "loss.csv"), rows)
        ckpt = os.path.join(out_dir, "checkpoint.npz")
        np.savez(ckpt + ".tmp.npz", **detector.state_dict())
        os.replace(ckpt + ".tmp.npz", ckpt)
    return detector, index, raw_images, rows


def write_loss_csv(path, rows):
    lines = ["step,cls,reg,total,num_pos"]
    for step, cls_loss, reg_loss, total, num_pos in rows:
        lines.append(f"{step},{cls_loss:.6f},{reg_loss:.6f},{total:.6f},{num_pos}")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(cfg: RunConfig, path) -> Detector:
    detector = detector_from_config(cfg, np.random.default_rng(cfg.training.seed))
    with np.load(path) as arrays:
        detector.load_state_dict({k: arrays[k] for k in arrays.files})
    return detector


def predict_dataset(detector: Detector, images: np.ndarray, image_ids, batch_size=8):
    """Run eval-mode inference over a whole image stack."""
    detections = []
    for start in range(0, len(images), batch_size):
        chunk = images[start:start + batch_size]
        ids = image_ids[start:start + batch_size]
        detections.extend(detector.predict(chunk, image_ids=ids))
    return detections
