"""Toy training loop: synthetic data, dynamic assignment, SGD with momentum.

Each step forwards a batch, snapshots the predictions to run the dynamic
soft-label assigner per image, then backpropagates the quality-focal
classification loss plus the GIoU regression loss. The learning rate follows
a cosine schedule. Everything is driven by seeded generators, so two runs
with the same config produce byte-identical logs.
"""

from __future__ import annotations

import io
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .config import RunConfig
from .dataio import gen_synthetic, normalize_images, write_atomic
from .errors import ConfigError, DataError, NumericsError
from .losses import giou_loss, soft_cls_loss_pooled, total_loss
from .model import Detector, build_detector

# A step whose total loss exceeds this multiple of step 0's (the default run
# peaks near 1.1x) has diverged: train_toy stops it before any checkpoint.
DIVERGENCE_FACTOR = 1e3


def detector_from_config(cfg: RunConfig, rng: np.random.Generator) -> Detector:
    return build_detector(cfg.model, cfg.neck, rng, np.dtype(cfg.numerics.dtype))


def gt_table(index, image_ids, num_classes):
    """{image id: (boxes (G,4), zero-based labels (G,))} for ``image_ids``,
    from one pass over the annotations, each image's in annotation order. A
    category id of theirs that is not one of 1..num_classes is a DataError."""
    groups = {image_id: [] for image_id in image_ids}
    for a in index.annotations:
        if a.image_id in groups:
            if a.category_id not in range(1, num_classes + 1):
                raise DataError(f"annotation {a.id} has category id {a.category_id!r}, not in "
                                f"1..model.num_classes ({num_classes})")
            groups[a.image_id].append(a)
    return {image_id: (np.array([a.box for a in anns], dtype=np.float64).reshape(-1, 4),
                       np.array([a.category_id - 1 for a in anns], dtype=np.intp))
            for image_id, anns in groups.items()}


def batch_losses(detector: Detector, images: np.ndarray, gt_per_image):
    """Forward a batch and assemble the assignment-driven losses.

    ``gt_per_image`` is a list of (boxes (G,4), labels (G,)) array pairs
    aligned with the batch. Returns (total Tensor, LossBreakdown).
    """
    cls_flat, dist_flat = detector.forward(detector.input_batch(images))
    batch, n_anchors, num_classes = cls_flat.shape
    probs = nm._sigmoid_np(cls_flat.data)

    targets = np.zeros((batch, n_anchors, num_classes), dtype=np.float64)
    pos_rows, pos_boxes = [np.empty(0, dtype=np.intp)], [np.empty((0, 4))]
    for b, (boxes, labels) in enumerate(gt_per_image):
        if len(boxes) == 0:
            continue
        _, asg = detector.assign(probs[b], dist_flat.data[b], boxes, labels)
        targets[b] = asg.targets(labels, num_classes)
        pos = np.flatnonzero(asg.gt_index >= 0)
        pos_rows.append(b * n_anchors + pos)
        pos_boxes.append(boxes[asg.gt_index[pos]])
    rows = np.concatenate(pos_rows)
    num_pos = len(rows)

    cls_loss = soft_cls_loss_pooled(cls_flat, targets, num_pos)
    anchors = rows % n_anchors
    sel = nm.take(nm.reshape(dist_flat, (batch * n_anchors, 4)), rows)
    reg_loss = giou_loss(sel, detector.points_xy[anchors], detector.strides[anchors],
                         np.concatenate(pos_boxes))
    return total_loss(cls_loss, reg_loss, num_pos)


@dataclass
class SGD:
    """Momentum SGD with decoupled-from-nothing classic weight decay."""

    params: list
    momentum: float
    weight_decay: float

    def __post_init__(self):
        self.velocity = {name: np.zeros_like(t.data) for name, t in self.params}
        # One scratch array per dtype, as long as its largest tensor, takes
        # each update's terms in turn, so a step allocates nothing.
        sizes = {}
        for _, t in self.params:
            sizes[t.data.dtype] = max(sizes.get(t.data.dtype, 0), t.data.size)
        self._scratch = {dtype: np.empty(size, dtype=dtype) for dtype, size in sizes.items()}

    def step(self, lr):
        """Per tensor, in place: v = momentum * v + (grad + weight_decay *
        data), then data -= lr * v. A tensor with no grad still decays, and
        every grad is left as it was."""
        for name, t in self.params:
            v = self.velocity[name]
            tmp = self._scratch[t.data.dtype][:t.data.size].reshape(t.data.shape)
            np.multiply(t.data, self.weight_decay, out=tmp)
            if t.grad is not None:
                tmp += t.grad
            v *= self.momentum
            v += tmp
            np.multiply(v, lr, out=tmp)
            t.data -= tmp

    def zero_grad(self):
        for _, t in self.params:
            t.zero_grad()


def cosine_lr(base_lr, step, total_steps):
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps)))


def train_toy(cfg: RunConfig, out_dir=None, progress=None):
    """Run the toy schedule; returns (detector, index, raw images, loss rows).

    The raw images are the synthetic set's uint8 (N,H,W,3) stack. Only each
    step's batch is normalized, so the run never holds a float copy of the
    whole set."""
    if cfg.model.num_classes != cfg.synthetic.num_classes:
        raise ConfigError("model.num_classes must equal synthetic.num_classes for train-toy")
    if cfg.model.image_size != cfg.synthetic.image_size:
        raise ConfigError("model.image_size must equal synthetic.image_size for train-toy")
    if cfg.training.batch_size > cfg.synthetic.num_images:
        raise ConfigError(f"training.batch_size must be in 1..synthetic.num_images "
                          f"({cfg.synthetic.num_images}), got {cfg.training.batch_size}")
    raw_images, index = gen_synthetic(cfg.synthetic)

    rng = np.random.default_rng(cfg.training.seed)
    detector = detector_from_config(cfg, rng)
    params = list(detector.params())
    opt = SGD(params, cfg.training.momentum, cfg.training.weight_decay)

    image_ids = [im.id for im in index.images]
    gts = gt_table(index, image_ids, cfg.model.num_classes)
    rows = []
    for step in range(cfg.training.steps):
        batch_ids = rng.choice(len(image_ids), size=cfg.training.batch_size, replace=False)
        batch_imgs = normalize_images(raw_images[batch_ids])
        batch_gts = [gts[image_ids[i]] for i in batch_ids]
        opt.zero_grad()
        total, breakdown = batch_losses(detector, batch_imgs, batch_gts)
        total.backward()
        opt.step(cosine_lr(cfg.training.lr, step, cfg.training.steps))
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
                            f"{cfg.training.steps - 1}; no checkpoint written")
    if out_dir is not None:
        write_loss_csv(os.path.join(out_dir, "loss.csv"), rows)
        ckpt = io.BytesIO()
        np.savez(ckpt, **detector.state_dict())
        write_atomic(os.path.join(out_dir, "checkpoint.npz"), ckpt.getvalue())
    return detector, index, raw_images, rows


def write_loss_csv(path, rows):
    lines = ["step,cls,reg,total,num_pos"]
    for step, cls_loss, reg_loss, total, num_pos in rows:
        lines.append(f"{step},{cls_loss:.6f},{reg_loss:.6f},{total:.6f},{num_pos}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_checkpoint(cfg: RunConfig, path) -> Detector:
    detector = detector_from_config(cfg, np.random.default_rng(cfg.training.seed))
    try:
        arrays = np.load(path, allow_pickle=False)
        if not isinstance(arrays, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array, not an archive of named arrays")
        with arrays:
            detector.load_state_dict({k: arrays[k] for k in arrays.files})
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise DataError(f"{path}: not a readable checkpoint .npz ({exc})") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return detector


def predict_dataset(detector: Detector, images, image_ids, batch_size=8):
    """Run eval-mode inference over uint8 (H,W,3) images, a sequence or a
    (N,H,W,3) stack, normalizing ``batch_size`` of them at a time."""
    detections = []
    for start in range(0, len(images), batch_size):
        chunk = normalize_images(images[start:start + batch_size])
        ids = image_ids[start:start + batch_size]
        detections.extend(detector.predict(chunk, image_ids=ids))
    return detections
