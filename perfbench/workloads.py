"""The benchmark's three workloads: inputs from a seed, the timed loop, output checks.

Every workload is single-process and closed-loop: one caller makes one call,
waits for it to return, then makes the next. A run is split into rounds;
each round sets the workload up from scratch (timed as one set-up sample;
train and detect include a warm-up call) and then times ops until its share
of the time budget is spent. Spreading the set-ups over the run keeps the
set-up median from resting on one stretch of a shared machine's speed. The
output checks run outside the timed brackets and record failures on the
``Clock``.
Program functions are called through their modules (``dataio.gen_synthetic``),
so that a traced run's wrappers see the calls.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import statistics
import time

import numpy as np

from crackdet import dataio, evaluator, model, train
from crackdet.config import RunConfig
from crackdet.dataio import SyntheticConfig
from crackdet.geometry import MEDIUM_MAX_AREA, SMALL_MAX_AREA
from crackdet.model import Detection

DETECT_BATCH = 8
EVAL_IMAGE_SIZE = 256
EVAL_DETS_PER_IMAGE = 250
# Short ops: the fastest of several hundred two-image ops in a run catches a
# shared machine's fast stretches far more often than the fastest of ~110
# eight-image ops (run-to-run spread 0.07 against 0.19).
EVAL_SPLIT_IMAGES = 2
BACKGROUND_SPLIT = (0.5, 0.3, 0.2)
NUM_IMAGES = 200
NMS_CLUSTERS = 24
NMS_PER_CLUSTER = 12


def _load_libc():
    """The C library if it is glibc, whose malloc_trim returns freed heap pages."""
    try:
        libc = ctypes.CDLL(None)
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        return libc
    except (OSError, AttributeError):
        return None


_LIBC = _load_libc()


class Clock:
    """Rounds, set-up times, op intervals and failures of one run.

    Each round ends after ``fixed_ops`` ops, or, with a time budget, at the
    op boundary nearest the round's share of ``seconds`` (but never before
    ``min_ops`` ops). With a tracer, set-up and every second op
    (2, 4, ...) are traced and the other ops run untraced, so the two kinds
    interleave under the same conditions and their gap is the tracing
    overhead.
    """

    def __init__(self, rounds=1, seconds=None, fixed_ops=None, min_ops=1, tracer=None):
        self.n_rounds = rounds
        self.seconds = seconds
        self.fixed_ops = fixed_ops
        self.min_ops = min_ops
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.op_s: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.failures: list[tuple] = []
        self._t0 = None
        self._round_t0 = None
        self._round_ops = 0

    def rounds(self):
        for r in range(self.n_rounds):
            _release_free_memory()
            self._round_t0, self._round_ops = None, 0
            yield r

    def _trace(self, op):
        if self.tracer is not None:
            self.tracer.op = op
            if op is None:
                self.tracer.uninstall()
            else:
                self.tracer.install()

    def begin_setup(self):
        self._trace("setup")
        self._t0 = time.perf_counter()

    def end_setup(self):
        self.setup_s.append(time.perf_counter() - self._t0)
        self._trace(None)

    def begin_op(self):
        n = len(self.op_s) + 1
        self._trace(n if n % 2 == 0 else None)
        self._t0 = time.perf_counter()
        if self._round_t0 is None:
            self._round_t0 = self._t0

    def end_op(self) -> int:
        """Close the op; returns its number, counted from 1 over the run."""
        self.op_s.append(time.perf_counter() - self._t0)
        self._round_ops += 1
        self._trace(None)
        return len(self.op_s)

    def round_over(self) -> bool:
        if self.fixed_ops is not None:
            return self._round_ops >= self.fixed_ops
        if self._round_ops < self.min_ops:
            return False
        # End the round at the op boundary nearest its share of the budget.
        elapsed = time.perf_counter() - self._round_t0
        return elapsed + self.op_s[-1] / 2 >= self.seconds / self.n_rounds

    def note(self, name, seconds):
        """Record the time of a named part of an op."""
        self.parts.setdefault(name, []).append(seconds)

    def fail(self, message, op=None):
        """Record a failed check of measured op ``op``, or of the whole run."""
        self.failures.append((op, message))


def _release_free_memory():
    """Hand the previous round's freed memory back to the OS.

    Without this, whether a round's large arrays fit into the heap the last
    round left behind depends on fragmentation, and the peak RSS of a run
    jumps between two levels from run to run.
    """
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def synthetic(seed, image_size, shapes=(2, 4)) -> SyntheticConfig:
    return SyntheticConfig(num_images=NUM_IMAGES, image_size=image_size, num_classes=3,
                           min_shapes=shapes[0], max_shapes=shapes[1], seed=seed)


# -- train ------------------------------------------------------------------


class _Stop(Exception):
    """Raised from the progress callback to end train_toy's loop."""


def train_config(seed) -> RunConfig:
    cfg = RunConfig()
    cfg.synthetic.seed = seed
    cfg.training.seed = seed
    # Effectively unbounded: the clock ends the loop, and the cosine schedule
    # stays at its start (lr ~ base) over any run the benchmark makes.
    cfg.training.steps = 10**6
    return cfg


def run_train(seed, clock: Clock):
    """train_toy on the default config; step 0 is the warm-up inside set-up."""
    for r in clock.rounds():
        steps = []  # (failure key, LossBreakdown)

        def progress(step, breakdown):
            if step == 0:
                clock.end_setup()
                steps.append((("warm-up", r), breakdown))
            else:
                steps.append((clock.end_op(), breakdown))
                if clock.round_over():
                    raise _Stop
            clock.begin_op()

        clock.begin_setup()
        try:
            train.train_toy(train_config(seed), progress=progress)
        except _Stop:
            pass
        check_losses(steps, clock)
    return RunConfig().training.batch_size


def check_losses(steps, clock):
    """Finite losses and num_pos > 0 on every step; the loss falls over the round."""
    for key, b in steps:
        if not all(np.isfinite(v) for v in (b.cls_loss, b.reg_loss, b.total)):
            clock.fail(f"op {key}: non-finite loss {b}", op=key)
        elif b.num_pos <= 0:
            clock.fail(f"op {key}: no positive anchors", op=key)
    tenth = max(1, len(steps) // 10)
    first = statistics.fmean(b.total for _, b in steps[:tenth])
    final = statistics.fmean(b.total for _, b in steps[-tenth:])
    if not final < first:
        clock.fail(f"loss did not fall: first tenth {first:.6f}, last tenth {final:.6f}")


# -- detect -----------------------------------------------------------------


def _pairwise_iou(boxes):
    """(n,4) corner boxes -> (n,n) IoU, written apart from crackdet.geometry."""
    x1, y1, x2, y2 = (boxes[:, i] for i in range(4))
    w = np.clip(np.minimum.outer(x2, x2) - np.maximum.outer(x1, x1), 0.0, None)
    h = np.clip(np.minimum.outer(y2, y2) - np.maximum.outer(y1, y1), 0.0, None)
    inter = w * h
    area = (x2 - x1) * (y2 - y1)
    union = area[:, None] + area[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def check_detections(dets, score_thr, nms_iou):
    """(problems, digest) of one batch's detections; no problems when they are fine."""
    if not dets:
        return ["no detections"], None
    rows = np.array([(d.image_id, d.category_id, d.score) + tuple(d.box) for d in dets])
    problems = []
    if not np.isfinite(rows).all():
        problems.append("non-finite box or score")
    if not (rows[:, 2] > score_thr).all():
        problems.append(f"score at or below score_thr {score_thr}")
    keys = rows[:, 0] * 1000 + rows[:, 1]
    for key in np.unique(keys):
        ious = _pairwise_iou(rows[keys == key, 3:])
        np.fill_diagonal(ious, 0.0)
        if (ious > nms_iou).any():
            problems.append(f"image {int(key // 1000)} class {int(key % 1000)}: "
                            f"kept boxes overlap above nms_iou {nms_iou}")
    return problems, hashlib.sha256(rows.tobytes()).hexdigest()


def run_detect(seed, clock: Clock):
    """Detector.predict on 8-image batches of the 200 default synthetic images.

    Every round builds the detector afresh from the seed, so a batch must
    give the same detections in every round and every pass.
    """
    digests = {}
    for _ in clock.rounds():
        nms_iou = _detect_round(seed, clock, digests)
    for problem in check_nms(seed, nms_iou):
        clock.fail(f"nms on clustered boxes: {problem}")
    return DETECT_BATCH


def clustered_boxes(seed, size=64.0):
    """Scored boxes in tight clusters, drawn from the seed, so NMS must suppress.

    The fresh detector's own boxes barely overlap (NMS keeps all of them), so
    the batches alone cannot show an NMS that stopped suppressing.
    """
    rng = np.random.default_rng([seed, 2])
    n = NMS_CLUSTERS * NMS_PER_CLUSTER
    centres = np.repeat(rng.uniform(8.0, size - 8.0, (NMS_CLUSTERS, 2)), NMS_PER_CLUSTER, axis=0)
    half = np.repeat(rng.uniform(3.0, 12.0, (NMS_CLUSTERS, 2)), NMS_PER_CLUSTER, axis=0)
    centres = centres + rng.normal(0.0, 0.15, (n, 2)) * half
    half = half * rng.uniform(0.8, 1.25, (n, 2))
    return np.concatenate([centres - half, centres + half], axis=1), rng.uniform(0.05, 1.0, n)


def reference_nms(boxes, scores, iou_thr):
    """Greedy NMS over _pairwise_iou: kept indices by descending score, ties by index."""
    ious = _pairwise_iou(boxes)
    alive = np.ones(len(scores), dtype=bool)
    keep = []
    for i in np.lexsort((np.arange(len(scores)), -scores)):
        if alive[i]:
            keep.append(int(i))
            alive &= ious[i] <= iou_thr
    return keep


def check_nms(seed, iou_thr):
    """model.nms on clustered boxes must keep exactly what the reference keeps."""
    boxes, scores = clustered_boxes(seed)
    want = reference_nms(boxes, scores, iou_thr)
    if len(want) > len(scores) // 2:
        return [f"reference kept {len(want)} of {len(scores)} boxes; the clusters are too loose"]
    got = [int(i) for i in model.nms(boxes, scores, iou_thr)]
    if got != want:
        return [f"kept {len(got)} boxes {got[:8]}..., reference kept {len(want)} {want[:8]}..."]
    return []


def _detect_round(seed, clock, digests):
    clock.begin_setup()
    cfg = RunConfig()
    raw, index = dataio.gen_synthetic(synthetic(seed, cfg.model.image_size))
    images = dataio.normalize_images(raw)
    detector = train.detector_from_config(cfg, np.random.default_rng(seed))
    ids = [im.id for im in index.images]
    detector.predict(images[:DETECT_BATCH], image_ids=ids[:DETECT_BATCH])
    clock.end_setup()

    n_batches = len(images) // DETECT_BATCH
    b = 0
    while True:
        chunk = slice(b * DETECT_BATCH, (b + 1) * DETECT_BATCH)
        clock.begin_op()
        dets = detector.predict(images[chunk], image_ids=ids[chunk])
        op = clock.end_op()
        problems, digest = check_detections(dets, detector.score_thr, detector.nms_iou)
        for problem in problems:
            clock.fail(f"batch op {op}: {problem}", op=op)
        if digests.setdefault(b, digest) != digest:
            clock.fail(f"batch op {op}: detections differ from an earlier pass", op=op)
        if clock.round_over():
            return detector.nms_iou
        b = (b + 1) % n_batches


# -- evaluate / breakdown ---------------------------------------------------


def _jitter(rng, boxes, quality, size):
    """Shift each edge by noise proportional to box size; lower quality, more noise."""
    wh = np.concatenate([boxes[:, 2:] - boxes[:, :2]] * 2, axis=1)
    sigma = ((1.0 - quality) / 3.0)[:, None]
    out = np.clip(boxes + rng.normal(0.0, 1.0, boxes.shape) * sigma * wh, 0.0, size)
    out[:, 2] = np.maximum(out[:, 2], out[:, 0] + 1.0)
    out[:, 3] = np.maximum(out[:, 3], out[:, 1] + 1.0)
    return out


def synth_detections(index, seed, size=EVAL_IMAGE_SIZE, per_image=EVAL_DETS_PER_IMAGE):
    """About 250 scored detections per image, drawn from the seed.

    Per GT: a jittered true positive over a spread of IoUs (15 % are missed),
    0-3 lower-scored duplicates and one wrong-class copy (the Sim/Oth stages).
    The rest are background boxes split 50/30/20 % over the classes in a
    per-image random order, so that one (image, category) group per image
    exceeds max_dets = 100. The split is fixed so that the work per call
    varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 1])
    num_classes = len(index.categories)
    gts = {}
    for ann in index.annotations:
        gts.setdefault(ann.image_id, []).append(ann)
    rows = []  # (image_id, category_id, score, x1, y1, x2, y2)
    for im in index.images:
        anns = gts.get(im.id, [])
        boxes = np.array([a.box for a in anns], dtype=np.float64).reshape(-1, 4)
        cats = np.array([a.category_id for a in anns], dtype=np.int64)
        n = len(anns)
        hit = rng.random(n) >= 0.15
        parts = [(cats[hit], rng.uniform(0.3, 1.0, hit.sum()),
                  _jitter(rng, boxes[hit], rng.uniform(0.35, 0.98, hit.sum()), size))]
        dup = np.repeat(np.arange(n), rng.integers(0, 4, n))
        parts.append((cats[dup], rng.uniform(0.05, 0.8, len(dup)),
                      _jitter(rng, boxes[dup], rng.uniform(0.3, 0.9, len(dup)), size)))
        wrong = (cats - 1 + rng.integers(1, num_classes, n)) % num_classes + 1
        parts.append((wrong, rng.uniform(0.1, 0.9, n),
                      _jitter(rng, boxes, rng.uniform(0.5, 0.95, n), size)))
        n_bg = per_image - sum(len(c) for c, _, _ in parts)
        xy = rng.uniform(0.0, size - 8.0, (n_bg, 2))
        wh = rng.uniform(4.0, 110.0, (n_bg, 2))
        bg = np.concatenate([xy, np.minimum(xy + wh, size)], axis=1)
        shares = np.cumsum(BACKGROUND_SPLIT[:num_classes]) / sum(BACKGROUND_SPLIT[:num_classes])
        bg_cats = rng.permutation(num_classes)[np.searchsorted(shares * n_bg, np.arange(n_bg),
                                                               side="right")] + 1
        parts.append((bg_cats, rng.beta(1.5, 5.0, n_bg), bg))
        for c, s, b in parts:
            rows.extend(zip([im.id] * len(c), c.tolist(), s.tolist(), b.tolist()))
    return [Detection(image_id=i, category_id=c, score=s, box=tuple(b)) for i, c, s, b in rows]


def _strata(index):
    """(category, bucket) pairs that hold ground truth, from the raw GT areas."""
    populated = set()
    for ann in index.annotations:
        x1, y1, x2, y2 = ann.box
        area = (x2 - x1) * (y2 - y1)
        bucket = "small" if area < SMALL_MAX_AREA else "medium" if area < MEDIUM_MAX_AREA \
            else "large"
        populated |= {(ann.category_id, "all"), (ann.category_id, bucket)}
    return populated


def check_identity_report(index, report):
    """GTs fed back as score-1.0 detections: 1.0 where GTs exist, -1.0 elsewhere."""
    populated = _strata(index)
    problems = []
    for cat in (c.id for c in index.categories):
        row = report.per_class[cat]
        for bucket in ("all", "small", "medium", "large"):
            want = 1.0 if (cat, bucket) in populated else -1.0
            suffix = "" if bucket == "all" else f"_{bucket}"
            for key in (f"ap{suffix}", f"ar{suffix}"):
                if row[key] != want:
                    problems.append(f"class {cat} {key} = {row[key]}, expected {want}")
        want = 1.0 if (cat, "all") in populated else -1.0
        for key in ("ap50", "ap75"):
            if row[key] != want:
                problems.append(f"class {cat} {key} = {row[key]}, expected {want}")
    return problems


def check_stage_order(aps):
    """C75 <= C50 <= Loc <= Sim <= Oth <= BG <= FN = 1.0."""
    values = [aps[s] for s in evaluator.ERROR_STAGES]
    problems = []
    if any(a > b for a, b in zip(values, values[1:])):
        problems.append(f"stage APs not monotone: {values}")
    if aps["FN"] != 1.0:
        problems.append(f"FN stage AP {aps['FN']} != 1.0")
    return problems


def run_evaluate(seed, clock: Clock):
    """One op: evaluator.evaluate, then evaluator.error_breakdown, on one split
    of 2 images (of 200, 256-px GTs, 250 detections each). Splits are taken
    in turn; every report of a split must equal that split's first report."""
    firsts = {}
    for _ in clock.rounds():
        index = _evaluate_round(seed, clock, firsts)

    identity = [Detection(image_id=a.image_id, category_id=a.category_id, score=1.0, box=a.box)
                for a in index.annotations]
    for problem in check_identity_report(index, evaluator.evaluate(index, identity)):
        clock.fail(f"identity evaluate: {problem}")
    aps = evaluator.error_breakdown(index, identity).aps
    if any(v != 1.0 for v in aps.values()):
        clock.fail(f"identity error_breakdown: stage APs {aps}, expected all 1.0")
    return EVAL_SPLIT_IMAGES


def _splits(index, dets):
    """(sub-index, its detections) for consecutive runs of EVAL_SPLIT_IMAGES images."""
    by_image = {}
    for d in dets:
        by_image.setdefault(d.image_id, []).append(d)
    splits = []
    for start in range(0, len(index.images), EVAL_SPLIT_IMAGES):
        images = index.images[start:start + EVAL_SPLIT_IMAGES]
        ids = {im.id for im in images}
        sub = dataio.DatasetIndex(images=images, categories=index.categories,
                                  annotations=[a for a in index.annotations if a.image_id in ids])
        splits.append((sub, [d for im in images for d in by_image.get(im.id, [])]))
    return splits


def _evaluate_round(seed, clock, firsts):
    clock.begin_setup()
    # Three GTs per image instead of 2-4: the matching work then varies
    # little from seed to seed, so run-to-run spread measures the machine.
    _, index = dataio.gen_synthetic(synthetic(seed, EVAL_IMAGE_SIZE, shapes=(3, 3)))
    clock.end_setup()
    # The benchmark's own detection synthesis is not the program's set-up.
    splits = _splits(index, synth_detections(index, seed))

    k = 0
    while True:
        sub, dets = splits[k]
        clock.begin_op()
        t0 = time.perf_counter()
        report = evaluator.evaluate(sub, dets)
        t1 = time.perf_counter()
        breakdown = evaluator.error_breakdown(sub, dets)
        t2 = time.perf_counter()
        op = clock.end_op()
        clock.note("evaluate_s", t1 - t0)
        clock.note("error_breakdown_s", t2 - t1)
        result = (report.to_dict(), breakdown.to_dict())
        if k not in firsts:
            firsts[k] = result
            for problem in check_stage_order(breakdown.aps):
                clock.fail(f"split {k} error_breakdown: {problem}", op=op)
        elif result != firsts[k]:
            clock.fail(f"op {op}: split {k} reports differ from its first ones", op=op)
        if clock.round_over():
            return index
        k = (k + 1) % len(splits)


WORKLOADS = {
    "train": run_train,
    "detect": run_detect,
    "evaluate": run_evaluate,
}
