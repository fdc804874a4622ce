"""COCO-style detection evaluation with error-type decomposition.

AP averages 101-point-interpolated precision over ten IoU thresholds
(0.50:0.05:0.95); results stratify by class and by ground-truth size bucket,
with -1.0 marking any (class, bucket) stratum that holds no ground truths.
The error decomposition produces the seven progressively forgiving PR curves
(C75, C50, Loc, Sim, Oth, BG, FN) used to apportion detection failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CrackdetError
from .geometry import MEDIUM_MAX_AREA, SMALL_MAX_AREA, iou_matrix

SENTINEL = -1.0

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)

AREA_RANGES = {
    "all": (0.0, np.inf),
    "small": (0.0, SMALL_MAX_AREA),
    "medium": (SMALL_MAX_AREA, MEDIUM_MAX_AREA),
    "large": (MEDIUM_MAX_AREA, np.inf),
}

ERROR_STAGES = ("C75", "C50", "Loc", "Sim", "Oth", "BG", "FN")


@dataclass
class EvalConfig:
    iou_thresholds: tuple = IOU_THRESHOLDS
    recall_points: int = 101
    max_dets: int = 100

    def __post_init__(self):
        if len(self.iou_thresholds) == 0:
            raise ConfigError("iou_thresholds must list at least one threshold")
        if not all(0.0 < t <= 1.0 for t in self.iou_thresholds):
            raise ConfigError(f"iou_thresholds must lie in (0, 1], "
                              f"got {tuple(self.iou_thresholds)}")
        if list(self.iou_thresholds) != sorted(self.iou_thresholds):
            raise CrackdetError("iou thresholds must be sorted ascending")
        if self.recall_points < 2:
            raise CrackdetError("recall grid needs at least two points")
        if self.max_dets < 1:
            raise ConfigError(f"max_dets must be >= 1, got {self.max_dets}")

    def recall_grid(self):
        return np.linspace(0.0, 1.0, self.recall_points)


METRIC_KEYS = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large",
               "ar", "ar_small", "ar_medium", "ar_large")


@dataclass
class EvalReport:
    per_class: dict
    aggregate: dict

    def to_dict(self):
        return {"per_class": self.per_class, "aggregate": self.aggregate}

    def to_table(self) -> str:
        rows = [(info["name"], info) for info in self.per_class.values()]
        rows.append(("ALL", self.aggregate))
        label_w = max(12, max(len(label) for label, _ in rows) + 2)
        header = ["class"] + list(METRIC_KEYS)
        widths = [label_w] + [max(10, len(n) + 2) for n in METRIC_KEYS]
        lines = ["".join(n.ljust(w) for n, w in zip(header, widths))]
        for label, info in rows:
            cells = [label] + [f"{info[k]:.3f}" for k in METRIC_KEYS]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


@dataclass
class ErrorBreakdown:
    """Aggregate and per-class APs plus 101-point precision curves per stage."""

    aps: dict
    per_class_aps: dict
    curves: dict
    recall_grid: np.ndarray = field(default_factory=lambda: RECALL_GRID.copy())

    def to_dict(self):
        return {
            "aps": self.aps,
            "per_class_aps": self.per_class_aps,
            "curves": {k: list(v) for k, v in self.curves.items()},
            "recall_grid": list(self.recall_grid),
        }

    def to_csv(self) -> str:
        header = "recall," + ",".join(ERROR_STAGES)
        lines = [header]
        for i, r in enumerate(self.recall_grid):
            cells = [f"{r:.2f}"] + [f"{self.curves[s][i]:.6f}" for s in ERROR_STAGES]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def match_detections(det_boxes, det_scores, gt_boxes, iou_thr, gt_ignore=None, ious=None):
    """Greedy per-image, per-class matching at one IoU threshold or several.

    Detections must arrive sorted by descending score. Each detection takes
    the unmatched ground truth of highest IoU >= iou_thr (inclusive),
    preferring non-ignored ground truths; among equal IoUs the ground truth
    that comes last in that preference order (non-ignored, then ignored, each
    in input order) wins. A detection whose only match is ignored is itself
    ignored. ``ious`` is the (n_det, n_gt) IoU matrix, if the caller holds it.

    A scalar ``iou_thr`` returns 1-D (tp flags, det_ignore flags, gt_matched
    flags). A sequence of T thresholds returns (T, n) arrays, one row per
    threshold, from a single walk that keeps a (T, n_gt) matched mask and
    visits only the detections whose best IoU reaches the smallest threshold:
    no other detection can match at any of them.
    """
    det_boxes = np.asarray(det_boxes, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    n_det, n_gt = len(det_boxes), len(gt_boxes)
    gt_ignore = np.zeros(n_gt, dtype=bool) if gt_ignore is None else np.asarray(gt_ignore, dtype=bool)
    thrs = np.asarray(iou_thr, dtype=np.float64)
    scalar = thrs.ndim == 0
    thrs = thrs.reshape(-1, 1)
    n_thr = len(thrs)

    tp = np.zeros((n_thr, n_det), dtype=bool)
    det_ignore = np.zeros((n_thr, n_det), dtype=bool)
    gt_matched = np.zeros((n_thr, n_gt), dtype=bool)
    if n_det and n_gt and n_thr:
        if ious is None:
            ious = iou_matrix(det_boxes, gt_boxes)
        # Columns in reversed preference order: ignored GTs, then non-ignored,
        # each by descending index, so argmax's first hit within a segment is
        # the last GT of that segment among equal IoUs.
        cols = np.argsort(gt_ignore, kind="stable")[::-1]
        n_ign = int(gt_ignore.sum())
        rev = ious[:, cols]
        free = np.ones((n_thr, n_gt), dtype=bool)
        rows = np.arange(n_thr)
        for d in np.flatnonzero(ious.max(axis=1) >= thrs.min()):
            # -1 marks a GT that is taken or below the threshold; IoUs are >= 0.
            cand = np.where(free & (rev[d] >= thrs), rev[d], -1.0)
            hit = np.zeros(n_thr, dtype=bool)
            for lo, hi, flags in ((n_ign, n_gt, tp), (0, n_ign, det_ignore)):
                if lo == hi:
                    continue
                j = lo + cand[:, lo:hi].argmax(axis=1)
                take = ~hit & (cand[rows, j] >= 0.0)
                free[rows[take], j[take]] = False
                flags[take, d] = True
                hit |= take
        gt_matched[:, cols] = ~free
    if scalar:
        return tp[0], det_ignore[0], gt_matched[0]
    return tp, det_ignore, gt_matched


def compute_ap(tp, det_ignore, num_gt, recall_grid=RECALL_GRID):
    """101-point interpolated AP from score-ordered TP flags; -1.0 if no GTs."""
    curve = _pr_curve(tp, det_ignore, num_gt, recall_grid)
    return SENTINEL if curve is None else float(curve.mean())


def _pr_curve(tp, det_ignore, num_gt, grid):
    """Interpolated precision at each recall in ``grid``; None if no GTs.

    Ignored detections drop out of the ranking; with no kept detection the
    curve is all zeros.
    """
    if num_gt == 0:
        return None
    flags = np.asarray(tp, dtype=bool)[~np.asarray(det_ignore, dtype=bool)]
    if len(flags) == 0:
        return np.zeros_like(grid)
    ctp = np.cumsum(flags)
    cfp = np.cumsum(~flags)
    return _interp_precision(ctp / num_gt, ctp / (ctp + cfp), grid)


def _interp_precision(recall, precision, grid):
    """Right-to-left precision envelope sampled at the recall grid."""
    prec = np.maximum.accumulate(np.asarray(precision, dtype=np.float64)[::-1])[::-1]
    idx = np.searchsorted(recall, grid, side="left")
    out = np.zeros_like(grid)
    valid = idx < len(prec)
    out[valid] = prec[idx[valid]]
    return out


@dataclass
class _Group:
    """One (image, category) matching unit; detections in score order, with
    their IoU against the GTs computed once."""

    det_scores: np.ndarray
    det_order: np.ndarray
    det_boxes: np.ndarray
    gt_boxes: np.ndarray
    gt_areas: np.ndarray
    ious: np.ndarray

    def match(self, thresholds, gt_ignore):
        """(tp, det_ignore, num_gt) of this group: (T, n_det) flags, one row
        per IoU threshold."""
        tp, det_ignore, _ = match_detections(self.det_boxes, self.det_scores, self.gt_boxes,
                                             thresholds, gt_ignore, ious=self.ious)
        return tp, det_ignore, int((~gt_ignore).sum())


def _collect_groups(index, detections, cfg):
    """Category ids, and each category's groups in image order.

    Each group keeps its ``cfg.max_dets`` best detections; ties in score keep
    input order.
    """
    cat_ids = [c.id for c in index.categories]
    cat_set = set(cat_ids)
    image_set = {im.id for im in index.images}
    for det in detections:
        if det.category_id not in cat_set:
            raise CrackdetError(f"unknown category id {det.category_id} in detections")
        if det.image_id not in image_set:
            raise CrackdetError(f"unknown image id {det.image_id} in detections")

    gts = {}
    for ann in index.annotations:
        gts.setdefault((ann.image_id, ann.category_id), []).append(ann.box)
    dets = {}
    for i, det in enumerate(detections):
        dets.setdefault((det.image_id, det.category_id), []).append((det.score, i, det.box))

    groups = {cat: [] for cat in cat_ids}
    for key in sorted(set(gts) | set(dets)):
        if key[1] not in groups:
            continue
        rows = sorted(dets.get(key, ()), key=lambda r: (-r[0], r[1]))[:cfg.max_dets]
        det_boxes = np.array([r[2] for r in rows], dtype=np.float64).reshape(-1, 4)
        gt_boxes = np.array(gts.get(key, ()), dtype=np.float64).reshape(-1, 4)
        groups[key[1]].append(_Group(
            det_scores=np.array([r[0] for r in rows], dtype=np.float64),
            det_order=np.array([r[1] for r in rows], dtype=np.int64),
            det_boxes=det_boxes,
            gt_boxes=gt_boxes,
            gt_areas=(gt_boxes[:, 2] - gt_boxes[:, 0]) * (gt_boxes[:, 3] - gt_boxes[:, 1]),
            ious=(iou_matrix(det_boxes, gt_boxes) if len(det_boxes) and len(gt_boxes)
                  else np.zeros((len(det_boxes), len(gt_boxes)))),
        ))
    return cat_ids, groups


def _score_rank(groups):
    """Order of one category's pooled detections: score, then input order."""
    if not groups:
        return np.zeros(0, dtype=np.int64)
    scores = np.concatenate([g.det_scores for g in groups])
    orders = np.concatenate([g.det_order for g in groups])
    return np.lexsort((orders, -scores))


def _pool(rows, rank):
    """Concatenate per-group (tp, det_ignore, num_gt) rows along the detection
    axis, in ``rank`` order."""
    if not rows:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool), 0
    tps, igns, counts = zip(*rows)
    return (np.concatenate(tps, axis=-1)[..., rank], np.concatenate(igns, axis=-1)[..., rank],
            sum(counts))


def _aggregate(values):
    live = [v for v in values if v != SENTINEL]
    return float(np.mean(live)) if live else SENTINEL


def evaluate(index, detections, cfg: EvalConfig | None = None) -> EvalReport:
    """Full per-class and aggregate AP/AR report for a dataset's detections."""
    cfg = cfg or EvalConfig()
    cat_ids, groups = _collect_groups(index, detections, cfg)
    thresholds = tuple(cfg.iou_thresholds)
    grid = cfg.recall_grid()

    names = {c.id: c.name for c in index.categories}
    per_class = {}
    for cat in cat_ids:
        cat_groups = groups[cat]
        rank = _score_rank(cat_groups)
        aps = {}
        recalls = {}
        for bucket, (lo, hi) in AREA_RANGES.items():
            ignores = [(g.gt_areas < lo) | (g.gt_areas >= hi) for g in cat_groups]
            tp, ign, num_gt = _pool([g.match(thresholds, ignore)
                                     for g, ignore in zip(cat_groups, ignores)], rank)
            if num_gt == 0:
                aps[bucket] = recalls[bucket] = [SENTINEL] * len(thresholds)
                continue
            aps[bucket] = [compute_ap(tp[t], ign[t], num_gt, grid)
                           for t in range(len(thresholds))]
            recalls[bucket] = [float(tp[t].sum()) / num_gt for t in range(len(thresholds))]

        def mean_ap(bucket):
            return _aggregate(aps[bucket]) if aps[bucket][0] != SENTINEL else SENTINEL

        def mean_ar(bucket):
            return _aggregate(recalls[bucket]) if recalls[bucket][0] != SENTINEL else SENTINEL

        per_class[cat] = {
            "name": names[cat],
            "ap": mean_ap("all"),
            "ap50": aps["all"][thresholds.index(0.5)] if 0.5 in thresholds else SENTINEL,
            "ap75": aps["all"][thresholds.index(0.75)] if 0.75 in thresholds else SENTINEL,
            "ap_small": mean_ap("small"),
            "ap_medium": mean_ap("medium"),
            "ap_large": mean_ap("large"),
            "ar": mean_ar("all"),
            "ar_small": mean_ar("small"),
            "ar_medium": mean_ar("medium"),
            "ar_large": mean_ar("large"),
        }

    aggregate = {k: _aggregate([per_class[c][k] for c in cat_ids]) for k in METRIC_KEYS}
    return EvalReport(per_class=per_class, aggregate=aggregate)


def _cross_class_overlaps(index, detections, iou_thr=0.1):
    """Bool per detection: it overlaps a GT of another class with IoU >= iou_thr.

    All damage classes share one supercategory, so the Sim and Oth stages use
    the same forgiveness set.
    """
    gts_by_image = {}
    for ann in index.annotations:
        gts_by_image.setdefault(ann.image_id, []).append(ann)
    dets_by_image = {}
    for i, det in enumerate(detections):
        dets_by_image.setdefault(det.image_id, []).append(i)
    out = np.zeros(len(detections), dtype=bool)
    for image_id, idx in dets_by_image.items():
        anns = gts_by_image.get(image_id)
        if not anns:
            continue
        ious = iou_matrix(np.array([detections[i].box for i in idx], dtype=np.float64),
                          np.array([a.box for a in anns], dtype=np.float64))
        other = (np.array([detections[i].category_id for i in idx])[:, None]
                 != np.array([a.category_id for a in anns])[None, :])
        out[idx] = ((ious >= iou_thr) & other).any(axis=1)
    return out


def error_breakdown(index, detections, cfg: EvalConfig | None = None) -> ErrorBreakdown:
    """Seven progressive PR stages; APs are monotone and FN pins at 1.0.

    Every stage matches all GTs of a category with none ignored, in one walk
    per group at IoU 0.1, 0.5 and 0.75. C75 and C50 take the matches at 0.75
    and 0.5. Loc, Sim, Oth and BG share the match at IoU 0.1 and differ only
    in which unmatched detections they ignore: none (Loc), those overlapping
    another class's GT at IoU >= 0.1 (Sim), all of them (BG). Oth forgives
    cross-class confusions outside the supercategory; all damage classes
    share one supercategory, so Oth's set is Sim's and the two stages are one
    result. FN scores every category with GTs at 1.0.
    """
    cfg = cfg or EvalConfig()
    cat_ids, groups = _collect_groups(index, detections, cfg)
    cross = _cross_class_overlaps(index, detections)
    grid = cfg.recall_grid()

    stage_curves = {stage: {} for stage in ERROR_STAGES}
    for cat in cat_ids:
        cat_groups = groups[cat]
        rank = _score_rank(cat_groups)
        matched = [g.match((0.10, 0.50, 0.75), np.zeros(len(g.gt_boxes), dtype=bool))
                   for g in cat_groups]
        loc, c50, c75 = ([(tp[t], ign[t], n) for tp, ign, n in matched] for t in range(3))
        sim = [(tp, ign | (~tp & ~ign & cross[g.det_order]), n)
               for g, (tp, ign, n) in zip(cat_groups, loc)]
        bg = [(tp, ign | ~tp, n) for tp, ign, n in loc]
        for stage, rows in (("C75", c75), ("C50", c50), ("Loc", loc), ("Sim", sim), ("BG", bg)):
            stage_curves[stage][cat] = _pr_curve(*_pool(rows, rank), grid)
        stage_curves["Oth"][cat] = stage_curves["Sim"][cat]
        has_gt = any(n for _, _, n in loc)
        stage_curves["FN"][cat] = np.ones_like(grid) if has_gt else None

    aps, per_class_aps, curves = {}, {}, {}
    for stage in ERROR_STAGES:
        by_cat = stage_curves[stage]
        per_class_aps[stage] = {c: SENTINEL if by_cat[c] is None else float(by_cat[c].mean())
                                for c in cat_ids}
        aps[stage] = _aggregate(per_class_aps[stage].values())
        live = [c for c in cat_ids if by_cat[c] is not None]
        if live:
            curves[stage] = np.mean([by_cat[c] for c in live], axis=0)
        else:
            curves[stage] = np.zeros_like(grid)
    return ErrorBreakdown(aps=aps, per_class_aps=per_class_aps, curves=curves,
                          recall_grid=grid)
