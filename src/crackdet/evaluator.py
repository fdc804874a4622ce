"""COCO-style detection evaluation with error-type decomposition.

AP averages 101-point-interpolated precision over ten IoU thresholds
(0.50:0.05:0.95); results stratify by class and by ground-truth size bucket,
with -1.0 marking any (class, bucket) stratum that holds no ground truths.
The error decomposition produces the seven progressively forgiving PR curves
(C75, C50, Loc, Sim, Oth, BG, FN) used to apportion detection failures.

Both reports share one grouping by (image, category), with images and
categories coded by their position in the index, never by comparing ids; each
image's one IoU matrix serves its groups' matching and the Sim/Oth flags.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CrackdetError
from .geometry import SIZE_RANGES, iou_matrix

SENTINEL = -1.0

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)

AREA_RANGES = {"all": (0.0, np.inf), **SIZE_RANGES}

ERROR_STAGES = ("C75", "C50", "Loc", "Sim", "Oth", "BG", "FN")


@dataclass
class EvalConfig:
    """The evaluator's one setting, the config's ``eval`` section: the best
    ``max_dets`` detections of each (image, category) count."""

    max_dets: int = 100

    def __post_init__(self):
        if self.max_dets < 1:
            raise ConfigError(f"max_dets must be >= 1, got {self.max_dets}")


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

    def to_dict(self):
        return {
            "aps": self.aps,
            "per_class_aps": self.per_class_aps,
            "curves": {k: list(v) for k, v in self.curves.items()},
            "recall_grid": list(RECALL_GRID),
        }

    def to_csv(self) -> str:
        header = "recall," + ",".join(ERROR_STAGES)
        lines = [header]
        for i, r in enumerate(RECALL_GRID):
            cells = [f"{r:.2f}"] + [f"{self.curves[s][i]:.6f}" for s in ERROR_STAGES]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def match_detections(det_boxes, det_scores, gt_boxes, iou_thr, gt_ignore=None, ious=None):
    """Greedy per-image, per-class matching at one IoU threshold or several.

    Detections must arrive sorted by descending score. Each detection takes
    the unmatched ground truth of highest IoU >= iou_thr (inclusive),
    preferring non-ignored ground truths; among equal IoUs the ground truth
    that comes last in input order within its preference segment wins. A
    detection whose only match is ignored is itself ignored. ``ious`` is the
    (n_det, n_gt) IoU matrix, if the caller holds it.

    A scalar ``iou_thr`` returns 1-D (tp flags, det_ignore flags, gt_matched
    flags). A sequence of T thresholds returns (T, n) arrays, one row per
    threshold, from a single walk that keeps a (T, n_gt) matched mask and
    visits only the detections whose best IoU reaches the smallest threshold:
    no other detection can match at any of them. ``gt_ignore`` is (n_gt,),
    shared by every row, or (T, n_gt), one set of flags per row.
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
        # Columns by descending index, so argmax's first hit among equal IoUs
        # is the last GT. Each row searches its non-ignored GTs, then its
        # ignored ones; a segment empty in every row is skipped.
        ignored = np.broadcast_to(gt_ignore, (n_thr, n_gt))[:, ::-1]
        segments = [(None if mask.all() else mask, flags)
                    for mask, flags in ((~ignored, tp), (ignored, det_ignore)) if mask.any()]
        rev = ious[:, ::-1]
        free = np.ones((n_thr, n_gt), dtype=bool)
        rows = np.arange(n_thr)
        for d in np.flatnonzero(ious.max(axis=1) >= thrs.min()):
            open_ = free & (rev[d] >= thrs)
            hit = np.zeros(n_thr, dtype=bool)
            for mask, flags in segments:
                # -1 marks a GT taken, below the threshold or outside the segment.
                cand = np.where(open_ if mask is None else open_ & mask, rev[d], -1.0)
                j = cand.argmax(axis=1)
                take = ~hit & (cand[rows, j] >= 0.0)
                free[rows[take], j[take]] = False
                flags[take, d] = True
                hit |= take
        gt_matched[:, ::-1] = ~free
    if scalar:
        return tp[0], det_ignore[0], gt_matched[0]
    return tp, det_ignore, gt_matched


def compute_ap(tp, det_ignore, num_gt, recall_grid=RECALL_GRID):
    """101-point interpolated AP from score-ordered TP flags; -1.0 if no GTs."""
    curves = _pr_curves(np.asarray(tp, dtype=bool).reshape(1, -1),
                        np.asarray(det_ignore, dtype=bool).reshape(1, -1), num_gt, recall_grid)
    return SENTINEL if curves is None else float(curves[0].mean())


def _pr_curves(tp, det_ignore, num_gt, grid):
    """Interpolated precision at each recall in ``grid`` for every row of an
    (S, n) block of score-ordered flags: (S, len(grid)), or None if no GTs.
    ``num_gt`` is one GT count or one per row; a row with none is all zeros.

    An ignored detection gets precision 0 and repeats the recall of the kept
    detection before it (0 if none), so it never raises the right-to-left
    envelope and a recall search lands on it only at recall 0, where the
    envelope already equals that of the first kept detection: each row is
    exactly the curve of its kept detections alone. A row with no kept
    detection is all zeros.
    """
    num_gt = np.broadcast_to(num_gt, len(tp))[:, None]
    if not num_gt.any():
        return None
    kept = ~det_ignore
    ctp = np.cumsum(tp & kept, axis=1)
    cfp = np.cumsum(~tp & kept, axis=1)
    precision = np.divide(ctp, ctp + cfp, out=np.zeros(ctp.shape), where=kept)
    recall = np.divide(ctp, num_gt, out=np.zeros(ctp.shape), where=num_gt > 0)
    # A trailing 0 for recalls never reached and for rows with no GTs.
    envelope = np.zeros((len(tp), ctp.shape[1] + 1))
    envelope[:, :-1] = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    idx = np.full((len(tp), len(grid)), ctp.shape[1])
    for row in np.flatnonzero(num_gt):
        idx[row] = np.searchsorted(recall[row], grid, side="left")
    return np.take_along_axis(envelope, idx, axis=1)


@dataclass
class _Group:
    """One (image, category) matching unit: detections in score order and
    their block of the image's IoU matrix."""

    det_scores: np.ndarray
    det_order: np.ndarray
    det_boxes: np.ndarray
    gt_boxes: np.ndarray
    gt_areas: np.ndarray
    ious: np.ndarray

    def match(self, thresholds, gt_ignore):
        """(tp, det_ignore, num_gt) of this group: (T, n_det) flags, one row
        per IoU threshold, and the GTs not ignored, per row if ``gt_ignore``
        is (T, n_gt)."""
        tp, det_ignore, _ = match_detections(self.det_boxes, self.det_scores, self.gt_boxes,
                                             thresholds, gt_ignore, ious=self.ious)
        return tp, det_ignore, np.count_nonzero(~gt_ignore, axis=-1)


def _collect_groups(index, detections, cfg):
    """Each category's groups in image order, keyed by category id in
    ``index.categories`` order; and, per detection in input order, whether it
    overlaps a GT of another class at IoU >= 0.1.

    One stable lexsort orders the detections by (image, category, descending
    score), ties in input order, and one the GTs by (image, category); each
    group keeps its ``cfg.max_dets`` best detections. Each image's IoU matrix
    gives the groups' ``ious`` (its same-category blocks) and the flags (its
    other-category entries). GTs of an unlisted category join no group but
    count as another class; GTs on unlisted images, where no detection can
    be, share one position after the listed images.
    """
    cat_ids = [c.id for c in index.categories]
    cat_pos = {cat: k for k, cat in enumerate(cat_ids)}
    img_pos = {im.id: k for k, im in enumerate(index.images)}
    d_imgs, d_cats, d_scores, d_boxes = zip(*detections) if detections else ((),) * 4
    if not (cat_pos.keys() >= set(d_cats) and img_pos.keys() >= set(d_imgs)):
        for det in detections:
            if det.category_id not in cat_pos:
                raise CrackdetError(f"unknown category id {det.category_id} in detections")
            if det.image_id not in img_pos:
                raise CrackdetError(f"unknown image id {det.image_id} in detections")

    # Columns: image, category, score, box (detections); image, category, box (GTs).
    d = np.column_stack(([img_pos[i] for i in d_imgs], [cat_pos[c] for c in d_cats],
                         np.asarray(d_scores, dtype=np.float64),
                         np.asarray(d_boxes, dtype=np.float64).reshape(-1, 4)))
    g = np.array([(img_pos.get(a.image_id, len(index.images)), cat_pos.get(a.category_id, -1),
                   *a.box) for a in index.annotations], dtype=np.float64).reshape(-1, 6)
    d_order = np.lexsort((-d[:, 2], d[:, 1], d[:, 0]))
    d, g = d[d_order], g[np.lexsort((g[:, 1], g[:, 0]))]
    areas = (g[:, 4] - g[:, 2]) * (g[:, 5] - g[:, 3])

    spans = [np.searchsorted(side[:, 0], np.arange(len(index.images) + 1), how)
             for side in (d, g) for how in ("left", "right")]
    busy = (spans[1] > spans[0]) | (spans[3] > spans[2])  # images with detections or GTs
    edges = np.arange(len(cat_ids) + 1)
    groups = {cat: [] for cat in cat_ids}
    cross = np.zeros(len(d), dtype=bool)
    for d0, d1, g0, g1 in zip(*(s[busy].tolist() for s in spans)):
        ious = (iou_matrix(d[d0:d1, 3:], g[g0:g1, 2:]) if d1 > d0 and g1 > g0
                else np.zeros((d1 - d0, g1 - g0)))
        other = d[d0:d1, 1, None] != g[None, g0:g1, 1]
        cross[d_order[d0:d1]] = ((ious >= 0.1) & other).any(axis=1)
        rows = (d0 + np.searchsorted(d[d0:d1, 1], edges)).tolist()
        cols = (g0 + np.searchsorted(g[g0:g1, 1], edges)).tolist()
        for k, cat in enumerate(cat_ids):
            r0, r1, c0, c1 = rows[k], min(rows[k + 1], rows[k] + cfg.max_dets), cols[k], cols[k + 1]
            if r0 == r1 and c0 == c1:
                continue
            groups[cat].append(_Group(det_scores=d[r0:r1, 2], det_order=d_order[r0:r1],
                                      det_boxes=d[r0:r1, 3:], gt_boxes=g[c0:c1, 2:],
                                      gt_areas=areas[c0:c1],
                                      ious=ious[r0 - d0:r1 - d0, c0 - g0:c1 - g0]))
    return groups, cross


def _score_rank(groups):
    """Order of one category's pooled detections: score, then input order."""
    if not groups:
        return np.zeros(0, dtype=np.int64)
    scores = np.concatenate([g.det_scores for g in groups])
    orders = np.concatenate([g.det_order for g in groups])
    return np.lexsort((orders, -scores))


def _pool(rows, rank):
    """Concatenate per-group (tp, det_ignore, num_gt) rows along the detection
    axis, in ``rank`` order, and sum the GT counts (one per row, or one)."""
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
    groups, _ = _collect_groups(index, detections, cfg)

    # One row per (size stratum, IoU threshold), strata in AREA_RANGES order.
    n_thr = len(IOU_THRESHOLDS)
    thresholds = np.tile(IOU_THRESHOLDS, len(AREA_RANGES))
    lo, hi = (np.repeat(bounds, n_thr)[:, None] for bounds in zip(*AREA_RANGES.values()))
    names = {c.id: c.name for c in index.categories}
    per_class = {}
    for cat, cat_groups in groups.items():
        tp, ign, num_gt = _pool([g.match(thresholds, (g.gt_areas < lo) | (g.gt_areas >= hi))
                                 for g in cat_groups], _score_rank(cat_groups))
        curves = _pr_curves(tp, ign, num_gt, RECALL_GRID)
        aps, recalls = {}, {}
        for b, bucket in enumerate(AREA_RANGES):
            rows = slice(b * n_thr, (b + 1) * n_thr)
            if curves is None or not num_gt[rows.start]:
                aps[bucket] = recalls[bucket] = [SENTINEL] * n_thr
            else:
                aps[bucket] = curves[rows].mean(axis=1).tolist()
                recalls[bucket] = (tp[rows].sum(axis=1) / num_gt[rows]).tolist()

        per_class[cat] = {
            "name": names[cat],
            "ap": _aggregate(aps["all"]),
            "ap50": aps["all"][IOU_THRESHOLDS.index(0.5)],
            "ap75": aps["all"][IOU_THRESHOLDS.index(0.75)],
            "ap_small": _aggregate(aps["small"]),
            "ap_medium": _aggregate(aps["medium"]),
            "ap_large": _aggregate(aps["large"]),
            "ar": _aggregate(recalls["all"]),
            "ar_small": _aggregate(recalls["small"]),
            "ar_medium": _aggregate(recalls["medium"]),
            "ar_large": _aggregate(recalls["large"]),
        }

    aggregate = {k: _aggregate([row[k] for row in per_class.values()]) for k in METRIC_KEYS}
    return EvalReport(per_class=per_class, aggregate=aggregate)


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
    groups, cross = _collect_groups(index, detections, cfg)

    by_cat = {}
    for cat, cat_groups in groups.items():
        rows = []
        for g in cat_groups:
            tp, ign, n = g.match((0.10, 0.50, 0.75), np.zeros(len(g.gt_boxes), dtype=bool))
            loc_tp, loc_ign = tp[0], ign[0]
            sim_ign = loc_ign | (~loc_tp & ~loc_ign & cross[g.det_order])
            # Block rows: C75, C50, Loc, Sim, BG.
            rows.append((np.stack([tp[2], tp[1], loc_tp, loc_tp, loc_tp]),
                         np.stack([ign[2], ign[1], loc_ign, sim_ign, loc_ign | ~loc_tp]), n))
        block = _pr_curves(*_pool(rows, _score_rank(cat_groups)), RECALL_GRID)
        if block is not None:
            # Oth repeats Sim; FN pins every category with GTs at 1.0.
            by_cat[cat] = np.vstack([block[[0, 1, 2, 3, 3, 4]], np.ones_like(RECALL_GRID)])

    mean_curves = (np.mean(list(by_cat.values()), axis=0) if by_cat
                   else np.zeros((len(ERROR_STAGES), len(RECALL_GRID))))
    stage_aps = {c: block.mean(axis=1).tolist() for c, block in by_cat.items()}
    aps, per_class_aps, curves = {}, {}, {}
    for s, stage in enumerate(ERROR_STAGES):
        per_class_aps[stage] = {c: stage_aps[c][s] if c in by_cat else SENTINEL
                                for c in groups}
        aps[stage] = _aggregate(per_class_aps[stage].values())
        curves[stage] = mean_curves[s]
    return ErrorBreakdown(aps=aps, per_class_aps=per_class_aps, curves=curves)
