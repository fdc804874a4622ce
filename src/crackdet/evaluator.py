"""COCO-style detection evaluation with error-type decomposition.

AP averages 101-point-interpolated precision over ten IoU thresholds
(0.50:0.05:0.95); results stratify by class and by ground-truth size bucket,
with -1.0 marking any (class, bucket) stratum that holds no ground truths.
The error decomposition produces the seven progressively forgiving PR curves
(C75, C50, Loc, Sim, Oth, BG, FN) used to apportion detection failures.

Both reports share one grouping by (image, category), with images and
categories coded by their position in the index, never by comparing ids; each
image's one IoU matrix serves its groups' matching and the Sim/Oth flags.
Each report matches all its groups in one event-driven batch walk and builds
the PR curves of all its categories in one block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .errors import CrackdetError, check_fields
from .geometry import SIZE_RANGES, iou_matrix

SENTINEL = -1.0

IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
RECALL_GRID = np.linspace(0.0, 1.0, 101)

AREA_RANGES = {"all": (0.0, np.inf), **SIZE_RANGES}

ERROR_STAGES = ("C75", "C50", "Loc", "Sim", "Oth", "BG", "FN")

# Elements (thresholds x groups x candidates x GTs) of one padded block of the
# matching walk, 5 bytes each in its tables: about 1.3 MB.
_MATCH_BLOCK_ELEMENTS = 1 << 18

# evaluate's rows, one per (size stratum, IoU threshold), strata in AREA_RANGES
# order: each row's threshold and its stratum's area bounds.
_ROW_THRESHOLDS = np.tile(IOU_THRESHOLDS, len(AREA_RANGES))
_AREA_LO, _AREA_HI = (np.repeat(bounds, len(IOU_THRESHOLDS))[:, None]
                      for bounds in zip(*AREA_RANGES.values()))


@dataclass
class EvalConfig:
    """The evaluator's one setting, the config's ``eval`` section: the best
    ``max_dets`` detections of each (image, category) count."""

    max_dets: int = 100

    def __post_init__(self):
        check_fields("eval", self, (("max_dets", 1, np.inf, "[)"),))


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


def match_detections(ious, iou_thr, gt_ignore=None):
    """Greedy COCO matching, in one event-driven walk, of a batch of (image,
    category) groups (one group is a batch of one) at each threshold of ``iou_thr``.

    ``ious`` holds one (n_det, n_gt) IoU block per group, detections by
    descending score. In its group each detection takes the free GT of
    highest IoU >= iou_thr (inclusive), preferring non-ignored GTs; among
    equal IoUs the last GT wins. A detection whose only match is ignored is
    itself ignored. The flags (tp, det_ignore, gt_matched) are (T, n) arrays,
    flat over the batch, groups in batch order; ``gt_ignore`` is (n_gt,),
    shared by every row, or (T, n_gt).

    A detection changes a (threshold, group) row only when it takes a GT, so
    each pass moves every row to its next detection that still reaches a free
    GT: passes are bounded by GTs per group, not by detections. Only
    detections whose best IoU reaches the lowest threshold are candidates.
    Groups are padded into size-sorted blocks of at most
    ``_MATCH_BLOCK_ELEMENTS``; a group too large for that walks a few
    thresholds at a time.
    """
    thrs = np.asarray(iou_thr, dtype=np.float64)
    n_thr = len(thrs)
    n_dets, n_gts = [b.shape[0] for b in ious], [b.shape[1] for b in ious]
    d_off, g_off = [0, *accumulate(n_dets)], [0, *accumulate(n_gts)]
    ignore = np.broadcast_to(np.asarray(False if gt_ignore is None else gt_ignore, dtype=bool),
                             (n_thr, g_off[-1]))
    tp, det_ignore = np.zeros((2, n_thr, d_off[-1]), dtype=bool)
    gt_matched = np.zeros((n_thr, g_off[-1]), dtype=bool)
    lowest = thrs.min() if n_thr else np.inf
    cands = [np.flatnonzero(b.max(axis=1) >= lowest) if b.size else () for b in ious]
    for members in _match_blocks([len(c) for c in cands], n_gts, n_thr):
        n_grp = len(members)
        n_cand, n_gt = max(len(cands[k]) for k in members), max(n_gts[k] for k in members)
        iou = np.full((n_grp, n_cand, n_gt), -np.inf)  # padding reaches no threshold
        det_idx = np.zeros((n_grp, n_cand), dtype=np.int64)
        for i, k in enumerate(members):
            iou[i, :len(cands[k]), :n_gts[k]] = ious[k][cands[k]]
            det_idx[i, :len(cands[k])] = cands[k] + d_off[k]
        gt_idx = np.add.outer([g_off[k] for k in members], np.arange(n_gt))
        step = max(1, _MATCH_BLOCK_ELEMENTS // iou.size)  # thresholds per walk
        for t0 in range(0, n_thr, step):
            thr = thrs[t0:t0 + step]
            keep = ~ignore[t0:t0 + step].take(gt_idx, axis=1, mode="clip").reshape(-1, n_gt)
            # nxt[r, c, n], rows r = t * n_grp + g: the first candidate at or after
            # c reaching GT n at threshold t0 + t, n_cand if none or n is taken.
            nxt = np.full((len(thr), n_grp, n_cand + 1, n_gt), n_cand, dtype=np.int32)
            np.copyto(nxt[:, :, :-1], np.arange(n_cand, dtype=np.int32)[:, None],
                      where=iou >= thr[:, None, None, None])
            np.minimum.accumulate(nxt[:, :, -2::-1], axis=2, out=nxt[:, :, -2::-1])
            nxt = nxt.reshape(-1, n_cand + 1, n_gt)
            first, events = nxt[:, 0].copy(), [(np.zeros(0, dtype=np.int64),) * 3]
            event = first.min(axis=1)
            while (live := np.flatnonzero(event < n_cand)).size:
                e = event[live]
                open_ = first[live] == e[:, None]
                pick = open_ & keep[live]
                pick = np.where(pick.any(axis=1, keepdims=True), pick, open_)
                # Reversed columns: argmax's first hit among equal IoUs is the last GT.
                j = n_gt - 1 - np.where(pick, iou[live % n_grp, e], -1.0)[:, ::-1].argmax(axis=1)
                nxt[live, :, j] = n_cand
                first[live] = nxt[live, e + 1]
                events.append((live, e, j))
                event = first.min(axis=1)
            live, e, j = (np.concatenate(x) for x in zip(*events))
            t, g = np.divmod(live, n_grp)
            took = keep[live, j]
            tp[t0 + t, det_idx[g, e]] = took
            det_ignore[t0 + t, det_idx[g, e]] = ~took
            gt_matched[t0 + t, gt_idx[g, j]] = True
    return tp, det_ignore, gt_matched


def _match_blocks(n_cands, n_gts, n_thr):
    """The groups with candidates, smallest first, in lists cut so that each
    padded block holds at most ``_MATCH_BLOCK_ELEMENTS`` or only one group."""
    block, c_max, n_max = [], 0, 0
    for _, k in sorted((c * n, k) for k, (c, n) in enumerate(zip(n_cands, n_gts)) if c):
        c, n = max(c_max, n_cands[k]), max(n_max, n_gts[k])
        if block and n_thr * (len(block) + 1) * c * n > _MATCH_BLOCK_ELEMENTS:
            yield block
            block, c, n = [], n_cands[k], n_gts[k]
        block.append(k)
        c_max, n_max = c, n
    if block:
        yield block


def compute_ap(tp, det_ignore, num_gt):
    """101-point interpolated AP from score-ordered TP flags; -1.0 if no GTs."""
    curves = _pr_curves(np.asarray(tp, dtype=bool).reshape(1, -1),
                        np.asarray(det_ignore, dtype=bool).reshape(1, -1), num_gt)
    return SENTINEL if curves is None else float(curves[0].mean())


def _pr_curves(tp, det_ignore, num_gt):
    """Interpolated precision at each recall of ``RECALL_GRID`` for every row
    of an (S, n) block of score-ordered flags: (S, 101), or None if no GTs.
    ``num_gt`` is one GT count or one per row; a row with none is all zeros
    and skips the work.

    Each row is the curve of its kept detections alone: an ignored one counts
    neither as a TP nor in the precision's denominator. The precision falls
    from a kept TP to each kept FP after it, so the right-to-left envelope at
    a TP is the greatest precision among that TP and the ones after it, and
    only the TPs are visited. A grid recall needing k TPs reads the envelope
    at the k-th (the first at recall 0); one needing more TPs than the row
    has reads 0.
    """
    num_gt = np.broadcast_to(num_gt, len(tp))
    rows = np.flatnonzero(num_gt)
    if not len(rows):
        return None
    kept, n = ~det_ignore[rows], num_gt[rows, None]
    at, col = np.nonzero(tp[rows] & kept)  # the kept TPs, row by row in score order
    rank = np.arange(len(at)) - np.searchsorted(at, at)  # TPs before each in its row
    k = _recall_counts(n)
    envelope = np.zeros((len(rows), max(k.max(), rank.max(initial=0) + 1) + 1))
    envelope[at, rank] = (rank + 1) / np.cumsum(kept, axis=1, dtype=np.int32)[at, col]
    np.maximum.accumulate(envelope[:, ::-1], axis=1, out=envelope[:, ::-1])
    curves = np.zeros((len(num_gt), len(RECALL_GRID)))
    curves[rows] = envelope[np.arange(len(rows))[:, None], np.maximum(k - 1, 0)]
    return curves


def _recall_counts(n):
    """Least TP counts k with k / n >= each grid point, as a recall divides."""
    k = np.ceil(RECALL_GRID * n).astype(np.int64)  # at most one off either way
    k -= (k - 1) / n >= RECALL_GRID
    return k + (k / n < RECALL_GRID)


@dataclass
class _Groups:
    """A report's (image, category) groups, by image, then category: one IoU
    block each, detections in score order. ``slots`` places each detection in
    a (category, column) slab ``width`` columns wide, columns by descending
    score, then input order, and ``det_areas`` holds their box areas;
    ``gt_onehot`` is (n_gt, K), each GT's category."""

    ious: list
    det_order: np.ndarray
    slots: tuple
    width: int
    det_areas: np.ndarray
    gt_areas: np.ndarray
    gt_onehot: np.ndarray

    def slab(self, flags, pad):
        """(R, n_det) flags as a (K * R, width) block, category k's rows
        k * R to (k + 1) * R; ``pad`` fills the columns past its detections."""
        out = np.full((self.gt_onehot.shape[1], len(flags), self.width), pad)
        out[self.slots[0], :, self.slots[1]] = flags.T
        return out.reshape(len(out) * len(flags), self.width)


def _collect_groups(index, detections, cfg):
    """The report's ``_Groups``; and, per detection in input order, whether it
    overlaps a GT of another class at IoU >= 0.1.

    One stable lexsort orders the detections by (category, descending score),
    ties in input order: the slab order. A stable argsort of their image codes
    in that order gives the group order (image, category, descending score,
    input order). Each group keeps the detections ranked below ``cfg.max_dets``
    in its run; a kept detection's slab column is its count of kept ones
    before it in its category's slab order. The GTs are sorted by (image,
    category). Each image's IoU matrix gives the groups' blocks (its
    same-category blocks) and the flags (its other-category entries). GTs of
    an unlisted category join no group but count as another class; GTs on
    unlisted images, where no detection can be, share one position after the
    listed images.
    """
    cat_ids = [c.id for c in index.categories]
    cat_pos = {cat: k for k, cat in enumerate(cat_ids)}
    img_pos = {im.id: k for k, im in enumerate(index.images)}
    d_imgs, d_cats, d_scores, d_boxes = zip(*detections) if detections else ((),) * 4
    if not (cat_pos.keys() >= set(d_cats) and img_pos.keys() >= set(d_imgs)):
        for det in detections:
            if det.category_id not in cat_pos:
                raise CrackdetError(f"unknown category id {det.category_id!r} in detections")
            if det.image_id not in img_pos:
                raise CrackdetError(f"unknown image id {det.image_id!r} in detections")

    d_cat = np.array([cat_pos[c] for c in d_cats], dtype=np.int64)
    d_img = np.array([img_pos[i] for i in d_imgs], dtype=np.int64)
    slab_order = np.lexsort((-np.asarray(d_scores, dtype=np.float64), d_cat))
    by_image = np.argsort(d_img[slab_order], kind="stable")
    d_order = slab_order[by_image]
    d_img, d_cat = d_img[d_order], d_cat[d_order]
    d_box = np.fromiter(chain.from_iterable(d_boxes), np.float64,
                        4 * len(d_boxes)).reshape(-1, 4)[d_order]
    key = d_img * len(cat_ids) + d_cat  # rank in its (image, category) run decides the cut
    kept = np.arange(len(key)) - np.searchsorted(key, key) < cfg.max_dets
    # GT columns: image, category, box.
    g = np.array([(img_pos.get(a.image_id, len(index.images)), cat_pos.get(a.category_id, -1),
                   *a.box) for a in index.annotations], dtype=np.float64).reshape(-1, 6)
    g = g[np.lexsort((g[:, 1], g[:, 0]))]
    areas = (g[:, 4] - g[:, 2]) * (g[:, 5] - g[:, 3])

    spans = [np.searchsorted(side, np.arange(len(index.images) + 1), how)
             for side in (d_img, g[:, 0]) for how in ("left", "right")]
    busy = (spans[1] > spans[0]) | (spans[3] > spans[2])  # images with detections or GTs
    edges = np.arange(len(cat_ids) + 1)
    blocks, cross = [], np.zeros(len(d_cat), dtype=bool)
    for d0, d1, g0, g1 in zip(*(s[busy].tolist() for s in spans)):
        ious = (iou_matrix(d_box[d0:d1], g[g0:g1, 2:]) if d1 > d0 and g1 > g0
                else np.zeros((d1 - d0, g1 - g0)))
        other = d_cat[d0:d1, None] != g[None, g0:g1, 1]
        cross[d_order[d0:d1]] = ((ious >= 0.1) & other).any(axis=1)
        rows = (d0 + np.searchsorted(d_cat[d0:d1], edges)).tolist()
        cols = (g0 + np.searchsorted(g[g0:g1, 1], edges)).tolist()
        for k in range(len(cat_ids)):
            r0, r1, c0, c1 = rows[k], min(rows[k + 1], rows[k] + cfg.max_dets), cols[k], cols[k + 1]
            if r0 < r1 or c0 < c1:
                blocks.append(ious[r0 - d0:r1 - d0, c0 - g0:c1 - g0])
    per_cat = np.bincount(d_cat[kept], minlength=len(cat_ids))
    slab_kept = np.empty_like(kept)
    slab_kept[by_image] = kept  # in the slab order, whose running count gives the columns
    col = np.cumsum(slab_kept)[by_image] - 1 - (np.cumsum(per_cat) - per_cat)[d_cat]
    grouped = g[:, 1] >= 0  # in a block, shared unlisted-image position included
    groups = _Groups(ious=blocks, det_order=d_order[kept], slots=(d_cat[kept], col[kept]),
                     width=per_cat.max(initial=0), gt_areas=areas[grouped],
                     det_areas=np.prod(d_box[kept, 2:] - d_box[kept, :2], axis=1),
                     gt_onehot=g[grouped, 1, None] == edges[:-1])
    return groups, cross


def _aggregate(values):
    live = [v for v in values if v != SENTINEL]
    # np.mean's own sum and division, without its overhead.
    return float(np.add.reduce(np.array(live)) / len(live)) if live else SENTINEL


def evaluate(index, detections, cfg: EvalConfig | None = None) -> EvalReport:
    """Full per-class and aggregate AP/AR report for a dataset's detections."""
    cfg = cfg or EvalConfig()
    groups, _ = _collect_groups(index, detections, cfg)

    # A stratum ignores the GTs outside its area range and, as COCO does, the
    # unmatched detections outside it: neither counts in that stratum's rows.
    ignore, outside = ((areas < _AREA_LO) | (areas >= _AREA_HI)
                       for areas in (groups.gt_areas, groups.det_areas))
    tp, ign, _ = match_detections(groups.ious, _ROW_THRESHOLDS, ignore)
    ign |= ~tp & outside
    tp, ign = groups.slab(tp, False), groups.slab(ign, True)
    num_gt = groups.gt_onehot.T.astype(np.int64) @ ~ignore.T  # (category, row)
    curves = _pr_curves(tp, ign, num_gt.reshape(-1))
    shape = (len(num_gt), len(AREA_RANGES), len(IOU_THRESHOLDS))
    num_gt = num_gt.reshape(shape)
    row_aps = np.zeros(shape) if curves is None else curves.mean(axis=1).reshape(shape)
    row_ars = np.divide(tp.sum(axis=1).reshape(shape), num_gt, out=np.zeros(shape),
                        where=num_gt > 0)
    # Per (category, stratum): the mean of its ten rows, by the same pairwise
    # sum as ``_aggregate`` on ten values; SENTINEL where the stratum is empty.
    empty = num_gt[:, :, 0] == 0
    aps, ars = (np.where(empty, SENTINEL, np.add.reduce(r, axis=2) / len(IOU_THRESHOLDS))
                for r in (row_aps, row_ars))
    ap50_75 = np.where(empty[:, :1], SENTINEL, row_aps[:, 0, [IOU_THRESHOLDS.index(0.5),
                                                           IOU_THRESHOLDS.index(0.75)]])
    table = np.concatenate([aps[:, :1], ap50_75, aps[:, 1:], ars], axis=1).tolist()
    per_class = {cat.id: {"name": cat.name, **dict(zip(METRIC_KEYS, row))}
                 for cat, row in zip(index.categories, table)}
    aggregate = {k: _aggregate([row[k] for row in per_class.values()]) for k in METRIC_KEYS}
    return EvalReport(per_class=per_class, aggregate=aggregate)


def error_breakdown(index, detections, cfg: EvalConfig | None = None) -> ErrorBreakdown:
    """Seven progressive PR stages; APs are monotone and FN pins at 1.0.

    Every stage matches all GTs of a category with none ignored, in one walk
    at IoU 0.1, 0.5 and 0.75. C75 and C50 take the matches at 0.75 and 0.5.
    Loc, Sim, Oth and BG share the match at IoU 0.1 and differ only in which
    unmatched detections they ignore: none (Loc), those overlapping another
    class's GT at IoU >= 0.1 (Sim), all of them (BG). Oth forgives
    cross-class confusions outside the supercategory; all damage classes
    share one supercategory, so Oth's set is Sim's and the two stages are one
    result. FN scores every category with GTs at 1.0.
    """
    cfg = cfg or EvalConfig()
    groups, cross = _collect_groups(index, detections, cfg)
    tp, _, _ = match_detections(groups.ious, (0.10, 0.50, 0.75))
    loc, none = tp[0], np.zeros_like(tp[0])
    # Rows C75, C50, Loc, Sim, BG; no GT is ignored, so only Sim and BG ignore.
    tps = groups.slab(np.stack([tp[2], tp[1], loc, loc, loc]), False)
    igns = groups.slab(np.stack([none, none, none, ~loc & cross[groups.det_order], ~loc]), True)
    num_gt = groups.gt_onehot.sum(axis=0)
    stages = _pr_curves(tps, igns, np.repeat(num_gt, 5))
    if stages is None:
        stages = np.zeros((len(num_gt) * 5, len(RECALL_GRID)))
    # Oth repeats Sim; FN pins every category with GTs at 1.0.
    stages = stages.reshape(len(num_gt), 5, len(RECALL_GRID))[:, [0, 1, 2, 3, 3, 4]]
    stages = np.concatenate([stages, np.ones((len(num_gt), 1, len(RECALL_GRID)))], axis=1)
    has_gt = num_gt > 0
    mean_curves = stages[has_gt].mean(axis=0) if has_gt.any() else np.zeros(stages.shape[1:])
    stage_aps = np.where(has_gt, stages.mean(axis=2).T, SENTINEL).tolist()
    aps, per_class_aps, curves = {}, {}, {}
    for s, stage in enumerate(ERROR_STAGES):
        per_class_aps[stage] = {c.id: ap for c, ap in zip(index.categories, stage_aps[s])}
        aps[stage] = _aggregate(per_class_aps[stage].values())
        curves[stage] = mean_curves[s]
    return ErrorBreakdown(aps=aps, per_class_aps=per_class_aps, curves=curves)
