"""Independent reference implementations used to cross-check the library.

Everything here is written in deliberately plain loop style — scalar math,
python lists, explicit index arithmetic — so agreement with the vectorized
library code is a meaningful check rather than a tautology.
"""

import math
from itertools import chain

import numpy as np

from crackdet.geometry import iou as scalar_iou
from crackdet.geometry import iou_matrix
from crackdet.model import Detection, decode_boxes


def conv1x1_loop(x, w, b=None):
    """Per-pixel matrix-vector products."""
    bs, ci, hh, ww = x.shape
    co = w.shape[0]
    out = np.zeros((bs, co, hh, ww))
    for n in range(bs):
        for o in range(co):
            for y in range(hh):
                for xx in range(ww):
                    acc = 0.0
                    for i in range(ci):
                        acc += w[o][i] * x[n][i][y][xx]
                    if b is not None:
                        acc += b[o]
                    out[n][o][y][xx] = acc
    return out


def conv3x3s2_loop(x, w):
    """3x3 kernel, stride 2, zero padding 1: each output cell sums the nine
    taps that land inside the input, read by explicit index arithmetic."""
    bs, ci, hh, ww = x.shape
    co = w.shape[0]
    out = np.zeros((bs, co, hh // 2, ww // 2))
    for n in range(bs):
        for o in range(co):
            for y in range(hh // 2):
                for xx in range(ww // 2):
                    acc = 0.0
                    for i in range(ci):
                        for dy in range(3):
                            for dx in range(3):
                                row, col = 2 * y + dy - 1, 2 * xx + dx - 1
                                if 0 <= row < hh and 0 <= col < ww:
                                    acc += w[o][i][dy][dx] * x[n][i][row][col]
                    out[n][o][y][xx] = acc
    return out


def conv1x1_backward_loop(x, w, g):
    """(gx, gw) of ``conv1x1_loop`` for the output gradient g, one product
    at a time: each output cell sends g * w[o][i] back to the input pixel it
    read and g * x to the weight it used."""
    bs, ci, hh, ww = x.shape
    co = w.shape[0]
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for n in range(bs):
        for o in range(co):
            for y in range(hh):
                for xx in range(ww):
                    go = g[n][o][y][xx]
                    for i in range(ci):
                        gx[n][i][y][xx] += w[o][i] * go
                        gw[o][i] += x[n][i][y][xx] * go
    return gx, gw


def conv3x3s2_backward_loop(x, w, g):
    """(gx, gw) of ``conv3x3s2_loop`` for the output gradient g: each output
    cell sends its gradient back along the nine taps it read, by the same
    index arithmetic; a tap that fell in the zero padding carries none."""
    bs, ci, hh, ww = x.shape
    co = w.shape[0]
    gx, gw = np.zeros(x.shape), np.zeros(w.shape)
    for n in range(bs):
        for o in range(co):
            for y in range(hh // 2):
                for xx in range(ww // 2):
                    go = g[n][o][y][xx]
                    for i in range(ci):
                        for dy in range(3):
                            for dx in range(3):
                                row, col = 2 * y + dy - 1, 2 * xx + dx - 1
                                if 0 <= row < hh and 0 <= col < ww:
                                    gx[n][i][row][col] += w[o][i][dy][dx] * go
                                    gw[o][i][dy][dx] += x[n][i][row][col] * go
    return gx, gw


def matmul_loop(a, b):
    """Triple loop over the trailing two axes, outer loop over batch cells."""
    lead = a.shape[:-2]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    out = np.zeros(lead + (m, n))
    for idx in np.ndindex(*lead) if lead else [()]:
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for t in range(k):
                    acc += a[idx + (i, t)] * b[idx + (t, j)]
                out[idx + (i, j)] = acc
    return out


def softmax_row(row):
    """Scalar exp-normalize of one sequence."""
    mx = max(row)
    exps = [math.exp(v - mx) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def batchnorm_stats(x):
    """Direct per-channel mean and biased variance over (batch, H, W)."""
    bs, c, hh, ww = x.shape
    means, variances = [], []
    for ch in range(c):
        vals = []
        for n in range(bs):
            for y in range(hh):
                for xx in range(ww):
                    vals.append(x[n][ch][y][xx])
        m = sum(vals) / len(vals)
        v = sum((s - m) ** 2 for s in vals) / len(vals)
        means.append(m)
        variances.append(v)
    return means, variances


def _bn_loop(x, gamma, beta, eps):
    """Train-mode batchnorm via the direct statistics above."""
    means, variances = batchnorm_stats(x)
    out = np.zeros_like(x)
    bs, c, hh, ww = x.shape
    for ch in range(c):
        scale = gamma[ch] / math.sqrt(variances[ch] + eps)
        for n in range(bs):
            for y in range(hh):
                for xx in range(ww):
                    out[n][ch][y][xx] = (x[n][ch][y][xx] - means[ch]) * scale + beta[ch]
    return out


def conv_bn_loop(x, w, gamma, beta, mean, var, eps, momentum, stride2, act, training):
    """conv (the loops above) -> batchnorm -> SiLU when ``act``, scalar by scalar.

    Train mode normalizes with the batch's direct per-channel statistics and
    moves each running statistic by ``momentum`` toward the batch mean and
    the unbiased (n - 1) variance; eval mode normalizes with the running
    statistics and keeps them. Returns (out, running mean, running var).
    """
    y = conv3x3s2_loop(x, w) if stride2 else conv1x1_loop(x, w)
    bs, c, hh, ww = y.shape
    n = bs * hh * ww
    new_mean, new_var = [float(m) for m in mean], [float(v) for v in var]
    if training:
        means, variances = batchnorm_stats(y)
        for ch in range(c):
            new_mean[ch] += momentum * (means[ch] - new_mean[ch])
            new_var[ch] += momentum * (variances[ch] * n / (n - 1) - new_var[ch])
    else:
        means, variances = new_mean, new_var
    out = np.zeros_like(y)
    for ch in range(c):
        scale = gamma[ch] / math.sqrt(variances[ch] + eps)
        for n_ in range(bs):
            for yy in range(hh):
                for xx in range(ww):
                    v = (y[n_][ch][yy][xx] - means[ch]) * scale + beta[ch]
                    out[n_][ch][yy][xx] = v / (1.0 + math.exp(-v)) if act else v
    return out, np.array(new_mean), np.array(new_var)


def batchnorm_backward_loop(y, gamma, beta, eps, g, act, running=None):
    """(gy, ggamma, gbeta) of batchnorm (then SiLU when ``act``) on the conv
    output y for the output gradient g, by Ioffe & Szegedy's (2015) chain
    rule written scalar by scalar: dL/dxhat, then dL/dvar and dL/dmean, then
    dL/dy. ``running`` is None in train mode (batch statistics, which depend
    on y) or the (mean, var) pair that eval mode normalizes with (constants)."""
    bs, c, hh, ww = y.shape
    cells = [(n, yy, xx) for n in range(bs) for yy in range(hh) for xx in range(ww)]
    m = len(cells)
    if running is None:
        means, variances = batchnorm_stats(y)
    else:
        means, variances = [float(v) for v in running[0]], [float(v) for v in running[1]]
    gy, ggamma, gbeta = np.zeros(y.shape), [0.0] * c, [0.0] * c
    for ch in range(c):
        mu, inv = means[ch], 1.0 / math.sqrt(variances[ch] + eps)
        dout, dxhat, xhat = {}, {}, {}
        for cell in cells:
            n, yy, xx = cell
            xhat[cell] = (y[n][ch][yy][xx] - mu) * inv
            d = g[n][ch][yy][xx]
            if act:  # silu'(v) = s * (1 + v * (1 - s))
                v = xhat[cell] * gamma[ch] + beta[ch]
                s = 1.0 / (1.0 + math.exp(-v))
                d *= s * (1.0 + v * (1.0 - s))
            dout[cell] = d
            dxhat[cell] = d * gamma[ch]
            ggamma[ch] += d * xhat[cell]
            gbeta[ch] += d
        if running is not None:
            for (n, yy, xx) in cells:
                gy[n][ch][yy][xx] = dxhat[(n, yy, xx)] * inv
            continue
        dvar = sum(dxhat[(n, yy, xx)] * (y[n][ch][yy][xx] - mu) for n, yy, xx in cells) \
            * -0.5 * inv ** 3
        dmean = -inv * sum(dxhat.values()) \
            + dvar * sum(-2.0 * (y[n][ch][yy][xx] - mu) for n, yy, xx in cells) / m
        for n, yy, xx in cells:
            gy[n][ch][yy][xx] = (dxhat[(n, yy, xx)] * inv
                                 + dvar * 2.0 * (y[n][ch][yy][xx] - mu) / m + dmean / m)
    return gy, np.array(ggamma), np.array(gbeta)


def conv_bn_backward_loop(x, w, gamma, beta, eps, g, stride2, act, running=None):
    """(gx, gw, ggamma, gbeta) of conv -> batchnorm -> SiLU (``act``): the
    conv loop's forward, ``batchnorm_backward_loop`` on its output, then the
    conv's backward loop; ``running`` as in ``batchnorm_backward_loop``."""
    y = conv3x3s2_loop(x, w) if stride2 else conv1x1_loop(x, w)
    gy, ggamma, gbeta = batchnorm_backward_loop(y, gamma, beta, eps, g, act, running)
    gx, gw = (conv3x3s2_backward_loop if stride2 else conv1x1_backward_loop)(x, w, gy)
    return gx, gw, ggamma, gbeta


def attention4d_loop(x, p):
    """Whole attention block recomputed with per-token double loops.

    Mirrors the documented dataflow: conv+BN projections, per-head token
    dot products scaled and biased, pre/post head mixing, scalar softmax,
    weighted value sums, output conv+BN, residual.
    """
    cfg = p.cfg
    bs, c, hh, ww = x.shape
    heads, d = cfg.heads, cfg.key_dim
    scale = 1.0 / math.sqrt(d)
    hw = hh * ww

    def project(w, bn):
        y = conv1x1_loop(x, w.data)
        return _bn_loop(y, bn.gamma.data, bn.beta.data, bn.eps)

    q = project(p.w_q, p.bn_q).reshape(bs, heads, d, hw)
    k = project(p.w_k, p.bn_k).reshape(bs, heads, d, hw)
    v = project(p.w_v, p.bn_v).reshape(bs, heads, d, hw)

    logits = np.zeros((bs, heads, hw, hw))
    for n in range(bs):
        for h in range(heads):
            for i in range(hw):
                for j in range(hw):
                    acc = 0.0
                    for ch in range(d):
                        acc += q[n][h][ch][i] * k[n][h][ch][j]
                    logits[n][h][i][j] = scale * acc + p.pos_bias.data[h][i][j]

    mixed = np.zeros_like(logits)
    for n in range(bs):
        for g in range(heads):
            for i in range(hw):
                for j in range(hw):
                    acc = 0.0
                    for h in range(heads):
                        acc += p.t_pre.data[g][h] * logits[n][h][i][j]
                    mixed[n][g][i][j] = acc

    attn = np.zeros_like(mixed)
    for n in range(bs):
        for h in range(heads):
            for i in range(hw):
                attn[n][h][i] = softmax_row(list(mixed[n][h][i]))

    attn2 = np.zeros_like(attn)
    for n in range(bs):
        for g in range(heads):
            for i in range(hw):
                for j in range(hw):
                    acc = 0.0
                    for h in range(heads):
                        acc += p.t_post.data[g][h] * attn[n][h][i][j]
                    attn2[n][g][i][j] = acc

    tokens = np.zeros((bs, heads, d, hw))
    for n in range(bs):
        for h in range(heads):
            for ch in range(d):
                for i in range(hw):
                    acc = 0.0
                    for j in range(hw):
                        acc += attn2[n][h][i][j] * v[n][h][ch][j]
                    tokens[n][h][ch][i] = acc

    y = tokens.reshape(bs, heads * d, hh, ww)
    y = conv1x1_loop(y, p.w_out.data)
    y = _bn_loop(y, p.bn_out.gamma.data, p.bn_out.beta.data, p.bn_out.eps)
    return x + y


def assign_oracle(cost, iou, candidates, cap):
    """Exhaustive-sort restatement of the dynamic assignment rule.

    Returns (owner dict anchor->gt, k dict gt->k, sorted unassigned gt list).
    """
    num_gt = len(cost)
    num_anchors = len(cost[0]) if num_gt else 0
    selected = {}
    ks = {}
    unassigned = []
    for g in range(num_gt):
        cand = [a for a in range(num_anchors) if candidates[g][a]]
        if not cand:
            selected[g] = []
            unassigned.append(g)
            continue
        top = sorted((iou[g][a] for a in cand), reverse=True)[:min(cap, len(cand))]
        k = int(math.floor(sum(top) + 0.5))
        k = max(1, min(k, len(cand)))
        ks[g] = k
        ranked = sorted(cand, key=lambda a: (cost[g][a], a))
        selected[g] = ranked[:k]

    owner = {}
    for a in range(num_anchors):
        claimants = [g for g in range(num_gt) if a in selected[g]]
        if claimants:
            owner[a] = min(claimants, key=lambda g: (cost[g][a], g))

    held = {g: sorted(a for a in owner if owner[a] == g) for g in range(num_gt)}
    for g in range(num_gt):
        cand = [a for a in range(num_anchors) if candidates[g][a]]
        if not cand or held[g]:
            continue
        ranked = sorted(cand, key=lambda a: (cost[g][a], a))
        free = [a for a in ranked if a not in owner]
        if free:
            a = free[0]
        else:
            rich = [a for a in ranked if len(held[owner[a]]) >= 2]
            if not rich:
                unassigned.append(g)
                continue
            a = rich[0]
            held[owner[a]].remove(a)
        owner[a] = g
        held[g].append(a)
    return owner, ks, sorted(unassigned)


def ap_101_reference(tp_flags, num_gt, ignore=None):
    """Plain-python 101-point interpolated AP; detections flagged in
    ``ignore`` are skipped."""
    if num_gt == 0:
        return -1.0
    if ignore is not None:
        tp_flags = [flag for flag, skip in zip(tp_flags, ignore) if not skip]
    precisions, recalls = [], []
    tp = 0
    for rank, flag in enumerate(tp_flags, start=1):
        tp += 1 if flag else 0
        precisions.append(tp / rank)
        recalls.append(tp / num_gt)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    total = 0.0
    for pt in range(101):
        r = pt / 100.0
        p = 0.0
        for rec, prec in zip(recalls, precisions):
            if rec >= r - 1e-12:
                p = prec
                break
        total += p
    return total / 101.0


def pr_curves_every_detection(tp, det_ignore, num_gt, grid):
    """Interpolated precision at each recall in ``grid`` for every row of an
    (S, n) flag block, from the right-to-left envelope over every detection
    (ignored ones at precision 0), each grid point reading it at the first
    detection whose recall reaches the point: ``np.searchsorted`` over the
    row's possible recalls k / n. (S, len(grid)), or None if no row has GTs."""
    num_gt = np.broadcast_to(num_gt, len(tp))
    if not num_gt.any():
        return None
    curves = np.zeros((len(tp), len(grid)))
    for s in np.flatnonzero(num_gt):
        kept = ~det_ignore[s]
        hit = tp[s] & kept
        ctp = np.cumsum(hit)
        envelope = np.zeros(len(hit) + 1)  # a trailing 0 for recalls never reached
        np.divide(ctp, np.cumsum(kept), out=envelope[:-1], where=kept)
        envelope = np.maximum.accumulate(envelope[::-1])[::-1]
        n = int(num_gt[s])
        k = np.searchsorted(np.arange(n + 1) / n, grid, "left")  # TPs each point needs
        first = np.full(max(n, int(hit.sum())) + 1, len(hit))
        first[0] = 0
        first[ctp[hit]] = np.flatnonzero(hit)
        curves[s] = envelope[first[k]]
    return curves


def cross_class_overlaps_loop(index, detections, iou_thr=0.1):
    """Per detection: does it overlap a GT of another class, same image,
    at IoU >= iou_thr? One scalar IoU per (detection, GT) pair."""
    out = []
    for det in detections:
        hit = False
        for ann in index.annotations:
            if ann.image_id != det.image_id or ann.category_id == det.category_id:
                continue
            if scalar_iou(det.box, ann.box) >= iou_thr:
                hit = True
        out.append(hit)
    return out


def collect_groups_two_sorts(index, detections, max_dets):
    """The evaluator's (image, category) grouping derived with two sorts: a
    three-key lexsort of a (detection, column) table for the group order and a
    second lexsort of the kept detections for their slab columns.

    Returns a dict with the fields of ``evaluator._Groups`` (``ious``,
    ``det_order``, ``slots``, ``width``, ``gt_areas``, ``gt_onehot``) and
    ``cross``, each detection's cross-class flag in input order.
    """
    cat_ids = [c.id for c in index.categories]
    cat_pos = {cat: k for k, cat in enumerate(cat_ids)}
    img_pos = {im.id: k for k, im in enumerate(index.images)}
    d_imgs, d_cats, d_scores, d_boxes = zip(*detections) if detections else ((),) * 4
    # Columns: image, category, score, box (detections); image, category, box (GTs).
    d = np.column_stack(([img_pos[i] for i in d_imgs], [cat_pos[c] for c in d_cats],
                         np.asarray(d_scores, dtype=np.float64),
                         np.fromiter(chain.from_iterable(d_boxes), np.float64,
                                     4 * len(d_boxes)).reshape(-1, 4)))
    g = np.array([(img_pos.get(a.image_id, len(index.images)), cat_pos.get(a.category_id, -1),
                   *a.box) for a in index.annotations], dtype=np.float64).reshape(-1, 6)
    d_order = np.lexsort((-d[:, 2], d[:, 1], d[:, 0]))
    d, g = d[d_order], g[np.lexsort((g[:, 1], g[:, 0]))]
    areas = (g[:, 4] - g[:, 2]) * (g[:, 5] - g[:, 3])

    spans = [np.searchsorted(side[:, 0], np.arange(len(index.images) + 1), how)
             for side in (d, g) for how in ("left", "right")]
    busy = (spans[1] > spans[0]) | (spans[3] > spans[2])
    edges = np.arange(len(cat_ids) + 1)
    blocks, kept, cross = [], np.zeros(len(d), dtype=bool), np.zeros(len(d), dtype=bool)
    for d0, d1, g0, g1 in zip(*(s[busy].tolist() for s in spans)):
        ious = (iou_matrix(d[d0:d1, 3:], g[g0:g1, 2:]) if d1 > d0 and g1 > g0
                else np.zeros((d1 - d0, g1 - g0)))
        other = d[d0:d1, 1, None] != g[None, g0:g1, 1]
        cross[d_order[d0:d1]] = ((ious >= 0.1) & other).any(axis=1)
        rows = (d0 + np.searchsorted(d[d0:d1, 1], edges)).tolist()
        cols = (g0 + np.searchsorted(g[g0:g1, 1], edges)).tolist()
        for k in range(len(cat_ids)):
            r0, r1, c0, c1 = rows[k], min(rows[k + 1], rows[k] + max_dets), cols[k], cols[k + 1]
            if r0 < r1 or c0 < c1:
                blocks.append(ious[r0 - d0:r1 - d0, c0 - g0:c1 - g0])
                kept[r0:r1] = True
    d, order, d_cat = d[kept], d_order[kept], d[kept, 1].astype(np.int64)
    rank = np.lexsort((order, -d[:, 2], d_cat))
    per_cat = np.bincount(d_cat, minlength=len(cat_ids))
    col = np.empty_like(order)
    col[rank] = np.arange(len(rank)) - (np.cumsum(per_cat) - per_cat)[d_cat[rank]]
    grouped = g[:, 1] >= 0
    return {"ious": blocks, "det_order": order, "slots": (d_cat, col),
            "width": per_cat.max(initial=0), "gt_areas": areas[grouped],
            "gt_onehot": g[grouped, 1, None] == edges[:-1], "cross": cross}


def nms_loop(boxes, scores, iou_thr):
    """Greedy NMS by scalar IoU: visit candidates by descending score (ties
    to the lower index) and keep each one that overlaps no kept box by more
    than iou_thr."""
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    keep = []
    for i in order:
        if all(scalar_iou(tuple(boxes[i]), tuple(boxes[k])) <= iou_thr for k in keep):
            keep.append(i)
    return keep


def anchor_points_loop(image_size, strides=(8, 16, 32)):
    """(cx, cy, stride) per grid cell, built cell by cell: every level in
    stride order, rows top to bottom, x fastest within a row."""
    points = []
    for stride in strides:
        cells = image_size // stride
        for iy in range(cells):
            for ix in range(cells):
                points.append(((ix + 0.5) * stride, (iy + 0.5) * stride, stride))
    return points


def encode_box(box, cx, cy, stride):
    """Inverse of box decoding for a cell centre inside the box: its
    (left, top, right, bottom) edge distances in stride units."""
    x1, y1, x2, y2 = box
    s = float(stride)
    return ((cx - x1) / s, (cy - y1) / s, (x2 - cx) / s, (y2 - cy) / s)


def giou_loss_loop(distances, points_xy, strides, gt_boxes):
    """Mean 1 - GIoU, one row at a time in Python floats: each box is decoded
    from its (left, top, right, bottom) stride-unit distances by hand, and its
    intersection, union and enclosing box are computed from the corners."""
    total = 0.0
    for (l, t, r, b), (cx, cy), s, (gx1, gy1, gx2, gy2) in zip(
            distances.tolist(), points_xy.tolist(), strides.tolist(), gt_boxes.tolist()):
        x1, y1, x2, y2 = cx - l * s, cy - t * s, cx + r * s, cy + b * s
        iw = max(0.0, min(x2, gx2) - max(x1, gx1))
        ih = max(0.0, min(y2, gy2) - max(y1, gy1))
        inter = iw * ih
        union = (x2 - x1) * (y2 - y1) + (gx2 - gx1) * (gy2 - gy1) - inter
        enclosing = (max(x2, gx2) - min(x1, gx1)) * (max(y2, gy2) - min(y1, gy1))
        total += 1.0 - (inter / union - (enclosing - union) / enclosing)
    return total / len(gt_boxes) if len(gt_boxes) else 0.0


def decode_loop(cls_probs, distances, points_xy, strides, score_thr, nms_iou, image_id=0):
    """Per class: threshold, NMS by nms_loop, one Detection per kept anchor;
    then one stable Python sort on (-score, category)."""
    boxes = decode_boxes(distances, points_xy, strides)
    detections = []
    for k in range(cls_probs.shape[1]):
        scores = cls_probs[:, k]
        picked = np.where(scores > score_thr)[0]
        if not len(picked):
            continue
        kept = picked[nms_loop(boxes[picked], scores[picked], nms_iou)]
        for score, box in zip(scores[kept].tolist(), boxes[kept].tolist()):
            detections.append(Detection(image_id=image_id, category_id=k + 1,
                                        score=score, box=tuple(box)))
    detections.sort(key=lambda d: (-d.score, d.category_id))
    return detections


def greedy_match_loop(det_boxes, gt_boxes, iou_thr, gt_ignore=None):
    """COCO greedy matching at one IoU threshold, one scalar IoU per pair.

    Detections are visited in the order given (descending score). Each one
    looks at every GT not yet taken whose IoU with it is >= iou_thr. Of
    those it takes the best by, in turn: a non-ignored GT over an ignored
    one, the higher IoU, the later GT in input order. Taking a non-ignored
    GT makes the detection a TP, taking an ignored one makes it ignored,
    taking none leaves it a FP. Returns (tp, det_ignore, gt_matched) lists.
    """
    n_gt = len(gt_boxes)
    gt_ignore = [False] * n_gt if gt_ignore is None else [bool(f) for f in gt_ignore]
    gt_matched = [False] * n_gt
    tp, det_ignore = [], []
    for d in det_boxes:
        best = None
        for g in range(n_gt):
            if gt_matched[g]:
                continue
            v = scalar_iou(tuple(d), tuple(gt_boxes[g]))
            if v < iou_thr:
                continue
            key = (not gt_ignore[g], v, g)
            if best is None or key > best:
                best = key
        if best is None:
            tp.append(False)
            det_ignore.append(False)
            continue
        g = best[2]
        gt_matched[g] = True
        tp.append(not gt_ignore[g])
        det_ignore.append(gt_ignore[g])
    return tp, det_ignore, gt_matched
