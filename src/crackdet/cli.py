"""Command-line surface of the kit.

Subcommands: stats | eval | analyze | assign-debug | gradcheck | train-toy |
infer. Every JSON artifact embeds the effective config and the kit version,
floats are fixed at six decimals, and writes go through a temp-file rename so
outputs are atomic. Exit codes: 0 success, 1 usage/IO error or an allocation
too large for the machine, 2 numerical-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import numerics as nm
from .config import RunConfig, __version__, config_dict, load_config
from .dataio import (detections_from_coco, detections_to_coco, gen_synthetic, load_coco,
                     load_image_batch, load_voc, normalize_images, read_json, save_synthetic,
                     stats, stats_table, write_atomic)
from .errors import CrackdetError, NumericsError
from .evaluator import error_breakdown, evaluate
from .model import neck_config
from .neck import describe_layout
from .train import (detector_from_config, gt_table, load_checkpoint, predict_dataset,
                    train_toy)

GRADCHECK_TOLERANCE = 1e-4


def _key_order(key):
    """Numbers in numeric order, then strings in string order: what
    ``sort_keys`` gives keys of one type, made to hold for category ids that
    mix the two (1 and "b")."""
    return isinstance(key, str), key


def _json_ready(obj, digits=None):
    """``obj`` with every dict's keys in ``_key_order`` and, unless ``digits``
    is None, every float rounded to ``digits`` decimals."""
    if isinstance(obj, float):
        return obj if digits is None else round(obj, digits)
    if isinstance(obj, dict):
        return {k: _json_ready(obj[k], digits) for k in sorted(obj, key=_key_order)}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v, digits) for v in obj]
    return obj


def write_json(payload: dict, path, cfg: RunConfig):
    """Atomic JSON write with config + version provenance embedded. Payload
    floats are rounded to six decimals; the config echo is written exactly,
    so ``load_config`` reads it back as the same config."""
    body = _json_ready(payload, digits=6)
    body.update(config=_json_ready(config_dict(cfg)), version=__version__)
    write_atomic(path, json.dumps(dict(sorted(body.items())), indent=2) + "\n")


def _load_index(path, center_boxes=False):
    if os.path.isdir(path):
        ann = os.path.join(path, "annotations.json")
        if os.path.exists(ann):
            return load_coco(ann, center_boxes=center_boxes)
        return load_voc(path)
    return load_coco(path, center_boxes=center_boxes)


def cmd_stats(args, cfg: RunConfig) -> int:
    index = _load_index(args.dataset, center_boxes=args.center_boxes)
    table = stats(index)
    payload = {
        "histogram": {c.name: table[c.id] for c in index.categories},
        "totals": {
            "images": len(index.images),
            "annotations": len(index.annotations),
            "clamp_warnings": index.clamp_warnings,
        },
    }
    print(stats_table(index))
    write_json(payload, os.path.join(args.out, "stats.json"), cfg)
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    index = _load_index(args.gt, center_boxes=args.center_boxes)
    detections = detections_from_coco(read_json(args.dets), args.dets)
    report = evaluate(index, detections, cfg.eval)
    print(report.to_table())
    write_json(report.to_dict(), os.path.join(args.out, "eval.json"), cfg)
    write_atomic(os.path.join(args.out, "eval.txt"), report.to_table() + "\n")
    return 0


def cmd_analyze(args, cfg: RunConfig) -> int:
    index = _load_index(args.gt, center_boxes=args.center_boxes)
    detections = detections_from_coco(read_json(args.dets), args.dets)
    breakdown = error_breakdown(index, detections, cfg.eval)
    for stage, ap in breakdown.aps.items():
        print(f"{stage}: {ap:.3f}")
    write_json(breakdown.to_dict(), os.path.join(args.out, "analyze.json"), cfg)
    write_atomic(os.path.join(args.out, "pr_curves.csv"), breakdown.to_csv())
    return 0


def cmd_assign_debug(args, cfg: RunConfig) -> int:
    index = _load_index(args.dataset)
    image_ids = [im.id for im in index.images]
    if not 0 <= args.image_index < len(image_ids):
        held = f"images 0..{len(image_ids) - 1}" if image_ids else "no images"
        raise CrackdetError(f"--image-index {args.image_index} is out of range: "
                            f"{args.dataset} holds {held}")
    image_id = image_ids[args.image_index]
    if args.checkpoint:
        detector = load_checkpoint(cfg, args.checkpoint)
    else:
        detector = detector_from_config(cfg, np.random.default_rng(cfg.training.seed))
    images = normalize_images(load_image_batch(index, args.dataset, [image_id]))
    probs, dists = detector.predict_arrays(images)
    boxes, labels = gt_table(index, [image_id], cfg.model.num_classes)[image_id]
    cm, asg = detector.assign(probs[0], dists[0], boxes, labels)
    cost_rows = [[float(v) if np.isfinite(v) else None for v in row] for row in cm.cost]
    payload = {
        "image_id": image_id,
        "num_anchors": int(cm.cost.shape[1]),
        "num_gt": int(cm.cost.shape[0]),
        "cost_matrix": cost_rows,
        "iou_matrix": cm.iou.tolist(),
        "candidate_counts": cm.candidates.sum(axis=1).astype(int).tolist(),
        "dynamic_k": asg.k_per_gt.tolist(),
        "anchor_gt_index": asg.gt_index.tolist(),
        "soft_labels": asg.soft_label.tolist(),
        "unassigned_gts": asg.unassigned_gts,
    }
    write_json(payload, os.path.join(args.out, "assign_debug.json"), cfg)
    print(f"image {image_id}: {payload['num_gt']} GTs, "
          f"{int((asg.gt_index >= 0).sum())} anchors matched")
    return 0


def _gradcheck_suite(cfg: RunConfig, seeds: int):
    """Representative per-module gradient checks; returns {module: max error}."""
    from .attention import Attention4DConfig, attention4d_forward, init_attention4d
    from .losses import giou_loss, soft_cls_loss_pooled
    from .neck import NeckConfig, PyramidFeatures, csp_layer, init_csp, init_neck, neck_forward
    from .numerics import Tensor, finite_diff_check

    results = {}

    def record(name, fn):
        worst = 0.0
        for seed in range(seeds):
            worst = max(worst, fn(np.random.default_rng(seed)))
        results[name] = worst

    def conv_case(rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        return finite_diff_check(lambda: nm.tsum(nm.mul(nm.conv1x1(x, w, b), nm.conv1x1(x, w, b))),
                                 [x, w, b])

    def bn_case(rng):
        bn = nm.BatchNorm(3)
        x = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        bn.gamma.data[...] = rng.normal(size=3)
        bn.beta.data[...] = rng.normal(size=3)
        return finite_diff_check(
            lambda: nm.tsum(nm.mul(nm.batchnorm(x, bn), nm.batchnorm(x, bn))),
            [x, bn.gamma, bn.beta])

    def softmax_case(rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))
        return finite_diff_check(lambda: nm.tsum(nm.mul(nm.softmax_lastdim(x), nm.as_tensor(w))),
                                 [x])

    def attention_case(rng):
        acfg = Attention4DConfig(channels=8, heads=4, key_dim=4, spatial=(6, 6))
        p = init_attention4d(acfg, rng)
        p.bn_out.gamma.data[...] = rng.normal(size=p.bn_out.gamma.data.shape)
        p.pos_bias.data[...] = rng.normal(size=p.pos_bias.data.shape) * 0.1
        x = Tensor(rng.normal(size=(2, 8, 6, 6)), requires_grad=True)
        readout = rng.normal(size=(2, 8, 6, 6))
        params = [x] + [t for _, t in p.params()]
        return finite_diff_check(
            lambda: nm.tsum(nm.mul(attention4d_forward(x, p), nm.as_tensor(readout))),
            params, max_coords=24, rng=rng)

    def csp_case(rng):
        p = init_csp(rng, 6, 6, depth=1)
        x = Tensor(rng.normal(size=(2, 6, 4, 4)), requires_grad=True)
        readout = rng.normal(size=(2, 6, 4, 4))
        params = [x] + [t for _, t in p.params("csp")]
        return finite_diff_check(lambda: nm.tsum(nm.mul(csp_layer(x, p), nm.as_tensor(readout))),
                                 params, max_coords=24, rng=rng)

    def neck_case(rng):
        ncfg = NeckConfig(in_channels=(4, 6, 8), out_channels=4,
                          spatial=((8, 8), (4, 4), (2, 2)), csp_depth=1,
                          attn_heads=2, attn_key_dim=4)
        p = init_neck(ncfg, rng)
        for block in p.attn.values():
            # zero-init output scales gate half the block's gradients; check
            # at a generic parameter point instead
            block.bn_out.gamma.data[...] = rng.normal(size=block.bn_out.gamma.data.shape)
            block.pos_bias.data[...] = rng.normal(size=block.pos_bias.data.shape) * 0.1
        feats = PyramidFeatures(Tensor(rng.normal(size=(1, 4, 8, 8)), requires_grad=True),
                                Tensor(rng.normal(size=(1, 6, 4, 4)), requires_grad=True),
                                Tensor(rng.normal(size=(1, 8, 2, 2)), requires_grad=True))
        readouts = [rng.normal(size=(1, 4, n, n)) for n in (8, 4, 2)]
        params = list(feats.levels()) + [t for _, t in p.params()]

        def f():
            q = neck_forward(feats, p)
            return nm.tsum(nm.concat([nm.reshape(nm.mul(t, nm.as_tensor(r)), (1, -1))
                                      for t, r in zip(q.levels(), readouts)], axis=1))

        return finite_diff_check(f, params, max_coords=24, rng=rng)

    def cls_loss_case(rng):
        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        targets = rng.uniform(0.0, 1.0, size=(6, 3))
        return finite_diff_check(lambda: soft_cls_loss_pooled(logits, targets, 4), [logits])

    def giou_case(rng):
        points = rng.uniform(8.0, 24.0, size=(5, 2))
        strides = rng.choice((1.0, 2.0, 4.0), size=5)
        reach = rng.uniform(0.5, 3.0, size=(5, 4)) * strides[:, None]
        gt = np.concatenate([points - reach[:, :2], points + reach[:, 2:]], axis=1)
        d = Tensor(rng.uniform(0.5, 3.0, size=(5, 4)), requires_grad=True)
        return finite_diff_check(lambda: giou_loss(d, points, strides, gt), [d])

    record("conv1x1", conv_case)
    record("batchnorm", bn_case)
    record("softmax", softmax_case)
    record("attention4d", attention_case)
    record("csp_layer", csp_case)
    record("neck", neck_case)
    record("soft_cls_loss", cls_loss_case)
    record("giou_loss", giou_case)
    return results


def cmd_gradcheck(args, cfg: RunConfig) -> int:
    if args.seeds < 1:
        raise CrackdetError(f"--seeds must be at least 1, got {args.seeds}")
    results = _gradcheck_suite(cfg, seeds=args.seeds)
    worst = max(results.values())
    for name, err in results.items():
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name:<16} max rel error {err:.3e}  {status}")
    write_json({"max_errors": results, "tolerance": GRADCHECK_TOLERANCE,
                "passed": bool(worst < GRADCHECK_TOLERANCE)},
               os.path.join(args.out, "gradcheck.json"), cfg)
    return 0 if worst < GRADCHECK_TOLERANCE else 2


def cmd_train_toy(args, cfg: RunConfig) -> int:
    detector, index, raw_images, rows = train_toy(cfg, out_dir=args.out)
    image_ids = [im.id for im in index.images]
    detections = predict_dataset(detector, raw_images, image_ids)
    report = evaluate(index, detections, cfg.eval)
    print(f"trained {len(rows)} steps; final total loss {rows[-1][3]:.6f}")
    print(report.to_table())
    write_json({"report": report.to_dict(),
                "final_loss": rows[-1][3],
                "steps": len(rows)},
               os.path.join(args.out, "train_report.json"), cfg)
    write_json({"detections": detections_to_coco(detections)},
               os.path.join(args.out, "self_eval_detections.json"), cfg)
    return 0


def cmd_infer(args, cfg: RunConfig) -> int:
    index = _load_index(args.images)
    detector = load_checkpoint(cfg, args.checkpoint)
    image_ids = [im.id for im in index.images]
    images = load_image_batch(index, args.images, image_ids)
    detections = predict_dataset(detector, images, image_ids)
    write_json({"detections": detections_to_coco(detections)},
               os.path.join(args.out, "detections.json"), cfg)
    print(f"{len(detections)} detections over {len(image_ids)} images")
    return 0


def cmd_gen_data(args, cfg: RunConfig) -> int:
    images, index = gen_synthetic(cfg.synthetic)
    save_synthetic(images, index, args.out)
    print(f"wrote {len(images)} images, {len(index.annotations)} annotations to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crackdet",
                                     description="Desk-scale road damage detection kit")
    parser.add_argument("--version", action="version", version=f"crackdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override training/synthetic seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config value")
        p.add_argument("--dump-arch", action="store_true",
                       help="also write the neck layout as arch.json")

    p = sub.add_parser("stats", help="dataset class/size histogram")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--center-boxes", action="store_true",
                   help="treat COCO bbox fields as center-form (x,y,w,h)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="COCO-style AP/AR report")
    common(p)
    p.add_argument("--gt", required=True)
    p.add_argument("--dets", required=True)
    p.add_argument("--center-boxes", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="seven-way error decomposition")
    common(p)
    p.add_argument("--gt", required=True)
    p.add_argument("--dets", required=True)
    p.add_argument("--center-boxes", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("assign-debug", help="dump cost matrix and assignment for one image")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--image-index", type=int, default=0)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_assign_debug)

    p = sub.add_parser("gradcheck", help="finite-difference checks per module")
    common(p)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="train on the synthetic set and self-evaluate")
    common(p)
    p.add_argument("--epochs", type=int, default=None,
                   help="set training.steps to N passes over the synthetic set")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("infer", help="run a checkpoint over a dataset directory")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--images", required=True, help="dataset dir with images/ + annotations.json")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gen-data", help="write a synthetic dataset directory")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage line and message
        if exc.code:
            return 1
        raise
    if args.seed is not None:  # --seed is two more, so load_config checks its value
        args.overrides += [f"training.seed={args.seed}", f"synthetic.seed={args.seed}"]
    try:
        cfg = load_config(args.config, args.overrides)
        if getattr(args, "epochs", None) is not None:
            per_epoch = max(1, cfg.synthetic.num_images // cfg.training.batch_size)
            cfg.training = dataclasses.replace(cfg.training, steps=args.epochs * per_epoch)
        rc = args.func(args, cfg)
        if args.dump_arch:  # after the command, so a failed one leaves no arch.json
            write_json({"arch": describe_layout(neck_config(cfg.model, cfg.neck))},
                       os.path.join(args.out, "arch.json"), cfg)
        return rc
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrackdetError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
