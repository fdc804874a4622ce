"""crackdet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics
(set-up time, fastest op, peak memory) and prints the 10th, 50th and 90th
percentile op time and images per second too. With
``--trace 1`` it runs a fixed number of ops untraced, then the same number
traced, and reports per-layer metrics: each layer's share of the op wall
time, per-op counts, how much of the wall time the spans' self times cover,
and the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A result record and, for traced runs, every span
are written under ``perfbench/out/``. The exit code is 0 when every output
check passed, 1 when one failed, 2 when the program cannot be imported.
"""

import os
import sys

# One BLAS thread, fixed before numpy loads: all load comes from one process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# Rounds per untraced run; each round sets up once, so set-up is sampled this
# many times over the run. Evaluate's set-up is 256-px synthetic generation
# (~2 s), so it gets fewer rounds.
ROUNDS = {"train": 7, "detect": 7, "evaluate": 3}
# Ops per round before the time budget may end it (train needs two steps per
# tenth for its loss check).
MIN_OPS = {"train": 20, "detect": 1, "evaluate": 1}
# Traced runs do a fixed amount of work so that their counts repeat exactly.
TRACE_OPS = {"train": 40, "detect": 25, "evaluate": 50}
OP_NAMES = {"train": "train_step", "detect": "detect_batch",
            "evaluate": "evaluate_and_breakdown_split"}

# (metric, kind, source). Kinds: "pct" / "self_pct" of a span name, as a share
# of the traced ops' wall time; "calls" of a span name per op; "count" of a
# counter per op; "ratio" of two counters; "setup_pct" of a span name as a
# share of the set-up wall time. A layer a workload never calls reads 0.
# Times are shares, not milliseconds, so that the metrics of layers a
# workload bypasses are counts and ratios, never a time that is always 0;
# the traced run prints each span's milliseconds per op as well.
PER_LAYER = (
    ("numerics.backward.pct", "pct", "numerics.backward"),
    ("numerics.einsum.calls", "calls", "numerics.einsum"),
    ("numerics.einsum.pct", "pct", "numerics.einsum"),
    ("numerics.tensors", "count", "numerics.tensors"),
    ("numerics.conv3x3s2.pct", "pct", "numerics.conv3x3s2"),
    ("numerics.conv1x1.pct", "pct", "numerics.conv1x1"),
    ("numerics.batchnorm.pct", "pct", "numerics.batchnorm"),
    ("attention.forward.pct", "pct", "attention.forward"),
    ("attention.forward.calls", "calls", "attention.forward"),
    ("neck.csp.pct", "pct", "neck.csp"),
    ("neck.forward.self_pct", "self_pct", "neck.forward"),
    ("model.backbone.pct", "pct", "model.backbone"),
    ("model.head.pct", "pct", "model.head"),
    ("model.nms.pct", "pct", "model.nms"),
    ("model.nms.calls", "calls", "model.nms"),
    ("model.nms.candidates", "count", "model.nms.candidates"),
    ("model.nms.kept_ratio", "ratio", ("model.nms.kept", "model.nms.candidates")),
    ("model.decode.self_pct", "self_pct", "model.decode"),
    ("geometry.iou_matrix.calls", "calls", "geometry.iou_matrix"),
    ("geometry.iou_matrix.pct", "pct", "geometry.iou_matrix"),
    ("assignment.cost.pct", "pct", "assignment.cost"),
    ("assignment.match.pct", "pct", "assignment.match"),
    ("assignment.num_pos", "count", "assignment.num_pos"),
    ("assignment.mean_k", "ratio", ("assignment.k_sum", "assignment.gts")),
    ("assignment.unassigned_ratio", "ratio", ("assignment.unassigned", "assignment.gts")),
    ("losses.cls.pct", "pct", "losses.cls"),
    ("losses.giou.pct", "pct", "losses.giou"),
    ("train.sgd.pct", "pct", "train.sgd"),
    ("train.batch_losses.self_pct", "self_pct", "train.batch_losses"),
    ("evaluator.match.calls", "calls", "evaluator.match"),
    ("evaluator.match.pct", "pct", "evaluator.match"),
    ("evaluator.compute_ap.pct", "pct", "evaluator.compute_ap"),
    ("evaluator.evaluate.pct", "pct", "evaluator.evaluate"),
    ("evaluator.evaluate.self_pct", "self_pct", "evaluator.evaluate"),
    ("evaluator.error_breakdown.pct", "pct", "evaluator.error_breakdown"),
    ("evaluator.error_breakdown.self_pct", "self_pct", "evaluator.error_breakdown"),
    ("dataio.gen_synthetic.setup_pct", "setup_pct", "dataio.gen_synthetic"),
    ("dataio.normalize_images.setup_pct", "setup_pct", "dataio.normalize_images"),
)
UNITS = {"pct": "%", "self_pct": "%", "setup_pct": "%", "calls": "count",
         "count": "count", "ratio": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "detect", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import crackdet from this checkout's src/, or return the reason it failed."""
    sys.path.insert(0, SRC)
    try:
        import crackdet
    except ImportError as exc:
        return None, f"cannot import crackdet from {SRC}: {exc}"
    if not os.path.abspath(crackdet.__file__).startswith(SRC + os.sep):
        return None, f"crackdet was imported from {crackdet.__file__}, not from {SRC}"
    return crackdet, None


# -- provenance ---------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the program's sources, so a result names the code it measured."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "crackdet")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS, "blas_threads_reported": _blas_threads(),
        "processes": 1, "git_commit": _git_commit(), "src_sha256": _source_digest(),
    }


# -- runs -----------------------------------------------------------------------


def _quantile(values, q):
    """The q-th of 100 quantiles, interpolated between the order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(args, workloads, program):
    clock = workloads.Clock(rounds=ROUNDS[args.workload], seconds=args.seconds,
                            min_ops=MIN_OPS[args.workload])
    images_per_op = workloads.WORKLOADS[args.workload](args.seed, clock)
    ops_ms = [v * 1e3 for v in clock.op_s]
    metrics = {
        "setup_s": (statistics.median(clock.setup_s), "s"),
        "call_ms_min": (min(ops_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    op = OP_NAMES[args.workload]
    p50, p90 = statistics.median(ops_ms), _quantile(ops_ms, 90)
    lines = [
        f"{op}_ms_min {metrics['call_ms_min'][0]:.3f} ms  (fastest of {len(ops_ms)} ops)",
        f"{op}_ms_p10 {_quantile(ops_ms, 10):.3f} ms  (unbounded)",
        f"{op}_ms_p50 {p50:.3f} ms  (unbounded)",
        f"{op}_ms_p90 {p90:.3f} ms  ({sum(v >= p90 for v in ops_ms)} ops at or above it; "
        f"unbounded)",
        f"{args.workload}_images_per_s {images_per_op * len(ops_ms) * 1e3 / sum(ops_ms):.3f} "
        f"img/s  ({images_per_op} images per op, mean over the run; unbounded)",
        f"setup_s {metrics['setup_s'][0]:.4f} s  "
        f"(median of {len(clock.setup_s)}: {', '.join(f'{v:.4f}' for v in clock.setup_s)})",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
    ] + [f"{name} {statistics.median(values):.4f} s  (median of {len(values)}; unbounded)"
         for name, values in clock.parts.items()]
    detail = {"op_s": clock.op_s, "setup_s": clock.setup_s, "parts": clock.parts}
    return clock, metrics, lines, detail


def traced(args, workloads, program):
    from spans import Tracer

    n_ops = TRACE_OPS[args.workload]
    tracer = Tracer(program)
    clock = workloads.Clock(fixed_ops=2 * n_ops, tracer=tracer)
    images_per_op = workloads.WORKLOADS[args.workload](args.seed, clock)
    plain_s, traced_s = clock.op_s[0::2], clock.op_s[1::2]

    wall = sum(traced_s)
    table = tracer.table(lambda op: isinstance(op, int))
    setup = tracer.table(lambda op: op == "setup")
    setup_wall = sum(clock.setup_s)

    def value(kind, source):
        if kind in ("pct", "self_pct"):
            row = table.get(source)
            return 0.0 if row is None else 100.0 * row["incl_s" if kind == "pct" else "self_s"] / wall
        if kind == "calls":
            return table.get(source, {"calls": 0})["calls"] / n_ops
        if kind == "count":
            return tracer.counts.get(source, 0.0) / n_ops
        if kind == "ratio":
            num, den = (tracer.counts.get(s, 0.0) for s in source)
            return num / den if den else 0.0
        row = setup.get(source)
        return 0.0 if row is None else 100.0 * row["incl_s"] / setup_wall

    metrics = {name: (value(kind, source), UNITS[kind]) for name, kind, source in PER_LAYER}
    covered = sum(row["self_s"] for row in table.values())
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics["trace.coverage.pct"] = (100.0 * covered / wall, "%")
    metrics["trace.overhead.pct"] = (100.0 * overhead, "%")

    lines = [f"{n_ops} traced ops of {images_per_op} images, interleaved with {n_ops} "
             f"untraced; op p50 untraced {statistics.median(plain_s) * 1e3:.3f} ms, "
             f"traced {statistics.median(traced_s) * 1e3:.3f} ms",
             f"{'span':34s} {'calls/op':>10s} {'incl ms/op':>11s} {'self ms/op':>11s} "
             f"{'incl %':>8s} {'self %':>8s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:34s} {row['calls'] / n_ops:10.2f} "
                     f"{row['incl_s'] * 1e3 / n_ops:11.3f} {row['self_s'] * 1e3 / n_ops:11.3f} "
                     f"{100 * row['incl_s'] / wall:8.2f} {100 * row['self_s'] / wall:8.2f}")
    lines.append(f"self times cover {metrics['trace.coverage.pct'][0]:.2f} % of op wall time; "
                 f"tracing overhead {metrics['trace.overhead.pct'][0]:+.2f} %")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    detail = {"traced_op_s": traced_s, "untraced_op_s": plain_s, "setup_s": clock.setup_s,
              "spans": table, "setup_spans": setup, "counts": dict(tracer.counts)}
    return clock, metrics, lines, detail


def main(argv=None):
    args = parse_args(argv)
    program, problem = import_program()
    if program is None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    run = traced if args.trace else untraced
    clock, metrics, lines, detail = run(args, workloads, program)
    # A failed op counts once, and any failed run-level check once more.
    failed = len({op for op, _ in clock.failures})
    # Measured ops, one warm-up call per set-up, and the run-level checks.
    attempted = len(clock.op_s) + len(clock.setup_s) + 1
    info = provenance(args, np)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(info))
    for line in lines:
        print(line)
    print(f"fail_rate {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    for _, message in clock.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, provenance=info, detail=detail,
                  failures=[m for _, m in clock.failures])
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
