"""Run-time tracer for the benchmark's traced runs.

The tracer times calls into the public functions of each crackdet module
from outside the program: ``install`` swaps every binding of a traced
function for a timing wrapper, ``uninstall`` puts the originals back. A
function imported with ``from .geometry import iou_matrix`` is bound
separately in each importing module, so every module attribute that holds
the original object is replaced, not only the one in its home module.

Each call records a span (name, start, end, parent span, op id). Spans stay
in memory and are written out once, when the run ends. The op id is whatever
the workload set in ``Tracer.op`` when the call started: an int for a
measured op (train step, detect batch, evaluate call), ``"setup"`` during
set-up, ``None`` between ops.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name): module-level functions, wrapped at every binding.
FUNCTION_SPANS = (
    ("numerics", "conv1x1", "numerics.conv1x1"),
    ("numerics", "conv3x3s2", "numerics.conv3x3s2"),
    ("numerics", "batchnorm", "numerics.batchnorm"),
    ("attention", "attention4d_forward", "attention.forward"),
    ("neck", "csp_layer", "neck.csp"),
    ("neck", "neck_forward", "neck.forward"),
    ("model", "backbone_forward", "model.backbone"),
    ("model", "head_forward", "model.head"),
    ("model", "decode", "model.decode"),
    ("model", "nms", "model.nms"),
    ("geometry", "iou_matrix", "geometry.iou_matrix"),
    ("assignment", "build_cost_matrix", "assignment.cost"),
    ("assignment", "dynamic_assign", "assignment.match"),
    ("losses", "soft_cls_loss_pooled", "losses.cls"),
    ("losses", "giou_loss", "losses.giou"),
    ("train", "batch_losses", "train.batch_losses"),
    ("evaluator", "match_detections", "evaluator.match"),
    ("evaluator", "compute_ap", "evaluator.compute_ap"),
    ("evaluator", "evaluate", "evaluator.evaluate"),
    ("evaluator", "error_breakdown", "evaluator.error_breakdown"),
    ("dataio", "gen_synthetic", "dataio.gen_synthetic"),
    ("dataio", "normalize_images", "dataio.normalize_images"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("numerics", "Tensor", "backward", "numerics.backward"),
    ("train", "SGD", "step", "train.sgd"),
    ("train", "SGD", "zero_grad", "train.sgd"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    The wrappers are built once; ``install`` and ``uninstall`` only swap
    bindings, so a run can trace some ops and leave others untraced.
    """

    def __init__(self, package):
        self.op = None
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._bindings = self._find_bindings(package)

    def _wrap(self, fn, name, hook=None):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None and isinstance(tracer.op, int):
                hook(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _find_bindings(self, package):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        hooks = {"model.nms": _nms_hook, "assignment.match": _assign_hook}
        bindings = []
        for mod_name, fn_name, span in FUNCTION_SPANS:
            original = getattr(sys.modules[prefix + mod_name], fn_name)
            wrapper = self._wrap(original, span, hooks.get(span))
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        bindings.append((mod, attr, original, wrapper))
        for mod_name, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(sys.modules[prefix + mod_name], cls_name)
            original = cls.__dict__[meth]
            bindings.append((cls, meth, original, self._wrap(original, span)))

        # numerics calls np.einsum through the numpy module attribute.
        bindings.append((np, "einsum", np.einsum, self._wrap(np.einsum, "numerics.einsum")))

        tensor = sys.modules[prefix + "numerics"].Tensor
        init = tensor.__dict__["__init__"]
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            if isinstance(self.op, int):
                counts["numerics.tensors"] += 1
            init(obj, *args, **kwargs)

        bindings.append((tensor, "__init__", init, counted_init))
        return bindings

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def table(self, select) -> dict:
        """name -> {calls, incl_s, self_s} over spans whose op satisfies ``select``."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        self_t = self.self_times()
        out: dict[str, dict] = {}
        for i, (name, op) in enumerate(zip(self.names, self.ops)):
            if not select(op):
                continue
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += float(dur[i])
            row["self_s"] += float(self_t[i])
        return out

    def write(self, path):
        """Dump every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row) + "\n")


def _nms_hook(counts, args, result):
    counts["model.nms.candidates"] += len(args[1])
    counts["model.nms.kept"] += len(result)


def _assign_hook(counts, args, result):
    counts["assignment.num_pos"] += result.num_pos
    counts["assignment.gts"] += len(result.k_per_gt)
    counts["assignment.k_sum"] += int(result.k_per_gt.sum())
    counts["assignment.unassigned"] += len(result.unassigned_gts)
