"""crackdet: desk-scale road-damage detection kit.

A numpy-backed detector with a 4D spatial-attention neck, dynamic soft-label
anchor assignment, matching losses, COCO-style evaluation with error-type
decomposition, annotation format tooling, and a synthetic training pipeline —
all verified against independent oracles and finite-difference gradient checks.
Boxes are corner (x1, y1, x2, y2) 4-sequences or (N, 4) arrays throughout;
``SIZE_RANGES`` is the one table of COCO size buckets.
"""

from .config import __version__
from .numerics import Tensor, finite_diff_check
from .geometry import SIZE_RANGES, iou, size_bucket
from .attention import Attention4DConfig, attention4d_forward, init_attention4d
from .neck import NeckConfig, PyramidFeatures, neck_forward, parameter_count
from .assignment import Assignment, CostMatrix, dynamic_assign
from .evaluator import EvalConfig, error_breakdown, evaluate
from .dataio import DatasetIndex, SyntheticConfig, gen_synthetic, load_coco, load_voc

__all__ = [
    "__version__",
    "Tensor", "finite_diff_check",
    "SIZE_RANGES", "iou", "size_bucket",
    "Attention4DConfig", "init_attention4d", "attention4d_forward",
    "NeckConfig", "PyramidFeatures", "neck_forward", "parameter_count",
    "Assignment", "CostMatrix", "dynamic_assign",
    "EvalConfig", "evaluate", "error_breakdown",
    "DatasetIndex", "SyntheticConfig", "gen_synthetic", "load_coco", "load_voc",
]
