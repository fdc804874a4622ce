"""The dynamic soft-label assigner on a six-anchor toy scene.

Shows the three cost terms for one (gt, anchor) pair, the assembled cost
matrix, the dynamic match counts read off top-IoU sums, and how a contested
anchor goes to the cheaper ground truth while the loser falls back.
"""

import numpy as np

from crackdet.assignment import (build_cost_matrix, center_cost_from_distance,
                                 classification_cost, dynamic_assign, location_cost, total_cost)

print("== cost terms ==")
print(f"classification cost at y=1, y_hat=0.5: {classification_cost(0.5, 1.0):.6f}")
print(f"location cost at IoU 1.0 / 0.5 / 0.0: {location_cost(1.0):.3f} / "
      f"{location_cost(0.5):.6f} / {location_cost(0.0):.3f}")
print(f"center cost at stride-normalized distances 3 and 4: "
      f"{center_cost_from_distance(3.0):.3f} and {center_cost_from_distance(4.0):.3f}")
print(f"weighted total of (0.1733, 0.6931, 1.0): {total_cost(0.1733, 0.6931, 1.0):.4f}")

print("\n== a small scene ==")
points = np.array([[4.0, 4.0], [12.0, 4.0], [20.0, 4.0], [4.0, 12.0], [12.0, 12.0], [60.0, 60.0]])
strides = np.full(6, 8.0)
gt_boxes = np.array([[0.0, 0.0, 16.0, 16.0],
                     [8.0, 0.0, 24.0, 14.0]])
gt_labels = np.array([0, 1])
probs = np.array([[0.7, 0.2], [0.6, 0.55], [0.2, 0.6], [0.5, 0.3], [0.45, 0.4], [0.1, 0.1]])
centers = points
half = np.array([[7, 7], [8, 6], [7, 6], [6, 6], [7, 7], [5, 5]], dtype=float)
pred_boxes = np.concatenate([centers - half, centers + half], axis=1)

cm = build_cost_matrix(probs, pred_boxes, points, strides, gt_boxes, gt_labels)
print("candidate mask (anchor point inside the gt box):")
print(cm.candidates.astype(int))
with np.printoptions(precision=2, suppress=True):
    print("cost matrix (inf = not a candidate):")
    print(cm.cost)

assignment = dynamic_assign(cm)
print(f"\ndynamic k per gt (from summed top-IoUs): {assignment.k_per_gt.tolist()}")
for anchor, gt in enumerate(assignment.gt_index):
    tag = "background" if gt < 0 else f"gt {gt} (soft label {assignment.soft_label[anchor]:.3f})"
    print(f"anchor {anchor} at {points[anchor].tolist()} -> {tag}")
if assignment.unassigned_gts:
    print(f"unassigned gts: {assignment.unassigned_gts}")
