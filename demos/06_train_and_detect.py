"""End-to-end: train a small detector on synthetic damage and inspect it.

Uses a reduced schedule (120 steps on 60 images) so the demo finishes in
well under a minute; the full default schedule lives behind
`crackdet train-toy`.
"""

from crackdet.config import load_config
from crackdet.evaluator import EvalConfig, evaluate
from crackdet.train import predict_dataset, train_toy

cfg = load_config(overrides=[
    "synthetic.num_images=60",
    "training.steps=120",
])

print("training (120 steps, batch 4, cosine lr)...")
log = []
detector, index, raw_images, rows = train_toy(cfg, progress=lambda s, br: log.append(br))
for step in (0, 39, 79, 119):
    br = log[step]
    print(f"  step {step:>3}: cls {br.cls_loss:.4f}  reg {br.reg_loss:.4f}  "
          f"total {br.total:.4f}  positives {br.num_pos}")

print("\nself-evaluation on the training split:")
ids = [im.id for im in index.images]
detections = predict_dataset(detector, raw_images, ids)
report = evaluate(index, detections, EvalConfig())
print(report.to_table())

img_id = ids[0]
print(f"\ntop detections on image {img_id}:")
gt = [(a.category_id, tuple(int(v) for v in a.box)) for a in index.annotations
      if a.image_id == img_id]
print(f"  ground truth: {gt}")
for d in [d for d in detections if d.image_id == img_id][:4]:
    print(f"  class {d.category_id} score {d.score:.3f} "
          f"box {tuple(round(v, 1) for v in d.box)}")
