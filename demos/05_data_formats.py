"""Synthetic dataset generation and annotation format round trips.

Generates a small deterministic dataset, prints its class/size histogram,
then pushes the annotations through COCO JSON and VOC XML and back, checking
nothing moved.
"""

import tempfile
from pathlib import Path

from crackdet.dataio import (SyntheticConfig, gen_synthetic, load_coco, load_voc, save_coco,
                             save_synthetic, save_voc, stats_table)

cfg = SyntheticConfig(num_images=12, image_size=128, num_classes=5, min_shapes=1, max_shapes=3,
                      seed=4)
images, index = gen_synthetic(cfg)
print(f"generated {len(images)} images, {len(index.annotations)} boxes, "
      f"{len(index.categories)} classes")
print("\n== class x size-bucket histogram ==")
print(stats_table(index))

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    save_synthetic(images, index, root / "dataset")
    print(f"\nwrote dataset layout: {sorted(p.name for p in (root / 'dataset').iterdir())}")

    save_voc(index, root / "voc")
    save_coco(load_voc(root / "voc"), root / "ds.json")
    save_voc(load_coco(root / "ds.json"), root / "voc2")
    a = load_voc(root / "voc")
    b = load_voc(root / "voc2")
    same = all(x.box == y.box for x, y in zip(a.annotations, b.annotations))
    print(f"VOC -> COCO -> VOC box equality: {same}")

    coco_back = load_coco(root / "ds.json")
    print(f"COCO reload annotation count: {len(coco_back.annotations)} "
          f"(original {len(index.annotations)})")
