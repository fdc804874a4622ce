"""Golden reports: ``evaluate`` and ``error_breakdown`` on one fixed seeded
256-px scene must reproduce the stored JSON byte for byte.

The scene has GTs in every size stratum, jittered true positives over a
spread of IoUs, lower-scored duplicates, wrong-class copies and background
boxes, with more than ``max_dets`` detections in some (image, category)
groups. Regenerate the file only for an intended change of the reports:

    PYTHONPATH=src python tests/test_evaluator_golden.py --write
"""

import json
import os
import sys

import numpy as np

from crackdet import dataio
from crackdet.evaluator import MAX_DETS, error_breakdown, evaluate
from crackdet.model import Detection

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "evaluator_golden.json")
SIZE = 256


def golden_scene():
    """(index, detections): 12 images of 256-px GTs, 240 detections each."""
    _, index = dataio.gen_synthetic(dataio.SyntheticConfig(
        num_images=12, image_size=SIZE, num_classes=3, min_shapes=2, max_shapes=5, seed=21))
    rng = np.random.default_rng(2021)
    dets = []
    for im in index.images:
        start = len(dets)
        anns = [a for a in index.annotations if a.image_id == im.id]
        for ann in anns:
            box = np.array(ann.box)
            wh = np.tile(box[2:] - box[:2], 2)
            for copy in range(int(rng.integers(1, 5))):
                noise = rng.normal(0.0, 0.04 + 0.08 * copy, 4) * wh
                x1, y1, x2, y2 = np.clip(box + noise, 0.0, SIZE).tolist()
                cat = ann.category_id if rng.random() < 0.85 else int(rng.integers(1, 4))
                dets.append(Detection(image_id=im.id, category_id=cat,
                                      score=float(rng.uniform(0.2, 1.0) / (1 + copy)),
                                      box=(x1, y1, max(x2, x1 + 1.0), max(y2, y1 + 1.0))))
        # Background, half of it in one class: that group exceeds max_dets.
        for _ in range(240 - (len(dets) - start)):
            x, y = rng.uniform(0.0, SIZE - 8.0, 2)
            w, h = rng.uniform(4.0, 110.0, 2)
            cat = int(rng.choice(3, p=(0.5, 0.3, 0.2))) + 1
            dets.append(Detection(image_id=im.id, category_id=cat,
                                  score=float(rng.beta(1.5, 5.0)),
                                  box=(x, y, min(x + w, SIZE), min(y + h, SIZE))))
    return index, dets


def golden_reports():
    """The stored JSON text: both reports at ``MAX_DETS`` and at max_dets 1."""
    index, dets = golden_scene()
    reports = {}
    for name, max_dets in (("default", MAX_DETS), ("max_dets_1", 1)):
        reports[name] = {"evaluate": evaluate(index, dets, max_dets=max_dets).to_dict(),
                         "error_breakdown": error_breakdown(index, dets,
                                                            max_dets=max_dets).to_dict()}
    return json.dumps(reports, indent=1) + "\n"


def test_reports_equal_golden_file():
    with open(GOLDEN_PATH) as fh:
        assert golden_reports() == fh.read()


def test_golden_scene_exercises_every_stratum_and_the_cut():
    index, dets = golden_scene()
    areas = [(a.box[2] - a.box[0]) * (a.box[3] - a.box[1]) for a in index.annotations]
    assert min(areas) < 32 ** 2 and max(areas) >= 96 ** 2
    assert any(32 ** 2 <= a < 96 ** 2 for a in areas)
    counts = {}
    for d in dets:
        counts[(d.image_id, d.category_id)] = counts.get((d.image_id, d.category_id), 0) + 1
    assert max(counts.values()) > MAX_DETS


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(golden_reports())
