"""Every exit-code contract of the ``crackdet`` command, run as a real process.

``ROWS`` holds one row per contract: the command line, the input files
written into the run's directory first, the exit code, and the text the run
must print (on stderr when it fails, on stdout when it succeeds). The runner
starts ``python -m crackdet``, the path the installed console script takes
too (both exit with ``main``'s return value), in a fresh directory, with an
absolute ``PYTHONPATH`` to this checkout's ``src`` and one BLAS thread. A
relative path would send a child in another directory to "No module named
crackdet", which also exits 1. So every row also checks that the child ran
crackdet: a failing run prints argparse's usage or crackdet's one
``error:`` line (under 300 bytes), never a traceback, and every run writes
exactly the files its ``writes`` column names (a failing run writes nothing,
not even an empty directory).

A new exit-code contract is a new row here; an in-process test in
``test_cli.py`` stays only for what a row cannot see (a monkeypatched
fault, ``main`` raising ``SystemExit``).
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
from typing import NamedTuple

import pytest

from crackdet import __version__
from crackdet.config import config_dict, load_config

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
# The address space of a run marked ``memory``: 2,000,000 KiB, room for
# Python and numpy but not for an array sized in TiB.
ADDRESS_SPACE = 2_000_000 * 1024


class Row(NamedTuple):
    argv: str  # split on spaces
    says: str  # on stderr if the run fails, on stdout if it exits 0
    code: int = 1
    files: dict = {}  # name -> bytes, written before the run
    writes: dict = {}  # name -> sha256 of each file the run writes
    memory: bool = False  # run under ADDRESS_SPACE (RLIMIT_AS, the child only)


COCO = {"images": [{"id": 1, "file_name": "a.ppm", "width": 64, "height": 64}],
        "annotations": [], "categories": []}
VOC = b"""<annotation><filename>a.ppm</filename>
  <size><width>-5</width><height>64</height></size>
  <object><name>crack</name>
    <bndbox><xmin>1</xmin><ymin>1</ymin><xmax>500</xmax><ymax>9</ymax></bndbox>
  </object>
</annotation>"""
# A config echo written before SGD's momentum and weight decay and the eval
# section's max_dets became constants, keys sorted as a run writes them; the
# first holds only the old training section.
ECHO = config_dict(load_config())
OLD_TRAINING = dict(ECHO, training=dict(ECHO["training"], momentum=0.9, weight_decay=0.0005))
OLD_ECHO = dict(OLD_TRAINING, eval={"max_dets": 100})
EVAL_INPUTS = {"gt.json": json.dumps(COCO).encode(), "dets.json": b"[]"}

ROWS = {
    "version": Row("--version", f"crackdet {__version__}\n", code=0),
    "gen-data-pin": Row(
        "gen-data --set synthetic.num_images=3 --out pin",
        "wrote 3 images, 8 annotations to pin", code=0, writes={
            "pin/annotations.json":
                "534cb81f10e4b9dcd95369c27f0dc46bb1c8b250a6af62af2f57450466721264",
            "pin/images/img_00001.ppm":
                "2b5eccec7c7a1a291b86c098832251bdac2f6fdcfd3cbd0822ba4efc288bd578",
            "pin/images/img_00002.ppm":
                "b4846ceebc86c66b7c429267f44a01c68b95b2ba478ec05b93086b3ae3f4725e",
            "pin/images/img_00003.ppm":
                "d919ced179c55914a69cc9730d85de25aa4cfb1e3c4c6594560bd304ab4a2614"}),
    # Config values: a range, a removed key, a cut value.
    "negative-seed": Row("gen-data --seed -1 --out g",
                         "training.seed must be in [0, inf), got -1"),
    "negative-min-shapes": Row("gen-data --set synthetic.min_shapes=-1 --out j",
                               "synthetic.min_shapes must be in [0, inf), got -1"),
    "removed-training-schedule": Row("gen-data --set training.schedule=constant --out h",
                                     "unknown config key 'training.schedule'"),
    "removed-numerics-bn-eps": Row("gen-data --set numerics.bn_eps=1e-3 --out i",
                                   "unknown config key 'numerics.bn_eps'"),
    "removed-assignment-iou-floor": Row("gen-data --set assignment.iou_floor=1e-9 --out k",
                                        "unknown config key 'assignment.iou_floor'"),
    "removed-assignment-alpha": Row("gen-data --set assignment.alpha=10 --out t",
                                    "unknown config key 'assignment.alpha'"),
    "removed-loss-w-reg": Row("gen-data --set loss.w_reg=2 --out u",
                              "unknown config key 'loss.w_reg'"),
    "old-echo-training-momentum": Row(
        "eval --config old.json --gt gt.json --dets dets.json --out e",
        "unknown config key 'training.momentum'",
        files={"old.json": json.dumps(OLD_TRAINING, sort_keys=True).encode(), **EVAL_INPUTS}),
    "old-echo-eval-section": Row(
        "eval --config old.json --gt gt.json --dets dets.json --out f",
        "unknown config section 'eval'",
        files={"old.json": json.dumps(OLD_ECHO, sort_keys=True).encode(), **EVAL_INPUTS}),
    "long-value-cut": Row(f"gen-data --set neck.placement={'x' * 5000} --out q",
                          f"unknown neck.placement '{'x' * 80}...'"),
    # Input files: each error line names the file and, in it, the entry.
    "config-bad-byte": Row("gen-data --config byte.json --out m", "byte.json: not valid JSON",
                           files={"byte.json": b'{"training": "\xff"}'}),
    "dataset-too-deep": Row("stats --dataset deep.json --out n", "deep.json: not valid JSON",
                            files={"deep.json": b"[" * 100_000 + b"\n"}),
    "coco-width-string": Row(
        "stats --dataset str.json --out p",
        "str.json: images[0].width must be a finite number, got ' 64 '",
        files={"str.json": json.dumps(
            dict(COCO, images=[dict(COCO["images"][0], width=" 64 ")])).encode()}),
    "coco-box-outside-image": Row(
        "stats --dataset far.json --out y",
        "far.json: annotations[0]: box [100.0, 100.0, 110.0, 110.0] lies wholly outside its "
        "64x64 image",
        files={"far.json": json.dumps(dict(
            COCO, annotations=[{"id": 1, "image_id": 1, "category_id": 1,
                                "bbox": [100, 100, 10, 10]}],
            categories=[{"id": 1, "name": "crack"}])).encode()}),
    "voc-negative-width": Row("stats --dataset voc --out o",
                              "a.xml: <size>: <width> must be an integer of at least 1, got '-5'",
                              files={"voc/a.xml": VOC}),
    "assign-debug-no-images": Row(
        "assign-debug --dataset empty.json --out o",
        "--image-index 0 is out of range: empty.json holds no images",
        files={"empty.json": json.dumps(dict(COCO, images=[])).encode()}),
    # Command lines: crackdet's own check, then argparse's usage errors.
    "gradcheck-no-seeds": Row("gradcheck --seeds 0 --out l", "--seeds must be at least 1, got 0"),
    "stats-without-dataset": Row("stats --out s",
                                 "the following arguments are required: --dataset"),
    "seeds-not-an-int": Row("gradcheck --seeds abc", "argument --seeds: invalid int value: 'abc'"),
    "unknown-command": Row("train", "argument command: invalid choice: 'train'"),
    "no-command": Row("", "the following arguments are required: command"),
    # Sizes too large for the machine: numpy's MemoryError is an error line.
    "head-channels-too-large": Row(
        "assign-debug --dataset one.json --set model.head_channels=10000000000 --out v",
        "Unable to allocate", files={"one.json": json.dumps(COCO).encode()}, memory=True),
    "num-images-too-large": Row("gen-data --set synthetic.num_images=100000000 --out w",
                                "Unable to allocate", memory=True),
    "image-size-too-large": Row("gen-data --set synthetic.image_size=200000 --out x",
                                "Unable to allocate", memory=True),
}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(row, cwd):
    """The finished ``python -m crackdet`` process of ``row``, run in ``cwd``."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "crackdet", *row.argv.split()], cwd=cwd,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_address_space if row.memory else None)


def files_under(root):
    """{path relative to ``root``: sha256} of every file under ``root``."""
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root).replace(os.sep, "/")] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return found


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_contract(tmp_path, row):
    for name, blob in row.files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(blob)
    inputs = files_under(tmp_path)
    proc = run(row, tmp_path)
    assert proc.returncode == row.code, proc.stderr
    assert "Traceback" not in proc.stderr
    if row.code:
        assert proc.stderr.startswith(("error: ", "usage: crackdet")), proc.stderr
        if proc.stderr.startswith("error: "):  # crackdet's own line, a long value cut
            assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 300
        assert row.says in proc.stderr, proc.stderr
        assert sorted(os.listdir(tmp_path)) == sorted({n.split("/")[0] for n in row.files})
    else:
        assert proc.stderr == ""
        assert row.says in proc.stdout
    written = {k: v for k, v in files_under(tmp_path).items() if k not in inputs}
    assert written == row.writes
