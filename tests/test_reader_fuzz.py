"""Every reader against malformed files: ``cli.main`` returns 0, 1 or 2 and
never raises.

The valid files come from ``gen-data`` (its annotations also written as VOC
XML), a tiny 8-image ``train-toy`` and ``infer``. Each case mutates one of
them (a JSON-tree edit, an XML node edit or deletion, a byte truncation, a
PPM header edit, or an ``.npz`` member drop, dtype or shape change) and
runs, in process, every command that reads it. Hypothesis runs
derandomized, so each run tries the same cases. A raise here is a reader that
lets a malformed file through untyped: mend it at the reader with a
``DataError`` naming the file, never by widening ``main``'s ``except``.
"""

import json
import os
import shutil
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crackdet.cli import main
from crackdet.dataio import load_coco, save_voc

TINY = ["--set", "model.backbone_widths=[2,3,4,6,8]", "--set", "model.head_channels=4",
        "--set", "neck.out_channels=4", "--set", "neck.attn_key_dim=4",
        "--set", "synthetic.num_images=8", "--set", "training.steps=2",
        "--set", "training.batch_size=2"]
FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])
# Values a JSON edit writes in place of any node: each type, extreme and
# non-finite numbers, and empty and nested containers.
VALUES = [None, True, False, 0, -1, 1, 2.5, 2**63, -2**63, 1e308, -1e308, float("nan"),
          float("inf"), "", "x", "1", [], {}, [0, 0, 0, 0], {"id": 1}]


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """The valid files: a dataset dir, the same dir with VOC XML in place of
    ``annotations.json``, a checkpoint and two results files."""
    root = tmp_path_factory.mktemp("made")
    data, voc, train, infer = (str(root / name) for name in ("data", "voc", "train", "infer"))
    assert main(["gen-data", "--out", data] + TINY) == 0
    shutil.copytree(data, voc, ignore=shutil.ignore_patterns("annotations.json"))
    save_voc(load_coco(os.path.join(data, "annotations.json")), voc)
    assert main(["train-toy", "--out", train] + TINY) == 0
    ckpt = os.path.join(train, "checkpoint.npz")
    assert main(["infer", "--checkpoint", ckpt, "--images", data, "--out", infer] + TINY) == 0
    return {"root": root, "data": data, "voc": voc, "checkpoint": ckpt,
            "detections": os.path.join(infer, "detections.json"),
            "self_eval": os.path.join(train, "self_eval_detections.json")}


def fresh(made, name):
    path = made["root"] / "cases" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def run(*argv):
    """``main`` on ``argv`` with the tiny model; it must return an exit code."""
    rc = main(list(argv) + TINY)
    assert rc in (0, 1, 2), argv


def dataset_copy(made, case, source="data"):
    """A writable copy of the dataset dir (``source`` "voc": its VOC form) under ``case``."""
    data = os.path.join(case, "data")
    shutil.copytree(made[source], data)
    return data


def run_dataset_readers(made, data, case, image_index=0, images_only=False):
    """Every command that reads the dataset dir; with ``images_only``, the
    two that read its images."""
    out = os.path.join(case, "out")
    if not images_only:
        run("stats", "--dataset", data, "--out", out)
        run("eval", "--gt", data, "--dets", made["detections"], "--out", out)
        run("analyze", "--gt", data, "--dets", made["detections"], "--out", out)
    run("assign-debug", "--dataset", data, "--checkpoint", made["checkpoint"],
        "--image-index", str(image_index), "--out", out)
    run("infer", "--checkpoint", made["checkpoint"], "--images", data, "--out", out)


def edit_json(tree, path, op, value):
    """``tree`` with one node edited. ``path`` picks the node: each entry
    chooses a child (modulo the container's size) until a leaf or the path's
    end. ``op`` replaces the node with ``value``, deletes it, or duplicates
    it (a list entry is appended again; any other node becomes a pair)."""
    parent, key, node = None, None, tree
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[step % len(keys)]
        node = node[key]
    if parent is None:
        return value if op == "replace" else [tree, tree]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(json.loads(json.dumps(node)))
    else:
        parent[key] = [node, node]
    return tree


json_edits = dict(path=st.lists(st.integers(0, 10**6), max_size=5),
                  op=st.sampled_from(["replace", "delete", "duplicate"]),
                  value=st.sampled_from(VALUES))


@settings(FUZZ, max_examples=40)
@given(**json_edits)
# categories[0].name and images[0].file_name as numbers
@example(path=[1, 0, 1], op="replace", value=7)
@example(path=[2, 0, 0], op="replace", value=7)
def test_annotations_json_edit(made, path, op, value):
    case = fresh(made, "annotations")
    data = dataset_copy(made, case)
    ann = os.path.join(data, "annotations.json")
    with open(ann) as fh:
        tree = json.load(fh)
    with open(ann, "w") as fh:
        json.dump(edit_json(tree, path, op, value), fh)
    run_dataset_readers(made, data, case)


@settings(FUZZ, max_examples=40)
@given(source=st.sampled_from(["detections", "self_eval"]), **json_edits)
def test_detections_json_edit(made, source, path, op, value):
    case = fresh(made, "detections")
    with open(made[source]) as fh:
        tree = json.load(fh)
    dets = os.path.join(case, "detections.json")
    with open(dets, "w") as fh:
        json.dump(edit_json(tree, path, op, value), fh)
    out = os.path.join(case, "out")
    run("eval", "--gt", made["data"], "--dets", dets, "--out", out)
    run("analyze", "--gt", made["data"], "--dets", dets, "--out", out)


def _truncated_copy(src, dst, keep):
    with open(src, "rb") as fh:
        blob = fh.read()
    with open(dst, "wb") as fh:
        fh.write(blob[:int(keep * len(blob))])


@settings(FUZZ, max_examples=30)
@given(target=st.sampled_from(["annotations", "ppm", "detections", "checkpoint"]),
       keep=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_file(made, target, keep):
    case = fresh(made, "truncated")
    if target == "detections":
        dets = os.path.join(case, "detections.json")
        _truncated_copy(made["detections"], dets, keep)
        run("eval", "--gt", made["data"], "--dets", dets, "--out", os.path.join(case, "out"))
    elif target == "checkpoint":
        ckpt = os.path.join(case, "checkpoint.npz")
        _truncated_copy(made["checkpoint"], ckpt, keep)
        run_checkpoint_readers(made, ckpt, case)
    else:
        data = dataset_copy(made, case)
        name = "annotations.json" if target == "annotations" else "images/img_00001.ppm"
        _truncated_copy(os.path.join(made["data"], name), os.path.join(data, name), keep)
        run_dataset_readers(made, data, case, images_only=target == "ppm")


@settings(FUZZ, max_examples=30)
@given(image=st.integers(0, 10**6), node=st.integers(0, 10**6),
       op=st.sampled_from(["text", "delete", "truncate"]), value=st.sampled_from(VALUES),
       keep=st.floats(0.0, 1.0, exclude_max=True))
# Nodes below the root: 0 filename, 1 size, 2 width, 3 height, 6 name, 10 xmax.
@example(image=0, node=2, op="text", value=-1, keep=0.0)
@example(image=0, node=3, op="text", value=2.5, keep=0.0)
@example(image=0, node=6, op="text", value="", keep=0.0)
@example(image=0, node=10, op="text", value=2**63, keep=0.0)
def test_voc_xml_edit(made, image, node, op, value, keep):
    """One VOC file of the dataset with one node below the root given
    ``value`` as its text, or deleted, or the file's bytes cut to ``keep``."""
    case = fresh(made, "voc")
    data = dataset_copy(made, case, "voc")
    files = sorted(f for f in os.listdir(data) if f.endswith(".xml"))
    path = os.path.join(data, files[image % len(files)])
    if op == "truncate":
        _truncated_copy(path, path, keep)
    else:
        tree = ET.parse(path)
        nodes = list(tree.iter())[1:]  # document order
        target = nodes[node % len(nodes)]
        if op == "text":
            target.text = str(value)
        else:
            next(p for p in tree.iter() if target in p).remove(target)
        tree.write(path)
    run_dataset_readers(made, data, case)


TOKENS = [b"", b"0", b"-1", b"1", b"2", b"63", b"64", b"65", b"255", b"256", b"65535",
          b"99999999", b"9" * 30, b"x", b"4.5", b"#"]


@settings(FUZZ, max_examples=30)
@given(magic=st.sampled_from([b"P6", b"P5", b"P3", b"p6", b""]),
       fields=st.lists(st.sampled_from(TOKENS), min_size=0, max_size=4),
       sep=st.sampled_from([b" ", b"\n", b"\t"]))
@example(magic=b"P6", fields=[b"99999999", b"99999999", b"255"], sep=b" ")
def test_ppm_header_edit(made, magic, fields, sep):
    """The second image's header rewritten over the same pixel bytes."""
    case = fresh(made, "ppm")
    data = dataset_copy(made, case)
    path = os.path.join(data, "images", "img_00002.ppm")
    with open(path, "rb") as fh:
        fh.readline(), fh.readline(), fh.readline()
        pixels = fh.read()
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + sep.join(fields) + b"\n" + pixels)
    run_dataset_readers(made, data, case, image_index=1, images_only=True)


def run_checkpoint_readers(made, ckpt, case):
    out = os.path.join(case, "out")
    run("infer", "--checkpoint", ckpt, "--images", made["data"], "--out", out)
    run("assign-debug", "--dataset", made["data"], "--checkpoint", ckpt, "--out", out)


def checkpoint_arrays(made):
    with np.load(made["checkpoint"]) as archive:
        return {k: archive[k] for k in archive.files}


def edit_npz(arrays, member, op):
    """The checkpoint's arrays with one member (chosen modulo their count)
    dropped, recast, reshaped, made an object array or renamed."""
    key = sorted(arrays)[member % len(arrays)]
    arr = arrays[key]
    if op == "drop":
        del arrays[key]
    elif op in ("float32", "float16", "int64", "bool", "complex128", "<U3"):
        arrays[key] = arr.astype(op)
    elif op == "flat":
        arrays[key] = arr.reshape(-1)
    elif op == "extra_axis":
        arrays[key] = arr[None]
    elif op == "first":
        arrays[key] = arr[:1]
    elif op == "scalar":
        arrays[key] = np.float64(1.0)
    elif op == "nan":
        arrays[key] = np.full_like(arr, np.nan)
    elif op == "object":
        arrays[key] = np.array([None, 1], dtype=object)
    elif op == "rename":
        arrays[key + "_"] = arrays.pop(key)
    return arrays


NPZ_OPS = ["drop", "float32", "float16", "int64", "bool", "complex128", "<U3", "flat",
           "extra_axis", "first", "scalar", "nan", "object", "rename"]


@settings(FUZZ, max_examples=30)
@given(member=st.integers(0, 10**6), op=st.sampled_from(NPZ_OPS))
@example(member=0, op="object")
def test_checkpoint_member_edit(made, member, op):
    case = fresh(made, "npz")
    ckpt = os.path.join(case, "checkpoint.npz")
    np.savez(ckpt, **edit_npz(checkpoint_arrays(made), member, op))
    run_checkpoint_readers(made, ckpt, case)


@pytest.mark.parametrize("content", ["truncated", "empty", "text", "npy", "non_finite"])
def test_unreadable_checkpoint_named(made, capsys, content):
    """A truncated zip, an empty file, a text file, a plain ``.npy`` array
    and an archive holding a NaN each exit 1 with an error naming the file."""
    case = fresh(made, "unreadable")
    ckpt = os.path.join(case, "checkpoint.npz")
    if content == "truncated":
        _truncated_copy(made["checkpoint"], ckpt, 0.5)
    elif content == "npy":
        with open(ckpt, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif content == "non_finite":
        np.savez(ckpt, **edit_npz(checkpoint_arrays(made), 0, "nan"))
    else:
        with open(ckpt, "w") as fh:
            fh.write("" if content == "empty" else "not a checkpoint\n")
    capsys.readouterr()
    assert main(["infer", "--checkpoint", ckpt, "--images", made["data"],
                 "--out", os.path.join(case, "out")] + TINY) == 1
    assert ckpt in capsys.readouterr().err


def _error_line(capsys, argv, path):
    """``main``'s error line for ``argv``: exit 1, one ``error:`` line
    naming ``path``."""
    capsys.readouterr()
    assert main(argv + TINY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("content", ["bad_byte", "deep"])
@pytest.mark.parametrize("target", ["annotations", "detections", "config"])
def test_unreadable_json_named(made, capsys, target, content):
    """A byte that is not UTF-8, and nesting 100,000 deep (past the parser's
    depth), in each JSON file the kit reads exit 1 naming the file."""
    case = fresh(made, "unreadable_json")
    blob = b'{"images": "\xff"}' if content == "bad_byte" else b"[" * 100_000 + b"]" * 100_000
    out = os.path.join(case, "out")
    if target == "annotations":
        path = os.path.join(dataset_copy(made, case), "annotations.json")
        argv = ["stats", "--dataset", os.path.dirname(path), "--out", out]
    elif target == "detections":
        path = os.path.join(case, "detections.json")
        argv = ["eval", "--gt", made["data"], "--dets", path, "--out", out]
    else:
        path = os.path.join(case, "config.json")
        argv = ["gen-data", "--config", path, "--out", out]
    with open(path, "wb") as fh:
        fh.write(blob)
    assert "not valid JSON" in _error_line(capsys, argv, path)


@pytest.mark.parametrize("field", ["images[0].width", "annotations[0].bbox[2]",
                                   "results[0].score"])
def test_int_too_large_for_a_float_named(made, capsys, field):
    """10**400, written out in digits, fails the number rule with the file
    and the entry named (float() of it raises OverflowError)."""
    case = fresh(made, "big_int")
    out = os.path.join(case, "out")
    if field == "results[0].score":
        path = os.path.join(case, "detections.json")
        tree = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 10**400}]
        argv = ["eval", "--gt", made["data"], "--dets", path, "--out", out]
    else:
        path = os.path.join(dataset_copy(made, case), "annotations.json")
        with open(path) as fh:
            tree = json.load(fh)
        if field == "images[0].width":
            tree["images"][0]["width"] = 10**400
        else:
            tree["annotations"][0]["bbox"][2] = 10**400
        argv = ["stats", "--dataset", os.path.dirname(path), "--out", out]
    with open(path, "w") as fh:
        json.dump(tree, fh)
    assert f"{field} must be a finite number" in _error_line(capsys, argv, path)


@pytest.mark.parametrize("command", ["infer", "assign-debug"])
def test_nul_in_file_name_named(made, capsys, command):
    """A NUL in an image's file_name, which no path can hold, is a DataError
    of the annotations file, not a raw ValueError from ``open``."""
    case = fresh(made, "nul")
    data = dataset_copy(made, case)
    path = os.path.join(data, "annotations.json")
    with open(path) as fh:
        tree = json.load(fh)
    tree["images"][0]["file_name"] = "img\x00.ppm"
    with open(path, "w") as fh:
        json.dump(tree, fh)
    flag = "--images" if command == "infer" else "--dataset"
    argv = [command, "--checkpoint", made["checkpoint"], flag, data,
            "--out", os.path.join(case, "out")]
    assert "images[0].file_name" in _error_line(capsys, argv, path)
