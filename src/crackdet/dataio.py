"""Annotation ingestion, format conversion, dataset statistics, synthetic data.

COCO JSON (images/annotations/categories subset) and Pascal VOC XML load into
one canonical in-memory index that stores corner boxes; the top-left [x,y,w,h]
COCO convention and the center-form convention are both handled at the
serialization boundary. The synthetic generator paints class-coded damage
primitives on noise backgrounds and emits tight boxes, deterministically per
seed. Images use uncompressed PPM to stay codec-free. Every file the kit
writes goes through ``write_atomic`` and every JSON file it reads through
``read_json``; every number it reads passes ``errors.finite``.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError, check_fields, cut, finite
from .geometry import SIZE_RANGES, size_bucket

SHAPE_KINDS = ("transverse", "longitudinal", "alligator", "block", "pothole")
# The smallest synthetic canvas: _sample_box places its 14-15 px broad kinds
# only when size - 2 > 15.
MIN_SYNTHETIC_SIZE = 18


def write_atomic(path, data):
    """Write ``data`` (str or bytes) to ``path``, creating its directory: a
    temp file beside it, then a rename over it, so an interrupted write
    leaves the previous file whole."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def read_json(path, error=DataError):
    """The JSON value in the UTF-8 file at ``path``; ``error`` naming the file if it
    is not valid JSON (a bad byte or syntax, too deep a nesting, too long an int)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError covers bad bytes and syntax
            raise error(f"{path}: not valid JSON ({exc})") from exc


@dataclass
class ImageInfo:
    id: int
    file_name: str
    width: int
    height: int


@dataclass
class Annotation:
    id: int
    image_id: int
    category_id: int
    box: tuple[float, float, float, float]


@dataclass
class Category:
    id: int
    name: str


@dataclass
class DatasetIndex:
    images: list[ImageInfo]
    annotations: list[Annotation]
    categories: list[Category]
    clamp_warnings: int = 0

    def category_names(self):
        return {c.id: c.name for c in self.categories}


def _require(record, key, path, entry):
    """``record[key]`` of one COCO entry; DataError naming the file and entry otherwise."""
    if not isinstance(record, dict):
        raise DataError(f"{path}: {entry} must be an object, got {type(record).__name__}")
    if key not in record:
        raise DataError(f"{path}: missing field '{entry}.{key}'")
    return record[key]


def _id(record, key, path, entry):
    """An id field of one COCO entry: ids key dicts and sets and are ordered
    in reports, so a list, an object, a bool or null is a DataError naming the
    file and entry."""
    value = _require(record, key, path, entry)
    if value is None or isinstance(value, (list, dict, bool)):
        raise DataError(f"{path}: {entry}.{key} must be a number or string, "
                        f"got {type(value).__name__}")
    return value


def _text(value, name):
    """A name read from an annotation file (a category's name, an image's
    ``file_name``): a non-empty string with no NUL, which no path can hold,
    or a DataError naming ``name``."""
    if not isinstance(value, str):
        raise DataError(f"{name} must be a string, got {type(value).__name__}")
    if not value or "\0" in value:
        raise DataError(f"{name} must be a non-empty string with no NUL, got {cut(repr(value))}")
    return value


def _size(value, name, text=False):
    """An image's width or height: a finite, integral number of at least 1,
    or a DataError naming ``name``. A JSON number is kept as written; XML
    text (``text``) becomes an int."""
    number = finite(value, name, text=text)
    if number < 1 or not number.is_integer():
        raise DataError(f"{name} must be an integer of at least 1, got {cut(repr(value))}")
    return int(number) if text else value


def _clamped(box, width, height, entry):
    """The corner ``box`` clamped into a ``width`` x ``height`` image, or a
    DataError naming ``entry`` if the box has area but none of it inside."""
    x1, y1, x2, y2 = inside = tuple(min(max(v, 0.0), float(size))
                                    for v, size in zip(box, (width, height) * 2))
    if box[2] > box[0] and box[3] > box[1] and (x2 == x1 or y2 == y1):
        raise DataError(f"{entry}: box {list(box)} lies wholly outside its {width}x{height} image")
    return inside


def _bbox(record, path, entry):
    """The ``[x, y, w, h]`` bbox of one COCO entry as four floats, or a
    DataError naming the file and entry."""
    bbox = _require(record, "bbox", path, entry)
    if not isinstance(bbox, list) or len(bbox) != 4:
        raise DataError(f"{path}: {entry}.bbox must be a list of 4 numbers")
    return [finite(v, f"{path}: {entry}.bbox[{k}]") for k, v in enumerate(bbox)]


def _check_unique(ids, table):
    seen = set()
    for i in ids:
        if i in seen:
            raise DataError(f"duplicate id {i} in {table}")
        seen.add(i)


def load_coco(path, center_boxes=False) -> DatasetIndex:
    """Parse the COCO schema subset; bbox is top-left [x,y,w,h] unless
    ``center_boxes`` flags the center-form annotation convention."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: top level must be a JSON object, got {type(raw).__name__}")
    for key in ("images", "annotations", "categories"):
        if key not in raw:
            raise DataError(f"{path}: missing top-level key '{key}'")
        if not isinstance(raw[key], list):
            raise DataError(f"{path}: top-level '{key}' must be a list, "
                            f"got {type(raw[key]).__name__}")

    def checked(rule, record, key, entry):
        return rule(_require(record, key, path, entry), f"{path}: {entry}.{key}")

    images = [ImageInfo(id=_id(r, "id", path, f"images[{i}]"),
                        file_name=checked(_text, r, "file_name", f"images[{i}]"),
                        width=checked(_size, r, "width", f"images[{i}]"),
                        height=checked(_size, r, "height", f"images[{i}]"))
              for i, r in enumerate(raw["images"])]
    categories = [Category(id=_id(r, "id", path, f"categories[{i}]"),
                           name=checked(_text, r, "name", f"categories[{i}]"))
                  for i, r in enumerate(raw["categories"])]
    _check_unique([im.id for im in images], "images")
    _check_unique([c.id for c in categories], "categories")
    image_ids = {im.id: im for im in images}
    category_ids = {c.id for c in categories}

    annotations = []
    clamped = 0
    for i, r in enumerate(raw["annotations"]):
        entry = f"annotations[{i}]"
        ann_id, image_id, category_id = (_id(r, k, path, entry)
                                         for k in ("id", "image_id", "category_id"))
        x, y, w, h = _bbox(r, path, entry)
        if image_id not in image_ids:
            raise DataError(f"annotation {ann_id} references unknown image id {image_id}")
        if category_id not in category_ids:
            raise DataError(f"annotation {ann_id} references unknown category id {category_id}")
        if w < 0 or h < 0:
            raise DataError(f"annotation {ann_id} has negative box size")
        if center_boxes:
            x1, y1, x2, y2 = x - w / 2.0, y - h / 2.0, x + w / 2.0, y + h / 2.0
        else:
            x1, y1, x2, y2 = x, y, x + w, y + h
        im = image_ids[image_id]
        box = _clamped((x1, y1, x2, y2), im.width, im.height, f"{path}: {entry}")
        clamped += box != (x1, y1, x2, y2)
        annotations.append(Annotation(id=ann_id, image_id=image_id,
                                      category_id=category_id, box=box))
    _check_unique([a.id for a in annotations], "annotations")
    return DatasetIndex(images=images, annotations=annotations,
                        categories=categories, clamp_warnings=clamped)


def _num(v):
    """Serialize integral coordinates as ints so round trips stay lossless."""
    f = float(v)
    return int(f) if f.is_integer() else f


def coco_dict(index: DatasetIndex) -> dict:
    anns = []
    for a in index.annotations:
        x1, y1, x2, y2 = a.box
        anns.append({"id": a.id, "image_id": a.image_id, "category_id": a.category_id,
                     "bbox": [_num(v) for v in (x1, y1, x2 - x1, y2 - y1)],
                     "area": _num((x2 - x1) * (y2 - y1))})
    return {
        "images": [{"id": im.id, "file_name": im.file_name,
                    "width": im.width, "height": im.height} for im in index.images],
        "annotations": anns,
        "categories": [{"id": c.id, "name": c.name} for c in index.categories],
    }


def save_coco(index: DatasetIndex, path):
    write_atomic(path, json.dumps(coco_dict(index), indent=2, sort_keys=True) + "\n")


def load_voc(dirpath) -> DatasetIndex:
    """Parse a directory of VOC XML files; category ids follow sorted names."""
    files = sorted(f for f in os.listdir(dirpath) if f.endswith(".xml"))
    if not files:
        raise DataError(f"{dirpath}: no .xml files found")
    parsed = []
    names = set()
    clamped = 0
    for fname in files:
        fpath = os.path.join(dirpath, fname)
        try:
            root = ET.parse(fpath).getroot()
        except ET.ParseError as exc:
            raise DataError(f"{fpath}: XML parse error ({exc})") from exc
        filename = root.findtext("filename") or fname.replace(".xml", ".jpg")
        size = root.find("size")
        if size is None:
            raise DataError(f"{fpath}: missing <size>")
        width, height = (_size(size.findtext(k), f"{fpath}: <size>: <{k}>", text=True)
                         for k in ("width", "height"))
        objects = []
        for j, obj in enumerate(root.findall("object")):
            name = obj.findtext("name")
            if name is None:
                raise DataError(f"{fpath}: <object> without <name>")
            _text(name, f"{fpath}: object[{j}] <name>")
            bnd = obj.find("bndbox")
            if bnd is None:
                raise DataError(f"{fpath}: <object> without <bndbox>")
            box = tuple(finite(bnd.findtext(k), f"{fpath}: object[{j}] <bndbox>: <{k}>", text=True)
                        for k in ("xmin", "ymin", "xmax", "ymax"))
            if box[2] < box[0] or box[3] < box[1]:
                raise DataError(f"{fpath}: inverted bndbox")
            inside = _clamped(box, width, height, f"{fpath}: object[{j}]")
            clamped += inside != box
            objects.append((name, inside))
            names.add(name)
        parsed.append((filename, width, height, objects))

    category_ids = {name: i + 1 for i, name in enumerate(sorted(names))}
    images, annotations = [], []
    for image_id, (filename, width, height, objects) in enumerate(parsed, start=1):
        images.append(ImageInfo(id=image_id, file_name=filename, width=width, height=height))
        for name, box in objects:
            annotations.append(Annotation(id=len(annotations) + 1, image_id=image_id,
                                          category_id=category_ids[name], box=box))
    categories = [Category(id=i, name=n) for n, i in sorted(category_ids.items(), key=lambda kv: kv[1])]
    return DatasetIndex(images=images, annotations=annotations, categories=categories,
                        clamp_warnings=clamped)


def save_voc(index: DatasetIndex, dirpath):
    """One XML per image; numbers serialized losslessly for integral coords."""
    os.makedirs(dirpath, exist_ok=True)
    names = index.category_names()
    by_image = {}
    for a in index.annotations:
        by_image.setdefault(a.image_id, []).append(a)
    for im in index.images:
        root = ET.Element("annotation")
        ET.SubElement(root, "filename").text = im.file_name
        size = ET.SubElement(root, "size")
        ET.SubElement(size, "width").text = str(im.width)
        ET.SubElement(size, "height").text = str(im.height)
        ET.SubElement(size, "depth").text = "3"
        for a in by_image.get(im.id, ()):
            obj = ET.SubElement(root, "object")
            ET.SubElement(obj, "name").text = names[a.category_id]
            bnd = ET.SubElement(obj, "bndbox")
            for tag, value in zip(("xmin", "ymin", "xmax", "ymax"), a.box):
                ET.SubElement(bnd, tag).text = str(_num(value))
        ET.indent(root)
        stem = os.path.splitext(im.file_name)[0]
        write_atomic(os.path.join(dirpath, f"{stem}.xml"), ET.tostring(root))


# -- statistics -------------------------------------------------------------


def stats(index: DatasetIndex) -> dict:
    """Per-category histogram over size buckets; row sums equal class counts."""
    table = {c.id: dict.fromkeys(SIZE_RANGES, 0) for c in index.categories}
    for a in index.annotations:
        x1, y1, x2, y2 = a.box
        table[a.category_id][size_bucket((x2 - x1) * (y2 - y1))] += 1
    return table


def stats_table(index: DatasetIndex) -> str:
    """One row per category, in the order ``index.categories`` lists them."""
    histogram = stats(index)
    lines = ["class".ljust(16) + "small".rjust(8) + "medium".rjust(8)
             + "large".rjust(8) + "total".rjust(8)]
    for cat in index.categories:
        row = histogram[cat.id]
        total = sum(row.values())
        lines.append(cat.name.ljust(16) + f"{row['small']:8d}{row['medium']:8d}"
                     f"{row['large']:8d}{total:8d}")
    return "\n".join(lines)


# -- PPM images --------------------------------------------------------------


def write_ppm(path, image: np.ndarray):
    """Binary P6 writer for (H,W,3) uint8 arrays."""
    h, w, c = image.shape
    if c != 3 or image.dtype != np.uint8:
        raise DataError("write_ppm expects (H,W,3) uint8")
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode() + image.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic not in (b"P6", b"P5"):
            raise DataError(f"{path}: unsupported image format {magic!r}")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: truncated header")
            if line.startswith(b"#"):
                continue
            fields.extend(line.split())
        try:
            w, h, maxval = (int(v) for v in fields[:3])
        except ValueError:
            raise DataError(f"{path}: width, height and maxval must be integers, "
                            f"got {b' '.join(fields[:3]).decode(errors='replace')!r}") from None
        if w < 1 or h < 1:
            raise DataError(f"{path}: width and height must be positive, got {w}x{h}")
        if maxval != 255:
            raise DataError(f"{path}: only 8-bit images (maxval 255) are read, got maxval {maxval}")
        channels = 3 if magic == b"P6" else 1
        size, left = w * h * channels, os.fstat(fh.fileno()).st_size - fh.tell()
        if size > left:  # checked before the read, so a huge header allocates nothing
            raise DataError(f"{path}: truncated pixel data ({w}x{h}x{channels} = {size} bytes "
                            f"declared, {left} in the file)")
        data = np.frombuffer(fh.read(size), dtype=np.uint8)
    image = data.reshape(h, w, channels)
    return image if channels == 3 else np.repeat(image, 3, axis=2)


# -- synthetic dataset --------------------------------------------------------


@dataclass
class SyntheticConfig:
    num_images: int = 200
    image_size: int = 64
    num_classes: int = 3
    min_shapes: int = 2
    max_shapes: int = 4
    seed: int = 0

    def __post_init__(self):
        check_fields("synthetic", self, (("seed", 0, math.inf, "[)"),
                                         ("num_images", 1, math.inf, "[)"),
                                         ("image_size", MIN_SYNTHETIC_SIZE, math.inf, "[)"),
                                         ("num_classes", 1, len(SHAPE_KINDS), "[]"),
                                         ("min_shapes", 0, math.inf, "[)")))
        if self.max_shapes < self.min_shapes:
            raise ConfigError(f"synthetic.max_shapes must be at least synthetic.min_shapes "
                              f"({self.min_shapes}), got {self.max_shapes}")


# Per-class paint, 0.85 x a distinct hue so the class signal survives desk-scale training.
_TINTS = {kind: 0.85 * np.array(rgb, dtype=np.float64) for kind, rgb in {
    "transverse": (205, 65, 60),
    "longitudinal": (60, 185, 70),
    "alligator": (70, 80, 210),
    "block": (200, 180, 40),
    "pothole": (15, 15, 20),
}.items()}


def _sample_box(kind, rng, size):
    """Sampled extent for one primitive; None when it cannot fit. The thin
    dimension stays >= 9 px so every box contains at least one stride-8 cell
    center."""
    thin = lambda: int(rng.integers(9, 13))
    broad = lambda: int(rng.integers(max(14, size // 4), max(16, size // 2)))
    if kind == "transverse":
        w, h = int(rng.integers(size // 3, 3 * size // 4)), thin()
    elif kind == "longitudinal":
        w, h = thin(), int(rng.integers(size // 3, 3 * size // 4))
    elif kind == "pothole":
        w = broad()
        h = w
    else:
        w, h = broad(), broad()
    if w >= size - 2 or h >= size - 2:
        return None
    x1 = int(rng.integers(1, size - w - 1))
    y1 = int(rng.integers(1, size - h - 1))
    return (x1, y1, x1 + w, y1 + h)


def _paint(canvas, kind, box):
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    tint = _TINTS[kind]
    region = canvas[y1:y2, x1:x2]
    if kind == "pothole":
        yy, xx = np.mgrid[0:h, 0:w]
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        mask = ((yy - cy) / (h / 2.0)) ** 2 + ((xx - cx) / (w / 2.0)) ** 2 <= 1.0
        region[mask] = 0.15 * region[mask] + tint
        return
    region *= 0.15
    region += tint
    if kind == "alligator":
        # grid lines: every 4th row, then every 4th column of the rows between
        region[::4] *= 0.45
        for r in range(1, 4):
            region[r::4, ::4] *= 0.45


def gen_synthetic(cfg: SyntheticConfig):
    """Deterministic (images, DatasetIndex) pair, the images one C-contiguous
    uint8 (N,H,W,3) stack; same seed, same bytes. Each scene is built in two
    reused float64 buffers; a scaled ``standard_normal`` is ``normal(0.0, scale)``."""
    from .geometry import iou

    rng = np.random.default_rng(cfg.seed)
    size = cfg.image_size
    kinds = SHAPE_KINDS[:cfg.num_classes]
    categories = [Category(id=i + 1, name=k) for i, k in enumerate(kinds)]
    images = np.empty((cfg.num_images, size, size, 3), dtype=np.uint8)
    canvas, noise = np.empty((size, size, 3)), np.empty((size, size, 3))
    infos, annotations = [], []
    ann_id = 1
    for image_id, image in enumerate(images, 1):
        base = rng.uniform(110.0, 145.0)
        np.multiply(rng.standard_normal(out=canvas), 7.0, out=canvas)
        canvas += base
        np.clip(canvas, 0, 255, out=canvas)
        n_shapes = int(rng.integers(cfg.min_shapes, cfg.max_shapes + 1))
        boxes = []
        for _ in range(n_shapes):
            kind_idx = int(rng.integers(0, len(kinds)))
            kind = kinds[kind_idx]
            for _attempt in range(20):
                box = _sample_box(kind, rng, size)
                if box is not None and all(iou(box, b) <= 0.25 for _, b in boxes):
                    _paint(canvas, kind, box)
                    boxes.append((kind_idx + 1, box))
                    break
        canvas += np.multiply(rng.standard_normal(out=noise), 3.0, out=noise)
        np.clip(canvas, 0, 255, out=image, casting="unsafe")
        infos.append(ImageInfo(id=image_id, file_name=f"img_{image_id:05d}.ppm",
                               width=size, height=size))
        for category_id, box in boxes:
            annotations.append(Annotation(id=ann_id, image_id=image_id,
                                          category_id=category_id,
                                          box=tuple(float(v) for v in box)))
            ann_id += 1
    return images, DatasetIndex(images=infos, annotations=annotations, categories=categories)


def save_synthetic(images, index: DatasetIndex, out_dir):
    """Write the {images/, annotations.json} layout."""
    img_dir = os.path.join(out_dir, "images")
    for image, info in zip(images, index.images):
        write_ppm(os.path.join(img_dir, info.file_name), image)
    save_coco(index, os.path.join(out_dir, "annotations.json"))


def load_image_batch(index: DatasetIndex, root, image_ids) -> np.ndarray:
    """Read PPM images into a uint8 (B,H,W,3) stack, not normalized; every
    image must have the first one's shape, and no ids give a (0,0,0,3) stack."""
    by_id = {im.id: im for im in index.images}
    images = []
    for i in image_ids:
        path = os.path.join(root, "images", by_id[i].file_name)
        image = read_ppm(path)
        if images and image.shape != images[0].shape:
            raise DataError(f"{path}: image is {image.shape[1]}x{image.shape[0]} px, but the "
                            f"batch's first is {images[0].shape[1]}x{images[0].shape[0]}")
        images.append(image)
    return np.stack(images) if images else np.zeros((0, 0, 0, 3), np.uint8)


def normalize_images(images) -> np.ndarray:
    """uint8 (H,W,3) images, as a sequence or a (B,H,W,3) stack -> normalized
    (B,3,H,W) float64 batch. Anything else, an already-normalized float batch
    included, is a ShapeError, as are images of unequal sizes."""
    try:
        arr = np.asarray(images)
    except ValueError:  # a list of images of unequal sizes
        raise ShapeError(f"normalize_images: images of unequal shapes "
                         f"{sorted(set(map(np.shape, images)))}") from None
    if arr.dtype != np.uint8 or arr.ndim != 4 or arr.shape[-1] != 3:
        raise ShapeError(f"normalize_images takes uint8 (H,W,3) images, got a {arr.dtype} "
                         f"stack of shape {arr.shape}")
    arr = arr.astype(np.float64) / 255.0 - 0.5
    return arr.transpose(0, 3, 1, 2)


def detections_to_coco(detections) -> list[dict]:
    """COCO results rows: image_id, category_id, [x,y,w,h] bbox, score."""
    rows = []
    for d in detections:
        x1, y1, x2, y2 = d.box
        rows.append({"image_id": d.image_id, "category_id": d.category_id,
                     "bbox": [x1, y1, x2 - x1, y2 - y1], "score": d.score})
    return rows


def detections_from_coco(rows, path="<results>") -> list:
    """Detections from a COCO results list, or this kit's output wrapping one
    as ``{"detections": [...]}``, read from ``path``; a DataError naming
    ``path`` and the row for a malformed one."""
    from .model import Detection

    if isinstance(rows, dict):
        rows = rows.get("detections", rows)
    if not isinstance(rows, list):
        raise DataError(f"{path}: results must be a list of detections, "
                        f"got {type(rows).__name__}")
    out = []
    for i, r in enumerate(rows):
        entry = f"results[{i}]"
        image_id, category_id = (_id(r, key, path, entry) for key in ("image_id", "category_id"))
        x, y, w, h = _bbox(r, path, entry)
        score = finite(_require(r, "score", path, entry), f"{path}: {entry}.score")
        try:
            out.append(Detection(image_id, category_id, score, (x, y, x + w, y + h)))
        except ShapeError as exc:
            raise DataError(f"{path}: {entry}: {exc}") from None
    return out
