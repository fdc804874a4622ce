import hashlib
import json
import os
import re

import numpy as np
import pytest

from crackdet.dataio import (MIN_SYNTHETIC_SIZE, SHAPE_KINDS, Annotation, Category,
                             DatasetIndex, ImageInfo, SyntheticConfig, _sample_box, coco_dict,
                             detections_from_coco, detections_to_coco, gen_synthetic, load_coco,
                             load_image_batch, load_voc, normalize_images, read_ppm, save_coco,
                             save_synthetic, save_voc, stats, write_atomic, write_ppm)
from crackdet.errors import ConfigError, DataError, ShapeError
from crackdet.model import Detection

# a synthetic set that draws every damage kind, one to three per image
EVERY_KIND = dict(num_classes=len(SHAPE_KINDS), min_shapes=1, max_shapes=3)


def fixture_index(num_images=50, seed=7):
    """Integer-box dataset used by the round-trip criterion."""
    r = np.random.default_rng(seed)
    images = [ImageInfo(id=i, file_name=f"im_{i:03d}.jpg", width=320, height=240)
              for i in range(1, num_images + 1)]
    categories = [Category(id=1, name="block"), Category(id=2, name="pothole")]
    anns = []
    ann_id = 1
    for im in images:
        for _ in range(int(r.integers(1, 4))):
            x1 = int(r.integers(0, 280))
            y1 = int(r.integers(0, 200))
            w = int(r.integers(5, 320 - x1))
            h = int(r.integers(5, 240 - y1))
            anns.append(Annotation(id=ann_id, image_id=im.id,
                                   category_id=int(r.integers(1, 3)),
                                   box=(float(x1), float(y1), float(x1 + w), float(y1 + h))))
            ann_id += 1
    return DatasetIndex(images=images, annotations=anns, categories=categories)


def one_image_coco(tmp_path, *bboxes):
    """A COCO file of one 100-px image and one category, annotation k + 1
    holding ``bboxes[k]``."""
    path = tmp_path / "d.json"
    path.write_text(json.dumps({
        "images": [{"id": 1, "file_name": "a.jpg", "width": 100, "height": 100}],
        "annotations": [{"id": k + 1, "image_id": 1, "category_id": 1, "bbox": bbox}
                        for k, bbox in enumerate(bboxes)],
        "categories": [{"id": 1, "name": "crack"}],
    }))
    return path


class TestCocoLoad:
    def test_bbox_topleft_convention(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 100, "height": 100}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [10, 20, 30, 40]}],
            "categories": [{"id": 1, "name": "crack"}],
        }))
        index = load_coco(path)
        assert index.annotations[0].box == (10.0, 20.0, 40.0, 60.0)

    def test_center_boxes_flag(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 100, "height": 100}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [50, 50, 20, 10]}],
            "categories": [{"id": 1, "name": "crack"}],
        }))
        index = load_coco(path, center_boxes=True)
        assert index.annotations[0].box == (40.0, 45.0, 60.0, 55.0)

    @pytest.mark.parametrize("bbox,box", [
        ([5, 5, 4, 2], (3.0, 4.0, 7.0, 6.0)),
        ([4, 4, 0, 0], (4.0, 4.0, 4.0, 4.0)),
    ], ids=["centre_form", "zero_size_is_its_centre"])
    def test_center_boxes_convert_inline(self, tmp_path, bbox, box):
        """Centre (x, y, w, h) to corners; a zero-size box is its centre point."""
        path = one_image_coco(tmp_path, bbox)
        assert load_coco(path, center_boxes=True).annotations[0].box == box

    @pytest.mark.parametrize("center_boxes", [False, True], ids=["corner", "centre"])
    @pytest.mark.parametrize("bbox", [[0, 0, -1, 2], [5, 0, 1, -4]], ids=["width", "height"])
    def test_negative_size_rejected(self, tmp_path, bbox, center_boxes):
        path = one_image_coco(tmp_path, [0, 0, 4, 4], bbox)
        with pytest.raises(DataError, match="annotation 2 has negative box size"):
            load_coco(path, center_boxes=center_boxes)

    @pytest.mark.parametrize("center_boxes", [False, True])
    @pytest.mark.parametrize("bbox", [[float("nan"), 0, 10, 10], [0, 0, 10, float("nan")],
                                      [0, float("-inf"), 10, 10], [0, 0, float("inf"), 10],
                                      [0, 0, "nan", 10]])
    def test_non_finite_bbox_rejected(self, tmp_path, bbox, center_boxes):
        """A NaN would otherwise load as a box (nan, 0, nan, 10) that ``stats``
        counts as large."""
        path = one_image_coco(tmp_path, [0, 0, 4, 4], bbox)
        with pytest.raises(DataError,
                           match=r"d\.json: annotations\[1\]\.bbox\[\d\] must be a finite number"):
            load_coco(path, center_boxes=center_boxes)

    def test_empty_annotations_valid(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"images": [], "annotations": [], "categories": []}))
        index = load_coco(path)
        assert index.annotations == [] and index.images == []

    def test_dangling_image_reference_named(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 10, "height": 10}],
            "annotations": [{"id": 5, "image_id": 999, "category_id": 1,
                             "bbox": [0, 0, 5, 5]}],
            "categories": [{"id": 1, "name": "crack"}],
        }))
        with pytest.raises(DataError, match="999"):
            load_coco(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 10}],
            "annotations": [], "categories": [],
        }))
        with pytest.raises(DataError, match=r"images\[0\].height"):
            load_coco(path)

    def test_out_of_bounds_clamped_with_warning(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 50, "height": 50}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [40, 40, 30, 30]}],
            "categories": [{"id": 1, "name": "crack"}],
        }))
        index = load_coco(path)
        assert index.clamp_warnings == 1
        assert index.annotations[0].box == (40.0, 40.0, 50.0, 50.0)

    @pytest.mark.parametrize("bbox,box", [([100, 100, 0, 0], (50.0, 50.0, 50.0, 50.0)),
                                          ([-10, 5, 10, 0], (0.0, 5.0, 0.0, 5.0))])
    def test_zero_area_box_outside_clamped_with_warning(self, tmp_path, bbox, box):
        """Only a box with area must share some of it with its image: a
        zero-area one outside is clamped onto the image's edge and counted."""
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 50, "height": 50}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": bbox}],
            "categories": [{"id": 1, "name": "crack"}],
        }))
        index = load_coco(path)
        assert index.clamp_warnings == 1
        assert index.annotations[0].box == box

    @pytest.mark.parametrize("key,value", [("images", 5), ("annotations", {"x": 1}),
                                           ("categories", "crack"), ("images", None)])
    def test_top_level_table_must_be_a_list(self, tmp_path, key, value):
        tables = {"images": [], "annotations": [], "categories": []}
        path = tmp_path / "d.json"
        path.write_text(json.dumps({**tables, key: value}))
        with pytest.raises(DataError, match=rf"d\.json: top-level '{key}' must be a list"):
            load_coco(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match=r"d\.json: top level must be a JSON object"):
            load_coco(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 10, "height": 10},
                       {"id": 1, "file_name": "b.jpg", "width": 10, "height": 10}],
            "annotations": [], "categories": [],
        }))
        with pytest.raises(DataError, match="duplicate"):
            load_coco(path)


class TestVocLoad:
    VOC_XML = """<annotation>
  <filename>{name}</filename>
  <size><width>64</width><height>48</height><depth>3</depth></size>
  {objects}
</annotation>"""
    OBJ = """<object><name>{name}</name>
    <bndbox><xmin>{x1}</xmin><ymin>{y1}</ymin><xmax>{x2}</xmax><ymax>{y2}</ymax></bndbox>
  </object>"""

    def test_boxes_direct_and_names_sorted(self, tmp_path):
        objs = (self.OBJ.format(name="pothole", x1=1, y1=2, x2=11, y2=22)
                + self.OBJ.format(name="block", x1=5, y1=5, x2=20, y2=20))
        (tmp_path / "a.xml").write_text(self.VOC_XML.format(name="a.jpg", objects=objs))
        index = load_voc(tmp_path)
        assert index.annotations[0].box == (1.0, 2.0, 11.0, 22.0)
        assert index.category_names() == {1: "block", 2: "pothole"}
        assert index.annotations[0].category_id == 2

    def test_out_of_bounds_clamped_with_warning(self, tmp_path):
        """A box past the image is clamped into it and counted, as in COCO."""
        objs = (self.OBJ.format(name="crack", x1=-3, y1=2, x2=500, y2=22)
                + self.OBJ.format(name="crack", x1=1, y1=2, x2=64, y2=48))
        (tmp_path / "a.xml").write_text(self.VOC_XML.format(name="a.jpg", objects=objs))
        index = load_voc(tmp_path)
        assert index.clamp_warnings == 1
        assert [a.box for a in index.annotations] == [(0.0, 2.0, 64.0, 22.0),
                                                       (1.0, 2.0, 64.0, 48.0)]

    def test_inverted_box_names_file(self, tmp_path):
        objs = self.OBJ.format(name="crack", x1=30, y1=2, x2=11, y2=22)
        (tmp_path / "bad.xml").write_text(self.VOC_XML.format(name="b.jpg", objects=objs))
        with pytest.raises(DataError, match="bad.xml"):
            load_voc(tmp_path)

    def test_malformed_xml_names_file(self, tmp_path):
        (tmp_path / "oops.xml").write_text("<annotation><unclosed>")
        with pytest.raises(DataError, match="oops.xml"):
            load_voc(tmp_path)


class TestRoundTrips:
    def test_coco_save_load_identity_on_fixture(self, tmp_path):
        index = fixture_index()
        path = tmp_path / "ds.json"
        save_coco(index, path)
        back = load_coco(path)
        assert [a.box for a in back.annotations] == [a.box for a in index.annotations]
        assert [a.id for a in back.annotations] == [a.id for a in index.annotations]
        assert [(im.id, im.file_name, im.width, im.height) for im in back.images] \
            == [(im.id, im.file_name, im.width, im.height) for im in index.images]

    def test_voc_coco_voc_preserves_integer_boxes(self, tmp_path):
        index = fixture_index()
        voc1 = tmp_path / "voc1"
        save_voc(index, voc1)
        coco_path = tmp_path / "ds.json"
        save_coco(load_voc(voc1), coco_path)
        voc2 = tmp_path / "voc2"
        save_voc(load_coco(coco_path), voc2)
        a = load_voc(voc1)
        b = load_voc(voc2)
        assert [ann.box for ann in a.annotations] == [ann.box for ann in b.annotations]
        assert [ann.category_id for ann in a.annotations] \
            == [ann.category_id for ann in b.annotations]

    def test_coco_serialization_is_integer_for_integer_boxes(self, tmp_path):
        index = fixture_index(num_images=2)
        blob = coco_dict(index)
        for ann in blob["annotations"]:
            assert all(isinstance(v, int) for v in ann["bbox"])

    def test_failed_save_coco_keeps_previous_file(self, tmp_path):
        """save_coco serializes in full before it writes anything: a
        serialization error leaves the previous file whole and no temp file."""
        index = fixture_index(num_images=2)
        path = tmp_path / "annotations.json"
        save_coco(index, path)
        before = path.read_bytes()
        index.categories[1].name = object()  # not JSON-serializable
        with pytest.raises(TypeError):
            save_coco(index, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["annotations.json"]

    def test_write_atomic_takes_str_or_bytes(self, tmp_path):
        """Text or bytes, to a pathlib or str path in a directory it creates."""
        write_atomic(tmp_path / "new" / "a.txt", "x\n")
        write_atomic(str(tmp_path / "new" / "b.bin"), b"\x00\xff")
        assert (tmp_path / "new" / "a.txt").read_text() == "x\n"
        assert (tmp_path / "new" / "b.bin").read_bytes() == b"\x00\xff"
        assert sorted(os.listdir(tmp_path / "new")) == ["a.txt", "b.bin"]

    def test_center_box_serialization_round_trip(self, tmp_path):
        index = fixture_index(num_images=3)
        path = tmp_path / "center.json"
        save_coco(index, path, center_boxes=True)
        back = load_coco(path, center_boxes=True)
        for a, b in zip(index.annotations, back.annotations):
            assert np.allclose(a.box, b.box)


class TestStats:
    def test_empty_index_all_zeros(self):
        index = DatasetIndex(images=[], annotations=[],
                             categories=[Category(id=1, name="crack")])
        assert stats(index) == {1: {"small": 0, "medium": 0, "large": 0}}

    def test_single_small_box(self):
        index = make_single_box_index(30.0, 30.0)
        assert stats(index)[1] == {"small": 1, "medium": 0, "large": 0}

    def test_conservation(self):
        _, index = gen_synthetic(SyntheticConfig(num_images=20, seed=3, **EVERY_KIND))
        table = stats(index)
        per_class = {c.id: 0 for c in index.categories}
        for ann in index.annotations:
            per_class[ann.category_id] += 1
        for cat_id, row in table.items():
            assert sum(row.values()) == per_class[cat_id]


def make_single_box_index(w, h):
    return DatasetIndex(
        images=[ImageInfo(id=1, file_name="a.ppm", width=100, height=100)],
        annotations=[Annotation(id=1, image_id=1, category_id=1, box=(0.0, 0.0, w, h))],
        categories=[Category(id=1, name="crack")])


def synthetic_digest(images, index):
    """sha256 over every image's bytes in order, then every annotation's
    (id, image_id, category_id, box): a list and a stack of the same images
    give the same digest."""
    h = hashlib.sha256()
    for image in images:
        h.update(image.tobytes())
    for a in index.annotations:
        h.update(repr((a.id, a.image_id, a.category_id, a.box)).encode())
    return h.hexdigest()


class TestSynthetic:
    @pytest.mark.parametrize("cfg,digest", [
        (SyntheticConfig(),
         "d20608b600f618d48ebd8c47610dbf57afff77ec0661de3cfd2fd13b3d1b356d"),
        # 3 GTs per 256-px image, as the evaluate benchmark generates them
        (SyntheticConfig(num_images=20, image_size=256, min_shapes=3, max_shapes=3, seed=5),
         "e01db17c0e45f311e34df02bc3ae079a5d06b60c34907b0e0c40322cf3a80e7e"),
        (SyntheticConfig(num_images=20, seed=11, **EVERY_KIND),
         "b94eb8bfa22b2f4509eb98a8a60d9615a79546a9221976b6d8f911fba921c54f"),
    ], ids=["default", "256px-3-shapes", "every-kind"])
    def test_generated_bytes_pinned(self, cfg, digest):
        """The generator's images and annotations are pinned to a fixed
        digest, so a faster generator must draw and paint the same bytes."""
        images, index = gen_synthetic(cfg)
        if cfg.num_classes == len(SHAPE_KINDS):
            assert {a.category_id for a in index.annotations} == set(range(1, cfg.num_classes + 1))
        assert synthetic_digest(images, index) == digest

    def test_images_are_one_uint8_stack(self):
        cfg = SyntheticConfig(num_images=7, image_size=40, seed=2)
        images, index = gen_synthetic(cfg)
        assert type(images) is np.ndarray and images.dtype == np.uint8
        assert images.shape == (7, 40, 40, 3) and images.flags.c_contiguous
        assert len(index.images) == 7

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = SyntheticConfig(num_images=6, seed=7, **EVERY_KIND)
        for run in ("a", "b"):
            images, index = gen_synthetic(cfg)
            save_synthetic(images, index, tmp_path / run)
        ann_a = (tmp_path / "a" / "annotations.json").read_bytes()
        ann_b = (tmp_path / "b" / "annotations.json").read_bytes()
        assert ann_a == ann_b
        for name in os.listdir(tmp_path / "a" / "images"):
            pa = (tmp_path / "a" / "images" / name).read_bytes()
            pb = (tmp_path / "b" / "images" / name).read_bytes()
            assert pa == pb

    def test_zero_images_rejected(self):
        """The library takes the CLI's bound: no set of zero images."""
        with pytest.raises(ConfigError, match=r"synthetic\.num_images must be in \[1, inf\)"):
            SyntheticConfig(num_images=0)

    def test_negative_seed_rejected(self):
        """numpy's generator would reject the seed with a raw ValueError."""
        with pytest.raises(ConfigError, match=r"synthetic\.seed must be in \[0, inf\), got -1"):
            SyntheticConfig(seed=-1)

    def test_skipped_shapes_are_not_clamp_warnings(self):
        """Shapes the generator cannot place are dropped; ``clamp_warnings``
        counts boxes clamped at load, so a generated set reports none."""
        cfg = SyntheticConfig(num_images=5, image_size=MIN_SYNTHETIC_SIZE, num_classes=5,
                              min_shapes=6, max_shapes=6, seed=3)
        _, index = gen_synthetic(cfg)
        assert len(index.annotations) < cfg.num_images * cfg.max_shapes
        assert index.clamp_warnings == 0

    def test_every_box_within_bounds(self):
        images, index = gen_synthetic(SyntheticConfig(num_images=30, seed=1, **EVERY_KIND))
        for ann in index.annotations:
            x1, y1, x2, y2 = ann.box
            assert 0 <= x1 < x2 <= 64 and 0 <= y1 < y2 <= 64

    def test_class_count_respected(self):
        _, index = gen_synthetic(SyntheticConfig(num_images=15, num_classes=3, seed=2))
        assert len(index.categories) == 3
        assert {a.category_id for a in index.annotations} <= {1, 2, 3}

    def test_smallest_allowed_canvas_places_every_kind(self):
        """At the smallest ``synthetic.image_size`` the config accepts,
        ``_sample_box`` places every kind on every draw; one pixel less and
        some kind cannot be placed, so the bound is the tight one."""
        size = MIN_SYNTHETIC_SIZE
        rng = np.random.default_rng(0)
        for kind in SHAPE_KINDS:
            assert all(_sample_box(kind, rng, size) is not None for _ in range(2000)), kind
        assert any(_sample_box(kind, rng, size - 1) is None
                   for kind in SHAPE_KINDS for _ in range(50))

    def test_invalid_config_rejected(self):
        cases = [
            (dict(num_classes=9), "synthetic.num_classes must be in [1, 5], got 9"),
            (dict(num_classes=0), "synthetic.num_classes must be in [1, 5], got 0"),
            (dict(min_shapes=-1), "synthetic.min_shapes must be in [0, inf), got -1"),
            (dict(min_shapes=3, max_shapes=1),
             "synthetic.max_shapes must be at least synthetic.min_shapes (3), got 1"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ConfigError, match=re.escape(message)):
                SyntheticConfig(**kwargs)

    @pytest.mark.parametrize("size", [MIN_SYNTHETIC_SIZE - 1, 8, 0, -5])
    def test_canvas_below_the_smallest_rejected(self, size):
        """Below the bound the generator would place no shape (8 px) or fail
        in numpy (0 px); the config names the key instead."""
        with pytest.raises(ConfigError, match="synthetic.image_size"):
            SyntheticConfig(image_size=size, num_images=5)

    def test_ppm_round_trip(self, tmp_path):
        r = np.random.default_rng(0)
        img = r.integers(0, 256, size=(20, 30, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    @pytest.mark.parametrize("header,message", [
        (b"P6\nab 64\n255\n", "must be integers"),
        (b"P6\n4 4.5\n255\n", "must be integers"),
        (b"P6\n4 4\nmax\n", "must be integers"),
        (b"P6\n0 4\n255\n", "must be positive"),
        (b"P6\n4 4\n65535\n", "maxval 65535"),
        (b"P6\n4 4\n127\n", "maxval 127"),
        (b"P6\n8 8\n255\n", r"truncated pixel data \(8x8x3 = 192 bytes declared, 96 in"),
        (b"P6\n99999999 99999999\n255\n", "truncated pixel data"),
    ])
    def test_bad_ppm_header_named(self, tmp_path, header, message):
        """A bad header raises DataError naming the file; a 16-bit image is
        not read as 8-bit bytes, and a size beyond the file's bytes fails
        before the read, so a huge one allocates nothing."""
        path = tmp_path / "x.ppm"
        path.write_bytes(header + bytes(4 * 4 * 3 * 2))
        with pytest.raises(DataError, match=message) as err:
            read_ppm(path)
        assert "x.ppm" in str(err.value)

    def test_mixed_image_sizes_named(self, tmp_path):
        images, index = gen_synthetic(SyntheticConfig(num_images=3, image_size=32, seed=1))
        save_synthetic(images, index, tmp_path)
        write_ppm(tmp_path / "images" / index.images[2].file_name,
                  np.zeros((64, 64, 3), dtype=np.uint8))
        ids = [im.id for im in index.images]
        batch = load_image_batch(index, tmp_path, ids[:2])
        assert batch.dtype == np.uint8 and batch.shape == (2, 32, 32, 3)
        assert np.array_equal(batch, np.stack(images[:2]))
        with pytest.raises(DataError, match=r"img_00003\.ppm: image is 64x64 px, but the "
                                            r"batch's first is 32x32"):
            load_image_batch(index, tmp_path, ids)


class TestNormalizeImages:
    def test_uint8_images_to_channels_first(self):
        images = np.random.default_rng(0).integers(0, 256, size=(2, 5, 6, 3), dtype=np.uint8)
        batch = normalize_images(images)
        assert batch.dtype == np.float64 and batch.shape == (2, 3, 5, 6)
        assert np.array_equal(batch, images.transpose(0, 3, 1, 2) / 255.0 - 0.5)
        assert np.array_equal(normalize_images(list(images)), batch)

    @pytest.mark.parametrize("images,shape", [
        (np.zeros((2, 3, 5, 6)), r"float64 stack of shape \(2, 3, 5, 6\)"),  # already normalized
        (np.zeros((2, 5, 6, 3)), r"float64 stack of shape \(2, 5, 6, 3\)"),
        (np.zeros((2, 3, 5, 6), dtype=np.uint8), r"uint8 stack of shape \(2, 3, 5, 6\)"),
        (np.zeros((5, 6, 3), dtype=np.uint8), r"uint8 stack of shape \(5, 6, 3\)"),
    ])
    def test_anything_but_uint8_hw3_images_rejected(self, images, shape):
        """Float input, a normalized batch included, is not normalized again;
        a channels-first stack or one bare image is not read as a batch."""
        with pytest.raises(ShapeError, match=shape):
            normalize_images(images)


    def test_images_of_unequal_sizes_named(self):
        images = [np.zeros((4, 4, 3), dtype=np.uint8), np.zeros((5, 5, 3), dtype=np.uint8)]
        with pytest.raises(ShapeError, match=r"unequal shapes \[\(4, 4, 3\), \(5, 5, 3\)\]"):
            normalize_images(images)


class TestDetectionSerialization:
    def test_round_trip(self):
        dets = [Detection(image_id=1, category_id=2, score=0.75, box=(1.0, 2.0, 11.0, 22.0))]
        rows = detections_to_coco(dets)
        assert rows[0]["bbox"] == [1.0, 2.0, 10.0, 20.0]
        back = detections_from_coco(rows)
        assert back == dets

    def test_missing_field_named(self):
        with pytest.raises(DataError, match="score"):
            detections_from_coco([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1]}])
