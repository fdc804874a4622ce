"""The momentum SGD of train.py against its closed form, the uint8 images
that training and inference normalize one batch at a time, and the per-image
GT table."""

import dataclasses
import sys

import numpy as np
import pytest

from crackdet import cli, dataio, train
from crackdet.config import load_config
from crackdet.errors import ShapeError
from crackdet.numerics import Tensor
from crackdet.train import SGD


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sgd_three_steps_match_closed_form(rng, dtype):
    """v = m*v + g + wd*theta; theta -= lr*v, per tensor. A tensor whose grad
    is None still decays, and every grad is left as it was."""
    lr, momentum, weight_decay = 0.05, 0.9, 1e-2
    a = Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(dtype), requires_grad=True)
    c = Tensor(rng.normal(size=5).astype(dtype), requires_grad=True)
    c0 = c.data.copy()
    opt = SGD([("a", a), ("b", b), ("c", c)], momentum, weight_decay)
    theta = {name: t.data.astype(np.float64) for name, t in (("a", a), ("b", b), ("c", c))}
    velocity = {name: np.zeros_like(arr) for name, arr in theta.items()}
    tol = 1e-13 if dtype == np.float64 else 1e-5
    for step in range(3):
        step_lr = lr * (1.0 - 0.25 * step)
        grads = {"a": rng.normal(size=(3, 4)).astype(dtype),
                 "b": rng.normal(size=(2, 3, 3, 3)).astype(dtype)}
        a.grad, b.grad, c.grad = grads["a"].copy(), grads["b"].copy(), None
        opt.step(step_lr)
        for name, t in (("a", a), ("b", b), ("c", c)):
            g = grads[name].astype(np.float64) if name in grads else 0.0
            velocity[name] = momentum * velocity[name] + g + weight_decay * theta[name]
            theta[name] = theta[name] - step_lr * velocity[name]
            assert t.data.dtype == dtype
            assert np.abs(t.data - theta[name]).max() < tol
            assert np.abs(opt.velocity[name] - velocity[name]).max() < tol
        assert np.array_equal(a.grad, grads["a"]) and np.array_equal(b.grad, grads["b"])
        assert c.grad is None
    assert np.all(np.abs(c.data) < np.abs(c0))  # weight decay alone shrinks it


def test_sgd_step_updates_only_the_given_tensors(rng):
    """``step(lr, tensors)`` updates those tensors and their velocities as a
    full step would, and leaves every other tensor and velocity alone."""
    tensors = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(3)]
    for t in tensors:
        t.grad = rng.normal(size=t.data.shape)
    twins = [Tensor(t.data.copy(), requires_grad=True) for t in tensors]
    for t, twin in zip(tensors, twins):
        twin.grad = t.grad.copy()
    opt = SGD([(f"p{i}", t) for i, t in enumerate(tensors)], 0.9, 1e-2)
    full = SGD([(f"p{i}", t) for i, t in enumerate(twins)], 0.9, 1e-2)
    before = [t.data.copy() for t in tensors]
    opt.step(0.1, [tensors[2], tensors[0]])
    full.step(0.1)
    for i in (0, 2):
        assert np.array_equal(tensors[i].data, twins[i].data)
        assert np.array_equal(opt.velocity[f"p{i}"], full.velocity[f"p{i}"])
    assert np.array_equal(tensors[1].data, before[1]) and not opt.velocity["p1"].any()
    opt.step(0.1, [])
    assert all(np.array_equal(t.data, twin.data) for t, twin in
               zip(tensors[::2], twins[::2]))


SMALL = ["model.backbone_widths=[2,3,4,6,8]", "model.head_channels=4", "neck.out_channels=4",
         "neck.attn_key_dim=4", "synthetic.num_images=10", "synthetic.num_classes=2",
         "model.num_classes=2", "training.steps=5"]


def watch_normalize(monkeypatch):
    """Wrap ``normalize_images`` at every crackdet module that binds it; the
    returned list gets the number of images of each call."""
    original = dataio.normalize_images
    sizes = []

    def counted(images):
        sizes.append(len(images))
        return original(images)

    modules = [m for name, m in sorted(sys.modules.items())
               if name.split(".")[0] == "crackdet" and vars(m).get("normalize_images") is original]
    assert {dataio, train, cli} <= set(modules)
    for module in modules:
        monkeypatch.setattr(module, "normalize_images", counted)
    return sizes


class TestBatchNormalization:
    """train_toy keeps the set uint8 and normalizes one batch per step."""

    def test_each_batch_image_is_one_row_of_the_normalized_set(self, monkeypatch):
        cfg = load_config(overrides=SMALL)
        batches = []
        original = train.batch_losses

        def capture(detector, images, gt_per_image):
            batches.append(images)
            return original(detector, images, gt_per_image)

        monkeypatch.setattr(train, "batch_losses", capture)
        sizes = watch_normalize(monkeypatch)
        generated = []

        def generate(synthetic_cfg):
            generated.append(dataio.gen_synthetic(synthetic_cfg))
            return generated[-1]

        monkeypatch.setattr(train, "gen_synthetic", generate)
        _, _, raw_images, rows = train.train_toy(cfg)
        assert len(rows) == 5 and len(batches) == 5
        assert raw_images is generated[0][0]
        assert raw_images.dtype == np.uint8 and raw_images.shape == (10, 64, 64, 3)
        assert max(sizes) <= max(cfg.training.batch_size, 8)
        full = dataio.normalize_images(raw_images)
        for batch in batches:
            assert batch.shape == (cfg.training.batch_size,) + full.shape[1:]
            assert batch.dtype == full.dtype and batch.strides[1:] == full.strides[1:]
            for image in batch:
                hits = [i for i in range(len(full)) if full[i].tobytes() == image.tobytes()]
                assert len(hits) == 1

    def test_predict_dataset_normalizes_chunks(self, monkeypatch):
        """uint8 in, one normalized chunk at a time out: the detections of
        slicing the full normalized stack, in order."""
        cfg = load_config(overrides=SMALL)
        detector = train.detector_from_config(cfg, np.random.default_rng(0))
        raw, index = dataio.gen_synthetic(cfg.synthetic)
        ids = [im.id for im in index.images]
        full = dataio.normalize_images(raw)
        want = [d for s in range(0, 10, 3)
                for d in detector.predict(full[s:s + 3], image_ids=ids[s:s + 3])]
        sizes = watch_normalize(monkeypatch)
        assert train.predict_dataset(detector, raw, ids, batch_size=3) == want
        assert sizes == [3, 3, 3, 1]
        assert train.predict_dataset(detector, np.stack(raw), ids, batch_size=3) == want

    def test_predict_dataset_rejects_normalized_images(self):
        cfg = load_config(overrides=SMALL)
        detector = train.detector_from_config(cfg, np.random.default_rng(0))
        raw, index = dataio.gen_synthetic(cfg.synthetic)
        with pytest.raises(ShapeError, match="uint8"):
            train.predict_dataset(detector, dataio.normalize_images(raw),
                                  [im.id for im in index.images])


def test_gt_table_equals_the_per_image_scan():
    """One pass over the annotations gives each image what scanning every
    annotation for it gives: its boxes and zero-based labels in annotation
    order, and empty arrays for an image with no GT."""
    cfg = load_config(overrides=SMALL)
    _, index = dataio.gen_synthetic(cfg.synthetic)
    ids = [im.id for im in index.images]
    anns = [a for a in index.annotations if a.image_id != ids[3]]
    index = dataclasses.replace(index, annotations=anns[1::2] + anns[::2])
    table = train.gt_table(index, ids, cfg.model.num_classes)
    assert list(table) == ids
    for image_id in ids:
        own = [a for a in index.annotations if a.image_id == image_id]
        boxes, labels = table[image_id]
        assert boxes.dtype == np.float64 and boxes.shape == (len(own), 4)
        assert labels.dtype == np.intp
        assert boxes.tolist() == [list(a.box) for a in own]
        assert labels.tolist() == [a.category_id - 1 for a in own]
    assert table[ids[3]][0].shape == (0, 4) and table[ids[3]][1].shape == (0,)
    assert list(train.gt_table(index, [ids[5]], 2)) == [ids[5]]


def small_run(dtype, placement):
    """A detector, its SGD, and the batches of three steps of a SMALL run."""
    cfg = load_config(overrides=SMALL + [f"numerics.dtype={dtype}",
                                         f"neck.placement={placement}"])
    detector = train.detector_from_config(cfg, np.random.default_rng(0))
    raw, index = dataio.gen_synthetic(cfg.synthetic)
    ids = [im.id for im in index.images]
    gts = train.gt_table(index, ids, cfg.model.num_classes)
    pick = np.random.default_rng(1)
    batches = []
    for _ in range(3):
        chosen = pick.choice(len(ids), size=cfg.training.batch_size, replace=False)
        batches.append((dataio.normalize_images(raw[chosen]), [gts[ids[i]] for i in chosen]))
    # A parameter no op reads: it gets no gradient and only decays.
    unused = Tensor(np.ones(3, dtype=dtype), requires_grad=True)
    opt = SGD(list(detector.params()) + [("unused", unused)], train.MOMENTUM, train.WEIGHT_DECAY)
    return detector, opt, batches


class TestStepInsideTheWalk:
    """train_step updates each parameter inside the backward walk, with the
    bytes of a whole backward() followed by one full SGD step."""

    @pytest.mark.parametrize("placement", ["top_down_only", "both"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_same_bytes_as_backward_then_step(self, dtype, placement):
        detector, opt, batches = small_run(dtype, placement)
        twin, twin_opt, _ = small_run(dtype, placement)
        for step, (images, gts) in enumerate(batches):
            lr = train.cosine_lr(0.01, step, len(batches))
            got = train.train_step(detector, opt, images, gts, lr)
            total, want = train.batch_losses(twin, images, gts)
            total.backward()
            twin_opt.step(lr)
            twin_opt.zero_grad()
            assert got == want
        for (name, t), (_, u) in zip(opt.params, twin_opt.params):
            assert t.data.dtype == np.dtype(dtype) and t.grad is None
            assert np.array_equal(t.data, u.data), name
            assert np.array_equal(opt.velocity[name], twin_opt.velocity[name]), name
        assert opt.velocity["unused"].any()  # it decayed on every step
        for (name, a), (_, b) in zip(detector.states(), twin.states()):
            assert np.array_equal(a, b), name

    def test_a_finished_leaf_is_never_read_again(self):
        """NaN written into each finished leaf's data and grad reaches no
        other leaf's gradient: a closure reads only its own node's parents
        and the arrays it saved. Each parameter is finished exactly once."""
        detector, _, [(images, gts), *_] = small_run("float64", "both")
        twin, _, _ = small_run("float64", "both")
        total, _ = train.batch_losses(twin, images, gts)
        total.backward()
        want = dict(zip((id(t) for _, t in detector.params()),
                        (t.grad for _, t in twin.params())))
        finished = []

        def poison(leaf):
            finished.append((id(leaf), leaf.grad.copy()))
            leaf.data[...] = np.nan
            leaf.grad[...] = np.nan

        total, _ = train.batch_losses(detector, images, gts)
        total.backward(on_grad=poison)
        assert sorted(key for key, _ in finished) == sorted(want)
        for key, grad in finished:
            assert np.array_equal(grad, want[key])

    def test_train_toy_releases_every_gradient(self):
        cfg = load_config(overrides=SMALL + ["training.steps=2"])
        detector, _, _, rows = train.train_toy(cfg)
        assert len(rows) == 2
        assert all(t.grad is None for _, t in detector.params())
