import numpy as np
import pytest

from crackdet import numerics as nm
from crackdet.assignment import AssignConfig, CostMatrix, dynamic_assign
from crackdet.config import load_config
from crackdet.dataio import gen_synthetic, normalize_images
from crackdet.errors import ShapeError
from crackdet.losses import (LossBreakdown, giou_loss, quality_focal_terms, soft_cls_loss_pooled,
                             total_loss)
from crackdet.numerics import Tensor, finite_diff_check
from crackdet.train import batch_losses, detector_from_config, image_gts
from oracles import encode_box, giou_loss_loop


def logit(p):
    return float(np.log(p / (1.0 - p)))


class TestSoftClsLoss:
    def test_zero_when_prediction_matches_target(self):
        targets = np.array([[0.25, 0.75]])
        logits = Tensor(np.array([[logit(0.25), logit(0.75)]]))
        loss = soft_cls_loss_pooled(logits, targets, 1)
        assert abs(float(loss.data)) < 1e-12

    def test_single_positive_reference_value(self):
        # y=1 at sigmoid 0.5 contributes CE(0.5,1)*(0.5)^2 = ln2/4
        loss = soft_cls_loss_pooled(Tensor(np.zeros((1, 1))), np.array([[1.0]]), 1)
        assert abs(float(loss.data) - 0.173287) < 1e-6

    def test_normalized_by_positive_count(self):
        logits = Tensor(np.zeros((4, 1)))
        targets = np.ones((4, 1))
        full = float(soft_cls_loss_pooled(logits, targets, 1).data)
        halved = float(soft_cls_loss_pooled(logits, targets, 2).data)
        assert halved == pytest.approx(full / 2)

    def test_background_floor_keeps_loss_finite(self):
        loss = soft_cls_loss_pooled(Tensor(np.full((3, 2), -30.0)), np.zeros((3, 2)), 0)
        assert np.isfinite(float(loss.data))

    def test_assignment_surface(self):
        """An assignment's targets carry its soft labels in the GT's class
        column, and the pooled loss of zero logits (sigmoid 0.5, so CE = ln 2
        in every cell) is ln 2 * sum((y - 0.5)^2) / num_pos."""
        cm = CostMatrix(cost=np.array([[1.0, 2.0]]), iou=np.array([[0.8, 0.3]]),
                        candidates=np.array([[True, True]]))
        asg = dynamic_assign(cm, AssignConfig())
        targets = asg.targets(np.array([2]), 3)
        assert asg.num_pos >= 1 and not targets[:, :2].any() and targets[:, 2].any()
        loss = soft_cls_loss_pooled(Tensor(np.zeros((2, 3))), targets, asg.num_pos)
        want = np.log(2.0) * float(((targets - 0.5) ** 2).sum()) / asg.num_pos
        assert float(loss.data) == pytest.approx(want, rel=1e-12)

    def test_invariant_to_anchor_order(self, rng):
        logits = rng.normal(size=(6, 3))
        targets = rng.uniform(0, 1, size=(6, 3))
        perm = rng.permutation(6)
        a = float(soft_cls_loss_pooled(Tensor(logits), targets, 3).data)
        b = float(soft_cls_loss_pooled(Tensor(logits[perm]), targets[perm], 3).data)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_check(self, seed):
        r = np.random.default_rng(seed)
        logits = Tensor(r.normal(size=(5, 3)), requires_grad=True)
        targets = r.uniform(0, 1, size=(5, 3))
        err = finite_diff_check(lambda: soft_cls_loss_pooled(logits, targets, 3), [logits])
        assert err < 1e-4


def encoded(boxes, strides=None):
    """(distances Tensor, centres, strides) that decode to ``boxes`` from
    their own centres."""
    boxes = np.asarray(boxes, dtype=np.float64)
    strides = np.ones(len(boxes)) if strides is None else np.asarray(strides, dtype=np.float64)
    centres = np.stack([boxes[:, 0] + boxes[:, 2], boxes[:, 1] + boxes[:, 3]], axis=1) / 2.0
    d = [encode_box(b, cx, cy, s) for b, (cx, cy), s in zip(boxes, centres, strides)]
    return Tensor(np.array(d).reshape(-1, 4), requires_grad=True), centres, strides


def random_boxes(r, n):
    xy = r.uniform(0, 30, size=(n, 2))
    return np.concatenate([xy, xy + r.uniform(1, 20, size=(n, 2))], axis=1)


def giou_inputs(kind, seed, n=7):
    """Distances, centres, strides and GTs whose boxes are ``kind`` to the
    decoded predictions."""
    r = np.random.default_rng(seed)
    points = r.uniform(0.0, 64.0, size=(n, 2))
    strides = r.choice((8.0, 16.0, 32.0), size=n)
    d = r.uniform(0.1, 3.0, size=(n, 4))
    x1, y1 = points[:, 0] - d[:, 0] * strides, points[:, 1] - d[:, 1] * strides
    x2, y2 = points[:, 0] + d[:, 2] * strides, points[:, 1] + d[:, 3] * strides
    w = x2 - x1
    if kind == "random":
        gt = random_boxes(r, n) + np.tile(points - 15.0, 2)
    elif kind == "disjoint":
        gt = np.stack([x2 + 5.0, y1, x2 + 5.0 + w, y2], axis=1)
    elif kind == "touching":
        gt = np.stack([x2, y1, x2 + w, y2], axis=1)
    elif kind == "nested":  # GT inside the prediction on even rows, around it on odd ones
        k = np.where(np.arange(n) % 2, -0.5, 0.25)[:, None]
        gt = np.stack([x1, y1, x2, y2], axis=1) + k * np.stack([w, y2 - y1, -w, y1 - y2], axis=1)
    else:
        gt = np.stack([x1, y1, x2, y2], axis=1)
    return d, points, strides, gt


class TestGIoULoss:
    def test_perfect_boxes_zero(self):
        gt = np.array([[0.0, 0.0, 4.0, 4.0], [10.0, 10.0, 20.0, 18.0]])
        loss = giou_loss(*encoded(gt, strides=[8.0, 16.0]), gt)
        assert abs(float(loss.data)) < 1e-12

    def test_no_positives_zero(self):
        loss = giou_loss(Tensor(np.zeros((0, 4)), requires_grad=True), np.zeros((0, 2)),
                         np.zeros(0), np.zeros((0, 4)))
        assert float(loss.data) == 0.0 and not loss._parents

    def test_touching_boxes_cost_one(self):
        pred = np.array([[0.0, 0.0, 1.0, 1.0]])
        gt = np.array([[0.0, 1.0, 1.0, 2.0]])
        loss = giou_loss(*encoded(pred), gt)
        assert float(loss.data) == pytest.approx(1.0)

    def test_nonnegative_and_bounded(self, rng):
        loss = float(giou_loss(*encoded(random_boxes(rng, 8)), random_boxes(rng, 8)).data)
        assert 0.0 <= loss <= 2.0

    @pytest.mark.parametrize("kind", ["random", "disjoint", "touching", "nested", "identical"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, kind, seed):
        d, points, strides, gt = giou_inputs(kind, seed)
        loss = giou_loss(Tensor(d), points, strides, gt)
        assert abs(float(loss.data) - giou_loss_loop(d, points, strides, gt)) <= 1e-12

    def test_one_node_on_the_distances(self):
        d, points, strides, gt = giou_inputs("random", 0)
        dt = Tensor(d, requires_grad=True)
        loss = giou_loss(dt, points, strides, gt)
        assert loss.op == "giou_loss" and loss._parents == (dt,)

    def test_shape_mismatch_rejected(self):
        d, points, strides, gt = giou_inputs("random", 0)
        with pytest.raises(ShapeError):
            giou_loss(Tensor(d[:3]), points, strides, gt)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_check(self, seed):
        for kind in ("random", "nested"):
            d, points, strides, gt = giou_inputs(kind, seed)
            dt = Tensor(d, requires_grad=True)
            err = finite_diff_check(lambda: giou_loss(dt, points, strides, gt), [dt])
            assert err < 1e-4, kind


def graph_nodes(root):
    """Every tensor reachable from ``root`` through recorded parents."""
    seen, stack, nodes = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


class TestBatchLosses:
    """One batch_losses call on a small detector and two synthetic images."""

    def _step(self, dtype):
        cfg = load_config(overrides=[
            "model.backbone_widths=[2,3,4,6,8]", "model.head_channels=4",
            "neck.out_channels=4", "neck.attn_key_dim=4", "synthetic.num_images=2",
            f"numerics.dtype={dtype}"])
        detector = detector_from_config(cfg, np.random.default_rng(0))
        raw, index = gen_synthetic(cfg.synthetic)
        gts = [image_gts(index, im.id) for im in index.images]
        total, breakdown, _ = batch_losses(detector, normalize_images(raw), gts, cfg)
        assert breakdown.num_pos > 0
        return detector, total

    def test_regression_branch_is_one_giou_node(self):
        _, total = self._step("float64")
        ops = [t.op for t in graph_nodes(total)]
        assert ops.count("giou_loss") == 1
        assert not {"index_axis", "maximum", "minimum", "div"} & set(ops)
        (giou,) = [t for t in graph_nodes(total) if t.op == "giou_loss"]
        assert [p.op for p in giou._parents] == ["take"]

    def test_float32_step_keeps_float64_to_the_loss(self):
        """In a float32 run only the GIoU value and its sum into the total are
        float64; every parameter gradient comes back float32."""
        detector, total = self._step("float32")
        wide = sorted(t.op for t in graph_nodes(total) if t.dtype == np.float64)
        assert wide == ["add", "giou_loss", "mul_const"]
        total.backward()
        grads = [t.grad for _, t in detector.params()]
        assert all(g is not None and g.dtype == np.float32 for g in grads)


class TestTotalLoss:
    def test_zero_components(self):
        total, br = total_loss(Tensor(np.float64(0.0)), Tensor(np.float64(0.0)), 0)
        assert float(total.data) == 0.0 and br.total == 0.0

    def test_weighted_sum(self):
        total, br = total_loss(Tensor(np.float64(1.0)), Tensor(np.float64(0.5)), 3)
        assert br == LossBreakdown(cls_loss=1.0, reg_loss=0.5, total=2.0, num_pos=3)

    def test_linearity(self):
        _, a = total_loss(Tensor(np.float64(0.2)), Tensor(np.float64(0.4)), 1)
        _, b = total_loss(Tensor(np.float64(0.4)), Tensor(np.float64(0.8)), 1)
        assert b.total == pytest.approx(2 * a.total)

    def test_total_zero_iff_both_zero(self):
        _, br = total_loss(Tensor(np.float64(0.1)), Tensor(np.float64(0.0)), 1)
        assert br.total > 0.0


def test_quality_focal_terms_shape_check(rng):
    with pytest.raises(Exception):
        quality_focal_terms(Tensor(rng.normal(size=(2, 3))), rng.normal(size=(3, 2)))
