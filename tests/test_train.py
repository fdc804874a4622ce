"""The momentum SGD of train.py against its closed form."""

import numpy as np
import pytest

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
    opt = SGD([("a", a), ("b", b), ("c", c)], lr, momentum, weight_decay)
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
