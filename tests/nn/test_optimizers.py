"""Tests for SGD and Adam optimisers."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, Adam, get_optimizer


def quadratic_descent(optimizer, start, steps=200):
    """Minimise f(x) = ||x||^2 / 2 from ``start``; returns final point."""
    x = np.array(start, dtype=np.float64)
    for _ in range(steps):
        grad = x.copy()  # grad of ||x||^2/2 is x
        optimizer.step(x, grad, [grad])
    return x


class TestSGD:
    def test_converges_on_quadratic(self):
        x = quadratic_descent(SGD(learning_rate=0.1), [5.0, -3.0])
        assert np.linalg.norm(x) < 1e-3

    def test_momentum_converges(self):
        x = quadratic_descent(SGD(learning_rate=0.05, momentum=0.9), [5.0, -3.0])
        assert np.linalg.norm(x) < 1e-3

    def test_plain_step_is_lr_times_grad(self):
        opt = SGD(learning_rate=0.5)
        x = np.array([1.0])
        grad = np.array([2.0])
        opt.step(x, grad, [grad])
        assert x[0] == pytest.approx(0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD(momentum=1.0)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        x = quadratic_descent(Adam(learning_rate=0.1), [5.0, -3.0], steps=500)
        assert np.linalg.norm(x) < 1e-2

    def test_first_step_is_learning_rate_sized(self):
        opt = Adam(learning_rate=0.01)
        x = np.array([1.0])
        grad = np.array([100.0])
        opt.step(x, grad, [grad])
        # Bias-corrected Adam's first step is ~lr regardless of grad scale.
        assert x[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_weight_decay_shrinks_params_without_gradient(self):
        opt = Adam(learning_rate=0.1, weight_decay=0.5)
        x = np.array([1.0])
        grad = np.array([0.0])
        opt.step(x, grad, [grad])
        assert x[0] < 1.0

    def test_state_reset(self):
        opt = Adam()
        x = np.array([1.0])
        grad = np.array([1.0])
        opt.step(x, grad, [grad])
        assert opt.iterations == 1
        opt.reset()
        assert opt.iterations == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"beta1": 1.0}, {"beta2": -0.1}, {"epsilon": 0}, {"weight_decay": -1}],
    )
    def test_rejects_bad_hyperparams(self, kwargs):
        with pytest.raises(ValueError):
            Adam(**kwargs)


class TestGradClip:
    def test_global_norm_clipping(self):
        opt = SGD(learning_rate=1.0, grad_clip=1.0)
        x = np.array([0.0, 0.0])
        grad = np.array([30.0, 40.0])
        opt.step(x, grad, [grad])  # norm 50 -> scaled to 1
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_no_clip_below_threshold(self):
        opt = SGD(learning_rate=1.0, grad_clip=100.0)
        x = np.array([0.0])
        grad = np.array([3.0])
        opt.step(x, grad, [grad])
        assert x[0] == pytest.approx(-3.0)


class TestShapeChecks:
    def test_param_grad_shape_mismatch(self):
        opt = SGD()
        with pytest.raises(ValueError, match="mismatch"):
            grad = np.zeros(4)
            opt.step(np.zeros(3), grad, [grad])


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_optimizer("sgd"), SGD)
        assert isinstance(get_optimizer("adam", learning_rate=0.1), Adam)

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_optimizer("rmsprop")
