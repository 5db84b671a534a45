"""Tests for the MLP container: gradients, aux inputs, flat params, targets."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, MeanSquaredError, soft_update
from repro.utils.rng import RngStream


@pytest.fixture
def net_rng():
    return RngStream("net", np.random.SeedSequence(11))


class TestConstruction:
    def test_requires_two_layer_sizes(self, net_rng):
        with pytest.raises(ValueError):
            MLP([4], rng=net_rng)

    def test_aux_layer_bounds(self, net_rng):
        with pytest.raises(ValueError):
            MLP([4, 8, 2], aux_dim=2, aux_layer=5, rng=net_rng)

    def test_dims(self, net_rng):
        net = MLP([4, 8, 2], rng=net_rng)
        assert net.in_dim == 4
        assert net.out_dim == 2
        assert len(net.layers) == 2


class TestForward:
    def test_batch_shape(self, net_rng):
        net = MLP([4, 8, 2], rng=net_rng)
        assert net.forward(np.zeros((5, 4))).shape == (5, 2)

    def test_predict_single_returns_1d(self, net_rng):
        net = MLP([4, 8, 2], rng=net_rng)
        assert net.predict(np.zeros(4)).shape == (2,)

    def test_softmax_output_is_distribution(self, net_rng):
        net = MLP([4, 8, 3], output_activation="softmax", rng=net_rng)
        out = net.forward(net_rng.normal(size=(10, 4)))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0)


class TestGradients:
    def test_full_parameter_gradient_check(self, net_rng):
        net = MLP([3, 6, 6, 2], aux_dim=2, aux_layer=1, rng=net_rng)
        x = net_rng.normal(size=(4, 3))
        aux = net_rng.normal(size=(4, 2))
        y = net_rng.normal(size=(4, 2))
        loss = MeanSquaredError()

        value, grad = loss(net.forward(x, aux), y)
        net.backward(grad)
        analytic = np.concatenate(
            [
                np.concatenate([l.grad_weights.ravel(), l.grad_bias.ravel()])
                for l in net.layers
            ]
        )

        flat0 = net.get_flat()
        eps = 1e-6
        indices = net_rng.integers(0, flat0.size, size=40)
        for i in indices:
            for sign, store in ((+1, "up"), (-1, "down")):
                pass
            fp = flat0.copy()
            fp[i] += eps
            net.set_flat(fp)
            up, _ = loss(net.forward(x, aux), y)
            fm = flat0.copy()
            fm[i] -= eps
            net.set_flat(fm)
            down, _ = loss(net.forward(x, aux), y)
            net.set_flat(flat0)
            assert analytic[i] == pytest.approx(
                (up - down) / (2 * eps), abs=1e-6
            )

    def test_input_gradient_matches_numerical(self, net_rng):
        net = MLP([3, 8, 1], rng=net_rng)
        x = net_rng.normal(size=(2, 3))
        analytic = net.input_gradient(x)
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                xp = x.copy()
                xp[i, j] += eps
                xm = x.copy()
                xm[i, j] -= eps
                numeric = (
                    float(net.forward(xp).sum()) - float(net.forward(xm).sum())
                ) / (2 * eps)
                assert analytic[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_input_gradient_leaves_param_grads_alone(self, net_rng):
        net = MLP([3, 8, 1], aux_dim=2, aux_layer=1, rng=net_rng)
        x = net_rng.normal(size=(4, 3))
        aux = net_rng.normal(size=(4, 2))
        value, grad = MeanSquaredError()(net.forward(x, aux), np.zeros((4, 1)))
        net.backward(grad)
        before = net.grads.copy()
        net.input_gradient(x, aux=aux, wrt="aux")
        assert net.grads.tobytes() == before.tobytes()

    def test_aux_gradient_requires_aux_network(self, net_rng):
        net = MLP([3, 8, 1], rng=net_rng)
        with pytest.raises(ValueError, match="no auxiliary"):
            net.input_gradient(np.zeros((1, 3)), wrt="aux")

    def test_invalid_wrt(self, net_rng):
        net = MLP([3, 8, 1], rng=net_rng)
        with pytest.raises(ValueError, match="wrt"):
            net.input_gradient(np.zeros((1, 3)), wrt="weights")


class TestTraining:
    def test_fits_linear_function(self, net_rng):
        net = MLP([2, 32, 1], rng=net_rng)
        opt = Adam(5e-3)
        x = net_rng.normal(size=(512, 2))
        y = (2 * x[:, :1] - x[:, 1:]) * 0.5
        for _ in range(400):
            net.train_batch(x, y, optimizer=opt)
        loss, _ = MeanSquaredError()(net.forward(x), y)
        assert loss < 1e-2


class TestFlatParams:
    def test_roundtrip_preserves_predictions(self, net_rng):
        net = MLP([3, 8, 2], rng=net_rng)
        x = net_rng.normal(size=(4, 3))
        before = net.forward(x).copy()
        flat = net.get_flat()
        net.set_flat(np.zeros_like(flat))
        net.set_flat(flat)
        assert np.allclose(net.forward(x), before)

    def test_wrong_size_rejected(self, net_rng):
        net = MLP([3, 8, 2], rng=net_rng)
        with pytest.raises(ValueError):
            net.set_flat(np.zeros(net.num_params - 1))

    def test_state_dict_roundtrip(self, net_rng):
        net = MLP([3, 8, 2], rng=net_rng)
        state = net.state_dict()
        x = net_rng.normal(size=(2, 3))
        before = net.forward(x).copy()
        net.set_flat(net.get_flat() * 0.0)
        net.load_state_dict(state)
        assert np.allclose(net.forward(x), before)


class TestCloneAndSoftUpdate:
    def test_clone_is_independent(self, net_rng):
        net = MLP([3, 8, 2], rng=net_rng)
        clone = net.clone()
        net.set_flat(net.get_flat() + 1.0)
        assert not np.allclose(clone.get_flat(), net.get_flat())

    def test_soft_update_blends(self, net_rng):
        source = MLP([3, 8, 2], rng=net_rng)
        target = source.clone()
        target.set_flat(np.zeros(target.num_params))
        soft_update(target, source, tau=0.25)
        assert np.allclose(target.get_flat(), 0.25 * source.get_flat())

    def test_soft_update_tau_one_copies(self, net_rng):
        source = MLP([3, 8, 2], rng=net_rng)
        target = MLP([3, 8, 2], rng=net_rng.fork("t"))
        soft_update(target, source, tau=1.0)
        assert np.allclose(target.get_flat(), source.get_flat())

    def test_soft_update_rejects_bad_tau(self, net_rng):
        net = MLP([3, 8, 2], rng=net_rng)
        with pytest.raises(ValueError):
            soft_update(net.clone(), net, tau=0.0)

    def test_soft_update_rejects_size_mismatch(self, net_rng):
        a = MLP([3, 8, 2], rng=net_rng)
        b = MLP([3, 4, 2], rng=net_rng.fork("b"))
        with pytest.raises(ValueError):
            soft_update(a, b, tau=0.5)
