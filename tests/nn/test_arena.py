"""The flat parameter arena behind every MLP.

Two contracts are pinned here:

- **Views stay attached.**  Each layer's ``weights``/``bias`` and
  ``grad_weights``/``grad_bias`` are views into its own network's
  ``params``/``grads`` after every operation that writes parameters.  A
  stray ``layer.weights = ...`` would detach a view, and the optimiser
  (which steps the arena) would then silently stop training that layer.
- **Bit-identity with the per-parameter code.**  Whole-vector Adam, the
  global-norm clip and the in-place Polyak update give the same bytes as
  the per-parameter Adam and concatenate-based ``soft_update`` they
  replaced, spelled out below as a reference.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.nn import MLP, Adam, MeanSquaredError, soft_update
from repro.nn.layers import Dense
from repro.nn.serialization import load_mlp, save_mlp
from repro.rl.actor import Actor
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.utils.rng import RngStream
from repro.utils.validation import isclose_zero

from tests.conftest import make_msd_env


def _rng(seed=5):
    return RngStream("arena", np.random.SeedSequence(seed))


def assert_attached(net: MLP) -> None:
    """Every layer view lives in ``net``'s own arena."""
    for layer in net.layers:
        for view in (layer.weights, layer.bias):
            assert np.shares_memory(view, net.params)
        for view in (layer.grad_weights, layer.grad_bias):
            assert np.shares_memory(view, net.grads)
    for grad in net.grad_views:
        assert np.shares_memory(grad, net.grads)


def assert_detached(a: MLP, b: MLP) -> None:
    """``a`` and ``b`` share no parameter or gradient memory."""
    for x in (a.params, a.grads):
        for y in (b.params, b.grads):
            assert not np.shares_memory(x, y)


# ---------------------------------------------------------------------------
# Reference: the per-parameter code the arena replaced.
class ReferenceAdam:
    """Per-parameter Adam with per-index state and global-norm clipping."""

    def __init__(self, lr, beta1, beta2, grad_clip=0.0, weight_decay=0.0):
        self.lr, self.clip, self.wd = lr, grad_clip, weight_decay
        self.b1, self.b2, self.eps = beta1, beta2, 1e-8
        self.state, self.t, self.clipped = {}, 0, 0

    def step(self, pairs):
        self.t += 1
        if self.clip:
            total = np.sqrt(sum(float(np.sum(g * g)) for _, g in pairs))
            if not (total <= self.clip or isclose_zero(total)):
                self.clipped += 1
                pairs = [(p, g * (self.clip / total)) for p, g in pairs]
        for index, (p, g) in enumerate(pairs):
            st = self.state.setdefault(
                index, {"m": np.zeros_like(p), "v": np.zeros_like(p)}
            )
            m, v = st["m"], st["v"]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            m_hat = m / (1.0 - self.b1**self.t)
            v_hat = v / (1.0 - self.b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.wd:
                p -= self.lr * self.wd * p

    def moments(self, key):
        return np.concatenate([self.state[i][key].ravel() for i in sorted(self.state)])


def reference_flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


# ---------------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize(
        "grad_clip, engaged",
        [(0.0, None), (1e9, False), (0.05, True)],
        ids=["no-clip", "clip-idle", "clip-engaged"],
    )
    def test_adam_clip_and_soft_update_match_reference(self, grad_clip, engaged):
        rng = _rng()
        net = MLP([5, 16, 16, 3], aux_dim=2, aux_layer=1, rng=rng.fork("net"))
        target = net.clone()
        # The reference trains separate per-layer copies of the same weights.
        ref = [a.copy() for layer in net.layers for a in (layer.weights, layer.bias)]
        ref_target = reference_flat(ref)
        opt = Adam(3e-3, grad_clip=grad_clip, weight_decay=1e-3)
        ref_opt = ReferenceAdam(3e-3, 0.9, 0.999, grad_clip=grad_clip, weight_decay=1e-3)
        loss, tau = MeanSquaredError(), 0.05
        for _ in range(200):
            x = rng.normal(size=(8, 5))
            aux = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, 3))
            _, grad = loss(net.forward(x, aux), y)
            net.backward(grad)
            # Same weights, so same gradients: take them from the arena net.
            ref_opt.step(list(zip(ref, [g.copy() for g in net.grad_views])))
            net.apply_gradients(opt)
            soft_update(target, net, tau)
            ref_target = tau * reference_flat(ref) + (1.0 - tau) * ref_target
            assert net.params.tobytes() == reference_flat(ref).tobytes()
        m, v = opt._buffers[:2]  # Adam's flat first/second moments
        assert m.tobytes() == ref_opt.moments("m").tobytes()
        assert v.tobytes() == ref_opt.moments("v").tobytes()
        assert target.params.tobytes() == ref_target.tobytes()
        if engaged is not None:
            assert (ref_opt.clipped > 0) is engaged
        assert_attached(net)
        assert_detached(net, target)

    def test_dense_backward_matches_matmul_expressions(self):
        layer = Dense(4, 3, aux_dim=2, activation="tanh", rng=_rng())
        x = _rng(1).normal(size=(6, 4))
        aux = _rng(2).normal(size=(6, 2))
        grad_y = _rng(3).normal(size=(6, 3))
        layer.forward(x, aux)
        layer.backward(grad_y)
        grad_z = layer.activation.backward(grad_y, layer._z, layer._y)
        expected_w = np.concatenate([x, aux], axis=1).T @ grad_z
        assert layer.grad_weights.tobytes() == expected_w.tobytes()
        assert layer.grad_bias.tobytes() == grad_z.sum(axis=0).tobytes()

    def test_policy_gradient_from_reused_forward_matches_recompute(self):
        def actor():
            return Actor(4, 3, hidden_sizes=(16, 16), rng=_rng(9))

        states = _rng(4).uniform(0, 50, size=(12, 4))
        dq_da = _rng(6).normal(size=(12, 3))
        reused, recomputed = actor(), actor()
        scale = (1.0 - recomputed.output_mixing) / states.shape[0]
        for _ in range(5):
            reused.act_batch(states)
            reused.apply_policy_gradient(states, dq_da)
            # The old path: its own forward, then backward and step.
            net = recomputed.network
            net.forward(recomputed.normalize(states))
            net.backward(-dq_da * scale)
            net.apply_gradients(recomputed.optimizer)
            assert reused.network.params.tobytes() == net.params.tobytes()
            assert reused.network.grads.tobytes() == net.grads.tobytes()


class TestViewsStayAttached:
    def test_construction(self):
        net = MLP([3, 8, 8, 2], aux_dim=2, aux_layer=1, rng=_rng())
        assert_attached(net)
        assert net.params.size == net.grads.size == net.num_params

    def test_clone_has_its_own_arena(self):
        net = MLP([3, 8, 2], rng=_rng())
        twin = net.clone()
        assert_attached(twin)
        assert_detached(net, twin)
        assert twin.params.tobytes() == net.params.tobytes()
        twin.params += 1.0
        assert not np.array_equal(twin.params, net.params)

    def test_deepcopy_and_pickle_of_an_owner_reattach(self):
        actor = Actor(4, 3, hidden_sizes=(8,), rng=_rng())
        for twin in (copy.deepcopy(actor), pickle.loads(pickle.dumps(actor))):
            for net in (twin.network, twin.target_network):
                assert_attached(net)
            assert_detached(twin.network, actor.network)
            assert_detached(twin.network, twin.target_network)
            assert twin.network.params.tobytes() == actor.network.params.tobytes()

    def test_set_flat_and_load_state_dict(self):
        net = MLP([3, 8, 2], rng=_rng())
        state = net.state_dict()
        net.set_flat(np.zeros(net.num_params))
        assert_attached(net)
        assert not net.layers[0].weights.any()
        net.load_state_dict(state)
        assert_attached(net)
        assert np.array_equal(net.layers[0].weights, state["layer0"]["weights"])

    def test_load_mlp(self, tmp_path):
        net = MLP([3, 8, 1], aux_dim=2, aux_layer=1, rng=_rng())
        loaded = load_mlp(save_mlp(tmp_path / "net", net))
        assert_attached(loaded)
        assert loaded.params.tobytes() == net.params.tobytes()

    def test_refresh_perturbation_reuses_one_network(self):
        agent = DDPGAgent(
            3, 3, config=DDPGConfig(hidden_sizes=(16,)), rng=_rng(3)
        )
        agent.refresh_perturbation()
        perturbed = agent._perturbed_network
        first = perturbed.get_flat()
        agent.refresh_perturbation()
        assert agent._perturbed_network is perturbed
        assert not np.array_equal(perturbed.params, first)
        assert_attached(perturbed)
        assert_detached(perturbed, agent.actor.network)

    def test_keep_best_restore(self):
        config = MirasConfig(
            model=ModelConfig(hidden_sizes=(8,), epochs=3),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
                rollout_length=4,
                rollouts_per_iteration=2,
                patience=2,
            ),
            steps_per_iteration=20,
            reset_interval=10,
            iterations=1,
            eval_steps=3,
        )
        agent = MirasAgent(make_msd_env(seed=61), config, seed=61)
        agent.iterate(iterations=1)
        snapshot = agent._snapshot_policy()
        agent.ddpg.actor.network.params[...] = 0.0
        agent._restore_policy(snapshot)
        actor, critic = agent.ddpg.actor, agent.ddpg.critic
        nets = [actor.network, actor.target_network, critic.network, critic.target_network]
        for net in nets:
            assert_attached(net)
        for i, a in enumerate(nets):
            for b in nets[i + 1 :]:
                assert_detached(a, b)
        assert np.array_equal(actor.network.layers[0].weights, snapshot["actor"]["layer0"]["weights"])


class TestLayoutChecks:
    def test_wrong_bias_shape_in_archive_rejected(self, tmp_path):
        net = MLP([3, 8, 2], rng=_rng())
        path = save_mlp(tmp_path / "net", net)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["layer1/bias"] = np.zeros(1)  # broadcastable, wrong shape
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=r"layer 1 bias shape mismatch in .*net\.npz"):
            load_mlp(path)

    def test_wrong_weight_shape_in_archive_rejected(self, tmp_path):
        net = MLP([3, 8, 2], rng=_rng())
        path = save_mlp(tmp_path / "net", net)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["layer0/weights"] = np.zeros((8, 3))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="layer 0 weights shape mismatch"):
            load_mlp(path)

    @pytest.mark.parametrize(
        "kwargs_a, kwargs_b",
        [
            # 4*8 + 9*2 == 6*6 + 7*2 == 50 parameters.
            (dict(layer_sizes=[3, 8, 2]), dict(layer_sizes=[5, 6, 2])),
            # The action injected at layer 0 or layer 1: 44 parameters each.
            (
                dict(layer_sizes=[3, 4, 4], aux_dim=2, aux_layer=0),
                dict(layer_sizes=[3, 4, 4], aux_dim=2, aux_layer=1),
            ),
        ],
        ids=["layer-sizes", "aux-layer"],
    )
    def test_soft_update_rejects_same_size_different_shape(self, kwargs_a, kwargs_b):
        a = MLP(rng=_rng(1), **kwargs_a)
        b = MLP(rng=_rng(2), **kwargs_b)
        assert a.num_params == b.num_params
        with pytest.raises(ValueError, match="differ in architecture"):
            soft_update(a, b, tau=0.5)
