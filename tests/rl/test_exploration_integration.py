"""Integration-level exploration behaviour checks."""

import numpy as np
import pytest

from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.utils.rng import RngStream


def make_agent(**overrides):
    defaults = dict(hidden_sizes=(32, 32), batch_size=16)
    defaults.update(overrides)
    return DDPGAgent(
        3, 3, config=DDPGConfig(**defaults),
        rng=RngStream("x", np.random.SeedSequence(6)),
    )


class TestPerturbationLifecycle:
    def test_perturbation_refreshes_on_interval(self):
        agent = make_agent(perturb_interval=5, param_noise_sigma=0.3)
        state = np.array([4.0, 2.0, 1.0])
        agent.act(state, explore=True)
        network = agent._perturbed_network
        first = network.get_flat()
        for _ in range(3):
            agent.act(state, explore=True)
        # Within the interval the perturbed weights stay put.
        assert np.array_equal(network.get_flat(), first)
        for _ in range(5):
            agent.act(state, explore=True)
        # A refresh rewrites the same network's weights in place.
        assert agent._perturbed_network is network
        assert not np.array_equal(network.get_flat(), first)

    def test_refresh_changes_the_perturbation(self):
        agent = make_agent(param_noise_sigma=0.3)
        agent.refresh_perturbation()
        flat_a = agent._perturbed_network.get_flat()
        agent.refresh_perturbation()
        flat_b = agent._perturbed_network.get_flat()
        assert not np.allclose(flat_a, flat_b)

    def test_perturbation_does_not_touch_clean_network(self):
        agent = make_agent(param_noise_sigma=1.0)
        clean = agent.actor.network.get_flat().copy()
        agent.refresh_perturbation()
        assert np.array_equal(agent.actor.network.get_flat(), clean)


class TestSigmaAdaptationLoop:
    def test_sigma_converges_toward_target_distance(self):
        """Closed loop: repeated perturb+adapt should keep the induced
        action distance in the vicinity of delta."""
        agent = make_agent(param_noise_sigma=1.0, param_noise_delta=0.05)
        rng = RngStream("s", np.random.SeedSequence(8))
        for _ in range(64):
            s = rng.uniform(0, 20, size=3)
            agent.store(s, np.full(3, 1 / 3), -1.0, s)
        distances = []
        for _ in range(60):
            agent.refresh_perturbation()
            distance = agent.adapt_parameter_noise()
            distances.append(distance)
        tail = np.mean(distances[-15:])
        assert 0.001 < tail < 0.5  # pulled from sigma=1.0 chaos toward delta

    def test_greedy_never_uses_perturbed_network(self):
        agent = make_agent(param_noise_sigma=5.0)
        state = np.array([3.0, 1.0, 1.0])
        greedy_before = agent.act_greedy(state)
        agent.act(state, explore=True)  # builds a wild perturbation
        greedy_after = agent.act_greedy(state)
        assert np.allclose(greedy_before, greedy_after)
