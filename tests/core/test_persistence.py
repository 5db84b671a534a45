"""Tests for agent persistence (save/load roundtrips)."""

import numpy as np
import pytest

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
from repro.core.persistence import (
    config_from_dict,
    config_to_dict,
    load_agent,
    save_agent,
)
from repro.rl.ddpg import DDPGConfig

from tests.conftest import make_ligo_env, make_msd_env


def trained_agent(seed=41):
    config = MirasConfig(
        model=ModelConfig(hidden_sizes=(8, 8), epochs=5),
        policy=PolicyConfig(
            ddpg=DDPGConfig(hidden_sizes=(16, 16), batch_size=8),
            rollout_length=5,
            rollouts_per_iteration=3,
            patience=2,
        ),
        steps_per_iteration=30,
        reset_interval=10,
        iterations=1,
        eval_steps=4,
    )
    agent = MirasAgent(make_msd_env(seed=seed), config, seed=seed)
    agent.iterate()
    return agent


class TestConfigRoundtrip:
    def test_default_config(self):
        config = MirasConfig()
        restored = config_from_dict(config_to_dict(config))
        assert config_to_dict(restored) == config_to_dict(config)

    def test_paper_presets(self):
        for preset in (MirasConfig.msd_paper(), MirasConfig.ligo_paper()):
            restored = config_from_dict(config_to_dict(preset))
            assert tuple(restored.model.hidden_sizes) == tuple(
                preset.model.hidden_sizes
            )
            assert restored.policy.rollout_length == preset.policy.rollout_length
            assert restored.steps_per_iteration == preset.steps_per_iteration

    def test_unknown_key_names_section_and_key(self):
        # An agent saved while distributed collection existed carries
        # collect_workers / collect_lanes in its policy section.
        data = config_to_dict(MirasConfig())
        data["policy"].update(collect_workers=1, collect_lanes=4)
        with pytest.raises(
            ValueError, match="section 'policy': unknown key 'collect_lanes'"
        ) as excinfo:
            config_from_dict(data)
        assert "unknown key 'collect_workers'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("config", "eval_steps"),
            ("model", "epochs"),
            ("policy", "patience"),
            ("policy.ddpg", "tau"),
        ],
    )
    def test_missing_key_names_section_and_key(self, section, key):
        data = config_to_dict(MirasConfig())
        target = data
        if section != "config":
            for part in section.split("."):
                target = target[part]
        del target[key]
        with pytest.raises(
            ValueError, match=f"section '{section}': missing key '{key}'"
        ):
            config_from_dict(data)


class TestAgentRoundtrip:
    def test_policy_outputs_preserved(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))

        for _ in range(5):
            state = np.abs(np.random.default_rng(0).normal(0, 50, 4))
            assert np.allclose(
                loaded.ddpg.act_greedy(state), agent.ddpg.act_greedy(state)
            )

    def test_dataset_and_model_preserved(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))
        assert len(loaded.dataset) == len(agent.dataset)
        state = np.array([10.0, 5.0, 3.0, 2.0])
        action = np.array([4.0, 4.0, 3.0, 3.0])
        assert np.allclose(
            loaded.model.predict(state, action),
            agent.model.predict(state, action),
        )
        assert loaded.refined_model is not None

    def test_results_preserved(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))
        assert len(loaded.results) == 1
        assert loaded.results[0].eval_reward == agent.results[0].eval_reward

    def test_dimension_mismatch_rejected(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        with pytest.raises(ValueError, match="state_dim"):
            load_agent(tmp_path / "agent", make_ligo_env(seed=99))

    def test_replay_buffer_round_trip_bit_exact(self, tmp_path):
        """Satellite pin: the saved replay buffer — contents, cursor,
        wraparound state — survives save/load bit-exactly."""
        agent = trained_agent()
        replay = agent.ddpg.replay
        assert len(replay) > 0
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=99))

        original = replay.state_dict()
        restored = loaded.ddpg.replay.state_dict()
        assert set(original) == set(restored)
        for key in original:
            assert np.array_equal(original[key], restored[key]), key

        # Identical draws from identical ring state.
        from repro.utils.rng import spawn_rngs

        a = replay.sample(8, spawn_rngs(3, ["sample"])["sample"])
        b = loaded.ddpg.replay.sample(8, spawn_rngs(3, ["sample"])["sample"])
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_loaded_agent_can_continue_training(self, tmp_path):
        agent = trained_agent()
        save_agent(tmp_path / "agent", agent)
        loaded = load_agent(tmp_path / "agent", make_msd_env(seed=55))
        loaded.iterate(iterations=1)
        assert len(loaded.results) == 2
