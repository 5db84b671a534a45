"""Tests for MIRAS configuration presets."""

import pytest

from repro.core.config import MirasConfig, ModelConfig, PolicyConfig


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig()
        assert config.refinement_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0},
            {"epochs": 0},
            {"refinement_percentile": 0.0},
            {"refinement_percentile": 50.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestPolicyConfig:
    def test_defaults(self):
        config = PolicyConfig()
        assert config.rollout_length == 25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rollout_length": 0},
            {"patience": 0},
            {"updates_per_step": 0},
            {"collect_mode": "logical"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PolicyConfig(**kwargs)


class TestMirasPresets:
    def test_msd_paper_matches_section_vi_a3(self):
        """Predictive model 3x20; actor 3x256; 1000 steps/iter; 25-step
        rollouts and resets."""
        config = MirasConfig.msd_paper()
        assert tuple(config.model.hidden_sizes) == (20, 20, 20)
        assert tuple(config.policy.ddpg.hidden_sizes) == (256, 256, 256)
        assert config.steps_per_iteration == 1000
        assert config.reset_interval == 25
        assert config.policy.rollout_length == 25
        assert config.eval_steps == 25

    def test_ligo_paper_matches_section_vi_a3(self):
        """Predictive model 1x20 (smaller, to avoid overfitting); RL nets
        3x512; 2000 steps/iter; 10-step rollouts; 100-step evaluation."""
        config = MirasConfig.ligo_paper()
        assert tuple(config.model.hidden_sizes) == (20,)
        assert tuple(config.policy.ddpg.hidden_sizes) == (512, 512, 512)
        assert config.steps_per_iteration == 2000
        assert config.policy.rollout_length == 10
        assert config.eval_steps == 100

    def test_fast_presets_share_schedule_shape(self):
        for fast, paper in [
            (MirasConfig.msd_fast(), MirasConfig.msd_paper()),
            (MirasConfig.ligo_fast(), MirasConfig.ligo_paper()),
        ]:
            assert tuple(fast.model.hidden_sizes) == tuple(
                paper.model.hidden_sizes
            )
            assert fast.steps_per_iteration < paper.steps_per_iteration

    def test_scaled(self):
        config = MirasConfig.msd_paper().scaled(0.1)
        assert config.steps_per_iteration == 100
        assert config.eval_steps == 2

    def test_scaled_floors_at_one(self):
        config = MirasConfig.msd_paper().scaled(1e-6)
        assert config.steps_per_iteration == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps_per_iteration": 0},
            {"iterations": 0},
            {"initial_random_fraction": 1.5},
            {"collect_burst_probability": -0.1},
            {"collect_burst_scale": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MirasConfig(**kwargs)
