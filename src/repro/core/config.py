"""MIRAS hyper-parameters, with the paper's MSD and LIGO presets.

Section VI-A3: "For MSD dataset, we use a 3-layer neural network as the
predictive model, each layer has 20 neurons.  Its Actor network has 3
layers, each of which has 256 neurons. ... For LIGO, we use a one-layer
20-neuron neural network as the predictive model. ... both networks of
LIGO have 512 neurons at each layer."  Data-collection schedules: MSD
1,000 steps/iteration with resets every 25 steps and 25-step model
rollouts; LIGO 2,000 steps/iteration with 10-step rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.rl.ddpg import DDPGConfig
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = ["ModelConfig", "PolicyConfig", "MirasConfig"]


@dataclass
class ModelConfig:
    """Environment-model (f̂_Φ) hyper-parameters."""

    hidden_sizes: Sequence[int] = (20, 20, 20)
    learning_rate: float = 1e-3
    epochs: int = 40
    batch_size: int = 64
    #: Lend–Giveback percentile p (Algorithm 1): tau = p-pct, omega = (100-p)-pct.
    refinement_percentile: float = 20.0
    refinement_enabled: bool = True

    def __post_init__(self):
        check_positive("learning_rate", self.learning_rate)
        check_positive("epochs", self.epochs)
        check_positive("batch_size", self.batch_size)
        check_in_range(
            "refinement_percentile",
            self.refinement_percentile,
            0.0,
            50.0,
            inclusive=(False, False),
        )


@dataclass
class PolicyConfig:
    """Policy-training schedule on the learnt model."""

    ddpg: DDPGConfig = field(default_factory=DDPGConfig)
    #: Steps per synthetic rollout ("one episode before resetting the
    #: predictive model": 25 for MSD, 10 for LIGO).
    rollout_length: int = 25
    #: Synthetic rollouts per policy-improvement phase.
    rollouts_per_iteration: int = 40
    #: DDPG gradient updates per synthetic environment step.
    updates_per_step: int = 1
    #: Early-stop policy training when the mean rollout return stops
    #: improving for this many consecutive rollout batches ("until
    #: performance of the policy stops improving", Algorithm 2).
    patience: int = 5
    #: Synthetic rollouts advanced together per pass of the vectorised
    #: rollout engine (K in BatchedModelEnv).  1 reproduces the serial
    #: schedule bit-for-bit; larger values trade per-episode update
    #: interleaving for batched model/actor forwards.
    rollout_batch: int = 1
    #: Real-environment collector.  Distributed collection was removed;
    #: the in-loop ``MirasAgent.collect_real_interactions`` is the only
    #: collector, so ``"serial"`` is the only legal value.  The field is
    #: kept only because the end-to-end benchmark harness still passes
    #: ``collect_mode="serial"``; drop it together with that line.
    collect_mode: str = "serial"

    def __post_init__(self):
        check_positive("rollout_length", self.rollout_length)
        check_positive("rollouts_per_iteration", self.rollouts_per_iteration)
        check_positive("updates_per_step", self.updates_per_step)
        check_positive("patience", self.patience)
        check_positive("rollout_batch", self.rollout_batch)
        if self.collect_mode != "serial":
            raise ValueError(
                f"collect_mode must be 'serial', got {self.collect_mode!r}: "
                "distributed collection (the 'logical' and 'physical' "
                "modes) was removed"
            )


@dataclass
class MirasConfig:
    """The full Algorithm-2 schedule."""

    model: ModelConfig = field(default_factory=ModelConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    #: Real-environment steps collected per outer iteration (1,000 MSD /
    #: 2,000 LIGO in the paper).
    steps_per_iteration: int = 1000
    #: Reset ("drain") the real environment every this many collection steps
    #: (25 in the paper).
    reset_interval: int = 25
    #: Outer iterations (the paper observes convergence around 11).
    iterations: int = 12
    #: Real-env steps used to evaluate the policy after each iteration
    #: (25 for MSD, 100 for LIGO).
    eval_steps: int = 25
    #: Fraction of collection steps taken with random actions in the first
    #: iteration (there is no useful policy yet).
    initial_random_fraction: float = 1.0
    #: At each collection reset, probability of injecting a random request
    #: burst so the dataset covers the high-WIP regime the evaluation
    #: bursts (Section VI-D) will visit.  The paper trains against a live
    #: system whose workload already spans load levels; the emulated
    #: background Poisson alone leaves WIP low, so this restores coverage.
    collect_burst_probability: float = 0.3
    #: Burst size cap in units of the consumer budget C (total requests
    #: drawn uniformly from [0, scale * C], split randomly across types).
    collect_burst_scale: float = 20.0
    #: Keep the actor/critic weights from the iteration with the best
    #: real-environment evaluation ("until the policy performs well in
    #: real environment", Algorithm 2).  Protects short runs against a
    #: late policy collapse.
    keep_best_policy: bool = True
    #: Optional early stop for the outer loop: Algorithm 2 repeats "until
    #: the policy performs well in real environment" — iteration stops as
    #: soon as an evaluation reaches this aggregated reward (None: always
    #: run the configured number of iterations).
    target_eval_reward: Optional[float] = None
    #: If > 0, each per-iteration evaluation starts with a request burst of
    #: this many budgets' worth of requests (total = scale * C, split
    #: evenly over workflow types).  Aligns policy selection with the
    #: bursty deployment conditions of Section VI-D; 0 evaluates under
    #: background load only.
    eval_burst_scale: float = 10.0

    def __post_init__(self):
        check_positive("steps_per_iteration", self.steps_per_iteration)
        check_positive("reset_interval", self.reset_interval)
        check_positive("iterations", self.iterations)
        check_positive("eval_steps", self.eval_steps)
        check_in_range(
            "initial_random_fraction", self.initial_random_fraction, 0.0, 1.0
        )
        check_in_range(
            "collect_burst_probability", self.collect_burst_probability, 0.0, 1.0
        )
        check_non_negative("collect_burst_scale", self.collect_burst_scale)
        check_non_negative("eval_burst_scale", self.eval_burst_scale)

    # Presets -----------------------------------------------------------------
    @classmethod
    def msd_paper(cls) -> "MirasConfig":
        """The paper's full-scale MSD schedule (hours of wall-clock)."""
        return cls(
            model=ModelConfig(hidden_sizes=(20, 20, 20)),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(256, 256, 256)),
                rollout_length=25,
            ),
            steps_per_iteration=1000,
            reset_interval=25,
            iterations=12,
            eval_steps=25,
        )

    @classmethod
    def ligo_paper(cls) -> "MirasConfig":
        """The paper's full-scale LIGO schedule.

        Note the deliberately *smaller* predictive model: "we use a smaller
        neural network to tackle the overfitting problem" (footnote 4).
        """
        return cls(
            model=ModelConfig(hidden_sizes=(20,)),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(512, 512, 512)),
                rollout_length=10,
            ),
            steps_per_iteration=2000,
            reset_interval=25,
            iterations=12,
            eval_steps=100,
        )

    @classmethod
    def msd_fast(cls) -> "MirasConfig":
        """Scaled-down MSD schedule for tests and quick benches.

        Same code path as :meth:`msd_paper`, smaller step counts and
        networks so a full Algorithm-2 run finishes in seconds.
        """
        return cls(
            model=ModelConfig(hidden_sizes=(20, 20, 20), epochs=30),
            policy=PolicyConfig(
                ddpg=DDPGConfig(
                    hidden_sizes=(128, 128), batch_size=64, gamma=0.99
                ),
                rollout_length=25,
                rollouts_per_iteration=25,
                patience=6,
                updates_per_step=2,
            ),
            steps_per_iteration=250,
            reset_interval=25,
            iterations=6,
            eval_steps=25,
        )

    @classmethod
    def ligo_fast(cls) -> "MirasConfig":
        """Scaled-down LIGO schedule for tests and quick benches."""
        return cls(
            model=ModelConfig(hidden_sizes=(20,), epochs=30),
            policy=PolicyConfig(
                ddpg=DDPGConfig(
                    hidden_sizes=(128, 128), batch_size=64, gamma=0.99
                ),
                rollout_length=10,
                rollouts_per_iteration=30,
                patience=6,
                updates_per_step=2,
            ),
            steps_per_iteration=400,
            reset_interval=25,
            iterations=6,
            eval_steps=25,
        )

    def scaled(self, factor: float) -> "MirasConfig":
        """A copy with all step counts multiplied by ``factor`` (>= minimum 1)."""
        check_positive("factor", factor)
        return replace(
            self,
            steps_per_iteration=max(1, int(self.steps_per_iteration * factor)),
            eval_steps=max(1, int(self.eval_steps * factor)),
        )
