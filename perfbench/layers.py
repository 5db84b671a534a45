"""Where the traced run puts its spans, and the per-layer metrics.

Each target is the name a caller looks up: a class method (instances
find it on the class), or a module-level name another module imported
by name, such as ``repro.rl.ddpg.soft_update``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

import repro.rl.ddpg as ddpg_module
import repro.telemetry as telemetry
from repro.core.agent import MirasAgent
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.refinement import RefinedModel
from repro.eval import runner
from repro.nn.network import MLP
from repro.nn.optimizers import Optimizer
from repro.rl.ddpg import DDPGAgent
from repro.rl.replay import ReplayBuffer
from repro.sim.env import MicroserviceEnv
from repro.telemetry import JsonlSink, MetricsSink, Tracer
from repro.telemetry.metrics import _Family

from spans import SpanStats, Target
from workloads import ALLOCATORS

__all__ = [
    "LAYER_MAP",
    "PER_LAYER",
    "RefinementCounter",
    "per_layer_metrics",
    "targets",
]

SIM_SPANS = ("sim.env.step", "sim.env.reset")
TELEMETRY_SPANS = (
    "telemetry.tracer.emit",
    "telemetry.tracer.close",
    "telemetry.write_metrics",
)
ROLLOUT_SPANS = ("core.model_env.step", "rl.ddpg.act_batch", "rl.ddpg.store_batch")
LABELS_COUNTER = "_Family.labels"


class RefinementCounter:
    """Rows refined by ``RefinedModel.predict_batch`` and the lends made."""

    def __init__(self):
        self.rows = 0
        self._models: Dict[int, RefinedModel] = {}

    def observe(self, args: tuple, result) -> None:
        model, states = args[0], args[1]
        self.rows += np.atleast_2d(states).shape[0]
        self._models[id(model)] = model

    @property
    def lends(self) -> int:
        return sum(m.lend_count for m in self._models.values())


def targets(refinement: RefinementCounter) -> List[Target]:
    """Every wrapped call, outermost layers last."""
    found = [
        Target(MLP, "forward", "nn.forward"),
        Target(MLP, "backward", "nn.backward"),
        Target(MLP, "input_gradient", "nn.input_gradient"),
        Target(Optimizer, "step", "nn.optimizer_step"),
        Target(ddpg_module, "soft_update", "nn.soft_update"),
        Target(ReplayBuffer, "sample", "rl.replay.sample"),
        Target(DDPGAgent, "update", "rl.ddpg.update"),
        Target(DDPGAgent, "refresh_perturbation", "rl.ddpg.refresh_perturbation"),
        Target(DDPGAgent, "act_batch", "rl.ddpg.act_batch"),
        Target(DDPGAgent, "store_batch", "rl.ddpg.store_batch"),
        Target(EnvironmentModel, "fit", "core.environment_model.fit"),
        Target(
            RefinedModel, "predict_batch", "core.refinement.predict_batch",
            refinement.observe,
        ),
        Target(BatchedModelEnv, "step", "core.model_env.step"),
        Target(MirasAgent, "collect_real_interactions", "core.agent.collect"),
        Target(MirasAgent, "train_model", "core.agent.train_model"),
        Target(MirasAgent, "train_policy", "core.agent.train_policy"),
        Target(MirasAgent, "evaluate", "core.agent.evaluate"),
        Target(MicroserviceEnv, "step", "sim.env.step"),
        Target(MicroserviceEnv, "reset", "sim.env.reset"),
        Target(runner, "make_env", "eval.make_env"),
        Target(runner, "evaluate_allocator", "eval.evaluate_allocator"),
        Target(Tracer, "emit", "telemetry.tracer.emit"),
        Target(Tracer, "close", "telemetry.tracer.close"),
        Target(MetricsSink, "write", "telemetry.metrics_sink.write"),
        Target(JsonlSink, "write", "telemetry.jsonl_sink.write"),
        Target(telemetry, "write_metrics", "telemetry.write_metrics"),
        Target(_Family, "labels", None),
    ]
    found.extend(
        Target(cls, "allocate", f"baselines.{name}.allocate")
        for name, cls in ALLOCATORS.items()
    )
    return found


#: Which end-to-end metric, on which workload, each layer metric should
#: move.  The help text prints this so that later changes can cite it.
LAYER_MAP = (
    (
        "nn.forward.{calls,s}, nn.backward.s, nn.input_gradient.self_s, "
        "nn.optimizer_step.s, nn.soft_update.s, nn.forwards_per_update, "
        "rl.ddpg.update.{calls,s,self_s,ms_p50}, rl.replay.sample.s, "
        "rl.ddpg.refresh_perturbation.s",
        "wall_s and window_ms.* on train-msd; no change on eval-bursts and "
        "trace-bursts",
    ),
    (
        "core.agent.{collect,train_model,evaluate}.s, "
        "core.agent.train_policy.self_s, core.environment_model.fit.s, "
        "core.refinement.predict_batch.self_s, core.refinement.lends_per_row, "
        "core.model_env.step.self_s",
        "wall_s on train-msd (refinement plus model env about 4%, "
        "fitting about 1.5%); the model env step also moves window_ms.* there",
    ),
    (
        "sim.env.step.{calls,s}, sim.env.reset.s, sim.events.processed, "
        "sim.events_per_s, sim.tasks_completed",
        "window_ms.* and wall_s on eval-bursts; wall_s on train-msd "
        "(about 7%)",
    ),
    (
        "baselines.<allocator>.allocate.s, eval.make_env.s",
        "window_ms.* and wall_s on eval-bursts",
    ),
    (
        "telemetry.tracer.emit.{calls,self_s}, "
        "telemetry.metrics_sink.write.self_s, "
        "telemetry.jsonl_sink.write.self_s, telemetry.labels_per_record, "
        "telemetry.trace_bytes",
        "window_ms.* and wall_s on trace-bursts; no change on eval-bursts, "
        "where the tracer is off",
    ),
)


#: (name, unit) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("nn.forward.calls", "count"),
    ("nn.forward.s", "s"),
    ("nn.backward.s", "s"),
    ("nn.input_gradient.self_s", "s"),
    ("nn.optimizer_step.s", "s"),
    ("nn.soft_update.s", "s"),
    ("nn.forwards_per_update", "forwards/update"),
    ("rl.ddpg.update.calls", "count"),
    ("rl.ddpg.update.s", "s"),
    ("rl.ddpg.update.self_s", "s"),
    ("rl.ddpg.update.ms_p50", "ms"),
    ("rl.replay.sample.s", "s"),
    ("rl.ddpg.refresh_perturbation.s", "s"),
    ("core.agent.collect.s", "s"),
    ("core.agent.train_model.s", "s"),
    ("core.agent.evaluate.s", "s"),
    ("core.agent.train_policy.self_s", "s"),
    ("core.environment_model.fit.s", "s"),
    ("core.refinement.predict_batch.self_s", "s"),
    ("core.refinement.lends_per_row", "lends/row"),
    ("core.model_env.step.self_s", "s"),
    ("sim.env.step.calls", "count"),
    ("sim.env.step.s", "s"),
    ("sim.env.reset.s", "s"),
    ("sim.events.processed", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.tasks_completed", "count"),
) + tuple(
    (f"baselines.{name}.allocate.s", "s") for name in ALLOCATORS
) + (
    ("eval.make_env.s", "s"),
    ("telemetry.tracer.emit.calls", "count"),
    ("telemetry.tracer.emit.self_s", "s"),
    ("telemetry.metrics_sink.write.self_s", "s"),
    ("telemetry.jsonl_sink.write.self_s", "s"),
    ("telemetry.labels_per_record", "labels/record"),
    ("telemetry.trace_bytes", "B"),
    ("share.ddpg_update", "fraction"),
    ("share.rollout", "fraction"),
    ("share.sim", "fraction"),
    ("share.telemetry", "fraction"),
    ("bench.span_coverage", "fraction"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.profiler_overhead_pct", "%"),
    ("bench.cpu_per_wall", "cpu-s/s"),
    ("window_ms.samples", "count"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    stats: SpanStats,
    refinement: RefinementCounter,
    traced_wall: float,
    events: int,
    tasks_completed: int,
    trace_bytes: int,
    harness: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced recording.

    ``harness`` carries the numbers measured outside the traced units:
    the overheads, CPU per wall second and the window sample count.
    """
    s, self_s, calls = stats.seconds, stats.self_seconds, stats.calls_of
    updates = calls("rl.ddpg.update")
    sim_s = stats.seconds_within(SIM_SPANS)
    telemetry_in_sim = stats.seconds_within(TELEMETRY_SPANS, SIM_SPANS)
    values = {
        "nn.forward.calls": calls("nn.forward"),
        "nn.forward.s": s("nn.forward"),
        "nn.backward.s": s("nn.backward"),
        "nn.input_gradient.self_s": self_s("nn.input_gradient"),
        "nn.optimizer_step.s": s("nn.optimizer_step"),
        "nn.soft_update.s": s("nn.soft_update"),
        "nn.forwards_per_update": _ratio(
            stats.calls_within("nn.forward", "rl.ddpg.update"), updates
        ),
        "rl.ddpg.update.calls": updates,
        "rl.ddpg.update.s": s("rl.ddpg.update"),
        "rl.ddpg.update.self_s": self_s("rl.ddpg.update"),
        "rl.ddpg.update.ms_p50": 1e3 * stats.median_seconds("rl.ddpg.update"),
        "rl.replay.sample.s": s("rl.replay.sample"),
        "rl.ddpg.refresh_perturbation.s": s("rl.ddpg.refresh_perturbation"),
        "core.agent.collect.s": s("core.agent.collect"),
        "core.agent.train_model.s": s("core.agent.train_model"),
        "core.agent.evaluate.s": s("core.agent.evaluate"),
        "core.agent.train_policy.self_s": self_s("core.agent.train_policy"),
        "core.environment_model.fit.s": s("core.environment_model.fit"),
        "core.refinement.predict_batch.self_s": self_s(
            "core.refinement.predict_batch"
        ),
        "core.refinement.lends_per_row": _ratio(
            refinement.lends, refinement.rows
        ),
        "core.model_env.step.self_s": self_s("core.model_env.step"),
        "sim.env.step.calls": calls("sim.env.step"),
        "sim.env.step.s": s("sim.env.step"),
        "sim.env.reset.s": s("sim.env.reset"),
        "sim.events.processed": events,
        "sim.events_per_s": _ratio(events, sim_s),
        "sim.tasks_completed": tasks_completed,
        "eval.make_env.s": s("eval.make_env"),
        "telemetry.tracer.emit.calls": calls("telemetry.tracer.emit"),
        "telemetry.tracer.emit.self_s": self_s("telemetry.tracer.emit"),
        "telemetry.metrics_sink.write.self_s": self_s(
            "telemetry.metrics_sink.write"
        ),
        "telemetry.jsonl_sink.write.self_s": self_s(
            "telemetry.jsonl_sink.write"
        ),
        "telemetry.labels_per_record": _ratio(
            stats.counts.get(LABELS_COUNTER, 0),
            calls("telemetry.metrics_sink.write"),
        ),
        "telemetry.trace_bytes": trace_bytes,
        "share.ddpg_update": _ratio(s("rl.ddpg.update"), traced_wall),
        "share.rollout": _ratio(
            stats.seconds_within(ROLLOUT_SPANS), traced_wall
        ),
        "share.sim": _ratio(sim_s - telemetry_in_sim, traced_wall),
        "share.telemetry": _ratio(
            stats.seconds_within(TELEMETRY_SPANS), traced_wall
        ),
        "bench.span_coverage": _ratio(stats.top_level, traced_wall),
    }
    for name in ALLOCATORS:
        values[f"baselines.{name}.allocate.s"] = s(f"baselines.{name}.allocate")
    values.update(harness)
    mismatched = {name for name, _ in PER_LAYER} ^ set(values)
    if mismatched:
        raise KeyError(f"per-layer metrics out of step with PER_LAYER: {mismatched}")
    return values
