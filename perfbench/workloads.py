"""The benchmark's three workloads, their inputs, digests and checks.

Every workload is a closed loop with one controller: the next control
window starts only after the previous one has returned.  A workload is
split into

- ``inputs(seed)``: the generated inputs, a pure function of the seed;
- ``construct(inputs, profiler)``: imports are done, this builds the
  objects the timed section needs (timed as set-up);
- ``run(state, probe, watch)``: the timed section, run inside
  ``watch``'s sections so that bookkeeping between cells is not timed;
  it returns the result digest and the failed correctness checks.

The program receives only the generated inputs; the benchmark never
calls into ``repro`` with anything else that depends on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.telemetry as telemetry
from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    MirasAllocator,
    ProportionalToWipAllocator,
    UniformAllocator,
)
from repro.core import MirasAgent, MirasConfig
from repro.eval import runner
from repro.eval.experiments import dataset_preset
from repro.sim.system import SystemConfig
from repro.telemetry import JsonlSink, MetricsSink, Tracer
from repro.telemetry.metrics import METRICS_FILENAME

__all__ = [
    "WORKLOADS",
    "Stopwatch",
    "WindowProbe",
    "UnitResult",
    "digest_sha256",
]

#: Allocator classes of the burst workloads, by the name their
#: ``baselines.<name>.allocate.s`` metric uses.
ALLOCATORS = {
    "drs": DrsAllocator,
    "heft": HeftAllocator,
    "uniform": UniformAllocator,
    "wip-proportional": ProportionalToWipAllocator,
    "miras": MirasAllocator,
}

def digest_sha256(digest: Dict) -> str:
    """Stable hash of a result digest (canonical JSON)."""
    text = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _seeds(seed: int, count: int) -> List[int]:
    """``count`` independent 32-bit seeds derived from the workload seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


class Stopwatch:
    """Wall time of each timed section of one unit, and their CPU time."""

    def __init__(self):
        self.sections: List[float] = []
        self.cpu = 0.0

    @property
    def wall(self) -> float:
        return sum(self.sections)

    def __enter__(self) -> "Stopwatch":
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.sections.append(time.perf_counter() - self._wall0)
        self.cpu += time.process_time() - self._cpu0


class WindowProbe:
    """Times the control windows of a closed loop and checks every step.

    In the burst workloads a window starts when the allocator starts
    deciding and ends when ``env.step`` returns.  In ``train-msd`` the
    timed windows are the synthetic steps of policy training: each runs
    from one ``act_batch`` to the next (or to the return of
    ``train_policy``), so it covers the decision, the model-environment
    step and the DDPG updates that follow it.

    Every real ``env.step`` is checked after the clock stops: the
    allocation must be within budget and no request may be lost (request
    conservation).  Probes are *instance* attributes, attached after any
    class-level span wrappers, and detached at the end of the unit.
    """

    def __init__(self):
        self.samples: List[float] = []
        #: Real-environment steps checked, and how many failed.
        self.checked = 0
        self.failed = 0
        self.tasks_completed = 0
        self._start: Optional[float] = None
        self._attached: List[tuple] = []

    def begin(self) -> None:
        if self._start is None:
            self._start = time.perf_counter()

    def end(self) -> None:
        if self._start is not None:
            self.samples.append(time.perf_counter() - self._start)
            self._start = None

    def lap(self) -> None:
        self.end()
        self.begin()

    def attach(self, obj: Any, attr: str, before=None, after=None) -> None:
        """Call ``before``/``after`` around ``obj.attr`` until detached."""
        func = getattr(obj, attr)

        def probed(*args, **kwargs):
            if before is not None:
                before()
            result = func(*args, **kwargs)
            if after is not None:
                after()
            return result

        setattr(obj, attr, probed)
        self._attached.append((obj, attr))

    def attach_env(self, env, timed: bool = True) -> None:
        step = env.step
        budget = env.consumer_budget

        def probed_step(allocation):
            if timed:
                self.begin()
            out = step(allocation)
            if timed:
                self.end()
            self.checked += 1
            allocation = np.asarray(allocation)
            if (
                np.any(allocation < 0)
                or int(allocation.sum()) > budget
                or not env.system.conservation_ok()
            ):
                self.failed += 1
            self.tasks_completed += sum(out[2].task_completions.values())
            return out

        # Environments are never reused across units, so the probe stays.
        env.step = probed_step

    def detach(self) -> None:
        while self._attached:
            obj, attr = self._attached.pop()
            vars(obj).pop(attr, None)


@dataclass
class UnitResult:
    """What one run of a workload's timed section produced."""

    digest: Dict
    #: Failed correctness checks (empty when the output is right).
    problems: List[str] = field(default_factory=list)
    events: int = 0
    trace_bytes: int = 0


# ---------------------------------------------------------------------------
# train-msd
# ---------------------------------------------------------------------------


class TrainMsd:
    """Algorithm 2 on the msd fast preset: two outer iterations."""

    name = "train-msd"
    why = (
        "Algorithm 2 on the msd fast preset, 2 outer iterations with early "
        "stopping off: nn/rl do most of the work, sim some, telemetry none"
    )
    iterations = 2

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def config(self) -> MirasConfig:
        cfg = MirasConfig.msd_fast()
        if self.smoke:
            cfg = replace(
                cfg,
                model=replace(cfg.model, epochs=2),
                policy=replace(cfg.policy, rollouts_per_iteration=2),
                # One DDPG batch of real transitions, so that every
                # synthetic step updates, as in the full configuration.
                steps_per_iteration=cfg.policy.ddpg.batch_size,
                eval_steps=5,
            )
        # Patience equal to the rollout count disables early stopping, so
        # every seed does the same number of DDPG updates.
        return replace(
            cfg,
            policy=replace(
                cfg.policy,
                patience=cfg.policy.rollouts_per_iteration,
                collect_mode="serial",
            ),
        )

    def expected_windows(self) -> int:
        policy = self.config().policy
        return (
            self.iterations * policy.rollouts_per_iteration * policy.rollout_length
        )

    def expected_updates(self) -> int:
        return self.expected_windows() * self.config().policy.updates_per_step

    def inputs(self, seed: int) -> Dict:
        env_seed, agent_seed = _seeds(seed, 2)
        return {
            "dataset": "msd",
            "env_seed": env_seed,
            "agent_seed": agent_seed,
            "iterations": self.iterations,
        }

    def construct(self, inputs: Dict, profiler=None):
        preset = dataset_preset(inputs["dataset"])
        env = runner.make_env(
            preset["builder"](),
            config=SystemConfig(consumer_budget=preset["budget"]),
            seed=inputs["env_seed"],
            background_rates=preset["rates"],
            profiler=profiler,
        )
        return MirasAgent(env, self.config(), seed=inputs["agent_seed"])

    def run(self, agent, probe: WindowProbe, watch: Stopwatch) -> UnitResult:
        probe.attach(agent.ddpg, "act_batch", before=probe.lap)
        probe.attach(agent, "train_policy", after=probe.end)
        probe.attach_env(agent.env, timed=False)
        try:
            with watch:
                results = agent.iterate(iterations=self.iterations)
        finally:
            probe.detach()
        sha = hashlib.sha256()
        weights = agent.ddpg.actor.network.state_dict()
        finite = True
        for layer in sorted(weights):
            for key in sorted(weights[layer]):
                array = np.ascontiguousarray(weights[layer][key])
                finite = finite and bool(np.all(np.isfinite(array)))
                sha.update(array.tobytes())
        rewards = [r.eval_reward for r in results]
        digest = {
            "eval_rewards": rewards,
            "actor_sha256": sha.hexdigest(),
            "dataset_size": len(agent.dataset),
            "ddpg_updates": agent.ddpg.updates_done,
        }
        problems = []
        if len(results) != self.iterations:
            problems.append(f"ran {len(results)} of {self.iterations} iterations")
        if agent.ddpg.updates_done != self.expected_updates():
            problems.append(
                f"{agent.ddpg.updates_done} DDPG updates, expected "
                f"{self.expected_updates()}"
            )
        expected_rows = self.iterations * agent.config.steps_per_iteration
        if len(agent.dataset) != expected_rows:
            problems.append(f"|D| = {len(agent.dataset)}, expected {expected_rows}")
        if not all(math.isfinite(r) for r in rewards):
            problems.append(f"non-finite eval reward in {rewards}")
        if not finite:
            problems.append("non-finite actor weights")
        return UnitResult(
            digest=digest,
            problems=problems,
            events=agent.env.system.loop.processed,
        )


# ---------------------------------------------------------------------------
# eval-bursts and trace-bursts
# ---------------------------------------------------------------------------


@dataclass
class _BurstState:
    inputs: Dict
    allocators: Dict[str, List]
    profiler: Any
    workdir: Optional[Path]
    trace_sha: Any = field(default_factory=hashlib.sha256)
    trace_bytes: int = 0


class EvalBursts:
    """The Figs. 7-8 protocol: every burst cell, several eval seeds."""

    name = "eval-bursts"
    why = (
        "Figs. 7-8 burst protocol over MSD and LIGO, 5 untrained allocators, "
        "1800 windows, tracer off: sim does nearly all the work"
    )
    traced = False
    datasets = ("msd", "ligo")

    def __init__(self, smoke: bool = False, workdir: Optional[Path] = None):
        self.workdir = workdir
        self.steps = 2 if smoke else 30
        self.eval_seeds = 1 if smoke else 2

    def expected_windows(self) -> int:
        cells = sum(len(dataset_preset(d)["bursts"]) for d in self.datasets)
        return cells * self.eval_seeds * len(ALLOCATORS) * self.steps

    def inputs(self, seed: int) -> Dict:
        seeds = _seeds(seed, self.eval_seeds + 1)
        return {
            "datasets": list(self.datasets),
            "eval_seeds": seeds[:-1],
            "miras_seed": seeds[-1],
            "steps": self.steps,
            "allocators": list(ALLOCATORS),
        }

    def construct(self, inputs: Dict, profiler=None) -> _BurstState:
        allocators = {}
        for dataset in inputs["datasets"]:
            preset = dataset_preset(dataset)
            agent = MirasAgent(
                runner.make_env(
                    preset["builder"](),
                    config=SystemConfig(consumer_budget=preset["budget"]),
                    seed=inputs["miras_seed"],
                    background_rates=preset["rates"],
                ),
                preset["fast_config"](),
                seed=inputs["miras_seed"],
            )
            allocators[dataset] = [
                MirasAllocator(agent=agent) if name == "miras" else cls()
                for name, cls in ALLOCATORS.items()
            ]
        if self.traced:
            self.workdir.mkdir(parents=True, exist_ok=True)
        return _BurstState(inputs, allocators, profiler, self.workdir)

    def run(
        self, state: _BurstState, probe: WindowProbe, watch: Stopwatch
    ) -> UnitResult:
        steps = state.inputs["steps"]
        cells = []
        problems: List[str] = []
        events = 0
        try:
            for dataset in state.inputs["datasets"]:
                preset = dataset_preset(dataset)
                allocators = state.allocators[dataset]
                for allocator in allocators:
                    probe.attach(allocator, "allocate", before=probe.begin)
                for scenario, eval_seed, allocator in itertools.product(
                    preset["bursts"], state.inputs["eval_seeds"], allocators
                ):
                    label = [dataset, scenario.name, eval_seed, allocator.name]
                    result, env, problem = self._cell(
                        state, preset, scenario, eval_seed, allocator,
                        probe, watch,
                    )
                    events += env.system.loop.processed
                    cells.append({
                        "cell": label,
                        "aggregated_reward": result.aggregated_reward(),
                        "completions": result.total_completions(),
                    })
                    if problem:
                        problems.append(f"{label}: {problem}")
                    problems.extend(_check_cell(label, result, steps))
        finally:
            probe.detach()
        digest: Dict = {"cells": cells}
        if self.traced:
            digest["trace_sha256"] = state.trace_sha.hexdigest()
        return UnitResult(
            digest=digest,
            problems=problems,
            events=events,
            trace_bytes=state.trace_bytes,
        )

    def _cell(self, state, preset, scenario, eval_seed, allocator, probe, watch):
        """One evaluation cell; returns (result, env, problem or None)."""
        with watch:
            env = runner.make_env(
                preset["builder"](),
                config=SystemConfig(consumer_budget=preset["budget"]),
                seed=eval_seed,
                background_rates=dict(scenario.background_rates),
                profiler=state.profiler,
            )
            probe.attach_env(env)
            result = runner.evaluate_allocator(
                allocator, env, scenario, state.inputs["steps"]
            )
        return result, env, None


class TraceBursts(EvalBursts):
    """The same protocol run the way ``repro trace`` runs it."""

    name = "trace-bursts"
    why = (
        "the eval-bursts protocol through Tracer(MetricsSink(JsonlSink)) as "
        "repro trace runs it: same sim code, telemetry does most of the work"
    )
    traced = True

    def _cell(self, state, preset, scenario, eval_seed, allocator, probe, watch):
        outdir = state.workdir / "cell"
        with watch:
            sink = MetricsSink(JsonlSink(outdir / "trace.jsonl"))
            with Tracer(sink) as tracer:
                env = runner.make_env(
                    preset["builder"](),
                    config=SystemConfig(consumer_budget=preset["budget"]),
                    seed=eval_seed,
                    background_rates=dict(scenario.background_rates),
                    tracer=tracer,
                    profiler=state.profiler,
                )
                probe.attach_env(env)
                result = runner.evaluate_allocator(
                    allocator, env, scenario, state.inputs["steps"]
                )
            telemetry.write_metrics(outdir, sink)
        # The cell's artifacts are hashed into the digest and removed
        # outside the clock, so a unit never holds more than one on disk.
        try:
            trace = (outdir / "trace.jsonl").read_bytes()
            metrics = (outdir / METRICS_FILENAME).read_bytes()
        except FileNotFoundError as missing:
            return result, env, f"artifact missing: {missing.filename}"
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        state.trace_sha.update(trace)
        state.trace_sha.update(metrics)
        state.trace_bytes += len(trace)
        written = sink.downstream.records_written
        if not trace or written != tracer.records_written:
            return result, env, (
                f"JSONL sink wrote {written} records of "
                f"{tracer.records_written} emitted"
            )
        return result, env, None


def _check_cell(label: List, result, steps: int) -> List[str]:
    """Eq. (1) and completeness checks on one evaluation cell."""
    problems = []
    if len(result.records) != steps:
        problems.append(f"{label}: {len(result.records)} of {steps} windows")
    for record in result.records:
        if not math.isclose(record.reward, 1.0 - record.wip_sum, abs_tol=1e-9):
            problems.append(
                f"{label}: window {record.step} reward {record.reward} != "
                f"1 - WIP {record.wip_sum}"
            )
    return problems


WORKLOADS: Dict[str, Callable[..., Any]] = {
    TrainMsd.name: TrainMsd,
    EvalBursts.name: EvalBursts,
    TraceBursts.name: TraceBursts,
}
