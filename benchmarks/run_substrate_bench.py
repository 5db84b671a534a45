"""Batched-substrate throughput benchmark: requests/second, CI-gated.

Measures the serial and batched substrates on identical scenarios and
writes ``BENCH_substrate.json`` at the repo root:

- **paper scale** (consumer budget 14, MSD burst) — informational; the
  serial substrate is already fast here and the batched one pays its
  per-window overhead on tiny windows.
- **production scale** (consumer budget 4096, tens of thousands of
  workflows) — the gated scenario.  The serial per-event dispatch scan
  is O(consumers), so this is where an operator-scale simulation lives
  or dies; the batched substrate must be >= ``SPEEDUP_FLOOR`` times
  faster (``--check`` exits non-zero otherwise; CI runs that).
- **million-request demo** (``--million``) — batched substrate only: a
  one-million-workflow MSD burst, reported as tasks/second.

Every measured pair also asserts semantic equivalence (identical task
counts; full ``substrate_snapshot`` equality at paper scale), so the
speedup number can never come from simulating something different.

Usage::

    PYTHONPATH=src python benchmarks/run_substrate_bench.py           # all
    PYTHONPATH=src python benchmarks/run_substrate_bench.py --check   # CI gate
    PYTHONPATH=src python benchmarks/run_substrate_bench.py --quick   # smoke
    PYTHONPATH=src python benchmarks/run_substrate_bench.py --million # demo
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.workflows import build_msd_ensemble

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_substrate.json"

#: The CI gate: batched must beat serial by at least this factor on the
#: production-scale scenario (docs/PERFORMANCE.md quotes the measured
#: numbers; .github/workflows/ci.yml runs ``--check``).
SPEEDUP_FLOOR = 10.0

PAPER_SCALE = dict(
    consumer_budget=14,
    window_length=30.0,
    windows=40,
    burst={"Type1": 200, "Type2": 100, "Type3": 100},
)
PRODUCTION_SCALE = dict(
    consumer_budget=4096,
    window_length=120.0,
    windows=12,
    burst={"Type1": 20000, "Type2": 10000, "Type3": 10000},
)
# Scenario values (the upstream-weighted allocation included) are kept
# as they were so results stay comparable with earlier
# BENCH_substrate.json numbers.
MILLION_SCALE = dict(
    consumer_budget=8192,
    window_length=240.0,
    windows=40,
    burst={"Type1": 500000, "Type2": 250000, "Type3": 250000},
    allocation=[2800, 2800, 1800, 792],
)
QUICK_SCALE = dict(
    consumer_budget=256,
    window_length=60.0,
    windows=6,
    burst={"Type1": 2000, "Type2": 1000, "Type3": 1000},
)


def build(cls, scale, seed=0):
    ensemble = build_msd_ensemble()
    system = cls(
        ensemble,
        SystemConfig(
            consumer_budget=scale["consumer_budget"],
            window_length=scale["window_length"],
        ),
        seed=seed,
    )
    allocation = scale.get("allocation")
    if allocation is None:
        per_service = max(
            1, scale["consumer_budget"] // ensemble.num_task_types
        )
        allocation = [per_service] * ensemble.num_task_types
    system.apply_allocation(allocation)
    system.inject_burst(scale["burst"])
    return system


def run_one(cls, scale):
    system = build(cls, scale)
    start = time.perf_counter()
    for _ in range(scale["windows"]):
        system.run_window()
    elapsed = time.perf_counter() - start
    tasks = sum(ms.tasks_completed for ms in system.microservices.values())
    workflows = system.invoker.completed_total
    assert system.conservation_ok(), "conservation violated during benchmark"
    return {
        "tasks_completed": tasks,
        "workflows_completed": workflows,
        "seconds": elapsed,
        "tasks_per_second": tasks / elapsed if elapsed else float("inf"),
    }


def run_pair(name, scale):
    print(f"[{name}] serial substrate ...", flush=True)
    serial = run_one(MicroserviceWorkflowSystem, scale)
    print(
        f"[{name}]   {serial['tasks_completed']:,} tasks in "
        f"{serial['seconds']:.2f}s = {serial['tasks_per_second']:,.0f} tasks/s"
    )
    print(f"[{name}] batched substrate ...", flush=True)
    batched = run_one(BatchedWorkflowSystem, scale)
    print(
        f"[{name}]   {batched['tasks_completed']:,} tasks in "
        f"{batched['seconds']:.2f}s = "
        f"{batched['tasks_per_second']:,.0f} tasks/s"
    )
    if serial["tasks_completed"] != batched["tasks_completed"]:
        raise AssertionError(
            f"[{name}] substrates disagree: serial completed "
            f"{serial['tasks_completed']} tasks, batched "
            f"{batched['tasks_completed']} — equivalence is broken, the "
            f"speedup is meaningless"
        )
    speedup = serial["seconds"] / batched["seconds"]
    print(f"[{name}] speedup: {speedup:.1f}x")
    return {
        "scenario": {k: v for k, v in scale.items()},
        "serial": serial,
        "batched": batched,
        "speedup": speedup,
    }


def assert_snapshot_equivalence():
    """Paper-scale snapshot equality — cheap, runs on every invocation."""
    scale = dict(PAPER_SCALE, windows=8)
    serial = build(MicroserviceWorkflowSystem, scale)
    batched = build(BatchedWorkflowSystem, scale)
    for _ in range(scale["windows"]):
        serial.run_window()
        batched.run_window()
    if substrate_snapshot(serial) != substrate_snapshot(batched):
        raise AssertionError(
            "substrate_snapshot mismatch between serial and batched — "
            "run tests/sim/test_batched_substrate.py to localise"
        )
    print("[equivalence] paper-scale snapshots equal after 8 windows")


def run_million():
    scale = MILLION_SCALE
    total = sum(scale["burst"].values())
    print(f"[million] injecting {total:,} workflow requests ...", flush=True)
    system = build(BatchedWorkflowSystem, scale)
    start = time.perf_counter()
    windows = 0
    while system.invoker.completed_total < total and windows < scale["windows"]:
        system.run_window()
        windows += 1
    elapsed = time.perf_counter() - start
    tasks = sum(ms.tasks_completed for ms in system.microservices.values())
    assert system.conservation_ok()
    print(
        f"[million] {system.invoker.completed_total:,}/{total:,} workflows, "
        f"{tasks:,} tasks in {elapsed:.1f}s over {windows} windows = "
        f"{tasks / elapsed:,.0f} tasks/s"
    )
    return {
        "scenario": {k: v for k, v in scale.items()},
        "workflows_submitted": total,
        "workflows_completed": system.invoker.completed_total,
        "tasks_completed": tasks,
        "seconds": elapsed,
        "tasks_per_second": tasks / elapsed,
        "windows": windows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 unless production-scale speedup >= {SPEEDUP_FLOOR}x",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scenario only (smoke test; no JSON written)",
    )
    parser.add_argument(
        "--million",
        action="store_true",
        help="also run the million-request batched-only demo",
    )
    args = parser.parse_args(argv)

    assert_snapshot_equivalence()

    if args.quick:
        result = run_pair("quick", QUICK_SCALE)
        print(f"quick speedup {result['speedup']:.1f}x (informational)")
        return 0

    results = {
        "speedup_floor": SPEEDUP_FLOOR,
        "paper_scale": run_pair("paper", PAPER_SCALE),
        "production_scale": run_pair("production", PRODUCTION_SCALE),
    }
    if args.million:
        results["million_requests"] = run_million()

    speedup = results["production_scale"]["speedup"]
    results["gate_passed"] = speedup >= SPEEDUP_FLOOR
    OUTPUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {OUTPUT_PATH}")

    if args.check and not results["gate_passed"]:
        print(
            f"FAIL: production-scale speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
