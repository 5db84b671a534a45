"""End-to-end benchmark of the MIRAS reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-msd --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the workload three ways (plain, with layer spans
recorded from outside the program, and with the in-program
PhaseProfiler on) and prints the per-layer metrics.  Every run checks the
program's outputs; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy is imported anywhere: the
# workloads are single-threaded closed loops on small matrices, where
# extra BLAS threads only add contention.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import textwrap  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for trace files; inside the checkout, removed at exit.
WORKDIR = ROOT / ".perfbench-work"
#: What ``setup_s`` imports, the modules every workload needs.
IMPORTS = "repro.core, repro.eval, repro.baselines, repro.telemetry"
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("window_ms.p50", "ms"),
    ("window_ms.p99", "ms"),
    ("peak_rss_mb", "MB"),
)


def _help_epilog() -> str:
    from layers import LAYER_MAP
    from workloads import WORKLOADS

    def para(text: str, indent: str = "") -> str:
        return textwrap.fill(
            text, 78, initial_indent=indent, subsequent_indent=indent + "  "
        )

    lines = ["workloads (each a closed loop with one controller):"]
    for name, cls in WORKLOADS.items():
        lines.append(para(f"{name}: {cls.why}", "  "))
    lines += [
        "",
        para(
            "end-to-end metrics (--trace 0): wall_s is the timed section "
            "(median over the units that fit in --seconds); setup_s is "
            "imports plus construction; window_ms.{p50,p99} time the "
            "control windows: the allocator's decision plus env.step on the "
            "burst workloads, one synthetic policy-training step (decision, "
            "model step, DDPG updates) on train-msd; peak_rss_mb.  An "
            "operation is a real env.step (failed if over budget or a "
            "request is lost) plus the run as a whole."
        ),
        "",
        para(
            "per-layer metrics (--trace 1) and the end-to-end metric each "
            "should move:"
        ),
    ]
    for layer_metrics, moves in LAYER_MAP:
        lines.append(para(layer_metrics, "  "))
        lines.append(para(f"-> {moves}", "      "))
    lines.append(para(
        "share.{ddpg_update,rollout,sim,telemetry}: fraction of traced "
        "wall_s; bench.*: harness overheads and span coverage", "  "
    ))
    lines += [
        "",
        para(
            "micro-benchmarks: the rollout section of BENCH_training.json "
            "addresses share.rollout on train-msd; the sections of "
            "BENCH_substrate.json address share.sim on eval-bursts (and on "
            "train-msd, where it is about 0.07)."
        ),
    ]
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__.split("\n\n")[0],
        epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=["train-msd", "eval-bursts", "trace-bursts"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (>= 0); inputs are a pure "
                             "function of it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole units until this budget is "
                             "spent (at least one unit)")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long configuration for the harness "
                             "self-tests; not a benchmark result")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_info() -> Dict:
    """The machine and toolchain a result was measured on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        f"import {IMPORTS}\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """Counts operations and collects problems across one invocation."""

    def __init__(self, workload, inputs: Dict):
        self.workload = workload
        self.inputs = inputs
        self.windows: List[float] = []
        self.steps_checked = 0
        self.steps_failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []
        self.digest_doc: Optional[Dict] = None

    def unit(self, profiler=None, recorder=None, targets=()) -> Dict:
        """Construct, run one timed unit, check it; returns its numbers.

        With a ``recorder``, every target is wrapped in a span for the
        timed section only.
        """
        from spans import install, uninstall
        from workloads import Stopwatch, WindowProbe, digest_sha256

        # Each unit starts from a collected heap, so garbage a previous
        # unit left behind is not collected on this unit's clock.
        gc.collect()
        t0 = time.perf_counter()
        state = self.workload.construct(self.inputs, profiler=profiler)
        construct_s = time.perf_counter() - t0
        probe, watch = WindowProbe(), Stopwatch()
        originals = [vars(t.owner).get(t.attr) for t in targets]
        undo = install(recorder, targets) if recorder is not None else []
        try:
            result = self.workload.run(state, probe, watch)
        finally:
            uninstall(undo)
        left = [
            f"{t.owner.__name__}.{t.attr}"
            for t, original in zip(targets, originals)
            if vars(t.owner).get(t.attr) is not original
        ]
        if left:
            self.problems.append(f"wrappers not restored: {left}")
        self.problems.extend(result.problems)
        expected = self.workload.expected_windows()
        if len(probe.samples) != expected:
            self.problems.append(
                f"{len(probe.samples)} control windows, expected {expected}"
            )
        self.windows.extend(probe.samples)
        self.steps_checked += probe.checked
        self.steps_failed += probe.failed
        sha = digest_sha256(result.digest)
        if self.digests and sha != self.digests[0]:
            self.problems.append(
                f"digest {sha} differs from the first unit's {self.digests[0]}"
            )
        self.digests.append(sha)
        self.digest_doc = result.digest
        return {
            "wall": watch.wall,
            "sections": watch.sections,
            "cpu": watch.cpu,
            "construct": construct_s,
            "events": result.events,
            "trace_bytes": result.trace_bytes,
            "tasks": probe.tasks_completed,
            "windows": len(probe.samples),
        }


def measure_end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    constructs = []
    walls = []
    sections = []
    started = time.perf_counter()
    while True:
        numbers = run.unit()
        walls.append(numbers["wall"])
        sections.append(numbers["sections"])
        constructs.append(numbers["construct"])
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > seconds or run.problems:
            break
    # Construction is cheap next to the imports; repeat it so its median
    # has as many samples as the imports.
    while len(constructs) < SETUP_REPEATS:
        t0 = time.perf_counter()
        run.workload.construct(run.inputs)
        constructs.append(time.perf_counter() - t0)
    print(f"units {len(walls)}: wall_s {walls}")
    print(f"setup: imports {imports} construct {constructs}")
    print(
        f"windows: {len(run.windows)} samples, "
        f"{len(run.windows) - math.ceil(0.99 * len(run.windows))} beyond p99"
    )
    # Every unit runs the same sections (one per cell of the burst
    # workloads); summing each section's median over the units keeps a
    # transient slowdown of the shared host in one unit out of wall_s.
    return {
        "wall_s": sum(map(statistics.median, zip(*sections))),
        "setup_s": statistics.median(imports) + statistics.median(constructs),
        "window_ms.p50": 1e3 * percentile(run.windows, 50),
        "window_ms.p99": 1e3 * percentile(run.windows, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_per_layer(run: Run, seconds: float) -> Dict[str, float]:
    import layers
    from spans import SpanRecorder
    from repro.telemetry import PhaseProfiler

    recorder = SpanRecorder()
    refinement = layers.RefinementCounter()
    targets = layers.targets(refinement)
    plain, traced, profiled = [], [], []
    started = time.perf_counter()
    while True:
        plain.append(run.unit())
        traced.append(run.unit(recorder=recorder, targets=targets))
        profiled.append(run.unit(profiler=PhaseProfiler()))
        elapsed = time.perf_counter() - started
        if elapsed * (len(plain) + 1) / len(plain) > seconds or run.problems:
            break
    stats = recorder.stats()
    print(stats.table())

    def wall(units):
        return statistics.median(u["wall"] for u in units)

    harness = {
        "bench.trace_overhead_pct": 100.0 * (wall(traced) / wall(plain) - 1.0),
        "bench.profiler_overhead_pct": 100.0 * (wall(profiled) / wall(plain) - 1.0),
        "bench.cpu_per_wall": statistics.median(u["cpu"] / u["wall"] for u in plain),
        "window_ms.samples": len(run.windows),
    }
    return layers.per_layer_metrics(
        stats,
        refinement,
        traced_wall=sum(u["wall"] for u in traced),
        events=sum(u["events"] for u in traced),
        tasks_completed=sum(u["tasks"] for u in traced),
        trace_bytes=sum(u["trace_bytes"] for u in traced),
        harness=harness,
    )


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC / 'repro'} not found; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    args = parse_args(argv)

    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if getattr(workload_cls, "traced", False):
        workload = workload_cls(smoke=args.smoke, workdir=WORKDIR / f"{os.getpid()}")
    else:
        workload = workload_cls(smoke=args.smoke)
    inputs = workload.inputs(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} smoke={args.smoke}")
    print("host " + json.dumps(host_info(), sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    if args.trace:
        import layers

        declared, measure = layers.PER_LAYER, measure_per_layer
    else:
        declared, measure = END_TO_END, measure_end_to_end
    run = Run(workload, inputs)
    try:
        values = measure(run, args.seconds)
    except Exception:
        traceback.print_exc()
        print(json.dumps({
            "correct": False,
            "attempted": run.steps_checked + 1,
            "failed": run.steps_failed + 1,
            "metrics": {},
        }))
        return 1
    finally:
        shutil.rmtree(WORKDIR / f"{os.getpid()}", ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"digest {run.digests[0]} " + json.dumps(run.digest_doc, sort_keys=True))
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]!r} {unit}")
    correct = not run.problems and run.steps_failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.steps_checked + 1,
        "failed": run.steps_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
