"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The smoke configuration (``--smoke``) runs every workload end to end in
seconds; its numbers are not benchmark results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402  (pins BLAS threads, then imports the package)
import layers  # noqa: E402
from spans import SpanRecorder, Target, install, uninstall  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        cls.why for cls in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    cls = WORKLOADS[workload]
    first = cls().inputs(7)
    assert cls().inputs(7) == first
    assert json.loads(json.dumps(first)) == first
    assert cls().inputs(8) != first


def test_every_wrapper_is_restored_after_a_traced_unit(tmp_path):
    workload = WORKLOADS["trace-bursts"](smoke=True, workdir=tmp_path)
    wanted = layers.targets(layers.RefinementCounter())
    before = [vars(t.owner).get(t.attr) for t in wanted]
    bench_run = run.Run(workload, workload.inputs(0))
    recorder = SpanRecorder()
    bench_run.unit(recorder=recorder, targets=wanted)
    assert bench_run.problems == []
    assert [vars(t.owner).get(t.attr) for t in wanted] == before
    assert len(recorder) > 0


def test_uninstall_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    module = types.ModuleType("fake")
    module.h = lambda: "module"
    own_g, own_h = vars(Child)["g"], module.h
    recorder = SpanRecorder()
    undo = install(recorder, [
        Target(Child, "f", "f"),
        Target(Child, "g", "g"),
        Target(module, "h", None),
    ])
    assert Child().f() == "base" and Child().g() == "child"
    assert module.h() == "module"
    uninstall(undo)
    assert "f" not in vars(Child)
    assert vars(Child)["g"] is own_g and module.h is own_h
    assert recorder.counts == {"fake.h": 1}


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    leaf = recorder.wrap(lambda: None, "leaf")

    def body():
        leaf()
        leaf()

    recorder.wrap(body, "outer")()
    stats = recorder.stats()
    assert stats.seconds("outer") == 10.0
    assert stats.seconds("leaf") == 4.0
    assert stats.self_seconds("outer") == 6.0
    assert stats.calls_within("leaf", "outer") == 2
    assert stats.seconds_within(["leaf"], ["outer"]) == 4.0
    assert stats.top_level == 10.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-msd",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
