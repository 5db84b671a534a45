"""SLO engine tests: spec loading, verdict logic, replay determinism,
and the conformance exit code."""

import json
import math

import pytest

from repro.telemetry import (
    MemorySink,
    MetricsSink,
    Tracer,
    aggregate_trace,
    analyze_trace,
    evaluate_slos,
    load_slo_specs,
    render_slo_result,
    slo_report_json,
    write_slo_report,
)
from repro.telemetry.slo import SloError, SloSpec

from tests.telemetry.test_instrumentation import drive, traced_system


@pytest.fixture(scope="module")
def run():
    """One traced run shared by the module: records + live snapshot."""
    sink = MemorySink()
    metrics = MetricsSink(sink)
    system = traced_system(Tracer(metrics), seed=3)
    drive(system)
    return {"records": sink.records, "snapshot": metrics.snapshot()}


class TestSpecs:
    def test_requires_known_op(self):
        with pytest.raises(SloError, match="op must be one of"):
            SloSpec("x", "response_time_p99", 1.0, op="<")

    def test_burn_budget_range_checked(self):
        with pytest.raises(SloError, match="burn_budget"):
            SloSpec("x", "response_p99", 1.0, window=3, burn_budget=1.5)

    def test_window_selector_vocabulary_checked(self):
        with pytest.raises(SloError, match="burn-rate selector"):
            SloSpec("x", "response_time_p99", 1.0, window=3)

    def test_ok_direction(self):
        le = SloSpec("a", "completions", 5.0, op="<=")
        ge = SloSpec("b", "completions", 5.0, op=">=")
        assert le.ok(5.0) and not le.ok(5.1)
        assert ge.ok(5.0) and not ge.ok(4.9)


class TestLoading:
    def test_toml_tool_table(self, tmp_path):
        spec_file = tmp_path / "slo.toml"
        spec_file.write_text(
            "[[tool.repro.slo.objectives]]\n"
            'name = "deadline"\nmetric = "response_time_p99"\n'
            "threshold = 300.0\n"
            "[[tool.repro.slo.objectives]]\n"
            'name = "burn"\nmetric = "response_p95"\n'
            "threshold = 100.0\nwindow = 4\nburn_budget = 0.5\n",
            encoding="utf-8",
        )
        specs = load_slo_specs(spec_file)
        assert [s.name for s in specs] == ["deadline", "burn"]
        assert specs[1].window == 4 and math.isclose(specs[1].burn_budget, 0.5)

    def test_json_objectives_and_bare_list(self, tmp_path):
        table = {"name": "n", "metric": "completions", "threshold": 1,
                 "op": ">="}
        wrapped = tmp_path / "a.json"
        wrapped.write_text(json.dumps({"objectives": [table]}))
        bare = tmp_path / "b.json"
        bare.write_text(json.dumps([table]))
        assert load_slo_specs(wrapped) == load_slo_specs(bare)

    def test_unknown_field_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{
            "name": "n", "metric": "completions", "threshold": 1,
            "severity": "page",
        }]))
        with pytest.raises(SloError, match="unknown SLO spec fields"):
            load_slo_specs(bad)

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        with pytest.raises(SloError, match="no SLO objectives"):
            load_slo_specs(empty)


class TestEndOfRunVerdicts:
    def test_pass_and_fail_against_real_snapshot(self, run):
        specs = [
            SloSpec("loose", "response_time_p99", 1e9),
            SloSpec("tight", "response_time_p99", 0.0),
        ]
        result = evaluate_slos(specs, run["snapshot"])
        verdicts = {v.spec.name: v for v in result.verdicts}
        assert verdicts["loose"].verdict == "pass"
        assert verdicts["tight"].verdict == "fail"
        assert not result.passed

    def test_label_filter_selects_one_series(self, run):
        labeled = SloSpec(
            "t3", "response_time_count", 0.0, op=">=", label="Type3"
        )
        value = evaluate_slos([labeled], run["snapshot"]).verdicts[0].value
        families = run["snapshot"]["families"]
        series = families["repro_response_time_seconds"]["series"]
        expected = [
            s["count"] for s in series if s["labels"]["workflow"] == "Type3"
        ]
        assert value == float(expected[0])

    def test_missing_label_is_an_error(self, run):
        spec = SloSpec("x", "response_time_p99", 1.0, label="NoSuchFlow")
        with pytest.raises(SloError, match="no .* series with label"):
            evaluate_slos([spec], run["snapshot"])

    def test_ratio_selectors(self, run):
        ratios = evaluate_slos(
            [
                SloSpec("redeliver", "redelivery_rate", 1.0),
                SloSpec("complete", "completion_ratio", 0.0, op=">="),
            ],
            run["snapshot"],
        )
        for verdict in ratios.verdicts:
            assert 0.0 <= verdict.value <= 1.0

    def test_unknown_selector_rejected(self, run):
        with pytest.raises(SloError, match="unknown metric selector"):
            evaluate_slos(
                [SloSpec("x", "latency_p99", 1.0)], run["snapshot"]
            )

    def test_why_quotes_critical_path_bottleneck(self, run):
        critical = analyze_trace(run["records"])
        result = evaluate_slos(
            [SloSpec("tight", "response_time_p99", 0.0)],
            run["snapshot"],
            critical=critical,
        )
        assert "critical-path bottlenecks" in result.verdicts[0].why


class TestBurnRateVerdicts:
    def _snapshot(self, p95_rows):
        return {
            "families": {},
            "window_series": [
                {"window": i, "response_p95": v, "completions": 1,
                 "wip_total": 0.0, "reward": 0.0}
                for i, v in enumerate(p95_rows)
            ],
        }

    def test_pass_burn_fail_thresholds(self):
        spec = SloSpec(
            "burn", "response_p95", 100.0, window=4, burn_budget=0.25
        )
        cases = {
            (50, 50, 50, 50): "pass",
            (50, 50, 50, 150): "burn",   # 1/4 <= budget
            (50, 150, 150, 150): "fail",  # 3/4 > budget
        }
        for rows, expected in cases.items():
            result = evaluate_slos([spec], self._snapshot(list(rows)))
            assert result.verdicts[0].verdict == expected, rows

    def test_burn_counts_only_last_window_rows(self):
        spec = SloSpec("burn", "response_p95", 100.0, window=2)
        result = evaluate_slos(
            [spec], self._snapshot([500, 500, 50, 50])
        )
        verdict = result.verdicts[0]
        assert verdict.verdict == "pass"
        assert verdict.windows_total == 2

    def test_burn_verdict_does_not_fail_conformance(self):
        spec = SloSpec(
            "burn", "response_p95", 100.0, window=4, burn_budget=0.5
        )
        result = evaluate_slos([spec], self._snapshot([50, 50, 50, 150]))
        assert result.verdicts[0].verdict == "burn"
        assert result.passed


class TestReportDeterminism:
    def test_live_and_replayed_reports_byte_identical(self, run):
        """Live aggregation during the run and offline replay of the
        same records produce the same slo_report.json bytes."""
        specs = [
            SloSpec("deadline", "response_time_p99", 300.0),
            SloSpec("burn", "response_p95", 100.0, window=3,
                    burn_budget=0.4),
            SloSpec("floor", "completions", 1.0, op=">="),
        ]
        live = slo_report_json(evaluate_slos(specs, run["snapshot"]))
        replayed = slo_report_json(
            evaluate_slos(specs, aggregate_trace(run["records"]).snapshot())
        )
        assert live == replayed

    def test_write_and_render(self, run, tmp_path):
        result = evaluate_slos(
            [SloSpec("loose", "response_time_p99", 1e9)], run["snapshot"]
        )
        target = write_slo_report(tmp_path, result)
        assert target.name == "slo_report.json"
        assert json.loads(target.read_text())["passed"] is True
        assert "SLO conformance: PASS" in render_slo_result(result)


class TestCli:
    @pytest.fixture()
    def trace_dir(self, run, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with trace.open("w", encoding="utf-8") as fh:
            for record in run["records"]:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return tmp_path

    def _specs_file(self, tmp_path, threshold):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([{
            "name": "deadline", "metric": "response_time_p99",
            "threshold": threshold,
        }]))
        return specs

    def test_exit_zero_on_pass(self, trace_dir, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "slo", str(trace_dir),
            "--specs", str(self._specs_file(tmp_path, 1e9)),
        ])
        assert code == 0
        assert "SLO conformance: PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_fail_and_writes_report(
        self, trace_dir, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "report"
        code = main([
            "slo", str(trace_dir),
            "--specs", str(self._specs_file(tmp_path, 0.0)),
            "--output", str(out), "--json",
        ])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["passed"] is False
        assert (out / "slo_report.json").exists()
