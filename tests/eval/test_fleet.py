"""Fleet telemetry tests: per-cell capture and the deterministic merge.

The load-bearing property is worker-count independence: the merged
fleet_metrics.json / .prom / fleet_manifest.json bytes must be identical
for ``workers=1`` and ``workers>1``, because per-cell traces are a pure
function of (root seed, label) and the merge runs in sorted-label order.
"""

import json
import math

import pytest

from repro.eval.parallel import default_cells, run_cells
from repro.telemetry.fleet import (
    FLEET_EXPOSITION_FILENAME,
    FLEET_MANIFEST_FILENAME,
    FLEET_METRICS_FILENAME,
    discover_cells,
    merge_fleet,
    write_fleet,
)

FLEET_FILES = (
    FLEET_METRICS_FILENAME,
    FLEET_EXPOSITION_FILENAME,
    FLEET_MANIFEST_FILENAME,
)


def _fleet_cells():
    # ablate-window quick cells are the cheapest traced experiment.
    return default_cells(
        experiments=["ablate-window"], replicates=2, quick=True
    )


class TestFleetCapture:
    def test_per_cell_artifacts_written(self, tmp_path):
        fleet = tmp_path / "fleet"
        run_cells(_fleet_cells(), root_seed=5, workers=1,
                  telemetry_dir=fleet)
        for rep in (0, 1):
            cell = fleet / "ablate-window" / f"rep{rep}"
            assert (cell / "trace.jsonl").exists()
            assert (cell / "metrics.json").exists()
            assert (cell / "metrics.prom").exists()
        for name in FLEET_FILES:
            assert (fleet / name).exists()

    def test_no_telemetry_dir_writes_nothing(self, tmp_path):
        results = run_cells(_fleet_cells(), root_seed=5, workers=1)
        assert results
        assert list(tmp_path.iterdir()) == []


class TestWorkerCountIndependence:
    def test_merged_artifacts_byte_identical_across_workers(self, tmp_path):
        cells = _fleet_cells()
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        r1 = run_cells(cells, root_seed=5, workers=1, telemetry_dir=serial)
        r4 = run_cells(cells, root_seed=5, workers=4, telemetry_dir=parallel)
        assert json.dumps(r1, sort_keys=True, default=repr) == json.dumps(
            r4, sort_keys=True, default=repr
        )
        for name in FLEET_FILES:
            assert (serial / name).read_bytes() == (
                parallel / name
            ).read_bytes(), name
        # Per-cell traces match too, not just the merged rollup.
        for label, trace in discover_cells(serial):
            twin = parallel / label / "trace.jsonl"
            assert trace.read_bytes() == twin.read_bytes(), label


class TestMerge:
    def test_discovery_sorted_by_label(self, tmp_path):
        for label in ("b/rep1", "a/rep0", "b/rep0"):
            cell = tmp_path / label
            cell.mkdir(parents=True)
            (cell / "trace.jsonl").write_text("")
        labels = [label for label, _ in discover_cells(tmp_path)]
        assert labels == ["a/rep0", "b/rep0", "b/rep1"]

    def test_manifest_is_wall_time_free(self, tmp_path):
        cell = tmp_path / "fig0/rep0"
        cell.mkdir(parents=True)
        (cell / "trace.jsonl").write_text(
            json.dumps({"kind": "event.arrival", "t": 2.5,
                        "workflow": "Type1", "request_id": 0}) + "\n"
        )
        merge = merge_fleet(tmp_path)
        manifest = merge.manifest()
        assert set(manifest) == {"fleet_version", "cells", "total_records"}
        assert manifest["cells"] == [
            {"label": "fig0/rep0", "records": 1, "sim_time_end": 2.5}
        ]
        assert manifest["total_records"] == 1

    def test_merge_aggregates_all_cells(self, tmp_path):
        record = {"kind": "event.arrival", "t": 1.0,
                  "workflow": "Type1", "request_id": 0}
        for label in ("a/rep0", "a/rep1"):
            cell = tmp_path / label
            cell.mkdir(parents=True)
            (cell / "trace.jsonl").write_text(
                json.dumps(record, sort_keys=True) + "\n"
            )
        merge = merge_fleet(tmp_path)
        snapshot = merge.sink.snapshot()
        series = snapshot["families"]["repro_arrivals_total"]["series"]
        assert math.isclose(series[0]["value"], 2.0)

    def test_empty_fleet_merges_cleanly(self, tmp_path):
        merge = merge_fleet(tmp_path)
        assert merge.cells == [] and merge.total_records == 0
        target = write_fleet(tmp_path, merge)
        assert json.loads(target.read_text())["total_records"] == 0
