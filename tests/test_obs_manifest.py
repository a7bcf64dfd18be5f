"""Tests for run manifests and the phase profiler."""

import json
import time

import pytest

from repro.experiments import Cell, loaded_workload, run_grid
from repro.obs import (
    PhaseProfiler,
    PhaseTiming,
    RunManifest,
    build_manifest,
    workload_identity,
)
from tests.scales import MICRO

GRID = [Cell(workload="synthetic", policy=p) for p in ("lard", "prord")]


def grid_manifest(created_at=None, telemetry=True):
    workloads = {"synthetic": loaded_workload("synthetic", MICRO)}
    results = run_grid(GRID, MICRO, jobs=0, workloads=workloads,
                       telemetry=telemetry)
    return build_manifest(results, MICRO, workloads=workloads,
                          label="unit", created_at=created_at)


class TestWorkloadIdentity:
    def test_deterministic_under_fixed_seed(self):
        a = workload_identity(loaded_workload("synthetic", MICRO))
        b = workload_identity(loaded_workload("synthetic", MICRO))
        assert a == b
        assert len(a["trace_sha256"]) == 64

    def test_distinguishes_workloads(self):
        a = workload_identity(loaded_workload("synthetic", MICRO))
        b = workload_identity(loaded_workload("cs-department", MICRO))
        assert a["trace_sha256"] != b["trace_sha256"]


class TestManifest:
    def test_fingerprint_deterministic_across_rebuilds(self):
        first = grid_manifest(created_at="2026-01-01T00:00:00+00:00")
        second = grid_manifest(created_at="2026-02-02T00:00:00+00:00")
        assert first.fingerprint() == second.fingerprint()

    def test_volatile_sections_excluded(self):
        manifest = grid_manifest(created_at="stamp-a")
        mutated = RunManifest(payload=dict(
            manifest.payload,
            created_at="stamp-b",
            environment={"python": "0.0"},
            wall_clock={"total_s": 1e9},
        ))
        assert mutated.fingerprint() == manifest.fingerprint()

    def test_reproducible_sections_included(self):
        manifest = grid_manifest()
        mutated = RunManifest(payload=dict(manifest.payload,
                                           label="other"))
        assert mutated.fingerprint() != manifest.fingerprint()

    def test_json_round_trip(self):
        manifest = grid_manifest(created_at="2026-01-01T00:00:00+00:00")
        again = RunManifest.from_json(manifest.to_json())
        assert again.payload == manifest.payload
        assert again.fingerprint() == manifest.fingerprint()
        # The serialized form embeds its own fingerprint for readers.
        assert json.loads(manifest.to_json())["fingerprint"] == \
            manifest.fingerprint()

    def test_cell_sections(self):
        manifest = grid_manifest()
        cells = manifest.payload["cells"]
        assert [c["policy"] for c in cells] == ["lard", "prord"]
        for cell in cells:
            assert cell["completed"] > 0
            tel = cell["telemetry"]
            assert tel["completions"] > 0
            assert tel["windows"] > 0
            assert tel["p95_response_s"] >= tel["p50_response_s"]
            assert "simulate" in tel["phases"]
        identity = manifest.payload["workloads"]["synthetic"]
        assert identity["requests"] > 0

    def test_untelemetered_cells_have_no_telemetry_section(self):
        manifest = grid_manifest(telemetry=False)
        for cell in manifest.payload["cells"]:
            assert "telemetry" not in cell


class TestPhaseProfiler:
    def test_phase_context_accumulates(self):
        p = PhaseProfiler()
        with p.phase("work"):
            time.sleep(0.001)
        with p.phase("work"):
            pass
        t = p.timings()["work"]
        assert t.calls == 2
        assert t.wall_s > 0
        assert "work" in p
        assert len(p) == 1

    def test_record_and_units(self):
        p = PhaseProfiler()
        p.record("simulate", 2.0, units=100)
        p.add_units("simulate", 50)
        t = p.timings()["simulate"]
        assert t.units == 150
        assert t.units_per_s == pytest.approx(75.0)
        assert p.total_wall_s() == pytest.approx(2.0)

    def test_negative_wall_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfiler().record("x", -0.1)

    def test_add_units_before_record(self):
        p = PhaseProfiler()
        p.add_units("simulate", 10)
        assert p.timings()["simulate"] == PhaseTiming(wall_s=0.0,
                                                      calls=0, units=10)

    def test_merge_items(self):
        a = PhaseProfiler()
        a.record("mine", 1.0, units=5)
        b = PhaseProfiler()
        b.record("mine", 2.0, units=7)
        b.record("simulate", 4.0)
        merged = dict(PhaseProfiler.merge_items(a.timings(), b.items()))
        assert merged["mine"] == PhaseTiming(wall_s=3.0, calls=2, units=12)
        assert merged["simulate"].calls == 1

    def test_format(self):
        p = PhaseProfiler()
        assert "no phases" in p.format()
        p.record("simulate", 1.0, units=1000)
        assert "simulate" in p.format()
        assert "units/s" in p.format()
