"""Tests for the declarative experiment-grid runner.

The two structural guarantees under test (DESIGN.md §runner):

1. a process-pool run is *bit-identical* to the serial loop — same
   grid, same seeds, same reports;
2. mining happens exactly once per distinct ``workload_key`` in the
   grid, no matter how many cells (policies, backend counts, cache
   fractions) share it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import SimulationParams, mine_models
from repro.experiments import Cell, loaded_workload, run_grid
from repro.experiments import runner as runner_mod
from tests.scales import MICRO

#: A small fig7-style grid: one workload, the four headline policies.
GRID = [Cell(workload="synthetic", policy=p)
        for p in ("wrr", "lard", "ext-lard-phttp", "prord")]


def report_fields(result):
    """Every scalar on the report, for exact equality comparison."""
    return dataclasses.asdict(result.report)


class TestSerialParallelEquality:
    def test_parallel_identical_to_serial(self):
        serial = run_grid(GRID, MICRO, jobs=0)
        parallel = run_grid(GRID, MICRO, jobs=2)
        assert [r.cell for r in serial] == GRID
        assert [r.cell for r in parallel] == GRID
        for s, p in zip(serial, parallel):
            assert report_fields(s.result) == report_fields(p.result)
            assert s.cache_fraction == p.cache_fraction

    def test_jobs_one_is_serial(self):
        a = run_grid(GRID[:2], MICRO, jobs=0)
        b = run_grid(GRID[:2], MICRO, jobs=1)
        for s, p in zip(a, b):
            assert report_fields(s.result) == report_fields(p.result)


class TestMiningSharing:
    def test_one_mining_pass_per_workload_key(self, monkeypatch):
        calls = []

        def counting_mine(workload, params=None, **kwargs):
            calls.append(workload.name)
            return mine_models(workload, params)

        monkeypatch.setattr(runner_mod, "cached_mine_models", counting_mine)
        cells = [
            Cell(workload="synthetic", policy="prord"),
            Cell(workload="synthetic", policy="lard-bundle"),
            Cell(workload="synthetic", policy="prord", n_backends=2),
            Cell(workload="synthetic", policy="prord", cache_fraction=0.5),
        ]
        results = run_grid(cells, MICRO, jobs=0)
        assert calls == ["synthetic"]
        assert all(r.result.report.completed > 0 for r in results)

    def test_no_mining_for_locality_only_policies(self, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "cached_mine_models",
            lambda *a, **k: pytest.fail("mined for a non-mining policy"))
        results = run_grid(
            [Cell(workload="synthetic", policy="wrr"),
             Cell(workload="synthetic", policy="lard")],
            MICRO, jobs=0)
        assert len(results) == 2

    def test_distinct_seed_offsets_mine_separately(self, monkeypatch):
        calls = []

        def counting_mine(workload, params=None, **kwargs):
            calls.append(workload.name)
            return mine_models(workload, params)

        monkeypatch.setattr(runner_mod, "cached_mine_models", counting_mine)
        run_grid(
            [Cell(workload="synthetic", policy="prord"),
             Cell(workload="synthetic", policy="prord", seed_offset=1)],
            MICRO, jobs=0)
        assert calls == ["synthetic", "synthetic"]


class TestCellResolution:
    def test_n_backends_override(self):
        results = run_grid(
            [Cell(workload="synthetic", policy="lard", n_backends=2)],
            MICRO, jobs=0)
        assert results[0].result.n_backends == 2

    def test_cache_fraction_default_and_override(self):
        default, half = run_grid(
            [Cell(workload="synthetic", policy="lard"),
             Cell(workload="synthetic", policy="lard", cache_fraction=0.5)],
            MICRO, jobs=0)
        assert default.cache_fraction == MICRO.cache_fraction
        assert half.cache_fraction == 0.5

    def test_supplied_workload_bypasses_loader(self):
        workload = loaded_workload("synthetic", MICRO)
        results = run_grid(
            [Cell(workload="synthetic", policy="lard")],
            MICRO, jobs=0, workloads={"synthetic": workload})
        assert results[0].result.report.completed > 0

    def test_supplied_workload_rejects_seed_offset(self):
        workload = loaded_workload("synthetic", MICRO)
        with pytest.raises(ValueError, match="seed_offset"):
            run_grid(
                [Cell(workload="synthetic", policy="lard", seed_offset=1)],
                MICRO, jobs=0, workloads={"synthetic": workload})

    def test_empty_grid(self):
        assert run_grid([], MICRO, jobs=4) == []

    def test_base_params_respected(self):
        params = SimulationParams(n_backends=3)
        results = run_grid(
            [Cell(workload="synthetic", policy="lard")],
            MICRO, jobs=0, params=params)
        assert results[0].result.n_backends == 3

