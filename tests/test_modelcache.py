"""Tests for the persistent mined-model disk cache."""

import pickle

import pytest

from repro.core import SimulationParams
from repro.core.system import mine_models, run_policy
from repro.experiments.common import loaded_workload
from repro.mining import ModelCache, cached_mine_models, mining_fingerprint
from repro.obs.profiler import PhaseProfiler
from repro.sim.differential import report_fields
from tests.scales import MICRO


@pytest.fixture(scope="module")
def workload():
    return loaded_workload("synthetic", MICRO)


@pytest.fixture(scope="module")
def other_workload():
    return loaded_workload("synthetic", MICRO, seed_offset=1)


def params():
    return SimulationParams(n_backends=MICRO.n_backends)


class TestFingerprint:
    def test_stable_across_calls(self, workload):
        assert (mining_fingerprint(workload, params())
                == mining_fingerprint(workload, params()))

    def test_changes_with_workload(self, workload, other_workload):
        assert (mining_fingerprint(workload, params())
                != mining_fingerprint(other_workload, params()))

    def test_changes_with_mining_config(self, workload):
        base = mining_fingerprint(workload, params())
        deeper = mining_fingerprint(
            workload, params().with_overrides(depgraph_order=3))
        ppm = mining_fingerprint(workload, params(), predictor_kind="ppm")
        assert len({base, deeper, ppm}) == 3

    def test_ignores_simulation_only_params(self, workload):
        # Cache sizes and service costs cannot change what mining
        # produces, so they must not invalidate the cache.
        assert mining_fingerprint(workload, params()) == mining_fingerprint(
            workload, params().with_overrides(cache_bytes=123456))


class TestModelCache:
    def test_miss_then_hit_round_trip(self, tmp_path, workload):
        cache = ModelCache(tmp_path)
        key = mining_fingerprint(workload, params())
        assert cache.get(key) is None
        models = mine_models(workload, params())
        cache.put(key, models)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.num_sessions == models.num_sessions
        assert loaded.rank_table.items() == models.rank_table.items()
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_falls_back_to_miss(self, tmp_path, workload):
        cache = ModelCache(tmp_path)
        key = mining_fingerprint(workload, params())
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.rejected == 1
        # The bad entry was dropped so a rebuild can land cleanly.
        assert not (tmp_path / f"{key}.pkl").exists()

    def test_wrong_schema_rejected(self, tmp_path, workload):
        cache = ModelCache(tmp_path)
        key = mining_fingerprint(workload, params())
        (tmp_path / f"{key}.pkl").write_bytes(
            pickle.dumps({"schema": "something-else", "models": None}))
        assert cache.get(key) is None
        assert cache.rejected == 1


class TestCachedMineModels:
    def test_second_call_skips_mining_phases(self, tmp_path, workload):
        cold, warm = PhaseProfiler(), PhaseProfiler()
        first = cached_mine_models(workload, params(), cache=tmp_path,
                                   profiler=cold)
        second = cached_mine_models(workload, params(), cache=tmp_path,
                                    profiler=warm)
        cold_phases = {name for name, _ in cold.items()}
        warm_phases = {name for name, _ in warm.items()}
        assert any(p.startswith("mine.") for p in cold_phases)
        # The observable cache contract: zero mining wall-clock on a hit.
        assert not any(p.startswith("mine.") for p in warm_phases)
        assert "modelcache.hit" in warm_phases
        assert second.rank_table.items() == first.rank_table.items()

    def test_none_cache_is_plain_mine(self, workload):
        models = cached_mine_models(workload, params(), cache=None)
        assert models.num_sessions > 0

    def test_results_identical_with_and_without_cache(
            self, tmp_path, workload):
        uncached = run_policy(workload, "prord", params(),
                              warmup_fraction=MICRO.warmup_fraction,
                              window_s=MICRO.duration_s)
        cached_cold = run_policy(workload, "prord", params(),
                                 warmup_fraction=MICRO.warmup_fraction,
                                 window_s=MICRO.duration_s,
                                 model_cache=str(tmp_path))
        cached_warm = run_policy(workload, "prord", params(),
                                 warmup_fraction=MICRO.warmup_fraction,
                                 window_s=MICRO.duration_s,
                                 model_cache=str(tmp_path))
        fields = report_fields(uncached)
        assert fields == report_fields(cached_cold)
        assert fields == report_fields(cached_warm)

    def test_config_change_invalidates(self, tmp_path, workload):
        cache = ModelCache(tmp_path)
        cached_mine_models(workload, params(), cache=cache)
        cached_mine_models(
            workload, params().with_overrides(depgraph_order=3),
            cache=cache)
        # Two distinct keys, both mined fresh.
        assert cache.misses == 2
        assert len(list(tmp_path.glob("*.pkl"))) == 2
