"""Tests for the backend server model."""

import pytest

from repro.core import SimulationParams
from repro.sim import BackendServer, Simulator


def make_server(sim=None, **overrides):
    sim = sim or Simulator()
    defaults = dict(cache_bytes=1024 * 1024, n_backends=1)
    defaults.update(overrides)
    params = SimulationParams(**defaults)
    return sim, BackendServer(sim, 0, params)


class TestDemandPath:
    def test_miss_then_hit(self):
        sim, srv = make_server()
        results = []
        srv.handle("/a", 10 * 1024, lambda sid, hit: results.append(hit))
        sim.run()
        srv.handle("/a", 10 * 1024, lambda sid, hit: results.append(hit))
        sim.run()
        assert results == [False, True]
        assert srv.completed == 2

    def test_miss_timing(self):
        sim, srv = make_server()
        done_at = []
        srv.handle("/a", 10 * 1024, lambda sid, hit: done_at.append(sim.now))
        sim.run()
        p = srv.params
        expected = (p.backend_cpu_s + p.disk_service_s(10 * 1024)
                    + p.transmit_s(10 * 1024))
        assert done_at[0] == pytest.approx(expected)

    def test_hit_timing_skips_disk(self):
        sim, srv = make_server()
        srv.handle("/a", 10 * 1024, lambda sid, hit: None)
        sim.run()
        t0 = sim.now
        done_at = []
        srv.handle("/a", 10 * 1024, lambda sid, hit: done_at.append(sim.now))
        sim.run()
        p = srv.params
        assert done_at[0] - t0 == pytest.approx(
            p.backend_cpu_s + p.transmit_s(10 * 1024))

    def test_invalid_size(self):
        _, srv = make_server()
        with pytest.raises(ValueError):
            srv.handle("/a", 0, lambda sid, hit: None)

    def test_load_tracks_inflight(self):
        sim, srv = make_server()
        srv.handle("/a", 1024, lambda sid, hit: None)
        srv.handle("/b", 1024, lambda sid, hit: None)
        assert srv.active == 2
        sim.run()
        assert srv.active == 0
        assert srv.is_idle

    def test_active_is_a_read_only_view_of_the_shared_loads(self):
        sim = Simulator()
        params = SimulationParams(cache_bytes=1024 * 1024, n_backends=2)
        loads = [0, 0]
        srv = BackendServer(sim, 1, params, loads=loads)
        srv.handle("/a", 1024, lambda sid, hit: None)
        assert loads == [0, 1] and srv.active == 1
        with pytest.raises(AttributeError):
            srv.active = 0
        sim.run()
        assert loads == [0, 0]

    def test_standalone_server_counts_privately(self):
        sim = Simulator()
        srv = BackendServer(sim, 3, SimulationParams(n_backends=4))
        srv.handle("/a", 1024, lambda sid, hit: None)
        assert srv.active == 1
        sim.run()
        assert srv.active == 0

    def test_demand_coalescing_single_disk_read(self):
        sim, srv = make_server()
        hits = []
        for _ in range(3):
            srv.handle("/same", 10 * 1024, lambda sid, hit: hits.append(hit))
        sim.run()
        assert hits == [False, False, False]
        # One disk read served all three.
        assert srv.disk.jobs_served == 1

    def test_worker_pool_limits_concurrency(self):
        sim, srv = make_server(backend_workers=2)
        order = []
        # Two slow misses occupy both workers; a would-be hit waits.
        srv.handle("/m1", 100 * 1024, lambda sid, hit: order.append("m1"))
        srv.handle("/m2", 100 * 1024, lambda sid, hit: order.append("m2"))
        srv.cache.insert("/h", 1024)
        srv.handle("/h", 1024, lambda sid, hit: order.append("h"))
        sim.run()
        assert order[0] in ("m1", "m2")
        assert order[-1] == "h" or order[1] == "h"
        # The hit could not finish before the first miss despite being
        # orders of magnitude cheaper.
        assert order[0] != "h"


class TestPrefetch:
    def test_prefetch_populates_cache(self):
        sim, srv = make_server()
        assert srv.prefetch("/p", 10 * 1024)
        sim.run()
        assert srv.cache.peek("/p")
        assert srv.prefetches_issued == 1

    def test_prefetch_dedup(self):
        sim, srv = make_server()
        assert srv.prefetch("/p", 1024)
        assert not srv.prefetch("/p", 1024)
        sim.run()
        assert not srv.prefetch("/p", 1024)  # already cached
        assert srv.prefetches_issued == 1

    def test_prefetch_hit_counted_once(self):
        sim, srv = make_server()
        srv.prefetch("/p", 1024)
        sim.run()
        results = []
        srv.handle("/p", 1024, lambda sid, hit: results.append(hit))
        sim.run()
        srv.handle("/p", 1024, lambda sid, hit: results.append(hit))
        sim.run()
        assert results == [True, True]
        assert srv.prefetch_useful == 1

    def test_demand_coalesces_with_inflight_prefetch(self):
        sim, srv = make_server()
        srv.prefetch("/p", 10 * 1024)
        results = []
        srv.handle("/p", 10 * 1024, lambda sid, hit: results.append(hit))
        sim.run()
        assert results == [False]          # honest miss, but...
        assert srv.disk.jobs_served == 1   # ...only one read happened
        assert srv.prefetch_useful == 1

    def test_prefetch_yields_to_demand(self):
        sim, srv = make_server()
        order = []
        # Fill the disk with a demand read first so both queue.
        srv.handle("/d1", 50 * 1024, lambda sid, hit: order.append("d1"))
        srv.prefetch("/p", 50 * 1024)
        srv.handle("/d2", 50 * 1024, lambda sid, hit: order.append("d2"))
        sim.run()
        assert order == ["d1", "d2"]
        # The prefetch was served last (after both demand reads).
        assert srv.cache.peek("/p")

    def test_prefetch_backlog_throttle(self):
        sim, srv = make_server()
        # Pile prefetch reads onto the disk until the throttle trips.
        accepted = 0
        for i in range(srv.PREFETCH_DISK_BACKLOG_LIMIT + 5):
            if srv.prefetch(f"/p{i}", 10 * 1024):
                accepted += 1
            else:
                break
        # One in service plus LIMIT queued, then refusal.
        assert accepted == srv.PREFETCH_DISK_BACKLOG_LIMIT + 1
        sim.run()
        assert srv.prefetch("/fresh", 1024)

    def test_invalid_size(self):
        _, srv = make_server()
        with pytest.raises(ValueError):
            srv.prefetch("/p", -1)


class TestReplicas:
    def test_receive_replica_pins(self):
        sim, srv = make_server()
        assert srv.receive_replica("/hot", 1024)
        assert srv.cache.pinned_bytes == 1024

    def test_receive_replica_unpinned(self):
        sim, srv = make_server()
        srv.receive_replica("/warm", 1024, pin=False)
        assert srv.cache.pinned_bytes == 0
        assert srv.cache.peek("/warm")

    def test_invalid_size(self):
        _, srv = make_server()
        with pytest.raises(ValueError):
            srv.receive_replica("/x", 0)


class TestUtilization:
    def test_reports_cpu_and_disk(self):
        sim, srv = make_server()
        srv.handle("/a", 10 * 1024, lambda sid, hit: None)
        sim.run()
        util = srv.utilization(sim.now)
        assert set(util) == {"cpu", "disk"}
        assert 0 < util["cpu"] <= 1
        assert 0 < util["disk"] <= 1
