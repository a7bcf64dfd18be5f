"""Tests for the dispatcher locality table and the metrics collector."""

import pytest

from repro.logs import Request
from repro.sim import Dispatcher, MetricsCollector


def req(t=0.0, conn=0, path="/a", size=100, **kw):
    return Request(arrival=t, conn_id=conn, path=path, size=size, **kw)


class TestDispatcher:
    def test_insert_lookup_evict(self):
        d = Dispatcher()
        d.on_insert(0, "/a")
        d.on_insert(1, "/a")
        assert d.lookup("/a") == {0, 1}
        d.on_evict(0, "/a")
        assert d.lookup("/a") == {1}
        d.on_evict(1, "/a")
        assert d.lookup("/a") == frozenset()
        assert d.lookups == 3

    def test_evict_unknown_is_noop(self):
        d = Dispatcher()
        d.on_evict(0, "/nope")
        assert d.lookup("/nope") == frozenset()

    def test_peek_not_counted(self):
        d = Dispatcher()
        d.on_insert(0, "/a")
        assert d.peek("/a") == {0}
        assert d.lookups == 0

    def test_holder_count_and_tracked(self):
        d = Dispatcher()
        d.on_insert(0, "/a")
        d.on_insert(1, "/a")
        d.on_insert(0, "/b")
        assert d.holder_count("/a") == 2
        assert d.holder_count("/zzz") == 0
        assert d.tracked_paths() == 2


class TestMetricsCollector:
    def test_requires_servers(self):
        with pytest.raises(ValueError):
            MetricsCollector(0)

    def test_record_validation(self):
        m = MetricsCollector(2)
        with pytest.raises(ValueError, match="out of range"):
            m.record_completion(req(), 0.0, 1.0, 5, True)
        with pytest.raises(ValueError, match="precedes"):
            m.record_completion(req(t=2.0), 2.0, 1.0, 0, True)

    def test_arrival_argument_not_request_arrival(self):
        # The cluster passes start-relative arrivals; the request keeps
        # its absolute log timestamp.
        m = MetricsCollector(1)
        m.record_completion(req(t=1e9), 0.0, 1.0, 0, True)
        m.record_completion(req(t=1e9 + 2.0, conn=1), 2.0, 2.5, 0, True)
        r = m.report()
        assert r.mean_response_s == pytest.approx(0.75)
        assert r.makespan_s == pytest.approx(2.5)
        with pytest.raises(ValueError, match="precedes"):
            m.record_completion(req(t=0.0), 2.0, 1.0, 0, True)

    def test_empty_report(self):
        m = MetricsCollector(2)
        r = m.report()
        assert r.completed == 0
        assert r.throughput_rps == 0.0
        assert r.load_imbalance == 0.0
        assert r.dispatch_frequency == 0.0
        assert r.prefetch_precision == 0.0

    def test_basic_aggregation(self):
        m = MetricsCollector(2)
        m.record_completion(req(t=0.0, path="/a"), 0.0, 1.0, 0, True)
        m.record_completion(req(t=1.0, path="/b"), 1.0, 3.0, 1, False)
        r = m.report()
        assert r.completed == 2
        assert r.hit_rate == 0.5
        assert r.mean_response_s == pytest.approx(1.5)
        assert r.per_server_completed == (1, 1)
        assert r.makespan_s == pytest.approx(3.0)
        assert r.throughput_rps == pytest.approx(2 / 3.0)

    def test_warmup_excludes_early(self):
        m = MetricsCollector(1)
        m.record_completion(req(t=0.0), 0.0, 0.5, 0, False)
        m.record_completion(req(t=10.0), 10.0, 10.5, 0, True)
        r = m.report(warmup_until=5.0)
        assert r.completed == 1
        assert r.hit_rate == 1.0

    def test_window_throughput(self):
        m = MetricsCollector(1)
        # 3 requests complete inside a 10 s window, one long after it.
        for t in (1.0, 2.0, 3.0):
            m.record_completion(req(t=t), t, t + 0.1, 0, True)
        m.record_completion(req(t=4.0), 4.0, 50.0, 0, False)
        r = m.report(window_end=10.0)
        # The window starts at the first arrival (t=1).
        assert r.throughput_rps == pytest.approx(3 / 9.0)
        # Drain throughput spans until the last completion.
        assert r.drain_throughput_rps == pytest.approx(4 / 49.0)

    def test_counters_are_run_totals(self):
        m = MetricsCollector(1)
        m.count_dispatch()
        m.count_dispatch()
        m.count_handoff()
        m.count_connection()
        m.count_prefetch_issued()
        m.count_prefetch_useful()
        m.count_replicated_bytes(100)
        m.record_completion(req(t=10.0), 10.0, 11.0, 0, True)
        r = m.report(warmup_until=5.0)
        assert r.dispatches == 2
        assert r.handoffs == 1
        assert r.connections == 1
        assert r.replicated_bytes == 100

    def test_dispatch_frequency(self):
        m = MetricsCollector(1)
        for _ in range(4):
            m.count_dispatch()
        m.record_completion(req(t=0.0), 0.0, 1.0, 0, True)
        m.record_completion(req(t=0.5, conn=1), 0.5, 1.5, 0, True)
        assert m.report().dispatch_frequency == pytest.approx(2.0)

    def test_dispatch_frequency_ignores_warmup_window(self):
        # Dispatches are a whole-run counter, so the ratio must divide
        # by whole-run completions (all_completed), not the post-warm-up
        # population — mixing windows overstated dispatches/request.
        m = MetricsCollector(1)
        for _ in range(4):
            m.count_dispatch()
        for i, t in enumerate((0.0, 2.0, 6.0, 8.0)):
            m.record_completion(req(t=t, conn=i), t, t + 1.0, 0, True)
        r = m.report(warmup_until=5.0)
        assert r.completed == 2
        assert r.all_completed == 4
        assert r.dispatch_frequency == pytest.approx(1.0)

    def test_load_imbalance(self):
        m = MetricsCollector(2)
        m.record_completion(req(t=0.0), 0.0, 1.0, 0, True)
        m.record_completion(req(t=0.0, conn=1), 0.0, 1.0, 0, True)
        m.record_completion(req(t=0.0, conn=2), 0.0, 1.0, 1, True)
        r = m.report()
        assert r.load_imbalance == pytest.approx(2 / 1.5)

    def test_prefetch_precision(self):
        m = MetricsCollector(1)
        m.prefetches_issued = 4
        m.prefetch_useful = 3
        m.record_completion(req(), 0.0, 1.0, 0, True)
        assert m.report().prefetch_precision == pytest.approx(0.75)

    def test_row_formatting(self):
        m = MetricsCollector(1)
        m.record_completion(req(), 0.0, 1.0, 0, True)
        row = m.report().row()
        assert "rps" in row and "hit" in row
