"""Property tests: the streaming arrival pump ≡ eager scheduling.

The pump keeps only a bounded lookahead window of trace arrivals in the
event calendar; the tests here are the proof obligation that this is a
pure perf change — for random traces and every policy in the
differential battery, every lookahead window (including pathological
``window=1``) must replay the exact same event sequence and produce a
field-for-field identical :class:`SimulationResult` as the legacy eager
schedule (``arrival_window=0``).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SimulationParams
from repro.core.system import (
    MINING_POLICY_NAMES,
    build_policy,
    mine_models,
)
from repro.experiments.common import loaded_workload
from repro.logs import Request, Trace
from repro.obs.telemetry import Telemetry
from repro.sim import ClusterSimulator
from repro.sim.audit import AuditError, SimulationAuditor
from repro.sim.cluster import DEFAULT_ARRIVAL_WINDOW
from repro.sim.differential import DEFAULT_POLICIES, report_fields
from repro.sim.tracing import RequestTracer
from tests.scales import MICRO

WINDOWS = (0, 1, 3, 17, None)  # 0 = eager; None = DEFAULT_ARRIVAL_WINDOW

_MODELS = None


def _mining(params):
    """Per-run mining state over one shared (module-cached) mining pass."""
    global _MODELS
    if _MODELS is None:
        _MODELS = mine_models(loaded_workload("synthetic", MICRO), params)
    return _MODELS.runtime(params)


def _params():
    return SimulationParams(n_backends=3, cache_bytes=1 << 18)


def _run(trace, policy_name, window):
    params = _params()
    mining = (_mining(params)
              if policy_name in MINING_POLICY_NAMES else None)
    policy, replicator = build_policy(policy_name, mining, params)
    tracer = RequestTracer()
    cluster = ClusterSimulator(
        trace, policy, params,
        replicator=replicator, tracer=tracer, arrival_window=window,
    )
    result = cluster.run()
    return result, cluster, tracer


def _observable(result, cluster, tracer):
    """Everything a run exposes, flattened for exact comparison."""
    return {
        **report_fields(result),
        "power": dataclasses.asdict(result.power),
        "frontend_utilization": result.frontend_utilization,
        "server_utilizations": result.server_utilizations,
        "dispatcher_lookups": result.dispatcher_lookups,
        "warmup_until": result.warmup_until,
        "events_processed": cluster.sim.events_processed,
        "events": list(tracer),
    }


#: (gap to previous arrival, conn id, path index) per request; gaps of
#: exactly 0.0 exercise the tie-break order, the thing most at risk.
random_traces = st.lists(
    st.tuples(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=0.05,
                            allow_nan=False)),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1, max_size=40,
)


def _build_trace(spec):
    reqs, t = [], 0.0
    for gap, conn, path_idx in spec:
        t += gap
        reqs.append(Request(arrival=t, conn_id=conn,
                            path=f"/p{path_idx}",
                            size=512 * (path_idx + 1)))
    return Trace(reqs, name="random")


class TestPumpEquivalence:
    @pytest.mark.parametrize("policy_name", DEFAULT_POLICIES)
    @settings(max_examples=12, deadline=None)
    @given(spec=random_traces)
    def test_property_every_window_matches_eager(self, policy_name, spec):
        trace = _build_trace(spec)
        eager = _observable(*_run(trace, policy_name, 0))
        assert eager["events"], "trace produced no events"
        for window in WINDOWS[1:]:
            streamed = _observable(*_run(trace, policy_name, window))
            differing = [k for k in eager if eager[k] != streamed[k]]
            assert not differing, (
                f"window={window} diverges from eager on {differing}"
            )

    def test_default_window_is_the_constructor_default(self):
        trace = _build_trace([(0.01, 0, 0)] * 5)
        cluster = ClusterSimulator(trace, build_policy("wrr")[0], _params())
        assert cluster.arrival_window == DEFAULT_ARRIVAL_WINDOW

    def test_negative_window_rejected(self):
        trace = _build_trace([(0.01, 0, 0)] * 5)
        with pytest.raises(ValueError, match="arrival_window"):
            ClusterSimulator(trace, build_policy("wrr")[0], _params(),
                             arrival_window=-1)


class TestCalendarFootprint:
    def test_high_water_bounded_by_window_not_trace(self):
        # A long, spread-out trace: eager scheduling's calendar peak
        # scales with the trace; the pump's stays near the window.
        n, window = 3000, 64
        reqs = [Request(arrival=i * 0.002, conn_id=i % 8,
                        path=f"/p{i % 16}", size=1024)
                for i in range(n)]
        trace = Trace(reqs, name="long")

        eager = ClusterSimulator(trace, build_policy("lard")[0], _params(),
                                 arrival_window=0)
        eager.run()
        assert eager.sim.calendar_high_water >= n

        pumped = ClusterSimulator(trace, build_policy("lard")[0], _params(),
                                  arrival_window=window)
        pumped.run()
        # window arrivals + in-flight service/latency events; far below
        # the trace length either way.
        assert pumped.sim.calendar_high_water <= window + 64
        assert pumped.sim.calendar_high_water < n // 10


class TestMultipleSources:
    """Several concurrent sources share one pump (and one window).

    The high-water regression this pins: multiple active sources must
    not inflate the calendar footprint — neither to per-source windows
    nor to eagerly-scheduled reserved blocks.  One merged stream, one
    window, one reserved sequence block.
    """

    @staticmethod
    def _sources():
        # Disjoint conn-id ranges; the first source gets the lower ids
        # so Trace.merge's (arrival, conn_id) tie-break agrees with the
        # merged stream's earlier-source-first rule.
        a = [Request(arrival=i * 0.004, conn_id=i % 4,
                     path=f"/a{i % 7}", size=700) for i in range(800)]
        b = [Request(arrival=0.001 + i * 0.005, conn_id=100 + i % 4,
                     path=f"/b{i % 5}", size=900) for i in range(600)]
        return Trace(a, name="a"), Trace(b, name="b")

    def _run(self, trace, window=None):
        kwargs = {} if window is None else {"arrival_window": window}
        cluster = ClusterSimulator(
            trace, build_policy("lard")[0], _params(),
            window_s=3.2, **kwargs)
        return cluster.run(), cluster

    def test_matches_materialized_merge(self):
        a, b = self._sources()
        merged_result, _ = self._run(Trace.merge([a, b]))
        multi_result, cluster = self._run([a, b])
        assert (report_fields(merged_result)
                == report_fields(multi_result))
        assert cluster.trace.name == "a+b"

    def test_high_water_bounded_by_one_shared_window(self):
        a, b = self._sources()
        window = 64
        result, cluster = self._run([a, b], window=window)
        merged_result, _ = self._run(Trace.merge([a, b]), window=window)
        assert report_fields(result) == report_fields(merged_result)
        # One shared window across both sources — not 2x window, and
        # nowhere near the 1400 reserved (but unscheduled) sequences.
        assert cluster.sim.calendar_high_water <= window + 64

    def test_merged_source_summary_state(self):
        from repro.sim.cluster import _MergedSource
        a, b = self._sources()
        m = _MergedSource([a, b])
        assert len(m) == 1400
        assert m.start == 0.0
        assert m.duration == max(a.duration, 0.001 + b.duration)
        assert m.connection_counts() == (
            a.connection_counts() + b.connection_counts())
        assert set(m.catalog) == set(a.catalog) | set(b.catalog)
        with pytest.raises(ValueError, match="sources"):
            _MergedSource([])


class TestStartRelativeTimes:
    """Every reader sees arrivals relative to trace start.

    The pump hands the cluster the original request, whose ``arrival``
    is the absolute log timestamp (here about 1e9 s), and carries the
    start-relative arrival in the flow table.  A reader that used
    ``req.arrival`` would be off by the whole epoch.
    """

    T0 = 1e9

    def _trace(self):
        reqs = [Request(arrival=self.T0 + i * 0.003, conn_id=i % 5,
                        path=f"/p{i}", size=2048 + 64 * (i % 9))
                for i in range(300)]
        return Trace(reqs, name="epoch")

    def _run(self):
        tracer = RequestTracer()
        telemetry = Telemetry()
        auditor = SimulationAuditor()
        cluster = ClusterSimulator(
            self._trace(), build_policy("lard")[0], _params(),
            warmup_fraction=0.0, tracer=tracer, auditor=auditor,
            telemetry=telemetry, arrival_window=16)
        return cluster.run(), cluster, tracer, telemetry, auditor

    def test_tracer_response_is_start_relative(self):
        result, _, tracer, _, _ = self._run()
        arrived = {e.path: e.time for e in tracer.events("arrival")}
        complete = tracer.events("complete")
        assert len(complete) == result.report.all_completed == 300
        for e in complete:
            response = dict(e.fields)["response_s"]
            assert response == e.time - arrived[e.path]
            assert 0.0 < response < 1.0

    def test_metrics_and_telemetry_histogram_agree(self):
        result, cluster, _, telemetry, _ = self._run()
        arrivals = [r.arrival for r in cluster.metrics.records]
        assert min(arrivals) == 0.0
        assert max(arrivals) < 1.0
        hist = telemetry.response_hist
        assert len(hist) == 300
        assert hist.mean == pytest.approx(result.report.mean_response_s,
                                          rel=1e-9)

    def test_auditor_tracks_start_relative_arrivals(self):
        result, cluster, _, _, auditor = self._run()
        assert result.audit.clean
        # The per-connection check kept start-relative times: its
        # snapshot of the last arrival on connection 4 is the trace's
        # last request (index 299) rebased to start.
        late = Request(arrival=self.T0, conn_id=4, path="/late", size=10)
        with pytest.raises(AuditError, match="out of order") as exc:
            auditor.note_arrival(late, -1.0)
        last = (self.T0 + 299 * 0.003) - self.T0
        assert exc.value.snapshot["previous_arrival"] == last

    def test_inject_uses_request_arrival(self):
        tracer = RequestTracer()
        cluster = ClusterSimulator(
            None, build_policy("wrr")[0], _params(),
            catalog={"/a": 1024}, window_s=5.0, tracer=tracer)

        def inject():
            cluster.inject(Request(arrival=cluster.sim.now, conn_id=0,
                                   path="/a", size=1024))

        cluster.sim.schedule(2.5, inject)
        cluster.sim.run()
        (rec,) = cluster.metrics.records
        assert rec.arrival == 2.5
        (done,) = tracer.events("complete")
        assert dict(done.fields)["response_s"] == done.time - 2.5
