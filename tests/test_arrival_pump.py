"""Property tests: the merged arrival stream ≡ eager scheduling.

:meth:`ClusterSimulator.run` never puts trace arrivals on the event
calendar: the engine merges the time-sorted trace with the heap.  The
tests here are the proof obligation that this is a pure perf change —
for random traces (exact ties included) and every policy in the
differential battery, the merged run must replay the exact same event
sequence and produce a field-for-field identical
:class:`SimulationResult` as an eager oracle that schedules every
arrival on the heap up front through the public ``schedule_at`` and
then drains.
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
from repro.sim.differential import DEFAULT_POLICIES, report_fields
from repro.sim.tracing import RequestTracer
from tests.scales import MICRO

_MODELS = None


def _mining(params):
    """Per-run mining state over one shared (module-cached) mining pass."""
    global _MODELS
    if _MODELS is None:
        _MODELS = mine_models(loaded_workload("synthetic", MICRO), params)
    return _MODELS.runtime(params)


def _params():
    return SimulationParams(n_backends=3, cache_bytes=1 << 18)


def _cluster(trace, policy_name):
    params = _params()
    mining = (_mining(params)
              if policy_name in MINING_POLICY_NAMES else None)
    policy, replicator = build_policy(policy_name, mining, params)
    tracer = RequestTracer()
    cluster = ClusterSimulator(trace, policy, params,
                               replicator=replicator, tracer=tracer)
    return cluster, tracer


def _run(trace, policy_name):
    """The merged run: ``ClusterSimulator.run`` as shipped."""
    cluster, tracer = _cluster(trace, policy_name)
    return cluster.run(), cluster, tracer


def _run_eager(trace, policy_name):
    """Oracle: every arrival on the heap before the first event fires.

    Arrivals are scheduled in trace order before the replicator starts,
    so they draw the same sequence numbers the merged run reserves.
    """
    cluster, tracer = _cluster(trace, policy_name)
    t0 = trace.start
    for req in trace:
        cluster.sim.schedule_at(req.arrival - t0, cluster._arrive, req)
    if cluster.replicator is not None:
        cluster.replicator.start()
    cluster.sim.run()
    return cluster.result(), cluster, tracer


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
        # The merged loop holds a one-arrival lookahead; the oracle holds
        # the whole trace.  Both engine loops are checked: the plain
        # run takes the no-observer fast loop, the hooked one the
        # on_event loop.
        trace = _build_trace(spec)
        eager = _observable(*_run_eager(trace, policy_name))
        assert eager["events"], "trace produced no events"
        assert eager["events_processed"] >= len(trace)
        merged = _observable(*_run(trace, policy_name))
        cluster, tracer = _cluster(trace, policy_name)
        hooked = []
        cluster.sim.on_event = hooked.append
        observed = _observable(cluster.run(), cluster, tracer)
        for name, run in (("merged", merged), ("observed", observed)):
            differing = [k for k in eager if eager[k] != run[k]]
            assert not differing, f"{name} diverges from eager on {differing}"
        assert len(hooked) == observed["events_processed"]
        assert hooked == sorted(hooked)


class TestCalendarFootprint:
    def test_high_water_bounded_by_window_not_trace(self):
        # A long, spread-out trace: the eager oracle's calendar peak
        # scales with the trace; the merged run's holds in-flight work
        # only — at most one completion per station (the front end plus
        # a CPU and a disk per backend: 7 here) and the latency events
        # of the few requests in flight at this light load.
        n = 3000
        reqs = [Request(arrival=i * 0.002, conn_id=i % 8,
                        path=f"/p{i % 16}", size=1024)
                for i in range(n)]
        trace = Trace(reqs, name="long")

        _, eager, _ = _run_eager(trace, "lard")
        assert eager.sim.calendar_high_water >= n

        _, merged, _ = _run(trace, "lard")
        stations = len(merged.frontends) + 2 * len(merged.servers)
        assert stations == 7
        assert merged.sim.calendar_high_water <= 2 * stations
        assert (merged.sim.events_processed
                == eager.sim.events_processed)


class TestStartRelativeTimes:
    """Every reader sees arrivals relative to trace start.

    The merged loop hands the cluster the original request, whose ``arrival``
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
            telemetry=telemetry)
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
