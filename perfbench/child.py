"""One fresh interpreter per benchmark step: warm-up, set-up or pass.

Usage (the benchmark's ``run.py`` starts this; run by hand only to debug)::

    python3 perfbench/child.py pass --workload synthetic-e2e --seed 0

Modes:

``warm``
    Import the modules a pass uses and exit, so the first timed process
    does not pay for writing bytecode caches.
``setup``
    Import ``repro`` and build the inputs the workload needs before its
    pass (the saved workload directory for ``worldcup-stream-replay``).
``pass``
    Run one pass of the workload: the ``repro`` calls a user's command
    makes, from the first call to the last report.  With ``--trace`` the
    public entry points of ``repro.logs``, ``repro.mining``,
    ``repro.policies`` and ``repro.sim`` are wrapped in spans first.

Every mode prints one JSON object as its last line of standard output.
``ClusterSimulator.run`` is timed in every pass, traced or not: the time
spent inside it is the denominator of ``sim_events_per_s``.  The pass
and each simulation also report their interval on the system-wide
monotonic clock, so ``run.py`` can match them with the speed probe.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Callable, Iterator

from tracing import Tracer, self_times

import repro
from repro.core import SimulationParams
from repro.core.system import MinedModels, run_policy
from repro.experiments.common import (
    BASE_SEEDS,
    QUICK,
    ExperimentScale,
    format_table,
    run_comparison,
)
from repro.experiments import runner
from repro.logs import clf, replay, store, synthetic, workloads
from repro.mining import modelcache
from repro.obs.profiler import PhaseProfiler
from repro.policies.extlard import ExtLARDPolicy
from repro.policies.lard import LARDPolicy
from repro.policies.prord import PRORDPolicy
from repro.policies.replication import ReplicationEngine
from repro.policies.wrr import WRRPolicy
from repro.sim.cluster import ClusterSimulator

#: ``benchmarks/conftest.py`` ``BENCH``: saturating but small.
BENCH = ExperimentScale(
    name="bench", duration_s=4.0,
    session_rates={"synthetic": 500.0},
    n_backends=8, think_time_mean=0.25, max_session_pages=10,
)
#: Reduced rate and duration for the benchmark's self-test (``--small``).
SMALL_BENCH = dataclasses.replace(
    BENCH, duration_s=1.0, session_rates={"synthetic": 100.0})
SMALL_QUICK = dataclasses.replace(
    QUICK, duration_s=1.5, session_rates={"cs-department": 80.0})
WORLDCUP_SCALE = 0.05
SMALL_WORLDCUP_SCALE = 0.003

#: ``PhaseProfiler`` phase -> span name.
PHASE_SPANS = {
    "mine.sessionize": "mining.sessionize",
    "mine.depgraph": "mining.depgraph",
    "mine.bundles": "mining.bundles",
    "mine.categorize": "mining.categorize",
    "mine.popularity": "mining.popularity",
    "mine.stream": "mining.fold",
    "mine.stream.finish": "mining.fold.finish",
}


def report_fingerprint(report: Any) -> str:
    """sha256 of the canonical JSON of a ``SimulationReport``."""
    canonical = json.dumps(dataclasses.asdict(report), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def op_fields(result: Any, trace_len: int) -> dict[str, Any]:
    """What the parent checks and prints for one policy run."""
    r = result.report
    return {
        "fingerprint": report_fingerprint(r),
        "throughput_rps": r.throughput_rps,
        "hit_ratio": r.hit_rate,
        "dispatch_ratio": r.dispatch_frequency,
        "all_completed": r.all_completed,
        "trace_len": trace_len,
        "prefetches_issued": r.prefetches_issued,
        "prefetch_useful": r.prefetch_useful,
        "replicated_bytes": r.replicated_bytes,
    }


@contextmanager
def attempt(ops: list[dict[str, Any]], policy: str) -> Iterator[dict]:
    """Record one operation; an exception marks it failed, not the pass."""
    op: dict[str, Any] = {"policy": policy, "error": None}
    ops.append(op)
    try:
        yield op
    except Exception:
        op["error"] = traceback.format_exc(limit=4)


def preset_workload(preset: str, seed: int, *, scale: float = 1.0,
                    load: ExperimentScale | None = None) -> workloads.Workload:
    """The preset workload with its traffic seeds shifted by ``seed``.

    The site model keeps the preset's base seed, like one web site on
    different days.  Shifting the site seed too, as
    ``loaded_workload(seed_offset=seed)`` does, changes the request count
    of a pass by up to 10% from seed to seed, more than the spread the
    benchmark's bounds allow.  With ``seed=0`` this is the preset itself:
    ``loaded_workload(preset, load, seed_offset=0)``, or
    ``make_workload(preset, scale=scale)`` without ``load``.
    """
    site, eval_spec, train_spec = workloads._PRESET_CONFIGS[preset](
        scale, BASE_SEEDS[preset])
    eval_spec.seed += seed
    train_spec.seed += seed
    if load is not None:
        eval_spec = workloads._apply_load(
            eval_spec, load.rate_for(preset), load.duration_s,
            load.think_time_mean, load.max_session_pages)
    return workloads._make(preset, site, eval_spec, train_spec)


def grid_pass(preset: str, scale: ExperimentScale, fraction: float,
              policies: tuple[str, ...], seed: int,
              ops: list[dict[str, Any]], span: Callable) -> str:
    """Build the preset in-process, mine it in memory, run each policy
    serially (``jobs=0``) and render the figure-style table."""
    workload = preset_workload(preset, seed, load=scale)
    results = {}
    for policy in policies:
        with attempt(ops, policy) as op:
            result = run_comparison(workload, [policy], scale,
                                    cache_fraction=fraction, jobs=0)[policy]
            op.update(op_fields(result, len(workload.trace)))
            results[policy] = result
    with span("report"):
        return format_table(
            f"{workload.summary()}, {fraction:.0%} memory",
            ("policy", "throughput", "hit rate", "disp/req"),
            [(p, f"{r.throughput_rps:.1f}", f"{r.hit_rate:.1%}",
              f"{r.report.dispatch_frequency:.2f}")
             for p, r in results.items()])


def synthetic_e2e(seed: int, data_dir: Path, small: bool,
                  ops: list[dict[str, Any]], span: Callable) -> str:
    return grid_pass("synthetic", SMALL_BENCH if small else BENCH, 0.3,
                     ("wrr", "lard", "prord"), seed, ops, span)


def cs_memory_starved(seed: int, data_dir: Path, small: bool,
                      ops: list[dict[str, Any]], span: Callable) -> str:
    return grid_pass("cs-department", SMALL_QUICK if small else QUICK, 0.05,
                     ("lard", "ext-lard-phttp", "prord"), seed, ops, span)


def worldcup_setup(seed: int, data_dir: Path, small: bool) -> None:
    workload = preset_workload(
        "worldcup", seed,
        scale=SMALL_WORLDCUP_SCALE if small else WORLDCUP_SCALE)
    store.save_workload(workload, data_dir)


def worldcup_stream_replay(seed: int, data_dir: Path, small: bool,
                           ops: list[dict[str, Any]], span: Callable) -> str:
    """The calls ``repro replay DIR --stream --policy P`` makes, per policy."""
    params = SimulationParams(n_backends=8)
    lines = []
    for policy in ("lard", "prord"):
        with attempt(ops, policy) as op:
            workload = store.load_workload(data_dir, stream=True)
            result = run_policy(workload, policy, params, cache_fraction=0.3)
            op.update(op_fields(result, len(workload.trace)))
            stats = workload.training_records.stats
            op["clf_lines"] = stats.total
            op["clf_dropped"] = stats.dropped
            with span("report"):
                lines.append(result.summary())
    return "\n".join(lines)


PASSES = {
    "synthetic-e2e": synthetic_e2e,
    "cs-memory-starved": cs_memory_starved,
    "worldcup-stream-replay": worldcup_stream_replay,
}
SETUPS = {"worldcup-stream-replay": worldcup_setup}


class SpanProfiler(PhaseProfiler):
    """The program's ``PhaseProfiler``, also opening a span per phase."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        with self._tracer.span(PHASE_SPANS.get(name, name)), \
                super().phase(name):
            yield


def time_sim_runs(runs: list[dict[str, Any]], tracer: Tracer | None) -> None:
    """Time every ``ClusterSimulator.run`` and read its engine counters."""
    original = ClusterSimulator.run

    def run(self: ClusterSimulator) -> Any:
        index = tracer.begin("sim.cluster.run") if tracer else None
        start = monotonic()
        try:
            return original(self)
        finally:
            end = monotonic()
            if tracer is not None:
                tracer.end(index)
            runs.append({
                "policy": self.policy.name,
                "interval": (start, end),
                "run_s": end - start,
                "events": self.sim.events_processed,
                "calendar_high_water": self.sim.calendar_high_water,
            })

    ClusterSimulator.run = run


def instrument(tracer: Tracer, profilers: list[PhaseProfiler],
               routes: dict[str, list[float]]) -> None:
    """Wrap the public entry points of each layer in spans."""
    counts = tracer.counts

    def count(key: str, measure: Callable[[Any, tuple], int]) -> Callable:
        def after(result: Any, args: tuple) -> None:
            counts[key] += measure(result, args)
        return after

    tracer.wrap(workloads, "build_site", "logs.site.build")
    tracer.wrap(synthetic.TraceGenerator, "generate_records",
                "logs.synthetic.generate",
                count("logs.synthetic.records", lambda res, a: len(res)))
    tracer.wrap(workloads, "trace_from_records",
                "logs.sessions.trace_from_records")
    tracer.wrap(store, "load_workload", "logs.store.load")
    tracer.wrap(replay.SidecarRequestSource, "__init__", "logs.replay.scan",
                count("logs.replay.sidecar_rows",
                      lambda res, a: a[0].summary.n + a[0].sampled_out))

    sidecar_iter = replay.SidecarRequestSource.__iter__
    replay.SidecarRequestSource.__iter__ = lambda self: tracer.timed_iter(
        sidecar_iter(self), "logs.replay", "logs.replay.sidecar_rows")
    clf_iter = clf.CLFSource.__iter__
    clf.CLFSource.__iter__ = lambda self: tracer.timed_iter(
        iter(clf_iter(self)), "logs.clf")

    mine = modelcache.cached_mine_models

    def cached_mine_models(workload: Any, params: Any = None,
                           **kwargs: Any) -> MinedModels:
        profiler = SpanProfiler(tracer)
        profilers.append(profiler)
        kwargs["profiler"] = profiler
        with tracer.span("mining.mine"):
            models = mine(workload, params, **kwargs)
        counts["mining.sessions"] += models.num_sessions
        return models

    modelcache.cached_mine_models = cached_mine_models
    runner.cached_mine_models = cached_mine_models
    tracer.wrap(MinedModels, "runtime", "mining.runtime")

    for cls in (WRRPolicy, LARDPolicy, ExtLARDPolicy, PRORDPolicy):
        def route(self: Any, request: Any, _route: Callable = cls.route
                  ) -> Any:
            start = perf_counter()
            decision = _route(self, request)
            elapsed = perf_counter() - start
            tracer.charge("policies.route", elapsed)
            acc = routes.setdefault(self.name, [0, 0.0])
            acc[0] += 1
            acc[1] += elapsed
            return decision
        cls.route = route

    tracer.wrap(ReplicationEngine, "run_round", "policies.replication",
                count("policies.replication.rounds", lambda res, a: 1))
    tracer.wrap(ClusterSimulator, "__init__", "sim.cluster.init")


def layer_metrics(tracer: Tracer, ops: list[dict[str, Any]],
                  runs: list[dict[str, Any]],
                  profilers: list[PhaseProfiler],
                  routes: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    durations: dict[str, float] = {}
    for name, start, end, *_ in tracer.spans:
        durations[name] = durations.get(name, 0.0) + end - start
    phases: dict[str, float] = {}
    for profiler in profilers:
        for name, timing in profiler.items():
            phases[name] = phases.get(name, 0.0) + timing.wall_s
    counts = tracer.counts
    ok = [op for op in ops if op["error"] is None]
    issued = sum(op["prefetches_issued"] for op in ok)
    m: dict[str, float] = {
        "logs.synthetic.generate_s": durations.get(
            "logs.synthetic.generate", 0.0),
        "logs.synthetic.records": counts["logs.synthetic.records"],
        "logs.sessions.trace_from_records_s": durations.get(
            "logs.sessions.trace_from_records", 0.0),
        "logs.site.build_s": durations.get("logs.site.build", 0.0),
        "logs.store.load_s": durations.get("logs.store.load", 0.0),
        "logs.clf.lines": sum(op.get("clf_lines", 0) for op in ok),
        "logs.clf.dropped": sum(op.get("clf_dropped", 0) for op in ok),
        "logs.replay.sidecar_rows": counts["logs.replay.sidecar_rows"],
        "mining.fold_s": (phases.get("mine.stream", 0.0)
                          + phases.get("mine.stream.finish", 0.0)),
        "mining.sessions": counts["mining.sessions"],
        "mining.runtime_s": durations.get("mining.runtime", 0.0),
        "policies.replication.rounds": counts["policies.replication.rounds"],
        "policies.replication_s": durations.get("policies.replication", 0.0),
        "policies.replication.bytes": sum(op["replicated_bytes"] for op in ok),
        "mining.prefetch.useful_ratio": (
            sum(op["prefetch_useful"] for op in ok) / issued if issued
            else 0.0),
        "sim.engine.calendar_high_water": max(
            (r["calendar_high_water"] for r in runs), default=0),
    }
    for stage in ("sessionize", "depgraph", "bundles", "categorize",
                  "popularity"):
        m[f"mining.{stage}_s"] = phases.get(f"mine.{stage}", 0.0)
    for policy, (calls, seconds) in routes.items():
        m[f"policies.route.calls.{policy}"] = calls
        m[f"policies.route_s.{policy}"] = seconds
    for run in runs:
        p = run["policy"]
        m[f"sim.cluster.run_s.{p}"] = run["run_s"]
        m[f"sim.engine.events.{p}"] = run["events"]
        m[f"sim.engine.host_us_per_event.{p}"] = (
            run["run_s"] / run["events"] * 1e6 if run["events"] else 0.0)
    for op in ok:
        p = op["policy"]
        m[f"sim.cache.hit_ratio.{p}"] = op["hit_ratio"]
        m[f"sim.frontend.dispatch_ratio.{p}"] = op["dispatch_ratio"]
        m[f"sim.completed_ratio.{p}"] = op["all_completed"] / op["trace_len"]
    return m


def run_pass(args: argparse.Namespace) -> dict[str, Any]:
    tracer = Tracer(args.pass_id) if args.trace else None
    runs: list[dict[str, Any]] = []
    profilers: list[PhaseProfiler] = []
    routes: dict[str, list[float]] = {}
    time_sim_runs(runs, tracer)
    if tracer is not None:
        instrument(tracer, profilers, routes)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    ops: list[dict[str, Any]] = []
    report = ""
    start = monotonic()
    root = tracer.begin("pass") if tracer is not None else None
    try:
        report = PASSES[args.workload](args.seed, Path(args.dir), args.small,
                                       ops, span)
    except Exception:
        # The workload itself could not be built: no operation ran.
        ops.append({"policy": "*", "error": traceback.format_exc(limit=4)})
    finally:
        if tracer is not None:
            tracer.end(root)
    end = monotonic()

    out: dict[str, Any] = {
        "wall_s": end - start,
        "interval": (start, end),
        "sim_intervals": [r["interval"] for r in runs],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_run_s": sum(r["run_s"] for r in runs),
        "sim_events": sum(r["events"] for r in runs),
        "ops": ops,
        "report": report,
    }
    if tracer is not None:
        records = tracer.records()
        out["self_s"] = self_times(records)
        out["layers"] = layer_metrics(tracer, ops, runs, profilers, routes)
        out["layers"]["trace.unattributed_s"] = out["self_s"].get(
            "unattributed", 0.0)
        out["spans"] = records
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("warm", "setup", "pass"))
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", default=".",
                        help="directory for the workload's saved inputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="reduced rate and duration (self-test)")
    parser.add_argument("--pass-id", default="pass")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.mode == "warm":
        import numpy
        out: dict[str, Any] = {"ok": True, "numpy": numpy.__version__}
    elif args.mode == "setup":
        setup = SETUPS.get(args.workload)
        if setup is not None:
            setup(args.seed, Path(args.dir), args.small)
        out = {"ok": True}
    else:
        out = run_pass(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
