"""Metrics collection and reporting for cluster simulations.

The paper's evaluation metrics (§5.2): *average response time*,
*throughput* (requests completed per unit time, summed over backends),
*frequency of dispatches* (Fig. 6), and cache hit rates.  The collector
records per-request completions plus event counters; reports can exclude
a warm-up prefix so cold-cache compulsory misses do not drown
steady-state behaviour.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..logs.records import Request

__all__ = ["CompletionRecord", "SimulationReport", "MetricsCollector"]


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One served request."""

    arrival: float
    completion: float
    server_id: int
    hit: bool
    is_embedded: bool
    size: int

    @property
    def response_time(self) -> float:
        return self.completion - self.arrival


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Aggregated metrics over (post-warm-up) completions."""

    #: completions whose request arrived after warm-up — the population
    #: behind the response-time/hit-rate/throughput statistics.
    completed: int
    #: completions over the whole run, warm-up included.  Event
    #: counters (dispatches, handoffs, ...) are whole-run totals, so
    #: per-request ratios must normalise by this count, not
    #: ``completed`` — mixing the windows inflated dispatches/request.
    all_completed: int
    #: completions inside the offered-load window / window length — the
    #: paper's "summation of the number of requests processed by each of
    #: the backend servers" over the measured interval.
    throughput_rps: float
    #: drain throughput: completions / (last completion − window start).
    #: A policy that leaves a backlog takes longer to finish the same
    #: request set and scores lower on this alternative reading.
    drain_throughput_rps: float
    mean_response_s: float
    median_response_s: float
    p95_response_s: float
    p99_response_s: float
    hit_rate: float
    dispatches: int
    handoffs: int
    connections: int
    prefetches_issued: int
    prefetch_useful: int
    replicated_bytes: int
    makespan_s: float
    per_server_completed: tuple[int, ...]

    @property
    def dispatch_frequency(self) -> float:
        """Dispatches per served request (Fig. 6, normalised).

        Both counts cover the whole run: ``dispatches`` is a run total,
        so it is divided by run-total completions — dividing by the
        post-warm-up ``completed`` would overstate dispatches/request.
        """
        if not self.all_completed:
            return 0.0
        return self.dispatches / self.all_completed

    @property
    def prefetch_precision(self) -> float:
        """Fraction of issued prefetches later hit by demand."""
        if not self.prefetches_issued:
            return 0.0
        return self.prefetch_useful / self.prefetches_issued

    @property
    def load_imbalance(self) -> float:
        """max/mean per-server completions (1.0 = perfectly balanced)."""
        counts = np.array(self.per_server_completed, dtype=float)
        if counts.size == 0 or counts.mean() == 0:
            return 0.0
        return float(counts.max() / counts.mean())

    def row(self) -> str:
        """One formatted table row for the experiment harness."""
        return (
            f"thr={self.throughput_rps:9.1f} rps  "
            f"resp={self.mean_response_s * 1e3:8.2f} ms  "
            f"p50={self.median_response_s * 1e3:7.2f}  "
            f"p95={self.p95_response_s * 1e3:7.2f}  "
            f"p99={self.p99_response_s * 1e3:8.2f} ms  "
            f"hit={self.hit_rate:6.1%}  "
            f"disp/req={self.dispatch_frequency:5.2f}"
        )


class MetricsCollector:
    """Accumulates completions and event counters during a run.

    Completions are stored struct-of-arrays — six parallel scalar
    columns instead of a :class:`CompletionRecord` per request — so the
    hot path appends plain floats/ints and the report aggregates with
    vectorised NumPy.  The :attr:`records` view materialises the
    record objects on demand for tests and ad-hoc analysis.
    """

    def __init__(self, n_servers: int) -> None:
        if n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        self.n_servers = n_servers
        # Times are stored inline (8 bytes each, no float object per
        # entry).  A finished cluster sits in reference cycles until the
        # next full collection, so earlier runs' columns are still
        # resident while a later run peaks.
        self._arrival = array("d")
        self._completion = array("d")
        self._server: list[int] = []
        self._hit: list[bool] = []
        self._embedded: list[bool] = []
        self._size: list[int] = []
        # Bound appends: record_completion runs once per served request.
        self._push_arrival = self._arrival.append
        self._push_completion = self._completion.append
        self._push_server = self._server.append
        self._push_hit = self._hit.append
        self._push_embedded = self._embedded.append
        self._push_size = self._size.append
        self.dispatches = 0
        self.handoffs = 0
        self.connections = 0
        self.prefetches_issued = 0
        self.prefetch_useful = 0
        self.replicated_bytes = 0
        self.first_arrival: float | None = None

    # -- recording ------------------------------------------------------------

    def record_completion(
        self,
        request: Request,
        arrival: float,
        completion: float,
        server_id: int,
        hit: bool,
    ) -> None:
        """Record one served request; times are relative to trace start."""
        if not 0 <= server_id < self.n_servers:
            raise ValueError(f"server_id {server_id} out of range")
        if completion < arrival:
            raise ValueError("completion precedes arrival")
        first = self.first_arrival
        if first is None or arrival < first:
            self.first_arrival = arrival
        self._push_arrival(arrival)
        self._push_completion(completion)
        self._push_server(server_id)
        self._push_hit(hit)
        self._push_embedded(request.is_embedded)
        self._push_size(request.size)

    def count_dispatch(self) -> None:
        self.dispatches += 1

    def count_handoff(self) -> None:
        self.handoffs += 1

    def count_connection(self) -> None:
        self.connections += 1

    def count_prefetch_issued(self) -> None:
        self.prefetches_issued += 1

    def count_prefetch_useful(self) -> None:
        self.prefetch_useful += 1

    def count_replicated_bytes(self, n: int) -> None:
        self.replicated_bytes += n

    @property
    def completed(self) -> int:
        return len(self._arrival)

    @property
    def records(self) -> Sequence[CompletionRecord]:
        """Materialised per-completion records (built on demand)."""
        return [
            CompletionRecord(a, c, s, h, e, z)
            for a, c, s, h, e, z in zip(
                self._arrival, self._completion, self._server,
                self._hit, self._embedded, self._size,
            )
        ]

    # -- reporting ------------------------------------------------------------

    def report(
        self,
        *,
        warmup_until: float = 0.0,
        window_end: float | None = None,
    ) -> SimulationReport:
        """Aggregate over completions whose request arrived after warm-up.

        ``window_end`` bounds the throughput measurement window (the
        offered-load interval, normally the trace duration): throughput
        counts only requests *completed* inside the window, divided by
        the window length.  An overloaded policy leaves a backlog at
        window end and scores lower — the paper's "requests processed by
        each of the backend servers" reading.  Response-time and
        hit-rate statistics cover all post-warm-up completions.

        Event counters (dispatches, handoffs, ...) are run totals — the
        paper's Fig. 6 counts dispatches over the whole trace.
        """
        all_completed = len(self._arrival)
        arrivals = np.array(self._arrival, dtype=np.float64)
        mask = arrivals >= warmup_until
        n = int(np.count_nonzero(mask))
        if n == 0:
            return SimulationReport(
                completed=0, all_completed=all_completed,
                throughput_rps=0.0, drain_throughput_rps=0.0,
                mean_response_s=0.0,
                median_response_s=0.0, p95_response_s=0.0,
                p99_response_s=0.0, hit_rate=0.0,
                dispatches=self.dispatches, handoffs=self.handoffs,
                connections=self.connections,
                prefetches_issued=self.prefetches_issued,
                prefetch_useful=self.prefetch_useful,
                replicated_bytes=self.replicated_bytes,
                makespan_s=0.0,
                per_server_completed=(0,) * self.n_servers,
            )
        completions = np.array(self._completion, dtype=np.float64)[mask]
        # Per-element float64 subtraction: bit-identical to the scalar
        # ``completion - arrival`` the record property computed.
        responses = completions - arrivals[mask]
        per_server = np.bincount(
            np.array(self._server, dtype=np.intp)[mask],
            minlength=self.n_servers,
        )
        start = max(warmup_until,
                    self.first_arrival if self.first_arrival else 0.0)
        makespan = float(completions.max()) - start
        drain_throughput = n / makespan if makespan > 0 else 0.0
        if window_end is not None and window_end > start:
            in_window = int(np.count_nonzero(completions <= window_end))
            throughput = in_window / (window_end - start)
        else:
            throughput = drain_throughput
        hits = int(np.count_nonzero(np.array(self._hit, dtype=bool)[mask]))
        return SimulationReport(
            completed=n,
            all_completed=all_completed,
            throughput_rps=throughput,
            drain_throughput_rps=drain_throughput,
            mean_response_s=float(responses.mean()),
            median_response_s=float(np.median(responses)),
            p95_response_s=float(np.percentile(responses, 95)),
            p99_response_s=float(np.percentile(responses, 99)),
            hit_rate=hits / n,
            dispatches=self.dispatches,
            handoffs=self.handoffs,
            connections=self.connections,
            prefetches_issued=self.prefetches_issued,
            prefetch_useful=self.prefetch_useful,
            replicated_bytes=self.replicated_bytes,
            makespan_s=makespan,
            per_server_completed=tuple(int(c) for c in per_server),
        )
