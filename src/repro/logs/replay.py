"""Streamed evaluation sources: lazy :class:`Request` streams for the
simulator.

:class:`~repro.logs.records.Trace` materializes every request up front —
fine for the presets, the real ceiling for day-scale logs.  A
:class:`RequestSource` is the streamed counterpart: a **re-iterable**,
length-known, lazy stream of time-ordered requests plus the small
summary the simulator needs before the first arrival fires
(:class:`TraceSummary`: request count, time span, path catalog,
per-connection request counts).  The summary is built in one constant
memory pass at construction; resident state is O(distinct paths +
distinct connections), never O(requests).

:class:`SidecarRequestSource` streams the ``trace.meta.jsonl`` sidecar a
saved workload carries (:mod:`repro.logs.store`) — the only on-disk
format that preserves exact sub-second arrivals and connection
structure, which is why streamed replay requires it and real CLF logs
without one fall back to the materialized heuristic path.

The simulator (:class:`repro.sim.cluster.ClusterSimulator`) treats a
``Trace`` and a ``RequestSource`` identically; the differential battery
and the hypothesis properties in ``tests/test_streamed_replay.py`` hold
the two bit-identical.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .records import Request, arrival_order_error, check_finite_span
from .sampling import ClientSampler

__all__ = [
    "TraceSummary",
    "RequestSource",
    "SidecarRequestSource",
    "ScaledRequestSource",
    "request_from_row",
    "read_sidecar_header",
    "SIDECAR_KIND",
    "SIDECAR_FORMAT_VERSION",
]

#: ``kind`` tag of a ``trace.meta.jsonl`` header row.
SIDECAR_KIND = "prord-trace-meta"
#: Sidecar format version this module reads and writes.
SIDECAR_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class TraceSummary:
    """Everything the simulator needs about a trace before replaying it.

    All of it is O(catalog + connections) — the constant-memory residue
    of one streaming pass, never the requests themselves.
    """

    #: Number of requests the source yields per iteration.
    n: int
    #: First arrival time (``0.0`` for an empty source).
    start: float
    #: Last arrival time (``0.0`` for an empty source).
    last: float
    #: Max observed size per path — same construction as
    #: :attr:`Trace.catalog`.
    catalog: dict[str, int]
    #: Requests per connection id (the simulator's close bookkeeping
    #: needs the full counts up front: a connection closes when its
    #: *last* request completes, which streaming cannot know locally).
    connection_counts: Counter

    @property
    def duration(self) -> float:
        return self.last - self.start if self.n else 0.0

    @staticmethod
    def scan(requests: Iterable[Request]) -> "TraceSummary":
        """Fold a time-ordered request stream into its summary.

        Raises ``ValueError`` on out-of-order or non-finite arrivals —
        the same contract :class:`Trace` enforces on construction.
        """
        n = 0
        start = last = 0.0
        prev = float("-inf")
        catalog: dict[str, int] = {}
        conns: Counter = Counter()
        for r in requests:
            if not r.arrival >= prev:
                raise arrival_order_error(prev, r.arrival)
            prev = r.arrival
            if n == 0:
                start = r.arrival
            last = r.arrival
            n += 1
            size = catalog.get(r.path)
            if size is None or r.size > size:
                catalog[r.path] = r.size
            conns[r.conn_id] += 1
        if n:
            check_finite_span(start, last)
        return TraceSummary(n=n, start=start, last=last,
                            catalog=catalog, connection_counts=conns)


class RequestSource:
    """Re-iterable lazy request stream — the streamed face of ``Trace``.

    Subclasses set ``name`` and ``summary`` and implement ``__iter__``;
    every iteration must yield the same time-ordered requests.  The
    simulator-facing surface (``len``, ``catalog``, ``start``,
    ``duration``, ``connection_counts``) mirrors :class:`Trace` exactly,
    so :class:`~repro.sim.cluster.ClusterSimulator` and
    :func:`~repro.core.system.run_policy` accept either interchangeably.
    """

    name: str = "stream"
    summary: TraceSummary

    def __iter__(self) -> Iterator[Request]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:
        return self.summary.n

    @property
    def catalog(self) -> Mapping[str, int]:
        """Max observed size per path (read-only by convention)."""
        return self.summary.catalog

    @property
    def start(self) -> float:
        return self.summary.start

    @property
    def duration(self) -> float:
        return self.summary.duration

    def connection_counts(self) -> Counter:
        """Requests per connection id (a fresh counter each call)."""
        return Counter(self.summary.connection_counts)

    def scaled(self, factor: float) -> "ScaledRequestSource":
        """Lazily stretch/compress the time axis — arithmetic identical
        to :meth:`Trace.scaled`, applied per request on the fly."""
        return ScaledRequestSource(self, factor)


def request_from_row(row: dict) -> Request:
    """Build a :class:`Request` from one sidecar JSONL row."""
    return Request(
        arrival=float(row["a"]),
        conn_id=int(row["c"]),
        path=row["p"],
        size=int(row["s"]),
        is_embedded=bool(row["e"]),
        parent=row["pa"],
        client=row["cl"],
        dynamic=bool(row["d"]),
    )


def read_sidecar_header(line: str) -> dict:
    """Parse and validate a sidecar header line; returns the header."""
    header = json.loads(line)
    if (not isinstance(header, dict)
            or header.get("kind") != SIDECAR_KIND
            or header.get("format_version") != SIDECAR_FORMAT_VERSION):
        raise ValueError(f"unrecognized trace sidecar header: {header!r}")
    return header


class SidecarRequestSource(RequestSource):
    """Streams the exact evaluation trace out of ``trace.meta.jsonl``.

    Construction makes one full validation pass — header, every row,
    time order, and the header's request count (a truncated or stale
    sidecar raises ``ValueError`` here, never mid-simulation) — and
    keeps only the :class:`TraceSummary`.  Each iteration re-opens the
    file and yields requests lazily.

    ``sample_rate`` applies :class:`~repro.logs.sampling.ClientSampler`
    per client: the summary, ``len`` and every iteration then describe
    the *sampled* sub-trace consistently, and sampling the stream
    selects exactly the clients that filtering the materialized trace
    would.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        name: str | None = None,
        sample_rate: float | None = None,
        sample_seed: int = 0,
    ) -> None:
        self.path = Path(path)
        self.sampler = (
            ClientSampler(sample_rate, sample_seed)
            if sample_rate is not None else None
        )
        with self.path.open() as fp:
            header = read_sidecar_header(fp.readline())
            rows = 0

            def counted() -> Iterator[Request]:
                nonlocal rows
                for line in fp:
                    rows += 1
                    yield request_from_row(json.loads(line))

            requests: Iterable[Request] = counted()
            if self.sampler is not None:
                requests = self.sampler.sample_requests(requests)
            self.summary = TraceSummary.scan(requests)
        if rows != header["n"]:
            raise ValueError(
                f"trace sidecar truncated: header says {header['n']} "
                f"requests, found {rows}"
            )
        self.name = name if name is not None else header.get("name", "trace")
        #: Requests belonging to sampled-out clients (0 without sampling).
        self.sampled_out = rows - self.summary.n

    def __iter__(self) -> Iterator[Request]:
        def gen() -> Iterator[Request]:
            with self.path.open() as fp:
                fp.readline()  # header, validated at construction
                requests = (
                    request_from_row(json.loads(line)) for line in fp
                )
                if self.sampler is not None:
                    requests = self.sampler.sample_requests(requests)
                yield from requests
        return gen()

    def __repr__(self) -> str:
        return (
            f"SidecarRequestSource({str(self.path)!r}, n={len(self)}, "
            f"sampler={self.sampler})"
        )


class ScaledRequestSource(RequestSource):
    """A time-scaled lazy view over another source.

    Applies ``arrival = t0 + (arrival - t0) * factor`` per request —
    the exact float arithmetic of :meth:`Trace.scaled`, so a scaled
    stream replays bit-identically to scaling the materialized trace.
    Catalog and connection structure are untouched.
    """

    def __init__(self, base: RequestSource, factor: float) -> None:
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.base = base
        self.factor = factor
        self.name = f"{base.name}*{factor:g}"
        s = base.summary
        t0 = s.start
        self.summary = TraceSummary(
            n=s.n,
            start=t0 + (s.start - t0) * factor,
            last=t0 + (s.last - t0) * factor,
            catalog=s.catalog,
            connection_counts=s.connection_counts,
        )

    def __iter__(self) -> Iterator[Request]:
        t0 = self.base.summary.start
        factor = self.factor
        for r in self.base:
            yield Request(t0 + (r.arrival - t0) * factor, r.conn_id,
                          r.path, r.size, r.is_embedded, r.parent,
                          r.client, r.dynamic)
