"""Core web-log record types shared across the library.

Two levels of representation are used throughout:

* :class:`LogRecord` — one line of a web-server access log in Common Log
  Format (CLF).  This is what the mining layer consumes (the paper's
  "web log files").
* :class:`Request` — one HTTP request as seen by the cluster simulator:
  an arrival time, a persistent-connection identifier, the requested
  path, its size, and bundle metadata (whether the object is embedded in
  a parent page).  Traces fed to the simulator are time-ordered lists of
  requests, grouped into persistent connections (HTTP/1.1 sessions).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "LogRecord",
    "Request",
    "Trace",
]


@dataclass(frozen=True, slots=True)
class LogRecord:
    """A single access-log entry (one CLF line).

    Attributes
    ----------
    host:
        Remote client host (IP or name).  Used as the session key.
    timestamp:
        Seconds since the epoch (float; sub-second resolution allowed).
    method:
        HTTP method, e.g. ``"GET"``.
    path:
        Requested URL path, e.g. ``"/courses/index.html"``.
    protocol:
        Protocol token from the request line, e.g. ``"HTTP/1.1"``.
    status:
        HTTP response status code.
    size:
        Response body size in bytes (0 when the log recorded ``-``).
    ident, authuser:
        The rarely-used CLF identity fields; kept for round-tripping.
    referer:
        Optional referer (combined-log extension); ``None`` for plain CLF.
    agent:
        Optional user-agent (combined-log extension); ``None`` for plain
        CLF.  Useful for bot filtering and user categorization.
    """

    host: str
    timestamp: float
    method: str
    path: str
    protocol: str
    status: int
    size: int
    ident: str = "-"
    authuser: str = "-"
    referer: str | None = None
    agent: str | None = None

    def is_success(self) -> bool:
        """Whether the entry denotes a successfully served object (2xx/304)."""
        return 200 <= self.status < 300 or self.status == 304

    def with_time(self, timestamp: float) -> "LogRecord":
        """Return a copy shifted to ``timestamp`` (used by trace rescaling)."""
        return replace(self, timestamp=timestamp)


@dataclass(frozen=True, slots=True)
class Request:
    """One request as presented to the cluster simulator.

    Attributes
    ----------
    arrival:
        Arrival time at the front end, in seconds (simulation clock).
    conn_id:
        Persistent-connection identifier.  All requests sharing a
        ``conn_id`` travel over one HTTP/1.1 connection, in order.
    path:
        Requested object path.
    size:
        Object size in bytes.
    is_embedded:
        True when the object is an embedded member of a page bundle
        (image/applet/stream fetched by the browser right after the
        parent page).
    parent:
        Path of the parent page for embedded objects; ``None`` for main
        pages.
    client:
        Client identity (host) — informational, used by categorization.
    dynamic:
        True for generated (CGI) content: uncacheable, CPU-priced per
        request (dynamic-content extension; see DESIGN.md §7).
    """

    arrival: float
    conn_id: int
    path: str
    size: int
    is_embedded: bool = False
    parent: str | None = None
    client: str = "-"
    dynamic: bool = False

    def is_main_page(self) -> bool:
        """Whether this request is for a main page (bundle root)."""
        return not self.is_embedded


def arrival_order_error(earlier: float, later: float) -> ValueError:
    """The error for two consecutive arrivals failing ``later >= earlier``.

    NaN fails every comparison, so a NaN on either side lands here and
    is named as non-finite, not as out of order.
    """
    for t in (later, earlier):
        if math.isnan(t):
            return ValueError(f"trace arrival times must be finite: {t}")
    return ValueError(
        f"trace requests must be sorted by arrival time: {later} < {earlier}"
    )


def check_finite_span(start: float, last: float) -> None:
    """Reject an infinite first or last arrival.

    With every consecutive pair ordered (which no NaN passes), finite
    endpoints make every arrival finite.
    """
    for t in (start, last):
        if not math.isfinite(t):
            raise ValueError(f"trace arrival times must be finite: {t}")


class Trace:
    """A time-ordered sequence of :class:`Request` plus the file catalog.

    The catalog maps every path appearing in the trace to its size in
    bytes; policies and the simulator use it to size caches and disk
    transfers without scanning the whole trace.
    """

    def __init__(self, requests: Sequence[Request], name: str = "trace") -> None:
        reqs = list(requests)
        for earlier, later in zip(reqs, reqs[1:]):
            if not later.arrival >= earlier.arrival:
                raise arrival_order_error(earlier.arrival, later.arrival)
        if reqs:
            check_finite_span(reqs[0].arrival, reqs[-1].arrival)
        self._requests: list[Request] = reqs
        self.name = name
        catalog: dict[str, int] = {}
        for r in reqs:
            prev = catalog.get(r.path)
            if prev is None or r.size > prev:
                catalog[r.path] = r.size
        self._catalog = catalog

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, idx: int) -> Request:
        return self._requests[idx]

    @property
    def requests(self) -> Sequence[Request]:
        """The underlying request list (read-only view by convention)."""
        return self._requests

    @property
    def catalog(self) -> Mapping[str, int]:
        """Mapping of every path in the trace to its size in bytes."""
        return self._catalog

    @property
    def total_bytes(self) -> int:
        """Sum of distinct file sizes (the website's resident data set)."""
        return sum(self._catalog.values())

    @property
    def duration(self) -> float:
        """Time span between first and last arrival (0 for empty traces)."""
        if not self._requests:
            return 0.0
        return self._requests[-1].arrival - self._requests[0].arrival

    @property
    def start(self) -> float:
        """First arrival time (0 for empty traces)."""
        return self._requests[0].arrival if self._requests else 0.0

    def connection_counts(self) -> Counter:
        """Requests per connection id."""
        return Counter(r.conn_id for r in self._requests)

    def connection_ids(self) -> list[int]:
        """Distinct connection ids, in first-appearance order."""
        seen: dict[int, None] = {}
        for r in self._requests:
            seen.setdefault(r.conn_id, None)
        return list(seen)

    def paths(self) -> list[str]:
        """Distinct paths, in first-appearance order."""
        return list(self._catalog)

    def head(self, n: int) -> "Trace":
        """A new trace containing only the first ``n`` requests."""
        return Trace(self._requests[:n], name=f"{self.name}[:{n}]")

    def scaled(self, factor: float) -> "Trace":
        """A new trace with inter-arrival gaps multiplied by ``factor``.

        ``factor < 1`` compresses the trace (higher offered load),
        ``factor > 1`` stretches it.  Connection/request structure is
        preserved.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        if not self._requests:
            return Trace([], name=self.name)
        t0 = self._requests[0].arrival
        scaled = [
            replace(r, arrival=t0 + (r.arrival - t0) * factor)
            for r in self._requests
        ]
        return Trace(scaled, name=f"{self.name}*{factor:g}")

    @staticmethod
    def merge(traces: Iterable["Trace"], name: str = "merged") -> "Trace":
        """Merge traces by arrival time (connection ids must not collide)."""
        all_reqs: list[Request] = []
        for t in traces:
            all_reqs.extend(t.requests)
        all_reqs.sort(key=lambda r: (r.arrival, r.conn_id))
        return Trace(all_reqs, name=name)
