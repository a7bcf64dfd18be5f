"""Spans around the public entry points of ``repro``, recorded from outside.

The program records no spans of its own, so the traced pass
replaces a few public functions and methods with wrappers that open a
span, call the original and close the span.  Everything stays in memory
until the pass ends; :func:`self_times` then splits the pass's wall time
into self time per layer ("where the time went").

Calls too frequent for one span each (``Policy.route``, one decoded
sidecar row, one parsed CLF line) are *charged*: their time and count
accumulate on the span that is open when they run, and :func:`self_times`
moves that time out of the span's own layer into theirs.

This module imports nothing from ``repro``, so the parent process of the
benchmark can use :func:`self_times` and :data:`LAYER_OF` without paying
for the program's import.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Span name -> layer it is charged to in the self-time table.
LAYER_OF = {
    "pass": "unattributed",
    "report": "report",
    "logs.site.build": "logs.site",
    "logs.synthetic.generate": "logs.synthetic",
    "logs.sessions.trace_from_records": "logs.sessions",
    "logs.store.load": "logs.store",
    "logs.replay.scan": "logs.replay",
    "mining.mine": "mining",
    "mining.sessionize": "mining",
    "mining.depgraph": "mining",
    "mining.bundles": "mining",
    "mining.categorize": "mining",
    "mining.popularity": "mining",
    "mining.fold": "mining",
    "mining.fold.finish": "mining",
    "mining.runtime": "mining",
    "sim.cluster.init": "sim",
    "sim.cluster.run": "sim",
    "policies.replication": "policies.replication",
}


class Tracer:
    """In-memory span recorder for one pass (single thread)."""

    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        #: ``[name, start, end, parent_index, inner]`` per span, where
        #: ``inner`` maps a layer to the seconds charged to it in the span.
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: Named counts recorded at layer boundaries.
        self.counts: defaultdict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def charge(self, layer: str, seconds: float) -> None:
        """Move ``seconds`` of the open span's time to ``layer``."""
        if self._stack:
            inner = self.spans[self._stack[-1]][4]
            inner[layer] = inner.get(layer, 0.0) + seconds

    def wrap(self, owner: Any, attr: str, name: str,
             after: Callable[[Any, tuple], None] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``after(result, args)`` runs once the call returned, to record
        counts at the same boundary.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapper)

    def timed_iter(self, iterator: Iterator[Any], layer: str,
                   count: str | None = None) -> Iterator[Any]:
        """Yield from ``iterator``, charging each ``next`` to ``layer``
        and counting the items under ``count``."""
        counts = self.counts
        while True:
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.charge(layer, perf_counter() - start)
                return
            self.charge(layer, perf_counter() - start)
            if count is not None:
                counts[count] += 1
            yield item

    def records(self) -> list[dict[str, Any]]:
        """Flat span records: name, start, end, parent span, pass id."""
        return [
            {"pass": self.pass_id, "id": i, "name": name, "start": start,
             "end": end, "parent": parent, "inner_s": inner}
            for i, (name, start, end, parent, inner) in enumerate(self.spans)
        ]


def self_times(records: list[dict[str, Any]]) -> dict[str, float]:
    """Self time per layer: each span's duration minus what its child
    spans cover and what was charged to other layers inside it."""
    children: defaultdict[int, float] = defaultdict(float)
    for rec in records:
        if rec["parent"] is not None:
            children[rec["parent"]] += rec["end"] - rec["start"]
    out: defaultdict[str, float] = defaultdict(float)
    for rec in records:
        inner = rec["inner_s"]
        own = (rec["end"] - rec["start"] - children[rec["id"]]
               - sum(inner.values()))
        out[LAYER_OF.get(rec["name"], rec["name"])] += own
        for layer, seconds in inner.items():
            out[layer] += seconds
    return dict(out)
