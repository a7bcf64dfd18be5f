"""Backend server model: CPU and disk stations plus the file cache.

A request flows CPU (protocol processing) → cache → (disk on miss) →
CPU (data transfer at 80 µs/KB — the Table-1 "data transmission rate",
which, as in Pai et al.'s LARD model, is CPU time spent moving the
response).  Prefetches ride the disk at low priority so readahead never
delays demand reads, and replicas arrive via
:meth:`BackendServer.receive_replica`.  The server's ``active`` count —
in-flight demand requests — is the balancing metric LARD-family
policies compare against their T_low/T_high thresholds.

Each in-flight request is one integer *slot* into the shared
struct-of-arrays :class:`~repro.sim.soa.FlowTable`; the stage
transitions are long-lived bound methods that receive the slot through
the calendar's ``arg`` channel.  This replaces the per-request
``_DemandJob`` records of the previous design (which themselves
replaced six nested closures): same event order, zero steady-state
allocation on the demand path.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..core.config import SimulationParams
from .engine import PRIORITY_PREFETCH, Resource, Simulator
from .soa import FlowTable

__all__ = ["BackendServer"]


class _PrefetchRead:
    """One low-priority readahead in flight (slotted record)."""

    __slots__ = ("server", "path", "size")

    def __init__(self, server: "BackendServer", path: str, size: int) -> None:
        self.server = server
        self.path = path
        self.size = size

    def after_disk(self) -> None:
        server = self.server
        path = self.path
        server._prefetch_inflight.pop(path, None)
        server.cache.insert(path, self.size)
        waiters = server._prefetch_waiters.pop(path, None)
        if waiters:
            # Demand requests piggybacked on this read: the prefetch
            # did useful work even before a later cache hit.
            server.prefetch_useful += 1
            server._guard_useful += 1
            for slot in waiters:
                server._flow_transmit_miss(slot)
        elif server.cache.peek(path):
            server._prefetched_resident.add(path)


class BackendServer:
    """One backend node of the simulated cluster.

    Parameters
    ----------
    sim:
        The shared event engine.
    server_id:
        Cluster-unique index.
    params:
        Cost model.
    on_cache_insert / on_cache_evict:
        Callbacks ``fn(server_id, path)`` wired to the dispatcher's
        locality table.
    flows:
        Shared per-request state table.  The cluster passes its table so
        request slots flow front end → backend without copying; a
        standalone server builds a private one.
    down_counter:
        Shared one-element list counting crashed servers — the cluster's
        cheap "is anything down?" signal, read by every policy.
    loads:
        Shared per-server in-flight demand counts; this server counts
        its own in ``loads[server_id]``, so the cluster's list is the
        one copy policies read.  A standalone server builds a private
        list.
    """

    def __init__(
        self,
        sim: Simulator,
        server_id: int,
        params: SimulationParams,
        *,
        on_cache_insert: Callable[[int, str], None] | None = None,
        on_cache_evict: Callable[[int, str], None] | None = None,
        future_weights: dict[str, float] | None = None,
        flows: FlowTable | None = None,
        down_counter: list[int] | None = None,
        loads: list[int] | None = None,
    ) -> None:
        self.sim = sim
        self.server_id = server_id
        self.params = params
        self.cpu = Resource(sim, f"cpu{server_id}")
        self.disk = Resource(sim, f"disk{server_id}")
        self._on_insert = on_cache_insert
        self._on_evict = on_cache_evict
        from .gdsf import make_cache  # local import avoids a cycle
        self.cache = make_cache(
            params.cache_policy,
            params.server_cache_bytes,
            future_weights=future_weights,
            on_insert=self._cache_inserted,
            on_evict=self._cache_evicted,
        )
        self.flows = flows if flows is not None else FlowTable()
        self._downs = down_counter if down_counter is not None else [0]
        self._loads = loads if loads is not None else [0] * (server_id + 1)
        self.completed = 0
        #: dynamic (generated-content) requests served
        self.dynamic_served = 0
        #: requests currently holding a worker slot
        self._workers_busy = 0
        #: admission queue of deferred request slots (FCFS)
        self._admission: deque[int] = deque()
        #: paths currently resident because a prefetch brought them in
        self._prefetched_resident: set[str] = set()
        #: prefetch reads already on the disk queue (path -> job handle)
        self._prefetch_inflight: dict[str, object] = {}
        #: demand slots coalesced onto in-flight prefetch reads
        self._prefetch_waiters: dict[str, list[int]] = {}
        #: demand slots coalesced onto in-flight demand reads
        self._demand_inflight: dict[str, list[int]] = {}
        self.prefetches_issued = 0
        self.prefetch_useful = 0
        #: prefetched files evicted before any demand hit
        self.prefetch_wasted = 0
        # Sliding counters for the adaptive waste guard (decayed copies
        # of useful/wasted so the reported totals stay exact).
        self._guard_useful = 0
        self._guard_wasted = 0
        #: optional hook returning extra start latency (power wake-up)
        self.start_latency_hook: Callable[["BackendServer"], float] | None = None
        self.on_idle: Callable[["BackendServer"], None] | None = None
        #: False while the node is crashed (failure injection)
        self.up = True
        # Hoisted cost-model constants and pre-bound stage callbacks:
        # one bound method per stage for the whole run, carried with the
        # slot index through the calendar's ``arg`` channel.
        self._max_workers = params.backend_workers
        self._cpu_s = params.backend_cpu_s
        self._dyn_cpu_s = params.dynamic_cpu_s
        self._start_cb = self._flow_start
        self._after_cpu_cb = self._flow_after_cpu
        self._after_disk_cb = self._flow_after_disk
        self._transmit_miss_cb = self._flow_transmit_miss
        self._finish_cb = self._flow_finish

    def _cache_inserted(self, path: str) -> None:
        if self._on_insert:
            self._on_insert(self.server_id, path)

    def _cache_evicted(self, path: str) -> None:
        if path in self._prefetched_resident:
            self._prefetched_resident.discard(path)
            self.prefetch_wasted += 1
            self._guard_wasted += 1
        if self._on_evict:
            self._on_evict(self.server_id, path)

    # -- demand path ------------------------------------------------------------

    def handle(
        self,
        path: str,
        size: int,
        done: Callable[[int, bool], None],
        *,
        dynamic: bool = False,
    ) -> None:
        """Serve a demand request; ``done(server_id, hit)`` on completion.

        ``dynamic`` requests are generated per call: they bypass the
        cache entirely and spend ``dynamic_cpu_ms`` of CPU instead of
        touching the disk (dynamic-content extension).
        """
        f = self.flows
        slot = f.alloc()
        f.path[slot] = path
        f.size[slot] = size
        f.dynamic[slot] = dynamic
        f.hit[slot] = False
        f.tx_s[slot] = self.params.transmit_s(size)
        f.disk_s[slot] = self.params.disk_service_s(size)
        f.finish[slot] = self._generic_done
        f.user_done[slot] = done
        self.start_flow(slot)

    def _generic_done(self, slot: int, server_id: int, hit: bool) -> None:
        f = self.flows
        done = f.user_done[slot]
        f.release(slot)
        done(server_id, hit)  # type: ignore[misc]

    def start_flow(self, slot: int) -> None:
        """Begin serving a populated flow slot (cluster fast path).

        The slot's service fields (``path``/``size``/``dynamic``/
        ``hit``/``tx_s``/``disk_s``/``finish``) must be set; ``hit``
        must start False.
        """
        f = self.flows
        if f.size[slot] <= 0:
            raise ValueError("size must be positive")
        self._loads[self.server_id] += 1
        self.dynamic_served += f.dynamic[slot]
        if self.start_latency_hook is not None:
            extra = self.start_latency_hook(self)
            if extra > 0:
                self.sim.schedule(extra, self._start_cb, slot)
                return
        self._flow_start(slot)

    def _flow_start(self, slot: int) -> None:
        # Admission: a request needs a worker slot for its whole
        # lifetime (including any disk wait).  When all slots are
        # busy, it queues FCFS — this couples miss latency into hit
        # latency exactly as a bounded worker pool does.
        if self._workers_busy < self._max_workers:
            self._workers_busy += 1
            self.cpu.submit(self._cpu_s, self._after_cpu_cb, arg=slot)
        else:
            self._admission.append(slot)

    def _flow_after_cpu(self, slot: int) -> None:
        f = self.flows
        path = f.path[slot]
        if f.dynamic[slot]:
            # Generated content: no cache, no disk — generation CPU,
            # then the ordinary (miss) transmit stage.
            self.cpu.submit(self._dyn_cpu_s, self._transmit_miss_cb, arg=slot)
            return
        if self.cache.access(path):
            if path in self._prefetched_resident:
                # Count each prefetched file's first demand hit once.
                self._prefetched_resident.discard(path)
                self.prefetch_useful += 1
                self._guard_useful += 1
            # Response transfer costs CPU time (80 us/KB, Table 1).
            f.hit[slot] = True
            self.cpu.submit(f.tx_s[slot], self._finish_cb, arg=slot)
        elif path in self._prefetch_inflight:
            # A prefetch read for this file is already on the disk
            # queue: coalesce instead of issuing a duplicate read,
            # and promote the read to demand priority.
            self.disk.promote(self._prefetch_inflight[path])
            self._prefetch_waiters.setdefault(path, []).append(slot)
        elif path in self._demand_inflight:
            # Another demand read for the same file is in flight.
            self._demand_inflight[path].append(slot)
        else:
            self._demand_inflight[path] = []
            self.disk.submit(f.disk_s[slot], self._after_disk_cb, arg=slot)

    def _flow_after_disk(self, slot: int) -> None:
        f = self.flows
        path = f.path[slot]
        self.cache.insert(path, f.size[slot])
        waiters = self._demand_inflight.pop(path, ())
        self.cpu.submit(f.tx_s[slot], self._finish_cb, arg=slot)
        for w in waiters:
            self._flow_transmit_miss(w)

    def _flow_transmit_miss(self, slot: int) -> None:
        """Miss-transmit continuation (waiter resume / dynamic path)."""
        self.cpu.submit(self.flows.tx_s[slot], self._finish_cb, arg=slot)

    def _flow_finish(self, slot: int) -> None:
        loads = self._loads
        sid = self.server_id
        loads[sid] -= 1
        self.completed += 1
        if self._admission:
            # The freed worker slot passes straight to the queue head.
            head = self._admission.popleft()
            self.cpu.submit(self._cpu_s, self._after_cpu_cb, arg=head)
        else:
            self._workers_busy -= 1
        f = self.flows
        f.finish[slot](slot, sid, f.hit[slot])  # type: ignore[misc]
        if loads[sid] == 0 and self.on_idle is not None:
            self.on_idle(self)

    # -- proactive paths ----------------------------------------------------------

    #: Skip new prefetches when this many disk jobs are already queued —
    #: under disk pressure, readahead only steals bandwidth from demand.
    PREFETCH_DISK_BACKLOG_LIMIT = 16

    def prefetch(self, path: str, size: int) -> bool:
        """Read a file into memory at low priority; True if scheduled."""
        if size <= 0:
            raise ValueError("size must be positive")
        if not self.up:
            return False
        if self.cache.peek(path) or path in self._prefetch_inflight:
            return False
        if self.disk.queue_length >= self.PREFETCH_DISK_BACKLOG_LIMIT:
            return False
        if (self._guard_wasted > 20
                and self._guard_wasted > 3 * self._guard_useful):
            # Adaptive waste guard: when the cache is too small to hold
            # prefetched data until it is used, readahead only churns it.
            # Exponential forgetting lets the guard re-open if the
            # workload shifts.
            self._guard_useful //= 2
            self._guard_wasted //= 2
            return False
        self.prefetches_issued += 1
        read = _PrefetchRead(self, path, size)
        job = self.disk.submit(self.params.disk_service_s(size),
                               read.after_disk,
                               priority=PRIORITY_PREFETCH)
        self._prefetch_inflight[path] = job
        return True

    # -- failure injection ---------------------------------------------------

    def fail(self) -> None:
        """Crash the node: it stops being a routing candidate and its
        memory contents are lost (the dispatcher learns through the
        eviction notifications).  In-flight work drains — the model is a
        graceful failover, not lost connections."""
        if self.up:
            self._downs[0] += 1
        self.up = False
        for path in list(self.cache.contents()):
            self.cache.evict(path)

    def recover(self) -> None:
        """Bring the node back, cold: empty cache, zero load."""
        if not self.up:
            self._downs[0] -= 1
        self.up = True

    def receive_replica(self, path: str, size: int, *, pin: bool = True) -> bool:
        """Install a replicated file pushed over the interconnect.

        The transfer delay is the caller's responsibility (the
        replication engine schedules this call after the migration
        time); installation itself is immediate.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if not self.up:
            return False
        self.cache.insert(path, size, pinned=pin)
        return self.cache.peek(path)

    # -- views -------------------------------------------------------------------

    @property
    def active(self) -> int:
        """In-flight demand requests (admission queue + workers)."""
        return self._loads[self.server_id]

    @property
    def is_idle(self) -> bool:
        return (self.active == 0 and not self.cpu.busy
                and not self.disk.busy)

    def utilization(self, elapsed: float) -> dict[str, float]:
        return {
            "cpu": self.cpu.utilization(elapsed),
            "disk": self.disk.utilization(elapsed),
        }
