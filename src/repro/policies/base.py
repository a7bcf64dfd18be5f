"""Distribution-policy interface.

A policy answers one question per request: *which backend serves it*,
plus whether answering required contacting the dispatcher (the paper's
"dispatch", Fig. 6) and which proactive prefetches should be kicked off.
Connection-level cost accounting (setup latency, TCP handoffs) is the
cluster's job — it knows each connection's previous server — so policies
stay purely about placement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from ..core.config import SimulationParams
from ..logs.records import Request

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids a cycle)
    from ..sim.frontend import Dispatcher
    from ..sim.server import BackendServer

__all__ = ["PrefetchDirective", "RoutingDecision", "ClusterView", "Policy"]


@dataclass(frozen=True, slots=True)
class PrefetchDirective:
    """Ask ``server_id`` to pull ``path`` into memory proactively."""

    server_id: int
    path: str


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """The outcome of routing one request.

    Attributes
    ----------
    server_id:
        Backend chosen to serve the request.
    dispatched:
        True when the distributor contacted the dispatcher (counted for
        Fig. 6 and billed ``dispatch_us`` of front-end CPU).
    forwarded:
        Backend-forwarding mode (Ext-LARD variant): the request is
        served by ``server_id`` but relayed through the connection's
        bound backend over the interconnect, so the cluster bills a
        relay transmission instead of a TCP handoff.
    prefetches:
        Proactive reads to start right away.
    """

    server_id: int
    dispatched: bool = False
    forwarded: bool = False
    prefetches: tuple[PrefetchDirective, ...] = ()


class ClusterView(Protocol):
    """What a policy may observe of the cluster (read-only).

    ``loads`` is the flat per-server in-flight demand count (LARD's
    balancing metric, ``loads[i] == servers[i].active``); ``down_count``
    is a one-element list holding the number of crashed servers.  Both
    are live views: policies keep the references from :meth:`Policy.bind`
    and read them on every request.
    """

    @property
    def servers(self) -> Sequence["BackendServer"]: ...

    @property
    def loads(self) -> Sequence[int]: ...

    @property
    def down_count(self) -> Sequence[int]: ...

    @property
    def dispatcher(self) -> "Dispatcher": ...

    @property
    def params(self) -> SimulationParams: ...

    @property
    def catalog(self) -> Mapping[str, int]: ...

    @property
    def now(self) -> float: ...


class _Unbound:
    """Stand-in for the bind-time views until :meth:`Policy.bind`:
    indexing it raises the unbound-policy error."""

    __slots__ = ("_policy",)

    def __init__(self, policy: "Policy") -> None:
        self._policy = policy

    def __getitem__(self, key: int):
        raise RuntimeError(
            f"policy {self._policy.name!r} is not bound to a cluster")


class Policy(ABC):
    """Base class for request-distribution policies.

    Subclasses set :attr:`name` and implement :meth:`route`.
    ``persistent_connections`` declares the connection semantics: when
    False (HTTP/1.0-style), the cluster bills a connection setup and a
    TCP handoff for *every* request; when True, setup is billed once per
    connection and a handoff only when the serving backend changes.
    """

    name: str = "policy"
    persistent_connections: bool = True

    def __init__(self) -> None:
        self._cluster: ClusterView | None = None
        unbound = _Unbound(self)
        # Bind-time views of the cluster (see bind()).
        self._loads: Sequence[int] = unbound
        self._downs: Sequence[int] = unbound
        self._t_low = 0
        self._t_high = 0
        self._plain_decisions: Sequence[RoutingDecision] = unbound
        self._dispatch_decisions: Sequence[RoutingDecision] = unbound

    def bind(self, cluster: ClusterView) -> None:
        """Attach to a cluster before the run starts.

        Keeps the cluster's live ``loads`` and ``down_count`` views, so
        the per-request helpers never touch a server object while every
        backend is up.  The per-server RoutingDecision tuples are built
        here: decisions are frozen, so one instance per (server, flags)
        combination serves every request and routing allocates nothing
        in the common no-prefetch case.
        """
        self._cluster = cluster
        self._loads = cluster.loads
        self._downs = cluster.down_count
        self._t_low = cluster.params.lard_t_low
        self._t_high = cluster.params.lard_t_high
        n = len(cluster.servers)
        self._plain_decisions = tuple(
            RoutingDecision(server_id=i) for i in range(n))
        self._dispatch_decisions = tuple(
            RoutingDecision(server_id=i, dispatched=True) for i in range(n))

    @property
    def cluster(self) -> ClusterView:
        if self._cluster is None:
            raise RuntimeError(f"policy {self.name!r} is not bound to a cluster")
        return self._cluster

    @abstractmethod
    def route(self, request: Request) -> RoutingDecision:
        """Pick the backend for ``request``."""

    def on_complete(self, request: Request, server_id: int, hit: bool) -> None:
        """Called when a request finishes (optional hook)."""

    def on_connection_close(self, conn_id: int) -> None:
        """Called after the last request of a connection completes."""

    # -- shared helpers ----------------------------------------------------

    def least_loaded(self, candidates: Sequence[int] | None = None) -> int:
        """Lowest-load *available* server id (ties to the lowest id).

        Crashed backends are excluded; if every candidate is down the
        least-loaded candidate is returned anyway (the request will
        queue until recovery rather than be dropped).

        The result depends only on the ``(load, id)`` keys, never on
        candidate order, so callers may pass sets directly.
        """
        loads = self._loads
        if self._downs[0]:
            servers = self.cluster.servers
            pool = range(len(loads)) if candidates is None else candidates
            alive = [i for i in pool if servers[i].up]
            if alive:
                candidates = alive
        if candidates is None:
            return loads.index(min(loads))
        best = -1
        best_load = 0
        for i in candidates:
            load = loads[i]
            if best < 0 or load < best_load or (
                    load == best_load and i < best):
                best = i
                best_load = load
        if best < 0:
            raise ValueError("no candidate servers")
        return best

    def overloaded(self, server_id: int) -> bool:
        """LARD's imbalance test (Pai et al.), with one refinement: a
        move must have a materially less-loaded destination, otherwise
        re-homing a target during cluster-wide overload only duplicates
        its disk work.  A crashed backend always reads as overloaded.
        """
        if self._downs[0] and not self.cluster.servers[server_id].up:
            return True
        loads = self._loads
        load = loads[server_id]
        t_high = self._t_high
        if load <= t_high:
            # Below T_high neither trigger can fire — skip the
            # cluster-wide min scan (the common, balanced case).
            return False
        min_load = min(loads)
        if load > 2 * t_high and min_load < load // 2:
            return True
        return min_load < self._t_low
