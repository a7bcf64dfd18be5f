"""Locality-Aware Request Distribution — Pai et al. (ASPLOS'98).

Two variants:

* :class:`LARDPolicy` — the original single-target LARD.  Every request
  is analysed and dispatched (one dispatcher contact per request); each
  target path has one assigned backend, rebalanced when it saturates.
  Connection semantics are HTTP/1.0-style (the setting LARD was designed
  for): every request pays connection setup and a handoff — precisely
  the per-request overhead the paper's §2.1 discussion turns on.
* :class:`LARDReplicationPolicy` — LARD/R: a target may be served by a
  *set* of backends; the set grows when all members are loaded and
  shrinks when it has been stable for a while.
"""

from __future__ import annotations

from ..logs.records import Request
from .base import Policy, RoutingDecision

__all__ = ["LARDPolicy", "LARDReplicationPolicy"]


class LARDPolicy(Policy):
    """Classic single-target LARD.

    Routing per Pai et al.: first request for a target goes to the
    least-loaded backend and binds the target there.  A later request
    moves the target when the bound backend is badly loaded — load above
    ``2*T_high``, or above ``T_high`` while some backend sits below
    ``T_low`` — otherwise locality wins.
    """

    name = "lard"
    persistent_connections = False

    def __init__(self) -> None:
        super().__init__()
        self._assignment: dict[str, int] = {}

    def route(self, request: Request) -> RoutingDecision:
        path = request.path
        target = self._assignment.get(path)
        if target is None or self.overloaded(target):
            target = self.least_loaded()
            self._assignment[path] = target
        return self._dispatch_decisions[target]

    @property
    def assignments(self) -> int:
        """Number of targets currently bound (for tests/reports)."""
        return len(self._assignment)


class LARDReplicationPolicy(Policy):
    """LARD with replication (LARD/R).

    Each target maps to a server set.  A request goes to the
    least-loaded member; when even that member is above ``T_high`` and
    a below-``T_low`` backend exists (or load exceeds ``2*T_high``), the
    least-loaded non-member joins the set.  Sets that have not grown for
    ``shrink_after_s`` seconds drop their most-loaded member, bounding
    replica sprawl.
    """

    name = "lard-r"
    persistent_connections = False

    def __init__(self, *, shrink_after_s: float = 20.0) -> None:
        super().__init__()
        if shrink_after_s <= 0:
            raise ValueError("shrink_after_s must be positive")
        self.shrink_after_s = shrink_after_s
        self._server_sets: dict[str, set[int]] = {}
        self._last_grown: dict[str, float] = {}

    def route(self, request: Request) -> RoutingDecision:
        path = request.path
        now = self.cluster.now
        loads = self._loads
        members = self._server_sets.get(path)
        if members and self._downs[0]:
            # Drop crashed members.
            members &= {s.server_id for s in self.cluster.servers if s.up}
        if not members:
            target = self.least_loaded()
            self._server_sets[path] = {target}
            self._last_grown[path] = now
            return self._dispatch_decisions[target]

        # least_loaded is order-independent ((load, id) keys), so the
        # member set goes in as-is.
        target = self.least_loaded(members)
        load = loads[target]
        t_high = self._t_high
        overloaded = load > 2 * t_high or (
            load > t_high and min(loads) < self._t_low
        )
        n = len(loads)
        if overloaded and len(members) < n:
            joiner = self.least_loaded(
                [i for i in range(n) if i not in members]
            )
            members.add(joiner)
            self._last_grown[path] = now
            target = joiner
        elif (len(members) > 1
              and now - self._last_grown.get(path, now) > self.shrink_after_s):
            victim = max(members, key=lambda i: (loads[i], i))
            if victim != target:
                members.discard(victim)
            self._last_grown[path] = now
        return self._dispatch_decisions[target]

    def replica_count(self, path: str) -> int:
        return len(self._server_sets.get(path, ()))
