"""LARD extended for persistent HTTP (Ext-LARD-PHTTP).

The paper's §2.1.1 surveys the two known ways to keep LARD's locality
under HTTP/1.1 (Aron et al., USENIX'99), both of which it uses as the
``Ext-LARD-PHTTP`` baseline:

* **multiple TCP handoffs** (``mode="handoff"``, default): LARD is
  applied to every request of a persistent connection; whenever the
  target backend differs from the connection's current backend, the
  connection is handed off (200 µs each time);
* **back-end forwarding** (``mode="forwarding"``): the connection is
  handed off once; requests whose content lives elsewhere are served by
  the remote backend and the response relayed over the interconnect.

Both "suffer from high overhead", which is what PRORD removes.
"""

from __future__ import annotations

from ..logs.records import Request
from .base import Policy, RoutingDecision

__all__ = ["ExtLARDPolicy"]


class ExtLARDPolicy(Policy):
    """LARD under persistent connections, per-request locality."""

    persistent_connections = True

    MODES = ("handoff", "forwarding")

    def __init__(self, mode: str = "handoff") -> None:
        super().__init__()
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.mode = mode
        self.name = (
            "ext-lard-phttp" if mode == "handoff" else "ext-lard-fwd"
        )
        self._assignment: dict[str, int] = {}
        self._conn_server: dict[int, int] = {}
        self._forward_decisions: tuple[RoutingDecision, ...] = ()

    def bind(self, cluster) -> None:
        super().bind(cluster)
        self._forward_decisions = tuple(
            RoutingDecision(server_id=i, dispatched=True, forwarded=True)
            for i in range(len(cluster.servers))
        )

    def _lard_target(self, path: str) -> int:
        # Aron et al.'s plain imbalance test — deliberately *without*
        # the min < load//2 refinement LARD/PRORD use here (see
        # Policy.overloaded): the baseline keeps its original behaviour.
        # A crashed target is re-homed like an overloaded one.
        target = self._assignment.get(path)
        if target is not None:
            loads = self._loads
            load = loads[target]
            t_high = self._t_high
            if (load > 2 * t_high
                    or (load > t_high and min(loads) < self._t_low)
                    or (self._downs[0]
                        and not self.cluster.servers[target].up)):
                target = None
        if target is None:
            target = self.least_loaded()
            self._assignment[path] = target
        return target

    def route(self, request: Request) -> RoutingDecision:
        target = self._lard_target(request.path)
        conn = request.conn_id
        bound = self._conn_server.get(conn)
        if bound is None or self.mode == "handoff":
            # First request, or handoff mode: the connection is handed
            # off to the target.
            if target != bound:
                self._conn_server[conn] = target
            return self._dispatch_decisions[target]
        # Forwarding mode: connection stays at `bound`; remote content is
        # served remotely and relayed.  A crashed bound backend forces a
        # rebind (the client reconnects through the switch).
        if self._downs[0] and not self.cluster.servers[bound].up:
            self._conn_server[conn] = target
            return self._dispatch_decisions[target]
        if target == bound:
            return self._dispatch_decisions[target]
        return self._forward_decisions[target]

    def on_connection_close(self, conn_id: int) -> None:
        self._conn_server.pop(conn_id, None)
