"""Weighted Round Robin (WRR) distribution.

The paper's load-balancing baseline: "a simple and efficient scheme for
providing excellent load balancing ... However, it does not affect the
performance of the system" — no locality, no dispatcher.  Connections
are assigned in weighted round-robin order and stay put (HTTP/1.1
affinity); all requests of a connection follow it.
"""

from __future__ import annotations

from typing import Sequence

from ..logs.records import Request
from .base import Policy, RoutingDecision

__all__ = ["WRRPolicy"]


class WRRPolicy(Policy):
    """Weighted round robin over backends.

    Parameters
    ----------
    weights:
        Relative server weights; defaults to equal.  A weight of ``w``
        gives a server ``w`` consecutive slots per round (classic WRR).
    """

    name = "wrr"
    persistent_connections = True

    def __init__(self, weights: Sequence[int] | None = None) -> None:
        super().__init__()
        if weights is not None:
            if not weights or any(w < 1 for w in weights):
                raise ValueError("weights must be positive integers")
            self._weights = tuple(int(w) for w in weights)
        else:
            self._weights = None
        self._schedule: list[int] = []
        self._cursor = 0
        self._conn_server: dict[int, int] = {}

    def bind(self, cluster) -> None:
        super().bind(cluster)
        n = len(cluster.servers)
        weights = self._weights or tuple([1] * n)
        if len(weights) != n:
            raise ValueError(
                f"{len(weights)} weights for {n} servers"
            )
        self._schedule = [
            sid for sid, w in enumerate(weights) for _ in range(w)
        ]
        self._cursor = 0

    def _next_slot(self) -> int:
        schedule = self._schedule
        any_down = self._downs[0]
        for _ in range(len(schedule)):
            server = schedule[self._cursor]
            self._cursor = (self._cursor + 1) % len(schedule)
            if not any_down or self.cluster.servers[server].up:
                return server
        return server  # every backend down: queue on the last pick

    def route(self, request: Request) -> RoutingDecision:
        server = self._conn_server.get(request.conn_id)
        if server is None or (self._downs[0]
                              and not self.cluster.servers[server].up):
            # New connection, or its backend crashed: (re)assign.
            server = self._next_slot()
            self._conn_server[request.conn_id] = server
        return self._plain_decisions[server]

    def on_connection_close(self, conn_id: int) -> None:
        self._conn_server.pop(conn_id, None)
