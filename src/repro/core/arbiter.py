"""Arbiters for the arbitrated memory organization.

Section 3.1: access to the wrapper's guarded ports is arbitrated because
"there can be more than one thread as a client on these ports"; the paper's
experiments use "a simple round robin arbitration scheme".  Between port
classes, priority is fixed: "the write port (port D) gets highest priority,
the read port (port C) gets second priority, and the remaining standard
port has lowest priority".
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RoundRobinArbiter:
    """Work-conserving round-robin arbiter over a fixed client list.

    The grant pointer advances past the last winner, so every requester is
    served within ``len(clients)`` grants (starvation-free) — but the *wait*
    any individual client experiences depends on who else is requesting,
    which is exactly the non-determinism the paper attributes to the
    arbitrated organization.
    """

    clients: list[str]
    _pointer: int = 0
    grant_history: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("arbiter needs at least one client")
        if len(set(self.clients)) != len(self.clients):
            raise ValueError("arbiter clients must be unique")

    def grant(self, requesting: set[str]) -> str | None:
        """Pick the next requester in round-robin order, or None."""
        unknown = requesting - set(self.clients)
        if unknown:
            raise KeyError(f"unknown arbiter clients: {sorted(unknown)}")
        n = len(self.clients)
        for i in range(n):
            idx = (self._pointer + i) % n
            client = self.clients[idx]
            if client in requesting:
                self._pointer = (idx + 1) % n
                self.grant_history.append(client)
                return client
        return None

    @property
    def width(self) -> int:
        """Number of request lines (sizing input for the area model)."""
        return len(self.clients)


@dataclass
class PriorityArbiter:
    """Fixed-priority selection among port classes (D > C > B)."""

    priority_order: tuple[str, ...] = ("D", "C", "B")

    def select(self, requesting_ports: set[str]) -> str | None:
        """The highest-priority port class with a pending request."""
        for port in self.priority_order:
            if port in requesting_ports:
                return port
        return None
