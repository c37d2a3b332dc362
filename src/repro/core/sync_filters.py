"""MRNet's built-in synchronization filters.

"MRNet uses synchronization filters to enforce the simultaneous delivery
of packets regardless of the time they actually arrive at a communication
process":

* :class:`WaitForAll` — "delivers packets in groups based on packet
  receipt from all downstream children";
* :class:`TimeOut` — "delivers packets received within a specified
  window";
* :class:`NullSync` — "delivers packets immediately upon receipt".

All three are registered in the filter registry under their MRNet names
(``wait_for_all``, ``time_out``, ``null``).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .errors import FilterError
from .filters import FilterContext, SynchronizationFilter
from .packet import Packet

__all__ = ["WaitForAll", "TimeOut", "NullSync"]


class WaitForAll(SynchronizationFilter):
    """Release a batch only when every on-stream child has contributed.

    Packets are aligned into *waves*: the i-th packets from each child
    form the i-th batch.  Per-child FIFO queues preserve channel order;
    a wave is released the moment the last missing child's packet for
    that wave arrives.  A push costs O(1): the filter counts its
    non-empty queues instead of scanning them, and keeps the children
    sorted (batch order) instead of sorting per wave.
    """

    name = "wait_for_all"

    def __init__(self, **params: Any):
        super().__init__(**params)
        self._queues: dict[int, deque[Packet]] = {}
        self._order: list[int] = []  # sorted(self._queues)
        self._nonempty = 0  # queues holding at least one packet

    def push(self, packet: Packet, child: int, ctx: FilterContext) -> list[list[Packet]]:
        q = self._queues.get(child)
        if q is None:
            q = self._queues[child] = deque()
            self._order = sorted(self._queues)
        if not q:
            self._nonempty += 1
        q.append(packet)
        if self._nonempty < len(self._queues) or len(self._queues) < ctx.n_children:
            return []
        return self._release_waves()

    def _release_waves(self) -> list[list[Packet]]:
        """Pop complete waves while every known child has a packet queued.

        The caller has checked that the known children cover the node's
        ``n_children``.
        """
        queues = self._queues
        order = self._order
        batches: list[list[Packet]] = []
        while self._nonempty == len(queues):
            batch: list[Packet] = []
            for c in order:
                q = queues[c]
                batch.append(q.popleft())
                if not q:
                    self._nonempty -= 1
            batches.append(batch)
        return batches

    def _reindex(self) -> None:
        self._order = sorted(self._queues)
        self._nonempty = sum(1 for q in self._queues.values() if q)

    def flush(self, ctx: FilterContext) -> list[list[Packet]]:
        """Release leftover partial waves (e.g. at stream close)."""
        batches: list[list[Packet]] = []
        queues = self._queues
        while any(queues.values()):
            batches.append([queues[c].popleft() for c in self._order if queues[c]])
        self._reindex()
        return batches

    def recheck(self, ctx: FilterContext, covering: tuple[int, ...]) -> list[list[Packet]]:
        """Re-evaluate wave completeness after a topology change.

        Recovery shrinks a node's covering-child set when a subtree is
        lost or re-parented; waves that were blocked waiting on a
        now-gone child must release with the survivors' packets.
        """
        alive = set(covering)
        for child in list(self._queues):
            if child not in alive:
                del self._queues[child]
        self._reindex()
        if not self._queues or len(self._queues) < ctx.n_children:
            return []
        return self._release_waves()

    def pending_count(self) -> int:
        return sum(len(q) for q in self._queues.values())


class TimeOut(SynchronizationFilter):
    """Release whatever arrived within a time window.

    The window opens when the first packet of a batch arrives and closes
    ``window`` seconds later (real seconds under the thread/TCP
    transports, virtual seconds under the simulator).  A batch is also
    released early if every child has contributed — waiting longer could
    only delay delivery.
    """

    name = "time_out"
    timed = True

    def __init__(self, *, window: float = 0.1, **params: Any):
        super().__init__(window=window, **params)
        if window <= 0:
            raise FilterError(f"time_out window must be positive, got {window}")
        self.window = float(window)
        self._held: list[Packet] = []
        self._children_seen: set[int] = set()
        self._deadline: float | None = None

    def push(self, packet: Packet, child: int, ctx: FilterContext) -> list[list[Packet]]:
        if not self._held:
            self._deadline = ctx.now() + self.window
        self._held.append(packet)
        self._children_seen.add(child)
        if len(self._children_seen) >= ctx.n_children:
            return self._release()
        return []

    def _release(self) -> list[list[Packet]]:
        if not self._held:
            return []
        batch = self._held
        self._held = []
        self._children_seen = set()
        self._deadline = None
        return [batch]

    def next_deadline(self) -> float | None:
        return self._deadline

    def on_timer(self, now: float, ctx: FilterContext) -> list[list[Packet]]:
        if self._deadline is not None and now >= self._deadline:
            return self._release()
        return []

    def flush(self, ctx: FilterContext) -> list[list[Packet]]:
        return self._release()

    def pending_count(self) -> int:
        return len(self._held)


class NullSync(SynchronizationFilter):
    """Deliver each packet immediately as a singleton batch."""

    name = "null"

    def push(self, packet: Packet, child: int, ctx: FilterContext) -> list[list[Packet]]:
        return [[packet]]
