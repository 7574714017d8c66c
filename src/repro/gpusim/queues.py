"""Two-level lock-free task-queue model (paper §5 *Lock-free task queue*).

The real GMBE keeps one task queue per thread block in shared memory and
a global queue in device memory, managed lock-free with ``atomicCAS``.
The simulator reproduces the *behavioral* contract — SM-local FIFO
preferred, spill to the global queue when the local one is full, idle
warps steal from the global queue — and the *cost* contract: local
operations are cheaper than global ones, and every operation is charged
to the warp performing it.

Items are ``(avail_time, seq, payload)``; an item only becomes visible
to consumers at its ``avail_time`` (when the producing warp finished
creating it).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

__all__ = ["QueueStats", "TwoLevelTaskQueue"]


@dataclass
class QueueStats:
    """Operation counts, for the queue-overhead part of the cost model.

    ``requeues`` counts recovery re-enqueues (failed-task retries,
    crash-drained migrations, checkpoint restores) *separately* from
    fresh pushes: folding them into ``local/global_enqueues`` would
    inflate the Fig.-9-style load-balance statistics, which model only
    first-time task traffic.
    """

    local_enqueues: int = 0
    local_dequeues: int = 0
    global_enqueues: int = 0
    global_dequeues: int = 0
    spills: int = 0
    requeues: int = 0

    @property
    def total_ops(self) -> int:
        return (
            self.local_enqueues
            + self.local_dequeues
            + self.global_enqueues
            + self.global_dequeues
        )


class TwoLevelTaskQueue:
    """Per-SM local queues plus one global queue, time-aware.

    ``local_capacity`` bounds each SM queue (shared memory is small);
    inserts beyond capacity spill to the global queue, which is
    unbounded (device memory).
    """

    def __init__(self, n_sms: int, *, local_capacity: int = 64) -> None:
        if local_capacity < 0:
            raise ValueError("local_capacity must be non-negative")
        self._local: list[list[tuple[float, int, Any]]] = [[] for _ in range(n_sms)]
        self._global: list[tuple[float, int, Any]] = []
        #: items across every local queue, so an idle warp finds all of
        #: them empty without scanning them
        self._n_local = 0
        self._capacity = local_capacity
        self._seq = 0
        self.stats = QueueStats()

    def __len__(self) -> int:
        return self._n_local + len(self._global)

    # ------------------------------------------------------------------
    def push(self, sm: int, avail_time: float, payload: Any) -> str:
        """Enqueue from a warp on ``sm``; returns ``"local"`` or
        ``"global"`` (the level that accepted the task)."""
        self._seq += 1
        item = (avail_time, self._seq, payload)
        local = self._local[sm]
        if len(local) < self._capacity:
            heapq.heappush(local, item)
            self._n_local += 1
            self.stats.local_enqueues += 1
            return "local"
        heapq.heappush(self._global, item)
        self.stats.global_enqueues += 1
        self.stats.spills += 1
        return "global"

    def requeue(self, avail_time: float, payload: Any) -> None:
        """Recovery re-enqueue onto the global queue.

        Used when a task must move off a failed unit/SM (or is restored
        from a checkpoint): any surviving SM can steal from the global
        queue.  Counted under ``stats.requeues`` only, never as a fresh
        push (see :class:`QueueStats`).
        """
        self._seq += 1
        heapq.heappush(self._global, (avail_time, self._seq, payload))
        self.stats.requeues += 1

    def drain_sm(self, sm: int) -> list[Any]:
        """Remove and return every payload in one SM's local queue.

        Called when that SM crashes: its shared-memory queue contents
        are gone from the device's perspective, and the driver's lineage
        registry re-homes them via :meth:`requeue`.
        """
        drained = [payload for _, _, payload in self._local[sm]]
        self._local[sm].clear()
        self._n_local -= len(drained)
        return drained

    def drain_all(self) -> list[Any]:
        """Remove and return every queued payload (local + global).

        The end-of-run recovery sweep uses this to migrate stranded
        tasks from a device whose consumers have all retired.
        """
        out: list[Any] = []
        for q in self._local:
            out.extend(payload for _, _, payload in q)
            q.clear()
        self._n_local = 0
        out.extend(payload for _, _, payload in self._global)
        self._global.clear()
        return out

    def peek_all(self):
        """Yield every queued payload (locals then global) *without*
        removing anything and without charging queue operations.

        This is the batched-execution lookahead (DESIGN.md §10): the
        kernel inspects compatible sibling tasks to precompute their
        outcomes, but the tasks stay queued and are still popped —
        and charged — at their own dequeue events, so the simulated
        schedule is untouched.
        """
        for q in self._local:
            for _, _, payload in q:
                yield payload
        for _, _, payload in self._global:
            yield payload

    def pop_ready(self, sm: int, now: float) -> tuple[Any, str] | None:
        """Dequeue a task already available at ``now``; local first."""
        local = self._local[sm]
        if local and local[0][0] <= now:
            _, _, payload = heapq.heappop(local)
            self._n_local -= 1
            self.stats.local_dequeues += 1
            return payload, "local"
        if self._global and self._global[0][0] <= now:
            _, _, payload = heapq.heappop(self._global)
            self.stats.global_dequeues += 1
            return payload, "global"
        return None

    def pop_earliest(self, sm: int) -> tuple[Any, float, str] | None:
        """Dequeue the earliest-available task regardless of time.

        Used when a warp has nothing else to do and must wait; returns
        ``(payload, avail_time, level)``.
        """
        local = self._local[sm]
        best: str | None = None
        if local and (not self._global or local[0][0] <= self._global[0][0]):
            best = "local"
        elif self._global:
            best = "global"
        if best is None:
            if not self._n_local:
                return None
            # Steal from a sibling SM's local queue as a last resort (the
            # proxy warp migrating tasks through the global queue).
            _, owner = min(
                (q[0][0], i) for i, q in enumerate(self._local) if q
            )
            avail, _, payload = heapq.heappop(self._local[owner])
            self._n_local -= 1
            self.stats.global_dequeues += 1
            self.stats.spills += 1
            return payload, avail, "global"
        if best == "local":
            avail, _, payload = heapq.heappop(local)
            self._n_local -= 1
            self.stats.local_dequeues += 1
            return payload, avail, "local"
        avail, _, payload = heapq.heappop(self._global)
        self.stats.global_dequeues += 1
        return payload, avail, "global"
