"""Persistent-thread scheduler simulation.

Implements the execution model of Alg. 4 as a discrete-event simulation:
a fixed set of *units* (warps, or whole blocks for the block-centric
variant) repeatedly acquire work — first from their device's two-level
task queue, then from the shared ``processing_v`` atomic counter — until
both sources are exhausted.  Executing a task may spawn child tasks
(the load-aware split), which become available to other units at the
simulated moment their creation finished.

The scheduler is policy-free about *what* a task is: the GMBE kernel
supplies two callbacks, one producing root tasks from the atomic
counter and one executing/splitting a task.  All durations are in
modeled warp-step cycles; devices convert to seconds afterwards.

Fault tolerance (DESIGN.md §9).  When a :class:`~repro.gpusim.faults.
FaultPlan` is attached, the scheduler consults it at its execute and
enqueue boundaries and recovers lost work through a **lineage
registry**: every payload carries a stable lineage id (extracted by the
``lineage_of`` callback), each registered task is tracked from enqueue
to completion, and a failed attempt re-enqueues the task on a surviving
SM via :meth:`TwoLevelTaskQueue.requeue`, bounded by
``max_task_retries`` failures per lineage.  Tasks whose enqueue was
silently dropped are re-homed by a recovery sweep when the machine
would otherwise go idle — the simulation analog of Alg. 4's re-enqueue
path driven by the host instead of the warp.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator

from .device import DeviceSpec
from .faults import FaultEvent, FaultLog
from .queues import TwoLevelTaskQueue
from .timeline import BusyRecorder

__all__ = [
    "ExecOutcome",
    "LineageEntry",
    "SimReport",
    "PersistentThreadScheduler",
]


@dataclass
class ExecOutcome:
    """What executing one task produced.

    ``children`` are ``(cycles_offset, payload)`` pairs: the child became
    enqueueable ``cycles_offset`` cycles after the task started (its
    generation pass finished then).
    """

    cycles: float
    children: list[tuple[float, Any]] = field(default_factory=list)


#: Lifecycle states of a lineage-registry entry.  There is no "running"
#: state: execution is synchronous within one heap event, so a task's
#: entry is popped at dequeue and re-inserted only on failure.
_QUEUED, _DROPPED, _LOST = "queued", "dropped", "lost"


@dataclass
class LineageEntry:
    """Registry record of one pending task (lineage-tracked mode)."""

    payload: Any
    retries: int = 0
    state: str = _QUEUED


@dataclass
class SimReport:
    """Aggregate outcome of a kernel simulation (cycle units)."""

    makespan_cycles: float
    per_device_cycles: list[float]
    recorders: list[BusyRecorder]
    queue_stats: list
    tasks_executed: int
    tasks_split: int
    #: injected-fault record (``None`` when no FaultPlan was attached)
    fault_log: FaultLog | None = None
    #: fault-driven re-enqueues (retries + crash displacements)
    tasks_requeued: int = 0
    #: lineages abandoned after exceeding ``max_task_retries``
    tasks_lost: int = 0
    #: True when the run stopped early (``halt_after_tasks``)
    halted: bool = False
    #: per-phase cycle attribution (``None`` unless ``collect_telemetry``)
    phase_cycles: dict | None = None
    #: ``(time, device_id, queue_depth)`` sampled at each task
    #: completion (empty unless ``collect_telemetry``)
    queue_depth_samples: list = field(default_factory=list)
    #: ``(time, device_id, n_children)`` per load-aware split (empty
    #: unless ``collect_telemetry``)
    split_events: list = field(default_factory=list)


class PersistentThreadScheduler:
    """Discrete-event persistent-thread execution across devices.

    Parameters
    ----------
    devices:
        One :class:`DeviceSpec` per simulated GPU (all identical for the
        paper's multi-GPU runs, but heterogeneity is allowed).
    units_per_sm:
        Schedulable units per SM (``warps_per_sm`` for warp/task
        scheduling, 1 for block-centric).
    root_source:
        Iterator of ``(cycles, payload | None)``: one pull of the shared
        atomic counter.  ``None`` payloads are deduplicated/empty tasks
        whose construction cost is still charged to the pulling unit.
    execute:
        ``execute(payload, device_id) -> ExecOutcome``.
    local_queue_capacity:
        Capacity of each SM-local queue before spilling to global.
    fault_plan:
        Optional :class:`~repro.gpusim.faults.FaultPlan` (or replay
        plan) consulted at execute/enqueue boundaries.  Requires
        ``lineage_of``.
    lineage_of:
        Callback extracting a stable, hashable lineage id from a
        payload; enables the lineage registry (recovery + frontier
        snapshots) even without a fault plan.
    max_task_retries:
        Failure budget per lineage; a task failing more often is
        abandoned (counted in ``SimReport.tasks_lost``).
    on_task_done:
        Optional ``callback(tasks_executed, now_cycles)`` after every
        successful task completion — the checkpoint cadence hook.
    halt_after_tasks:
        Stop the simulation once this many tasks completed (kill-switch
        used by checkpoint tests and ``--halt-after-tasks``).
    initial_tasks:
        ``(payload, retries)`` pairs restored from a checkpoint; they
        are registered and re-enqueued (round-robin across devices)
        before the first unit wakes.
    collect_telemetry:
        Accumulate per-phase cycle attribution, queue-depth samples and
        split events into the :class:`SimReport` (one extra branch per
        completed task; everything is skipped when False — the no-op
        guarantee ``benchmarks/bench_telemetry.py`` gates).
    """

    def __init__(
        self,
        devices: list[DeviceSpec],
        units_per_sm: int,
        root_source: Iterator[tuple[float, Any]],
        execute: Callable[[Any, int], ExecOutcome],
        *,
        local_queue_capacity: int = 64,
        root_pull_surcharges: list[float] | None = None,
        fault_plan=None,
        lineage_of: Callable[[Any], Hashable] | None = None,
        max_task_retries: int = 3,
        on_task_done: Callable[[int, float], None] | None = None,
        halt_after_tasks: int | None = None,
        initial_tasks: list[tuple[Any, int]] | None = None,
        collect_telemetry: bool = False,
    ) -> None:
        if not devices:
            raise ValueError("need at least one device")
        if root_pull_surcharges is not None and len(root_pull_surcharges) != len(devices):
            raise ValueError("one root-pull surcharge per device required")
        if fault_plan is not None and lineage_of is None:
            raise ValueError(
                "fault injection requires lineage tracking: pass lineage_of"
            )
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be non-negative")
        self._devices = devices
        self._root_source = root_source
        self._execute = execute
        #: extra cycles a device pays per shared-counter pull — models the
        #: network round-trip of a *system-wide* atomicInc when devices
        #: live on different machines (the paper's distributed extension).
        self._root_surcharges = root_pull_surcharges or [0.0] * len(devices)
        # A unit (a warp, or a block) is its index.  Units interleave
        # across SMs and devices (slot-major order): all persistent warps
        # start pulling the shared atomic counter at the same instant, so
        # work must spread over every SM of every device rather than
        # filling SM 0 first.  Unit ``u`` is resident in slot
        # ``u // len(layout)`` of ``layout[u % len(layout)]``.
        max_sms = max(dev.n_sms for dev in devices)
        self._layout: list[tuple[int, int]] = [
            (dev_id, sm)
            for sm in range(max_sms)
            for dev_id, dev in enumerate(devices)
            if sm < dev.n_sms
        ]
        self._n_units = units_per_sm * len(self._layout)
        #: when each unit last finished (the recovery sweep wakes one)
        self._free_at = [0.0] * self._n_units
        self._queues = [
            TwoLevelTaskQueue(dev.n_sms, local_capacity=local_queue_capacity)
            for dev in devices
        ]
        self._recorders = [BusyRecorder() for _ in devices]
        self._roots_done = False
        self.tasks_executed = 0
        self.tasks_split = 0
        self.tasks_requeued = 0
        self.tasks_lost = 0
        # --- robustness machinery -------------------------------------
        self._plan = fault_plan
        self._lineage_of = lineage_of
        self._max_retries = max_task_retries
        self.on_task_done = on_task_done
        self._halt_after = halt_after_tasks
        self._registry: dict[Hashable, LineageEntry] | None = (
            {} if lineage_of is not None else None
        )
        # --- telemetry attribution (None = fully bypassed) -------------
        self._phase_cycles: dict[str, float] | None = (
            {"queue_acquire": 0.0, "execute": 0.0, "watchdog": 0.0}
            if collect_telemetry
            else None
        )
        self._depth_samples: list[tuple[float, int]] = []
        self._split_events: list[tuple[float, int]] = []
        #: id of the telemetry span this run belongs to; stamped onto
        #: every FaultEvent so faults correlate back to their job
        self.trace_span_id: str | None = None
        self._dead: list[set[int]] = [set() for _ in devices]
        self._fault_log = FaultLog(
            plan_state=fault_plan.state() if fault_plan is not None else None
        ) if fault_plan is not None else None
        for i, (payload, retries) in enumerate(initial_tasks or ()):
            entry = self._register(payload, state=_QUEUED)
            if entry is not None:
                entry.retries = retries
            self._queues[i % len(devices)].requeue(0.0, payload)

    # ------------------------------------------------------------------
    # Lineage registry helpers
    # ------------------------------------------------------------------
    def _register(self, payload: Any, *, state: str) -> LineageEntry | None:
        if self._registry is None:
            return None
        entry = self._registry.get(self._lineage_of(payload))
        if entry is None:
            entry = LineageEntry(payload=payload, state=state)
            self._registry[self._lineage_of(payload)] = entry
        else:
            entry.payload = payload
            entry.state = state
        return entry

    def _entry_of(self, payload: Any) -> LineageEntry | None:
        if self._registry is None:
            return None
        return self._registry.get(self._lineage_of(payload))

    def peek_pending(
        self, predicate, limit: int, *, device_id: int | None = None
    ) -> list[Any]:
        """Queued payloads matching ``predicate``, up to ``limit``,
        without dequeueing them (``device_id``'s queues are scanned
        first).

        Read-only by construction: no queue statistics move, no items
        change position, and the payloads remain owned by their queues.
        The batch-aware execute path uses this to precompute outcomes
        for compatible sibling tasks; each task is still popped at its
        own dequeue event, so timing, queue stats, and fault
        interleavings are identical with or without lookahead.
        """
        out: list[Any] = []
        if limit <= 0:
            return out
        order = list(range(len(self._queues)))
        if device_id is not None and 0 <= device_id < len(order):
            order.remove(device_id)
            order.insert(0, device_id)
        for qi in order:
            for payload in self._queues[qi].peek_all():
                if predicate(payload):
                    out.append(payload)
                    if len(out) >= limit:
                        return out
        return out

    def frontier(self) -> list[tuple[Hashable, Any, int]]:
        """Pending work: ``(lineage, payload, retries)`` per live entry.

        Valid between simulation steps (notably inside ``on_task_done``
        and after a halted run): no task is mid-execution then, so the
        registry's queued/dropped entries plus the un-pulled roots are
        exactly the remaining work.
        """
        if self._registry is None:
            return []
        return [
            (lineage, e.payload, e.retries)
            for lineage, e in self._registry.items()
            if e.state in (_QUEUED, _DROPPED)
        ]

    # ------------------------------------------------------------------
    # Fault helpers
    # ------------------------------------------------------------------
    def _surviving_sms(self) -> int:
        return sum(
            dev.n_sms - len(self._dead[i])
            for i, dev in enumerate(self._devices)
        )

    def _requeue_target(self, device_id: int) -> TwoLevelTaskQueue:
        """The queue of ``device_id`` if it has a live SM, else the
        first device that does (cross-device re-home after total loss)."""
        if len(self._dead[device_id]) < self._devices[device_id].n_sms:
            return self._queues[device_id]
        for i, dev in enumerate(self._devices):
            if len(self._dead[i]) < dev.n_sms:
                return self._queues[i]
        return self._queues[device_id]  # unreachable: last SM never dies

    def _place(self, unit_id: int) -> tuple[int, int, int]:
        """``(device_id, sm, slot)`` of unit ``unit_id``."""
        slot, at = divmod(unit_id, len(self._layout))
        return (*self._layout[at], slot)

    def _log_fault(
        self, kind: str, site: str, time: float, unit_id: int | None,
        payload: Any, **detail,
    ) -> None:
        if self._fault_log is None:
            return
        device, sm, _ = (
            self._place(unit_id) if unit_id is not None else (-1, -1, 0)
        )
        lineage = (
            self._lineage_of(payload)
            if payload is not None and self._lineage_of is not None
            else None
        )
        self._fault_log.append(FaultEvent(
            cursor=self._plan.cursor if self._plan is not None else -1,
            kind=kind,
            site=site,
            time=time,
            device=device,
            sm=sm,
            unit=unit_id if unit_id is not None else -1,
            lineage=lineage,
            span_id=self.trace_span_id,
            detail=detail,
        ))

    def _requeue_failed(
        self, payload: Any, device_id: int, avail_time: float,
        entry: LineageEntry | None,
    ) -> None:
        """Charge one failure to the payload's lineage and re-enqueue it
        (or abandon it past the retry budget).

        ``entry`` is the registry entry the dequeue popped — ``None`` on
        a fresh root's first failure.  Either way it is (re-)inserted so
        the retry count survives across attempts.
        """
        assert self._registry is not None  # faults imply lineage tracking
        if entry is None:
            entry = LineageEntry(payload=payload, state=_QUEUED)
        self._registry[self._lineage_of(payload)] = entry
        entry.retries += 1
        if entry.retries > self._max_retries:
            entry.state = _LOST
            self.tasks_lost += 1
            self._log_fault(
                "task_lost", "recovery", avail_time, None, payload,
                retries=entry.retries,
            )
            return
        entry.state = _QUEUED
        self._requeue_target(device_id).requeue(avail_time, payload)
        self.tasks_requeued += 1

    def _displace(self, payload: Any, device_id: int, avail_time: float) -> None:
        """Re-home a task drained from a crashed SM's local queue.

        Displacement is not a failure of the task itself, so its retry
        budget is untouched.
        """
        entry = self._entry_of(payload)
        if entry is not None:
            entry.state = _QUEUED
        self._requeue_target(device_id).requeue(avail_time, payload)
        self.tasks_requeued += 1

    def _recover_orphans(self, device_id: int, now: float) -> bool:
        """Re-enqueue dropped tasks; True if any were recovered."""
        if self._registry is None:
            return False
        recovered = False
        for entry in self._registry.values():
            if entry.state == _DROPPED:
                self._log_fault(
                    "requeue", "recovery", now, None, entry.payload,
                    retries=entry.retries + 1,
                )
                self._requeue_failed(entry.payload, device_id, now, entry)
                recovered = True
        return recovered

    # ------------------------------------------------------------------
    def _pull_root(self) -> tuple[float, Any]:
        """One atomic-counter pull; loops past deduplicated vertices.

        Returns ``(cycles, payload)`` where payload is ``None`` once the
        counter is exhausted (cycles may still be non-zero: cost of the
        final unsuccessful pulls).
        """
        total = 0.0
        while True:
            try:
                cycles, payload = next(self._root_source)
            except StopIteration:
                self._roots_done = True
                return total, None
            total += cycles
            if payload is not None:
                return total, payload

    def run(self) -> SimReport:
        """Simulate until all units retire; returns the report."""
        # ascending, so already a heap
        heap: list[tuple[float, int]] = [
            (0.0, u) for u in range(self._n_units)
        ]
        halted = False
        while True:
            halted = self._run_heap(heap)
            if halted:
                break
            # Recovery sweep: tasks can be stranded on a device whose
            # units all retired before a fault re-homed work there.
            # Wake one unit on a surviving SM, migrate every stranded
            # queued payload to its device, and re-enter the loop.
            pending = self.frontier()
            if not pending:
                break
            for unit_id in range(self._n_units):
                device_id, sm, _ = self._place(unit_id)
                if sm not in self._dead[device_id]:
                    break
            free_at = self._free_at[unit_id]
            target = self._queues[device_id]
            for i, q in enumerate(self._queues):
                if q is target:
                    continue
                for payload in q.drain_all():
                    target.requeue(free_at, payload)
            self._recover_orphans(device_id, free_at)
            heapq.heappush(heap, (free_at, unit_id))
        per_device = [rec.makespan() for rec in self._recorders]
        return SimReport(
            makespan_cycles=max(per_device, default=0.0),
            per_device_cycles=per_device,
            recorders=self._recorders,
            queue_stats=[q.stats for q in self._queues],
            tasks_executed=self.tasks_executed,
            tasks_split=self.tasks_split,
            fault_log=self._fault_log,
            tasks_requeued=self.tasks_requeued,
            tasks_lost=self.tasks_lost,
            halted=halted,
            phase_cycles=(
                dict(self._phase_cycles)
                if self._phase_cycles is not None
                else None
            ),
            queue_depth_samples=self._depth_samples,
            split_events=self._split_events,
        )

    def _run_heap(self, heap: list[tuple[float, int]]) -> bool:
        """Drain the event heap; returns True if halted early.

        The registry bookkeeping is inlined (rather than via
        ``_register``/``_entry_of``) because it runs once per task: the
        robust-mode overhead budget is 5% of the whole kernel (see
        ``benchmarks/bench_faults.py``).
        """
        registry = self._registry
        lineage_of = self._lineage_of
        plan = self._plan
        # Hoisted: one truthiness check per task when telemetry is off.
        phases = self._phase_cycles
        depth_samples = self._depth_samples
        split_events = self._split_events
        layout, free_at = self._layout, self._free_at
        while heap:
            now, unit_id = heapq.heappop(heap)
            slot, at = divmod(unit_id, len(layout))
            device_id, sm = layout[at]
            if sm in self._dead[device_id]:
                continue  # the SM died while this unit was scheduled
            # device-local key busy intervals are recorded under, so
            # timeline grouping by SM works on any device count
            key = sm * 10_000 + slot
            dev = self._devices[device_id]
            queue = self._queues[device_id]
            recorder = self._recorders[device_id]

            start = now
            acquire_cycles = 0.0
            got = queue.pop_ready(sm, now)
            payload = None
            if got is not None:
                payload, level = got
                acquire_cycles += (
                    dev.local_queue_cycles
                    if level == "local"
                    else dev.global_queue_cycles
                )
            elif not self._roots_done:
                root_cycles, payload = self._pull_root()
                acquire_cycles += root_cycles + self._root_surcharges[device_id]
                if payload is None and root_cycles > 0:
                    # charge the wasted pulls, then retry the queues
                    recorder.record(key, start, start + acquire_cycles)
                    free_at[unit_id] = start + acquire_cycles
                    heapq.heappush(heap, (free_at[unit_id], unit_id))
                    continue
            fresh_root = got is None and payload is not None
            if payload is None:
                waiting = queue.pop_earliest(sm)
                if waiting is None:
                    # Before retiring, recover any silently dropped
                    # tasks onto this device and try again.
                    if self._recover_orphans(device_id, now):
                        heapq.heappush(heap, (now, unit_id))
                        continue
                    if not any(self._queues):
                        # roots done, no queue holds work: every unit
                        # would retire at its pop (DESIGN.md §10)
                        heap.clear()
                    continue  # retire this unit
                payload, avail, level = waiting
                acquire_cycles += (
                    dev.local_queue_cycles
                    if level == "local"
                    else dev.global_queue_cycles
                )
                start = max(now, avail)

            # Claim the task: pop its registry entry (present for queued
            # children / requeued work; a fresh root has none, so it
            # skips the lookup).  It is re-inserted only on failure
            # (see ``_QUEUED``), so the fault-free path costs at most
            # one dict op and no LineageEntry allocation.
            entry = None
            if registry is not None and not fresh_root:
                entry = registry.pop(lineage_of(payload), None)

            decision = plan.at_execute() if plan is not None else None
            if decision is not None and decision.kind == "warp_hang":
                # Wedged before useful work; the watchdog reclaims the
                # unit and the task moves to a surviving SM.
                end = start + acquire_cycles + self._plan.watchdog_cycles
                recorder.record(key, start, end)
                if phases is not None:
                    phases["queue_acquire"] += acquire_cycles
                    phases["watchdog"] += self._plan.watchdog_cycles
                self._log_fault(
                    "warp_hang", "execute", end, unit_id, payload,
                    fraction=decision.fraction,
                    watchdog_cycles=self._plan.watchdog_cycles,
                )
                self._requeue_failed(payload, device_id, end, entry)
                free_at[unit_id] = end
                heapq.heappush(heap, (end, unit_id))
                continue

            outcome = self._execute(payload, device_id)

            if (
                decision is not None
                and decision.kind == "sm_crash"
                and self._surviving_sms() > 1
            ):
                # The SM dies partway through the task: its partial
                # emissions are deduplicated by the kernel's lineage
                # ledger, its children are lost (regenerated on retry),
                # and its local queue migrates to the global queue.
                frac = 0.25 + 0.5 * decision.fraction
                end = start + acquire_cycles + outcome.cycles * frac
                recorder.record(key, start, end)
                self._dead[device_id].add(sm)
                drained = queue.drain_sm(sm)
                self._log_fault(
                    "sm_crash", "execute", end, unit_id, payload,
                    fraction=decision.fraction, drained=len(drained),
                )
                self._requeue_failed(payload, device_id, end, entry)
                for dp in drained:
                    self._displace(dp, device_id, end)
                continue  # the unit dies with its SM

            cycles = outcome.cycles
            if decision is not None and decision.kind == "mem_pressure":
                # Transient pressure spike: the work survives but runs
                # pressure_factor times slower.
                cycles *= plan.pressure_factor
                self._log_fault(
                    "mem_pressure", "execute",
                    start + acquire_cycles + cycles, unit_id, payload,
                    fraction=decision.fraction,
                    pressure_factor=plan.pressure_factor,
                )

            self.tasks_executed += 1
            if outcome.children:
                self.tasks_split += 1
            end = start + acquire_cycles + cycles
            recorder.record(key, start, end)
            if phases is not None:
                phases["queue_acquire"] += acquire_cycles
                phases["execute"] += cycles
                depth_samples.append((end, device_id, len(queue)))
                if outcome.children:
                    split_events.append(
                        (end, device_id, len(outcome.children))
                    )
            for offset, child in outcome.children:
                avail_time = start + acquire_cycles + offset
                if registry is not None:
                    # children carry fresh lineages (a retried parent's
                    # prior children were never pushed), so this is a
                    # plain insert, never an update
                    centry = LineageEntry(payload=child, state=_QUEUED)
                    registry[lineage_of(child)] = centry
                else:
                    centry = None
                drop = plan.at_push() if plan is not None else None
                if drop is not None:
                    if centry is not None:
                        centry.state = _DROPPED
                    self._log_fault(
                        "queue_drop", "push", avail_time, unit_id, child,
                        fraction=drop.fraction,
                    )
                    continue
                queue.push(sm, avail_time, child)
            if self.on_task_done is not None:
                self.on_task_done(self.tasks_executed, end)
            free_at[unit_id] = end
            heapq.heappush(heap, (end, unit_id))
            if (
                self._halt_after is not None
                and self.tasks_executed >= self._halt_after
            ):
                return True
        return False
