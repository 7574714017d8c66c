"""GMBE on the simulated GPU — Alg. 4 end to end.

:func:`gmbe_gpu` runs the *actual* enumeration (every set operation is
executed for real, so the bicliques are exact) while a discrete-event
persistent-thread simulation decides *when* each piece of work runs and
*how long* it takes in modeled warp-steps.  The three scheduling schemes
of the paper are supported:

- ``"task"``  — load-aware task-centric GMBE: oversized tasks
  (``min(|L|,|C|) > bound_height`` **and** ``min(|L|,|C|)·|C| >
  bound_size``) are split one level and re-enqueued on the two-level
  queues; dequeued children pay the Alg. 4 line #16 maximality check.
- ``"warp"``  — GMBE-WARP: one whole enumeration tree per warp.
- ``"block"`` — GMBE-BLOCK: one tree per thread block; the block's
  warps cooperate on the data-parallel portion of each node.

Robustness (DESIGN.md §9).  With a fault plan or a checkpoint path the
kernel switches into lineage-tracked mode: every task carries a stable
lineage id (root vertex × split path), every emission is keyed by
``(lineage, seq)`` in an exactly-once ledger (so a re-executed crashed
task cannot double-report a biclique), and the enumeration frontier is
periodically snapshotted so a killed run resumes bit-identically.

Returned ``sim_time`` is simulated seconds on the given device(s);
``extras`` carries the scheduler report, per-GPU times, active-SM
timeline recorders, queue statistics, and the modeled warp execution
efficiency.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core import sets
from ..core.batch import (
    BatchEmissions,
    BatchMember,
    BatchStats,
    batch_gamma_matches,
    lane_state_bytes,
    run_batch,
)
from ..core.bicliques import (
    BicliqueCounter,
    BicliqueSink,
    Counters,
    EnumerationResult,
)
from ..core.expand import expand_node, gamma_matches
from ..core.localcount import LocalCounter
from ..core.runner import relabeling_sink
# ``build_root_task`` stays bound here for the layer probes that wrap
# this module's names; roots are built a chunk at a time below.
from ..core.tasks import build_root_task, build_root_tasks, root_chunks  # noqa: F401
from ..checkpoint import (
    CheckpointWriter,
    EmissionRecord,
    Snapshot,
    TaskRecord,
    load_checkpoint,
)
from ..graph.bipartite import BipartiteGraph
from ..graph.preprocess import prepare
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.faults import FaultPlan
from ..gpusim.scheduler import ExecOutcome, PersistentThreadScheduler
from ..telemetry import (
    NULL_TRACER,
    current_telemetry,
    register_counters,
    register_sim_report,
)
from .config import DEFAULT_CONFIG, GMBEConfig
from .host import run_task_with_node_buffer

__all__ = ["SubtreeTask", "gmbe_gpu"]


@dataclass
class SubtreeTask:
    """A queued enumeration-tree task (root of one subtree).

    Field names intentionally match :class:`repro.core.tasks.RootTask`
    so :func:`run_task_with_node_buffer` accepts either.
    """

    left: np.ndarray
    right: np.ndarray
    cands: np.ndarray
    counts: np.ndarray
    #: split children must re-verify ``R == Γ(L)`` at dequeue time
    needs_check: bool = False
    #: packed-bitset universe of the owning root task (split children
    #: share their root's universe; ``left``/``cands`` stay subsets)
    universe: object | None = None
    #: stable identity across retries/requeues: ``(root_v,)`` for a
    #: root task, ``parent_lineage + (child_index,)`` for a split child
    lineage: tuple = ()

    def estimated_height(self) -> int:
        return min(len(self.left), len(self.cands))

    def estimated_size(self) -> int:
        return self.estimated_height() * len(self.cands)


def _discard_sink(left, right) -> None:
    """Sink for re-executed tasks: emissions are known duplicates."""


#: Byte budget for each padded array of one lockstep batch (see
#: :func:`repro.core.batch.lane_state_bytes`): admission stops widening
#: a batch once a candidate would push any array past it, so an outlier
#: task cannot blow the rectangular padding up.
_BATCH_ARRAY_BYTES = 1 << 20

#: Batch size used by ``batch_tasks="auto"``.
_AUTO_BATCH = 128


@dataclass
class _BatchSlot:
    """One member's in-flight state while its batch outcome is computed."""

    task: "SubtreeTask"
    counters: Counters
    #: the task's own node biclique passed its dequeue check and is
    #: delivered first (ledger seq 0)
    own: bool = False
    base: float = 0.0
    failed: bool = False


@dataclass
class _BatchedOutcome:
    """A precomputed execute() result, delivered at consume time."""

    cycles: float
    counters: Counters
    #: the whole batch's ragged emissions (shared by its members) and
    #: this task's member index in them; None when the task failed its
    #: dequeue check
    emissions: BatchEmissions | None
    member: int
    own: bool


def _should_split(task, config: GMBEConfig) -> bool:
    return (
        config.scheduling == "task"
        and task.estimated_height() > config.bound_height
        and task.estimated_size() > config.bound_size
    )


class _EmissionLedger:
    """Exactly-once emission gate at task granularity.

    ``seq 0`` is a task's own node biclique (reported at root-pull time
    for roots, at the dequeue maximality check for split children);
    subtree emissions take 1..N in deterministic traversal order.  The
    simulator delivers a crashed task's emissions atomically — execute
    runs to completion before the fault lands — so a retry re-produces
    the *entire* identical sequence.  Duplicates are therefore
    suppressed per task: one ``executed`` membership test at dequeue
    instead of a set operation per emission (the fault-overhead gate
    budget is 5%, see ``benchmarks/bench_faults.py``).  The ``executed``
    set is checkpointed explicitly: it cannot be derived from the
    records because a root's seq-0 emission happens at pull time, before
    its task ever executes.  The retained records double as the
    checkpoint's result replay.
    """

    __slots__ = ("sink", "executed", "records")

    def __init__(self, sink, *, keep_records: bool) -> None:
        self.sink = sink
        #: lineages whose execute() has already delivered emissions
        self.executed: set = set()
        #: retained only when a checkpoint is being written — the
        #: copies are the dominant robust-mode cost otherwise
        self.records: list[EmissionRecord] | None = (
            [] if keep_records else None
        )

    def mark_executed(self, lineage: tuple) -> bool:
        """Record that ``lineage`` is executing; True if it already did
        (the caller must then suppress every emission of this run)."""
        if lineage in self.executed:
            return True
        self.executed.add(lineage)
        return False

    def emit(self, lineage: tuple, seq: int, left, right) -> None:
        if self.records is not None:
            # copy: callers hand out views into reused node buffers
            self.records.append(
                EmissionRecord(lineage, seq, left.copy(), right.copy())
            )
        self.sink(left, right)

    def preload(self, records, executed) -> None:
        """Seed from checkpoint state, replaying each record into the
        sink so a resumed run reports the complete biclique set."""
        self.executed.update(executed)
        for rec in records:
            if self.records is not None:
                self.records.append(rec)
            self.sink(
                np.asarray(rec.left, dtype=np.int32),
                np.asarray(rec.right, dtype=np.int32),
            )


def _register_run_telemetry(
    telemetry, tracer, report, master, dev, split_overhead_cycles,
    batch_stats=None,
) -> None:
    """Fold one run's statistics into the unified registry and re-emit
    the fault log as correlated trace events.

    Runs once per enumeration (never per task), inside the ``sim.kernel``
    span so every event inherits its span/trace/job correlation ids.
    The phase counters decompose the modeled kernel time the way the
    paper's §6.2 profiles do: set-op SIMT cycles, node (stack push/pop)
    overhead, queue acquisition, split overhead, watchdog stalls.
    """
    registry = telemetry.registry
    register_counters(registry, master)
    register_sim_report(registry, report)
    phases = report.phase_cycles or {}
    registry.counter("sim.phase.set_op_cycles").add(master.simt_cycles)
    registry.counter("sim.phase.node_overhead_cycles").add(
        dev.node_overhead_cycles * master.nodes_generated
    )
    registry.counter("sim.phase.queue_acquire_cycles").add(
        phases.get("queue_acquire", 0.0)
    )
    registry.counter("sim.phase.execute_cycles").add(
        phases.get("execute", 0.0)
    )
    registry.counter("sim.phase.watchdog_cycles").add(
        phases.get("watchdog", 0.0)
    )
    registry.counter("sim.phase.split_cycles").add(split_overhead_cycles)
    if batch_stats is not None:
        registry.counter("sim.batch.rounds").add(batch_stats.rounds)
        batch_hist = registry.histogram("sim.batch.tasks_per_round")
        for n in batch_stats.tasks_per_round:
            batch_hist.record(n)
    depth_hist = registry.histogram("sim.queue.device_depth")
    for _time, _dev_id, depth in report.queue_depth_samples:
        depth_hist.record(depth)
    split_hist = registry.histogram("sim.split.children")
    for time_cycles, dev_id, n_children in report.split_events:
        split_hist.record(n_children)
        tracer.event(
            "task.split",
            sim_time_cycles=time_cycles,
            device=dev_id,
            children=n_children,
        )
    if report.fault_log is not None:
        for ev in report.fault_log.events:
            tracer.event(
                f"fault.{ev.kind}",
                site=ev.site,
                sim_time_cycles=ev.time,
                device=ev.device,
                sm=ev.sm,
                lineage=list(ev.lineage) if ev.lineage is not None else None,
                **ev.detail,
            )


def gmbe_gpu(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
    *,
    config: GMBEConfig = DEFAULT_CONFIG,
    device: DeviceSpec = A100,
    n_gpus: int = 1,
    relabel: bool = True,
    local_queue_capacity: int = 64,
    root_pull_surcharges: list[float] | None = None,
    root_mask=None,
    fault_plan=None,
    checkpoint_path=None,
    checkpoint_every: int = 256,
    resume: bool = False,
    halt_after_tasks: int | None = None,
    telemetry=None,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with GMBE on simulated GPUs.

    Parameters
    ----------
    graph:
        Input bipartite graph (any labeling; preprocessing per §5).
    sink:
        Optional ``sink(L, R)`` receiving every maximal biclique.
    config:
        GMBE knobs (bounds, WarpPerSM, pruning, scheduling scheme).
    device:
        Simulated GPU model; its ``warps_per_sm`` is overridden by
        ``config.warps_per_sm``.
    n_gpus:
        Device count; the root counter is shared (atomicInc_system, §5)
        while task queues stay per-device.
    root_pull_surcharges:
        Optional per-GPU extra cycles on every shared-counter pull —
        the hook :func:`repro.gmbe.cluster.gmbe_cluster` uses to model
        cross-machine atomics in the distributed extension.
    root_mask:
        Optional boolean array over the **prepared** V space (length
        ``n_v`` after :func:`~repro.graph.preprocess.prepare`): only
        vertices with a True entry are pulled and built as root tasks.
        This is the :mod:`repro.sharding` ownership hook — a masked run
        enumerates exactly the maximal bicliques whose canonical
        minimum R-vertex (in prepared order) is inside the mask,
        because the per-vertex dedup rule assigns each biclique to that
        root's task and nothing else about a subtree depends on the
        mask.  Skipped vertices cost zero modeled cycles (their owner
        shard charges them).  Checkpoints of a masked run record the
        usual ``root_cursor`` frontier; resuming requires the same mask.
    fault_plan:
        Optional :class:`~repro.gpusim.faults.FaultPlan` (or replay
        plan).  Attaching one enables lineage tracking and the
        exactly-once emission ledger; the final biclique set is
        bit-identical to a fault-free run as long as no lineage exceeds
        ``config.max_task_retries`` failures.
    checkpoint_path:
        Write a resumable :class:`~repro.checkpoint.Snapshot` here every
        ``checkpoint_every`` completed tasks (and at a halt); the file
        is removed when the run finishes cleanly.
    resume:
        Load ``checkpoint_path`` and continue the interrupted run: the
        snapshot's emissions are replayed into ``sink``, its pending
        tasks re-enqueued, the root cursor and fault-plan cursor
        restored.  The resumed result equals an uninterrupted run.
    halt_after_tasks:
        Stop after this many completed tasks (the kill switch the
        checkpoint tests and ``--halt-after-tasks`` use); the final
        frontier is snapshotted if a checkpoint path is set.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`.  When omitted the
        ambient one is discovered via
        :func:`~repro.telemetry.current_telemetry` (the broker plants
        it before the thread hop).  An enabled telemetry wraps the run
        in a ``sim.kernel`` span (inheriting the caller's ``job_id``),
        attributes per-phase cycles/queue depth/splits into the metrics
        registry, and re-emits fault-log entries as trace events —
        every one carrying the span's correlation ids.  ``None`` or a
        disabled telemetry costs one check up front and nothing per
        task.
    """
    if n_gpus <= 0:
        raise ValueError("n_gpus must be positive")
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")
    prepared = prepare(graph, order=config.order)
    g = prepared.graph
    if root_mask is not None:
        root_mask = np.asarray(root_mask, dtype=bool)
        if root_mask.shape != (g.n_v,):
            raise ValueError(
                f"root_mask must cover the prepared V side: expected "
                f"shape ({g.n_v},), got {root_mask.shape}"
            )
    dev = device.with_(warps_per_sm=config.warps_per_sm)
    counting = BicliqueCounter()
    inner = None if sink is None else (
        relabeling_sink(prepared, sink) if relabel else sink
    )

    def emit(left: np.ndarray, right: np.ndarray) -> None:
        counting(left, right)
        if inner is not None:
            inner(left, right)

    robust = (
        fault_plan is not None
        or checkpoint_path is not None
        or halt_after_tasks is not None
    )

    if telemetry is None:
        telemetry = current_telemetry()
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
    #: split-overhead cycle accumulator; ``None`` keeps the split path
    #: untouched when telemetry is off
    split_cycles = [0.0] if telemetry is not None else None

    # ------------------------------------------------------------------
    # Resume: load + validate the snapshot before any work happens.
    # ------------------------------------------------------------------
    snapshot = None
    if resume:
        snapshot = load_checkpoint(checkpoint_path)
        snapshot.validate_against(
            graph_fingerprint=graph.fingerprint,
            config_signature=config.signature(),
            device_name=dev.name,
            n_gpus=n_gpus,
        )
        if snapshot.fault_plan is not None:
            state = snapshot.fault_plan
            if state.get("type") == "ReplayFaultPlan":
                if fault_plan is None:
                    raise ValueError(
                        "checkpoint was recorded under a replayed fault "
                        "log; pass the same replay plan to resume"
                    )
                fault_plan.cursor = int(state.get("cursor", 0))
            else:
                fault_plan = FaultPlan.from_state(state)

    ledger = (
        _EmissionLedger(emit, keep_records=checkpoint_path is not None)
        if robust
        else None
    )
    #: without records to retain, the ledger does no per-emission work
    #: (dedup is per task via ``mark_executed``) — emit straight to the
    #: sink so zero-fault robust runs pay nothing per biclique
    keep_records = ledger is not None and ledger.records is not None
    #: without records, batched emissions bypass ``emit``: a batch is
    #: relabelled once (when a relabelling sink is given) and its pairs
    #: go straight to ``sink``; retained records stay in prepared labels
    relabel_batches = sink is not None and relabel and not keep_records
    #: hot-path alias for the per-task dedup set (None when not robust)
    executed_set = ledger.executed if ledger is not None else None
    master = Counters()
    base_elapsed = 0.0
    base_tasks_executed = 0
    base_tasks_split = 0
    start_root = 0
    initial_tasks: list[tuple[SubtreeTask, int]] = []
    if snapshot is not None:
        for name, value in snapshot.counters.items():
            if hasattr(master, name):
                setattr(master, name, value)
        ledger.preload(snapshot.emissions, snapshot.executed)
        base_elapsed = snapshot.elapsed_cycles
        base_tasks_executed = snapshot.tasks_executed
        base_tasks_split = snapshot.tasks_split
        start_root = snapshot.root_cursor
        for rec in snapshot.tasks:
            # Restored tasks run on the sorted backend (universe=None):
            # the enumerated bicliques are bit-identical across
            # backends, so only modeled work units shift.
            initial_tasks.append((
                SubtreeTask(
                    left=np.asarray(rec.left, dtype=np.int32),
                    right=np.asarray(rec.right, dtype=np.int32),
                    cands=np.asarray(rec.cands, dtype=np.int32),
                    counts=np.asarray(rec.counts, dtype=np.int64),
                    needs_check=rec.needs_check,
                    universe=None,
                    lineage=rec.lineage,
                ),
                rec.retries,
            ))

    counter = LocalCounter(g)
    efficiency = dev.warp_efficiency()

    if config.scheduling == "block":
        units_per_sm = 1
        k = dev.warps_per_sm
        f = dev.block_parallel_fraction

        def duration(c: Counters) -> float:
            data = c.simt_cycles * ((1.0 - f) + f / k)
            serial = dev.node_overhead_cycles * max(c.nodes_generated, 1)
            return (data + serial) / efficiency

    else:
        units_per_sm = dev.warps_per_sm

        def duration(c: Counters) -> float:
            data = c.simt_cycles
            serial = dev.node_overhead_cycles * max(c.nodes_generated, 1)
            return (data + serial) / efficiency

    backend_tally = {"sorted": 0, "bitset": 0}
    #: next V vertex the shared atomic counter will hand out — part of
    #: the checkpointed frontier.
    root_cursor = [start_root]

    #: roots built ahead of the shared counter, a chunk at a time:
    #: ``(v_s, cycles, task | None, build_counters, backend | None)``.
    #: Everything observable — ``root_cursor``, ``master`` merge, the
    #: seq-0 emission, backend tally — still happens at *yield* time, so
    #: checkpoints and the emission ledger are independent of lookahead.
    lookahead: deque = deque()
    #: chunks of roots not yet built, from the resume cursor on.  With a
    #: ``root_mask`` only owned vertices are in them — non-owned ones are
    #: never built, never yielded, zero modeled cycles — so a shard pays
    #: only for the roots it owns.  Every chunk is non-empty.
    pending_chunks = deque(root_chunks(g, start_root, root_mask))

    def _build_next_roots() -> list[SubtreeTask]:
        """Build the next chunk of roots into ``lookahead`` (pull
        deferred); returns the chunk's surviving tasks."""
        roots = pending_chunks.popleft()
        built = build_root_tasks(g, roots, backend=config.set_backend)
        tasks = []
        for v_s, (rt, c) in zip(roots.tolist(), built):
            cycles = duration(c)
            if rt is None:
                lookahead.append((v_s, cycles, None, c, None))
                continue
            c.maximal += 1
            task = SubtreeTask(
                left=rt.left,
                right=rt.right,
                cands=rt.cands,
                counts=rt.counts,
                needs_check=False,
                universe=rt.universe,
                lineage=(v_s,),
            )
            lookahead.append((v_s, cycles, task, c, rt.backend))
            tasks.append(task)
        return tasks

    def root_source() -> Iterator[tuple[float, SubtreeTask | None]]:
        while True:
            while not lookahead:
                if not pending_chunks:
                    return
                _build_next_roots()
            v_s, cycles, task, c, backend = lookahead.popleft()
            root_cursor[0] = v_s + 1
            master.merge(c)
            if task is None:
                yield cycles, None
                continue
            backend_tally[backend] += 1
            if keep_records:
                ledger.emit((v_s,), 0, task.left, task.right)
            else:
                emit(task.left, task.right)
            yield cycles, task

    # ------------------------------------------------------------------
    # Cross-task batched execution (DESIGN.md §10).  Compatible dense
    # tasks — queued siblings plus look-ahead roots — are *peeked*, their
    # outcomes computed in one vectorized lockstep pass, and the results
    # cached per lineage.  Emissions, counter merges, and cycles are only
    # delivered when each task's own execute() event fires, so the
    # simulated schedule, checkpoints, and fault interleavings are
    # bit-identical to batch_tasks="off".
    # ------------------------------------------------------------------
    if config.batch_tasks == "off":
        batch_limit = 0
    elif config.batch_tasks == "auto":
        batch_limit = _AUTO_BATCH
    else:
        batch_limit = int(config.batch_tasks)
    batch_cache: dict[tuple, _BatchedOutcome] = {}
    batch_stats = (
        BatchStats() if batch_limit and telemetry is not None else None
    )
    #: filled after scheduler construction (execute closes over it)
    sched_ref: list = []

    def _batch_eligible(t: SubtreeTask) -> bool:
        return t.universe is not None and not _should_split(t, config)

    def _compute_batch(seed: SubtreeTask, device_id: int) -> None:
        members = [seed]
        u = seed.universe
        dims = [
            len(u.scope),
            u.n_words,
            max(len(seed.cands), 1),
            min(len(seed.left), len(seed.cands)) + 2,
        ]

        def try_add(t: SubtreeTask) -> None:
            tu = t.universe
            smax = max(dims[0], len(tu.scope))
            wmax = max(dims[1], tu.n_words)
            cmax = max(dims[2], len(t.cands), 1)
            dmax = max(dims[3], min(len(t.left), len(t.cands)) + 2)
            kk = len(members) + 1
            size = lane_state_bytes(kk, smax, wmax, cmax, dmax)
            if size > _BATCH_ARRAY_BYTES:
                return
            dims[0], dims[1], dims[2], dims[3] = smax, wmax, cmax, dmax
            members.append(t)

        dep = len(seed.lineage)
        if dep == 1:
            # Roots never sit in the queue (they are pulled straight off
            # the shared counter), so batch peers come from building
            # ahead; the observable pull stays at yield time.
            for entry in lookahead:
                if len(members) >= batch_limit:
                    break
                t = entry[2]
                if (
                    t is not None
                    and t.lineage not in batch_cache
                    and _batch_eligible(t)
                ):
                    try_add(t)
            builds = 0
            while (
                len(members) < batch_limit
                and pending_chunks
                and builds < 8 * batch_limit
            ):
                builds += len(pending_chunks[0])
                for t in _build_next_roots():
                    if len(members) >= batch_limit:
                        break
                    if _batch_eligible(t):
                        try_add(t)
        if sched_ref and len(members) < batch_limit:
            seen = {m.lineage for m in members}

            def pred(p) -> bool:
                return (
                    isinstance(p, SubtreeTask)
                    and len(p.lineage) == dep
                    and p.lineage not in batch_cache
                    and p.lineage not in seen
                    and _batch_eligible(p)
                )

            for p in sched_ref[0].peek_pending(
                pred, batch_limit - len(members), device_id=device_id
            ):
                try_add(p)

        slots = [_BatchSlot(task=m, counters=Counters()) for m in members]
        checks = [s for s in slots if s.task.needs_check]
        if checks:
            oks = batch_gamma_matches(
                [s.task.universe for s in checks],
                [s.task.left for s in checks],
                [len(s.task.right) for s in checks],
                [s.counters for s in checks],
            )
            for s, ok in zip(checks, oks):
                if ok:
                    s.counters.maximal += 1
                    s.own = True
                    s.base = duration(s.counters)
                else:
                    s.counters.non_maximal += 1
                    s.failed = True
        runs = [s for s in slots if not s.failed]
        emissions = run_batch(
            [
                BatchMember(
                    universe=s.task.universe,
                    left=s.task.left,
                    right=s.task.right,
                    cands=s.task.cands,
                    counts=s.task.counts,
                    counters=s.counters,
                )
                for s in runs
            ],
            prune=config.prune,
            stats=batch_stats,
        )
        if relabel_batches:
            emissions = emissions.relabeled(prepared)
        for i, s in enumerate(runs):
            batch_cache[s.task.lineage] = _BatchedOutcome(
                s.base + duration(s.counters), s.counters, emissions, i, s.own
            )
        for s in slots:
            if s.failed:
                batch_cache[s.task.lineage] = _BatchedOutcome(
                    duration(s.counters), s.counters, None, 0, False
                )

    def _consume_batched(task: SubtreeTask, out: _BatchedOutcome) -> ExecOutcome:
        if executed_set is not None:
            lin = task.lineage
            suppress = lin in executed_set
            if not suppress:
                executed_set.add(lin)
        else:
            suppress = False
        if not suppress:
            em = out.emissions
            pairs = em.pairs(out.member) if em is not None else ()
            if keep_records:
                lin = task.lineage
                if out.own:
                    ledger.emit(lin, 0, task.left, task.right)
                for seq, (left, right) in enumerate(pairs, 1):
                    ledger.emit(lin, seq, left, right)
            else:
                if out.own:
                    emit(task.left, task.right)
                if em is not None:
                    # already in the sink's labels (see _compute_batch)
                    if sink is not None:
                        for left, right in pairs:
                            sink(left, right)
                    m = out.member
                    counting.count += int(
                        em.member_ptr[m + 1] - em.member_ptr[m]
                    )
        master.merge(out.counters)
        return ExecOutcome(cycles=out.cycles)

    def execute(task: SubtreeTask, _device_id: int) -> ExecOutcome:
        if batch_limit:
            out = batch_cache.pop(task.lineage, None)
            if out is None and _batch_eligible(task):
                _compute_batch(task, _device_id)
                out = batch_cache.pop(task.lineage)
            if out is not None:
                return _consume_batched(task, out)
        c = Counters()
        base = 0.0
        # A re-executed task (crash retry) re-produces its entire
        # emission sequence; suppress all of it in one membership check
        # (inlined mark_executed — this runs once per task).
        if executed_set is not None:
            lin = task.lineage
            suppress = lin in executed_set
            if not suppress:
                executed_set.add(lin)
        else:
            suppress = False
        if task.needs_check:
            ok = gamma_matches(
                g, task.left, len(task.right), c, universe=task.universe
            )
            if ok:
                c.maximal += 1
                if not suppress:
                    if keep_records:
                        ledger.emit(task.lineage, 0, task.left, task.right)
                    else:
                        emit(task.left, task.right)
            else:
                c.non_maximal += 1
                master.merge(c)
                return ExecOutcome(cycles=duration(c))
            base = duration(c)
        if _should_split(task, config):
            children: list[tuple[float, SubtreeTask]] = []
            elapsed = base
            remaining = task.cands
            remaining_counts = task.counts
            left_mask = (
                task.universe.mask_of_left_subset(task.left)
                if task.universe is not None
                else None
            )
            while len(remaining):
                gen = Counters()
                v_t = int(remaining[0])
                exp = expand_node(
                    g,
                    counter,
                    task.left,
                    v_t,
                    remaining,
                    gen,
                    universe=task.universe,
                    left_mask=left_mask,
                )
                gen.nodes_generated += 1
                child = SubtreeTask(
                    left=exp.left,
                    right=sets.union(task.right, exp.absorbed),
                    cands=exp.new_candidates,
                    counts=exp.new_counts,
                    needs_check=True,
                    universe=task.universe,
                    lineage=task.lineage + (len(children),),
                )
                elapsed += duration(gen) + dev.local_queue_cycles
                children.append((elapsed, child))
                c.merge(gen)
                if config.prune:
                    # §4.2 applies at split nodes too: siblings whose
                    # local neighborhood size is unchanged by this
                    # child's L' can only yield non-maximal nodes.
                    changed = exp.all_counts[1:] != remaining_counts[1:]
                    c.pruned += int(len(changed) - np.count_nonzero(changed))
                    remaining = remaining[1:][changed]
                    remaining_counts = remaining_counts[1:][changed]
                else:
                    remaining = remaining[1:]
                    remaining_counts = remaining_counts[1:]
            master.merge(c)
            if split_cycles is not None:
                split_cycles[0] += elapsed - base
            return ExecOutcome(cycles=elapsed, children=children)
        if suppress:
            run_task_with_node_buffer(
                g, counter, task, _discard_sink, c, prune=config.prune
            )
        elif keep_records:
            lin = task.lineage
            seq = [1]  # 0 is the task's own node biclique

            def task_sink(left: np.ndarray, right: np.ndarray) -> None:
                ledger.emit(lin, seq[0], left, right)
                seq[0] += 1

            run_task_with_node_buffer(
                g, counter, task, task_sink, c, prune=config.prune
            )
        else:
            run_task_with_node_buffer(
                g, counter, task, emit, c, prune=config.prune
            )
        master.merge(c)
        return ExecOutcome(cycles=base + duration(c))

    scheduler = PersistentThreadScheduler(
        devices=[dev] * n_gpus,
        units_per_sm=units_per_sm,
        root_source=root_source(),
        execute=execute,
        local_queue_capacity=local_queue_capacity,
        root_pull_surcharges=root_pull_surcharges,
        fault_plan=fault_plan,
        # attrgetter: C-level, called twice per task in the hot loop
        lineage_of=operator.attrgetter("lineage") if robust else None,
        max_task_retries=config.max_task_retries,
        halt_after_tasks=halt_after_tasks,
        initial_tasks=initial_tasks or None,
        collect_telemetry=telemetry is not None,
    )
    sched_ref.append(scheduler)

    writer = None
    if checkpoint_path is not None:
        writer = CheckpointWriter(checkpoint_path, every_tasks=checkpoint_every)

        def build_snapshot(now_cycles: float) -> Snapshot:
            tasks = [
                TaskRecord(
                    lineage=lineage,
                    left=[int(x) for x in payload.left],
                    right=[int(x) for x in payload.right],
                    cands=[int(x) for x in payload.cands],
                    counts=[int(x) for x in payload.counts],
                    needs_check=payload.needs_check,
                    retries=retries,
                )
                for lineage, payload, retries in scheduler.frontier()
            ]
            return Snapshot(
                graph_fingerprint=graph.fingerprint,
                config_signature=list(config.signature()),
                device_name=dev.name,
                n_gpus=n_gpus,
                root_cursor=root_cursor[0],
                n_roots=g.n_v,
                tasks=tasks,
                emissions=list(ledger.records),
                executed=sorted(ledger.executed),
                counters={
                    name: int(value)
                    for name, value in vars(master).items()
                },
                fault_plan=(
                    fault_plan.state() if fault_plan is not None else None
                ),
                elapsed_cycles=base_elapsed + now_cycles,
                tasks_executed=base_tasks_executed + scheduler.tasks_executed,
                tasks_split=base_tasks_split + scheduler.tasks_split,
            )

        def on_task_done(tasks_done: int, now_cycles: float) -> None:
            writer.maybe_write(tasks_done, lambda: build_snapshot(now_cycles))

        scheduler.on_task_done = on_task_done

    with tracer.span(
        "sim.kernel",
        scheduling=config.scheduling,
        device=dev.name,
        n_gpus=n_gpus,
        resumed=snapshot is not None,
    ) as kernel_span:
        scheduler.trace_span_id = kernel_span.span_id
        report = scheduler.run()
        if telemetry is not None:
            kernel_span.set_attr("tasks_executed", report.tasks_executed)
            kernel_span.set_attr("makespan_cycles", report.makespan_cycles)
            kernel_span.set_attr("n_maximal", counting.count)
            _register_run_telemetry(
                telemetry, tracer, report, master, dev, split_cycles[0],
                batch_stats,
            )
    if writer is not None:
        if report.halted:
            # Final frontier snapshot so a --resume picks up exactly here.
            writer.write(build_snapshot(report.makespan_cycles))
        else:
            writer.finalize_success()
    total_cycles = base_elapsed + report.makespan_cycles
    sim_seconds = dev.cycles_to_seconds(total_cycles)
    lane_util = (
        master.set_op_work / (32.0 * master.simt_cycles)
        if master.simt_cycles
        else 0.0
    )
    extras = {
        "report": report,
        "device": dev,
        "n_gpus": n_gpus,
        "per_gpu_seconds": [
            dev.cycles_to_seconds(t) for t in report.per_device_cycles
        ],
        "queue_stats": report.queue_stats,
        "warp_efficiency": lane_util,
        "units_per_sm": units_per_sm,
        "set_backend_tasks": backend_tally,
    }
    if robust:
        extras.update({
            "fault_log": report.fault_log,
            "tasks_requeued": report.tasks_requeued,
            "tasks_lost": report.tasks_lost,
            "halted": report.halted,
            "resumed": snapshot is not None,
            "checkpoint_writes": writer.writes if writer is not None else 0,
            "tasks_executed_total": (
                base_tasks_executed + report.tasks_executed
            ),
        })
    return EnumerationResult(
        n_maximal=counting.count,
        counters=master,
        sim_time=sim_seconds,
        extras=extras,
    )
