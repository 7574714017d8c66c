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
lineage id (root vertex × split path), an exactly-once ledger admits
each lineage's emissions once (so a re-executed crashed task cannot
double-report a biclique), and the enumeration frontier is periodically
snapshotted with the run's emissions so far, so a killed run resumes
bit-identically.  Every sink receives the run once, after the
simulation (DESIGN.md §5).

Returned ``sim_time`` is simulated seconds on the given device(s);
``extras`` carries the scheduler report, per-GPU times, active-SM
timeline recorders, queue statistics, and the modeled warp execution
efficiency.
"""

from __future__ import annotations

import functools
import numbers
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
    BicliqueCollector,
    BicliqueSink,
    Counters,
    EnumerationResult,
    RaggedBicliques,
    _offsets,
)
from ..core.expand import expand_node, gamma_matches
from ..core.localcount import LocalCounter
# ``relabeling_sink`` and ``build_root_task`` stay bound here for the
# layer probes that wrap this module's names; the run is relabelled as
# one block and roots are built a chunk at a time below.
from ..core.runner import relabeling_sink  # noqa: F401
from ..core.tasks import (  # noqa: F401
    SubtreeTask,
    build_root_task,
    build_root_tasks,
    root_chunks,
)
from ..checkpoint import (
    CheckpointWriter,
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
    #: delivered first
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


def _lane_dims(t: SubtreeTask) -> tuple[int, int, int, int]:
    """A task's padded lane dimensions: scope, words, candidates, depth."""
    u, n_c = t.universe, len(t.cands)
    return len(u.scope), u.n_words, max(n_c, 1), min(len(t.left), n_c) + 2


class _RunFill:
    """The run's emissions so far, in prepared labels and emission order.

    Single emissions are kept as arrays: a task's own node biclique as
    is, a sequential subtree emission copied (node buffers reuse their
    views).  A batch member is kept as its id range in the batch's
    shared :class:`BatchEmissions`.  :meth:`block` gathers everything
    after ``done`` (a resumed run's checkpointed emissions, or an
    earlier :meth:`block`) into one ragged block.
    """

    __slots__ = ("done", "lefts", "rights", "pieces")

    def __init__(self, done: RaggedBicliques | None = None) -> None:
        self.done = (RaggedBicliques(*_stack([]), *_stack([]))
                     if done is None else done)
        self.lefts: list = []
        self.rights: list = []
        #: emission order after ``done``: ``(None, n)`` for the single
        #: emissions up to ``lefts[n]``, ``(emissions, member)`` for a
        #: batch member
        self.pieces: list = []

    def own(self, left, right) -> None:
        self.lefts.append(left)
        self.rights.append(right)

    def copy(self, left, right) -> None:
        self.lefts.append(left.copy())
        self.rights.append(right.copy())

    def batch(self, emissions: BatchEmissions, member: int) -> None:
        self.pieces += [(None, len(self.lefts)), (emissions, member)]

    def block(self) -> RaggedBicliques:
        """Every emission so far, in order, as one block (kept as the new
        ``done``, so a checkpoint gathers only what came since the last)."""
        if not self.lefts and not self.pieces:
            return self.done
        n, start = len(self.lefts), len(self.done)
        parts = [self.done,
                 RaggedBicliques(*_stack(self.lefts), *_stack(self.rights))]
        base, done = {}, 0  # base: id(emissions) -> its 1st record
        order = [np.arange(start)]
        for emissions, at in [*self.pieces, (None, n)]:
            if emissions is None:
                order.append(np.arange(done, at) + start)
                done = at
                continue
            if id(emissions) not in base:
                base[id(emissions)] = sum(map(len, parts))
                parts.append(emissions)
            ptr = emissions.member_ptr
            order.append(emissions.order[ptr[at]:ptr[at + 1]]
                         + base[id(emissions)])
        run = RaggedBicliques.concat(parts)
        if base:
            run = run.take(np.concatenate(order))
        self.done, self.lefts, self.rights, self.pieces = run, [], [], []
        return run


def _stack(arrays: list) -> tuple[np.ndarray, np.ndarray]:
    """``arrays`` concatenated, and their offsets."""
    return (np.concatenate([np.zeros(0, np.int32), *arrays]),
            _offsets(list(map(len, arrays))))


class _EmissionLedger:
    """The kernel's only emission gate: counts every maximal biclique,
    keeps it in the run's fill, and makes the fill exactly-once at task
    granularity.

    A task reports its own node biclique (at root-pull time for roots,
    at the dequeue maximality check for split children) and then its
    subtree's emissions in deterministic traversal order.  The
    simulator delivers a crashed task's emissions atomically — execute
    runs to completion before the fault lands — so a retry re-produces
    the *entire* identical sequence.  Duplicates are therefore
    suppressed per task: one ``executed`` membership test at dequeue
    instead of a set operation per emission (the fault-overhead gate
    budget is 5%, see ``benchmarks/bench_faults.py``).  The ``executed``
    set is checkpointed explicitly: it cannot be derived from the fill
    because a root's own biclique is reported at pull time, before its
    task ever executes.

    The fill (a :class:`_RunFill`, kept when there is a sink or a
    checkpoint) is the ledger's only record of output: a checkpoint
    stores it, a resume seeds it, and :meth:`finish` hands it to the
    sink once, after the simulation.
    """

    __slots__ = ("count", "fill", "executed")

    def __init__(self, *, fill: bool, robust: bool) -> None:
        self.count = 0
        self.fill = _RunFill() if fill else None
        #: lineages whose execute() has already delivered emissions
        #: (None when not robust: nothing is ever re-executed)
        self.executed: set | None = set() if robust else None

    def first_run(self, lineage: tuple) -> bool:
        """True unless ``lineage`` already delivered its emissions (a
        crash retry, whose whole emission sequence is then suppressed)."""
        executed = self.executed
        if executed is None:
            return True
        if lineage in executed:
            return False
        executed.add(lineage)
        return True

    def deliver(self, left, right) -> None:
        """One subtree emission (views into reused node buffers)."""
        self.count += 1
        if self.fill is not None:
            self.fill.copy(left, right)

    def emit_own(self, task: SubtreeTask) -> None:
        """A task's own node biclique (task arrays are never reused)."""
        self.count += 1
        if self.fill is not None:
            self.fill.own(task.left, task.right)

    def deliver_batch(self, emissions: BatchEmissions, member: int) -> None:
        """Member ``member``'s subtree emissions of a computed batch."""
        if self.fill is not None:
            self.fill.batch(emissions, member)
        ptr = emissions.member_ptr
        self.count += int(ptr[member + 1] - ptr[member])

    def preload(self, emissions: RaggedBicliques, executed) -> None:
        """Seed from checkpoint state: the fill starts with the
        snapshot's emissions, so a resumed run reports the complete
        biclique set."""
        self.executed.update(executed)
        self.fill = _RunFill(emissions)
        self.count += len(emissions)

    def finish(self, prepared, sink) -> None:
        """Hand ``sink`` the whole run once, in input labels: a
        collector as one block, a callable per biclique in emission
        order.  Releases the fill: the kernel's reference cycles would
        keep it alive until the next garbage collection."""
        fill, self.fill = self.fill, None
        if fill is None or sink is None:
            return
        run = fill.block().relabeled(prepared)
        if isinstance(sink, BicliqueCollector):
            sink.add(run.narrowed())
            return
        left, right = run.left, run.right
        lp, rp = run.left_ptr.tolist(), run.right_ptr.tolist()
        for a, b, c, d in zip(lp, lp[1:], rp, rp[1:]):
            sink(left[a:b], right[c:d])


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
        lanes_hist = registry.histogram("sim.batch.lanes")
        for n in batch_stats.lanes:
            lanes_hist.record(n)
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


def _load_snapshot(checkpoint_path, graph, config, dev, n_gpus, fault_plan):
    """Load and validate a resume snapshot; returns it with the fault
    plan restored to its recorded cursor."""
    snapshot = load_checkpoint(checkpoint_path)
    snapshot.validate_against(
        graph_fingerprint=graph.fingerprint,
        config_signature=config.signature(),
        device_name=dev.name,
        n_gpus=n_gpus,
    )
    state = snapshot.fault_plan
    if state is not None:
        if state.get("type") == "ReplayFaultPlan":
            if fault_plan is None:
                raise ValueError(
                    "checkpoint was recorded under a replayed fault "
                    "log; pass the same replay plan to resume"
                )
            fault_plan.cursor = int(state.get("cursor", 0))
        else:
            fault_plan = FaultPlan.from_state(state)
    return snapshot, fault_plan


class _Kernel:
    """One GMBE run's state and the persistent-thread loop's callbacks
    (Alg. 4): the root stream the shared counter pulls from, ``execute``
    with cross-task batching and one-level splitting, and the
    checkpoint snapshot of the frontier.

    Layer functions (``run_batch``, ``expand_node``, ...) are looked up
    as module globals at call time, so probes that wrap this module's
    names see every call.
    """

    def __init__(
        self, prepared, graph, config, dev, n_gpus, ledger, *,
        root_mask, snapshot, fault_plan, writer, collect_stats,
    ) -> None:
        self.g = g = prepared.graph
        self.graph = graph
        self.config = config
        self.dev = dev
        self.n_gpus = n_gpus
        self.ledger = ledger
        self.master = Counters()
        self.counter = LocalCounter(g)
        self.efficiency = dev.warp_efficiency()
        if config.scheduling == "block":
            # one unit per SM; its warps share the data-parallel part
            self.units_per_sm = 1
            f = dev.block_parallel_fraction
            self.data_scale = (1.0 - f) + f / dev.warps_per_sm
        else:
            self.units_per_sm = dev.warps_per_sm
            self.data_scale = 1.0
        self.backend_tally = {"sorted": 0, "bitset": 0}
        #: a root with no candidates: its node buffer walk would return
        #: at once and charge nothing (DESIGN.md §10)
        self.leaf_outcome = ExecOutcome(self.duration(Counters()))
        self.fault_plan = fault_plan
        self.writer = writer
        self.scheduler = None
        #: split-overhead cycles, reported to telemetry
        self.split_cycles = 0.0
        self.resumed = snapshot is not None
        self.base_elapsed = 0.0
        self.base_tasks_executed = 0
        self.base_tasks_split = 0
        self.initial_tasks: list[tuple[SubtreeTask, int]] = []
        start_root = 0
        if snapshot is not None:
            for name, value in snapshot.counters.items():
                if hasattr(self.master, name):
                    setattr(self.master, name, value)
            ledger.preload(snapshot.emissions, snapshot.executed)
            self.base_elapsed = snapshot.elapsed_cycles
            self.base_tasks_executed = snapshot.tasks_executed
            self.base_tasks_split = snapshot.tasks_split
            start_root = snapshot.root_cursor
            # Restored tasks run on the sorted backend (universe=None):
            # the enumerated bicliques are bit-identical across
            # backends, so only modeled work units shift.
            self.initial_tasks = [
                (SubtreeTask(
                    np.asarray(rec.left, dtype=np.int32),
                    np.asarray(rec.right, dtype=np.int32),
                    np.asarray(rec.cands, dtype=np.int32),
                    np.asarray(rec.counts, dtype=np.int64),
                    needs_check=rec.needs_check,
                    lineage=rec.lineage,
                ), rec.retries)
                for rec in snapshot.tasks
            ]
        #: next V vertex the shared atomic counter will hand out — part
        #: of the checkpointed frontier.
        self.root_cursor = start_root
        #: roots built ahead of the shared counter, a chunk at a time:
        #: ``(v_s, cycles, set_op_work, simt_cycles, task | None)``.
        #: Everything observable — ``root_cursor``, the build charges in
        #: ``master``, the root's own emission, backend tally — still
        #: happens at *yield* time, so checkpoints and the emission
        #: ledger are independent of lookahead.
        self.lookahead: deque = deque()
        #: chunks of roots not yet built, from the resume cursor on.
        #: With a ``root_mask`` only owned vertices are in them —
        #: non-owned ones are never built, never yielded, zero modeled
        #: cycles — so a shard pays only for the roots it owns.  Every
        #: chunk is non-empty.
        self.pending_chunks = deque(root_chunks(g, start_root, root_mask))
        batch = config.batch_tasks
        self.batch_limit = (
            0 if batch == "off" else _AUTO_BATCH if batch == "auto"
            else int(batch)
        )
        self.batch_cache: dict[tuple, _BatchedOutcome] = {}
        self.batch_stats = (
            BatchStats() if self.batch_limit and collect_stats else None
        )

    def duration(self, c: Counters) -> float:
        """Modeled cycles of one unit's work ``c`` (DESIGN.md §6)."""
        data = c.simt_cycles * self.data_scale
        serial = self.dev.node_overhead_cycles * max(c.nodes_generated, 1)
        return (data + serial) / self.efficiency

    def _build_next_roots(self) -> list[SubtreeTask | None]:
        """Build the next chunk of roots into ``lookahead`` (pull
        deferred); returns its tasks, ``None`` where a root died."""
        chunk = build_root_tasks(self.g, self.pending_chunks.popleft(),
                                 backend=self.config.set_backend)
        # duration() of each root's build charges, bit for bit (a build
        # generates no node, so the serial term is one node overhead)
        cycles = (chunk.simt_cycles * self.data_scale
                  + self.dev.node_overhead_cycles) / self.efficiency
        self.lookahead.extend(zip(
            chunk.roots.tolist(), cycles.tolist(), chunk.set_op_work.tolist(),
            chunk.simt_cycles.tolist(), chunk.tasks,
        ))
        return chunk.tasks

    def root_source(self) -> Iterator[tuple[float, SubtreeTask | None]]:
        """Roots in shared-counter order, charged and their own biclique
        emitted at pull time."""
        lookahead, master = self.lookahead, self.master
        while True:
            while not lookahead:
                if not self.pending_chunks:
                    return
                self._build_next_roots()
            v_s, cycles, work, simt, task = lookahead.popleft()
            self.root_cursor = v_s + 1
            master.set_op_work += work
            master.simt_cycles += simt
            if task is not None:
                master.maximal += 1
                self.backend_tally[task.backend] += 1
                self.ledger.emit_own(task)
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
    def _batch_eligible(self, t: SubtreeTask) -> bool:
        """Bitset tasks with candidates that run whole; a leaf (no
        candidates) runs in closed form instead."""
        return (t.universe is not None and len(t.cands) > 0
                and not _should_split(t, self.config))

    def _batch_peers(self, seed: SubtreeTask, members: list, device_id: int):
        """Admission candidates for ``seed``'s batch, in order: look-ahead
        roots, then newly built root chunks (roots never sit in the
        queue), then queued tasks of the same lineage depth.  Stops
        offering once ``members`` is full."""
        limit, cache = self.batch_limit, self.batch_cache
        eligible = self._batch_eligible
        dep = len(seed.lineage)
        if dep == 1:
            for *_, t in self.lookahead:
                if len(members) >= limit:
                    break
                if t is not None and t.lineage not in cache and eligible(t):
                    yield t
            builds = 0
            pending = self.pending_chunks
            while len(members) < limit and pending and builds < 8 * limit:
                builds += len(pending[0])
                for t in self._build_next_roots():
                    if len(members) >= limit:
                        break
                    if t is not None and eligible(t):
                        yield t
        if len(members) < limit:
            seen = {m.lineage for m in members}
            yield from self.scheduler.peek_pending(
                lambda p: (
                    isinstance(p, SubtreeTask)
                    and len(p.lineage) == dep
                    and p.lineage not in cache
                    and p.lineage not in seen
                    and eligible(p)
                ),
                limit - len(members),
                device_id=device_id,
            )

    def _admit_batch(
        self, seed: SubtreeTask, device_id: int
    ) -> tuple[list, int]:
        """``seed`` plus every peer that keeps each padded lane array
        within ``_BATCH_ARRAY_BYTES``, and the lockstep width: the most
        lanes those dimensions fit in it, at most one per member and
        root-level child (only root-level children fork)."""
        members = [seed]
        dims = _lane_dims(seed)
        for t in self._batch_peers(seed, members, device_id):
            grown = tuple(map(max, dims, _lane_dims(t)))
            if lane_state_bytes(len(members) + 1, *grown) <= _BATCH_ARRAY_BYTES:
                dims = grown
                members.append(t)
        fit = _BATCH_ARRAY_BYTES // lane_state_bytes(1, *dims)
        forkable = len(members) + sum(len(t.cands) for t in members)
        return members, max(len(members), min(forkable, fit))

    def _compute_batch(self, seed: SubtreeTask, device_id: int) -> None:
        duration = self.duration
        admitted, lanes = self._admit_batch(seed, device_id)
        slots = [_BatchSlot(task=m, counters=Counters()) for m in admitted]
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
            [BatchMember(s.task.universe, s.task.left, s.task.right,
                         s.task.cands, s.task.counts, s.counters)
             for s in runs],
            prune=self.config.prune, stats=self.batch_stats, lanes=lanes,
        )
        cache = self.batch_cache
        for i, s in enumerate(runs):
            cache[s.task.lineage] = _BatchedOutcome(
                s.base + duration(s.counters), s.counters, emissions, i, s.own
            )
        for s in slots:
            if s.failed:
                cache[s.task.lineage] = _BatchedOutcome(
                    duration(s.counters), s.counters, None, 0, False
                )

    def _consume_batched(
        self, task: SubtreeTask, out: _BatchedOutcome
    ) -> ExecOutcome:
        ledger = self.ledger
        if ledger.first_run(task.lineage):
            if out.own:
                ledger.emit_own(task)
            if out.emissions is not None:
                ledger.deliver_batch(out.emissions, out.member)
        self.master.merge(out.counters)
        return ExecOutcome(cycles=out.cycles)

    def execute(self, task: SubtreeTask, device_id: int) -> ExecOutcome:
        leaf = not len(task.cands)
        if leaf and not task.needs_check:
            executed = self.ledger.executed
            if executed is not None:  # first_run's insert, answer unused
                executed.add(task.lineage)
            return self.leaf_outcome
        if self.batch_limit:
            out = self.batch_cache.pop(task.lineage, None)
            if out is None and self._batch_eligible(task):
                self._compute_batch(task, device_id)
                out = self.batch_cache.pop(task.lineage)
            if out is not None:
                return self._consume_batched(task, out)
        c = Counters()
        base = 0.0
        ledger = self.ledger
        first_run = ledger.first_run(task.lineage)
        if task.needs_check:
            if not gamma_matches(
                self.g, task.left, len(task.right), c, universe=task.universe
            ):
                c.non_maximal += 1
                self.master.merge(c)
                return ExecOutcome(cycles=self.duration(c))
            c.maximal += 1
            if first_run:
                ledger.emit_own(task)
            base = self.duration(c)
        if _should_split(task, self.config):
            return self._split(task, c, base)
        if not leaf:
            run_task_with_node_buffer(
                self.g, self.counter, task,
                ledger.deliver if first_run else _discard_sink, c,
                prune=self.config.prune,
            )
        self.master.merge(c)
        return ExecOutcome(cycles=base + self.duration(c))

    def _split(self, task: SubtreeTask, c: Counters, base: float) -> ExecOutcome:
        """Expand one level and re-enqueue the children (Alg. 4 #19-#23)."""
        g, dev, prune = self.g, self.dev, self.config.prune
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
                g, self.counter, task.left, v_t, remaining, gen,
                universe=task.universe, left_mask=left_mask,
            )
            gen.nodes_generated += 1
            child = SubtreeTask(
                exp.left, sets.union(task.right, exp.absorbed),
                exp.new_candidates, exp.new_counts, needs_check=True,
                universe=task.universe,
                lineage=task.lineage + (len(children),),
            )
            elapsed += self.duration(gen) + dev.local_queue_cycles
            children.append((elapsed, child))
            c.merge(gen)
            remaining, remaining_counts = remaining[1:], remaining_counts[1:]
            if prune:
                # §4.2 applies at split nodes too: siblings whose
                # local neighborhood size is unchanged by this
                # child's L' can only yield non-maximal nodes.
                changed = exp.all_counts[1:] != remaining_counts
                c.pruned += int(len(changed) - np.count_nonzero(changed))
                remaining = remaining[changed]
                remaining_counts = remaining_counts[changed]
        self.master.merge(c)
        self.split_cycles += elapsed - base
        return ExecOutcome(cycles=elapsed, children=children)

    def snapshot(self, now_cycles: float) -> Snapshot:
        """The resumable frontier (DESIGN.md §9)."""
        scheduler = self.scheduler
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
            graph_fingerprint=self.graph.fingerprint,
            config_signature=list(self.config.signature()),
            device_name=self.dev.name,
            n_gpus=self.n_gpus,
            root_cursor=self.root_cursor,
            n_roots=self.g.n_v,
            tasks=tasks,
            emissions=self.ledger.fill.block(),
            executed=sorted(self.ledger.executed),
            counters={
                name: int(value) for name, value in vars(self.master).items()
            },
            fault_plan=(
                self.fault_plan.state() if self.fault_plan is not None
                else None
            ),
            elapsed_cycles=self.base_elapsed + now_cycles,
            tasks_executed=self.base_tasks_executed + scheduler.tasks_executed,
            tasks_split=self.base_tasks_split + scheduler.tasks_split,
        )

    def on_task_done(self, tasks_done: int, now_cycles: float) -> None:
        self.writer.maybe_write(
            tasks_done, functools.partial(self.snapshot, now_cycles)
        )

    def result(self, report, robust: bool) -> EnumerationResult:
        """Close the checkpoint and package the run's result."""
        writer, master, dev = self.writer, self.master, self.dev
        if writer is not None:
            if report.halted:
                # Final frontier snapshot so a --resume picks up here.
                writer.write(self.snapshot(report.makespan_cycles))
            else:
                writer.finalize_success()
        total_cycles = self.base_elapsed + report.makespan_cycles
        lane_util = (
            master.set_op_work / (32.0 * master.simt_cycles)
            if master.simt_cycles
            else 0.0
        )
        extras = {
            "report": report,
            "device": dev,
            "n_gpus": self.n_gpus,
            "per_gpu_seconds": [
                dev.cycles_to_seconds(t) for t in report.per_device_cycles
            ],
            "queue_stats": report.queue_stats,
            "warp_efficiency": lane_util,
            "units_per_sm": self.units_per_sm,
            "set_backend_tasks": self.backend_tally,
        }
        if robust:
            extras.update({
                "fault_log": report.fault_log,
                "tasks_requeued": report.tasks_requeued,
                "tasks_lost": report.tasks_lost,
                "halted": report.halted,
                "resumed": self.resumed,
                "checkpoint_writes": writer.writes if writer is not None else 0,
                "tasks_executed_total": (
                    self.base_tasks_executed + report.tasks_executed
                ),
            })
        return EnumerationResult(
            n_maximal=self.ledger.count,
            counters=master,
            sim_time=dev.cycles_to_seconds(total_cycles),
            extras=extras,
        )


def _check_positive_int(name: str, value) -> None:
    """``value`` must be an integer >= 1; a bool is a caller bug, not 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def gmbe_gpu(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
    *,
    config: GMBEConfig = DEFAULT_CONFIG,
    device: DeviceSpec = A100,
    n_gpus: int = 1,
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
        Optional sink receiving every maximal biclique in input labels,
        once, after the simulation (halted or not): a
        :class:`~repro.core.BicliqueCollector` gets the run as one
        ragged block, any other callable one ``sink(L, R)`` call per
        biclique, in emission order, with ``int64`` arrays.
    config:
        GMBE knobs (bounds, WarpPerSM, pruning, scheduling scheme).
    device:
        Simulated GPU model; its ``warps_per_sm`` is overridden by
        ``config.warps_per_sm``.
    n_gpus:
        Device count; the root counter is shared (atomicInc_system, §5)
        while task queues stay per-device.
    local_queue_capacity:
        Tasks each SM's local queue holds before spilling to the global
        queue (an integer >= 0; 0 spills every task).
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
        snapshot's emissions seed the run's fill (so ``sink`` receives
        them first), its pending tasks are re-enqueued, the root cursor
        and fault-plan cursor restored.  The resumed result equals an
        uninterrupted run.
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
    _check_positive_int("n_gpus", n_gpus)
    if (isinstance(local_queue_capacity, bool)
            or not isinstance(local_queue_capacity, numbers.Integral)
            or local_queue_capacity < 0):
        raise ValueError(
            f"local_queue_capacity must be a non-negative integer, "
            f"got {local_queue_capacity!r}"
        )
    _check_positive_int("checkpoint_every", checkpoint_every)
    if halt_after_tasks is not None:
        _check_positive_int("halt_after_tasks", halt_after_tasks)
    if resume and checkpoint_path is None:
        raise ValueError("resume requires checkpoint_path")
    writer = None if checkpoint_path is None else CheckpointWriter(
        checkpoint_path, every_tasks=checkpoint_every
    )
    prepared = prepare(graph, order=config.order)
    if root_mask is not None:
        root_mask = np.asarray(root_mask, dtype=bool)
        n_v = prepared.graph.n_v
        if root_mask.shape != (n_v,):
            raise ValueError(
                f"root_mask must cover the prepared V side: expected "
                f"shape ({n_v},), got {root_mask.shape}"
            )
    dev = device.with_(warps_per_sm=config.warps_per_sm)
    if telemetry is None:
        telemetry = current_telemetry()
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    tracer = telemetry.tracer if telemetry is not None else NULL_TRACER

    snapshot = None
    if resume:
        snapshot, fault_plan = _load_snapshot(
            checkpoint_path, graph, config, dev, n_gpus, fault_plan
        )

    robust = (
        fault_plan is not None
        or checkpoint_path is not None
        or halt_after_tasks is not None
    )
    ledger = _EmissionLedger(
        fill=sink is not None or checkpoint_path is not None, robust=robust,
    )
    kernel = _Kernel(
        prepared, graph, config, dev, n_gpus, ledger,
        root_mask=root_mask, snapshot=snapshot, fault_plan=fault_plan,
        writer=writer, collect_stats=telemetry is not None,
    )
    kernel.scheduler = scheduler = PersistentThreadScheduler(
        devices=[dev] * n_gpus,
        units_per_sm=kernel.units_per_sm,
        root_source=kernel.root_source(),
        execute=kernel.execute,
        local_queue_capacity=local_queue_capacity,
        root_pull_surcharges=root_pull_surcharges,
        fault_plan=fault_plan,
        # attrgetter: C-level, called twice per task in the hot loop
        lineage_of=operator.attrgetter("lineage") if robust else None,
        max_task_retries=config.max_task_retries,
        halt_after_tasks=halt_after_tasks,
        initial_tasks=kernel.initial_tasks or None,
        on_task_done=kernel.on_task_done if writer is not None else None,
        collect_telemetry=telemetry is not None,
    )

    with tracer.span(
        "sim.kernel",
        scheduling=config.scheduling,
        device=dev.name,
        n_gpus=n_gpus,
        resumed=snapshot is not None,
    ) as kernel_span:
        scheduler.trace_span_id = kernel_span.span_id
        report = scheduler.run()
        result = kernel.result(report, robust)  # writes a halt snapshot
        ledger.finish(prepared, sink)
        if telemetry is not None:
            kernel_span.set_attr("tasks_executed", report.tasks_executed)
            kernel_span.set_attr("makespan_cycles", report.makespan_cycles)
            kernel_span.set_attr("n_maximal", ledger.count)
            _register_run_telemetry(
                telemetry, tracer, report, kernel.master, dev,
                kernel.split_cycles, kernel.batch_stats,
            )
    return result
