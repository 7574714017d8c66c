"""Fan a graph too big for one device over N shard-jobs and merge.

:class:`ShardCoordinator` is the orchestration layer of the sharding
subsystem: build (or accept) a :class:`~repro.sharding.ShardPlan`, run
:func:`~repro.sharding.run_shard_task` once per shard — in-process one
after another, or on supervised worker processes — and merge the
per-shard sorted ragged results with array operations into one
duplicate-free ordered set, reported as one :class:`ShardReport` whether
or not shards were lost.

Placement is simulated two ways:

- **dedicated** (default): every shard runs on its own copy of
  ``device`` — the fleet makespan is the max shard time.  This is the
  "N machines, each holding the graph" deployment the plan's balancer
  optimizes for.
- **cluster**: with a :class:`~repro.gmbe.ClusterSpec`, shards are
  placed round-robin over the cluster's GPUs, each paying that GPU's
  counter-claim surcharge; GPUs run their shards serially, so the
  makespan is the max *per-GPU sum*.

Either way the *results* are placement-independent — only the modeled
time changes.

Fault tolerance: each shard checkpoints to its own plan-signature-named
file.  A shard that crashes (or is halted by ``halt_after_tasks``)
leaves its snapshot behind; completed shards erase theirs — so simply
running the coordinator again resumes exactly the crashed shards and
re-enumerates nothing that already finished *within* a shard (the
kernel's emission ledger replays emitted bicliques from the snapshot).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import FIRST_COMPLETED, CancelledError
from concurrent.futures import wait as cf_wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.bicliques import Counters, RaggedBicliques
from ..gmbe.cluster import ClusterSpec
from ..gmbe.config import GMBEConfig
from ..gmbe.kernel import _check_positive_int
from ..gpusim.device import A100, DeviceSpec
from ..graph.bipartite import BipartiteGraph
from ..parallel.procpool import (
    PoolBrokenError,
    ProcessWorkerPool,
    SupervisorPolicy,
)
from ..telemetry import (
    NULL_TRACER,
    FlightRecorder,
    TelemetrySnapshot,
    TraceContext,
    current_telemetry,
    reparent_records,
    write_flight_record,
)
from .degraded import ResumeHandle
from .plan import ShardPlan
from .runner import ShardResult, run_shard_task, shard_checkpoint_path

__all__ = [
    "ShardCoordinator",
    "ShardReport",
    "ShardMergeError",
    "merge_shard_results",
]

#: telemetry counter per pool supervision event kind (DESIGN.md §12)
_SUPERVISOR_COUNTERS = {
    "spawn": "supervisor.workers_spawned",
    "death": "supervisor.worker_deaths",
    "restart": "supervisor.worker_restarts",
    "retire": "supervisor.workers_retired",
    "broken": "supervisor.pool_broken",
}

#: ``# HELP`` text for the supervision family (Prometheus export)
_SUPERVISOR_DESCRIPTIONS = {
    "supervisor.workers_spawned":
        "worker processes spawned, including restarts",
    "supervisor.worker_deaths":
        "worker processes that died (crash, OOM, SIGKILL, hang kill)",
    "supervisor.worker_hangs":
        "deaths caused by a missed-heartbeat or task-deadline verdict",
    "supervisor.worker_restarts": "dead workers respawned under backoff",
    "supervisor.workers_retired":
        "worker slots that exhausted their restart budget",
    "supervisor.pool_broken":
        "process pools declared broken (every slot retired)",
    "supervisor.shard_failures":
        "shard attempts lost to a dead or hung worker",
    "supervisor.shard_retries": "failed shard attempts re-dispatched",
    "supervisor.shards_quarantined":
        "shards abandoned after exhausting their attempt budget",
    "supervisor.jobs_degraded":
        "sharded jobs that returned a partial result",
}


def _register_supervisor_metrics(registry) -> None:
    """Pre-create the ``supervisor.*`` counters with their HELP text."""
    for name, description in _SUPERVISOR_DESCRIPTIONS.items():
        registry.counter(name, description=description)


#: Seconds the shared shard pool stays warm without a lease before it
#: shuts itself down.  Live spawn workers hold multiprocessing's
#: resource-tracker pipe, so a pool that outlived its last caller would
#: block a host that joins its children and stops the tracker.
_SHARED_POOL_IDLE_S = 3.0


class _SharedPool:
    """One process-wide warm :class:`ProcessWorkerPool` for shard runs.

    The paper's persistent kernel launches its workers once and keeps
    them resident while they pull tasks (Alg. 4); this keeps shard
    worker processes resident across calls the same way, so the API,
    ``gmbe run --shards`` and the broker's default runner stop paying
    spawn and import on every sharded call.

    - **One holder at a time.** :meth:`acquire` never blocks: a caller
      that finds the pool leased gets ``None`` and builds a private one.
    - **Created on first lease**, replaced when broken or too small.
    - **Idle shutdown** after :data:`_SHARED_POOL_IDLE_S` seconds
      without a lease, and at interpreter exit.
    """

    def __init__(self) -> None:
        #: guards the fields below; held only briefly, never while
        #: spawning or shutting a pool down
        self._lock = threading.Lock()
        self._held = False
        self._pool: ProcessWorkerPool | None = None
        self._idle_timer: threading.Timer | None = None

    def acquire(self, n_workers: int, on_event=None):
        """Lease the pool as ``(pool, baseline)``, or None if it is
        leased already.

        ``baseline`` is the pool's supervision counters at the start of
        the lease — empty for a pool built for it, which gets
        ``on_event`` from its first spawn on.
        """
        with self._lock:
            if self._held:
                return None
            self._held = True
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            pool = self._pool
        try:
            if pool is not None and (
                pool.broken or pool.n_workers < n_workers
            ):
                pool.shutdown()
                pool = None
            if pool is None:
                pool, baseline = ProcessWorkerPool(
                    n_workers, on_event=on_event
                ), {}
            else:
                baseline = pool.supervisor.summary()
        except BaseException:
            with self._lock:
                self._pool = None
            self.release()
            raise
        with self._lock:
            self._pool = pool
        return pool, baseline

    def release(self) -> None:
        """End the lease and arm the idle shutdown."""
        with self._lock:
            self._held = False
            if self._pool is None:
                return
            timer = threading.Timer(
                _SHARED_POOL_IDLE_S, lambda: self.close(timer)
            )
            timer.daemon = True
            self._idle_timer = timer
        timer.start()

    def close(self, timer: threading.Timer | None = None) -> None:
        """Shut the pool down unless it is leased.

        ``timer`` is the idle timer that fired; a stale one (the pool
        was leased again since it was armed) does nothing.
        """
        with self._lock:
            if self._held or (
                timer is not None and timer is not self._idle_timer
            ):
                return
            pool, self._pool = self._pool, None
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
        if pool is not None:
            pool.shutdown()


_SHARED_POOL = _SharedPool()
atexit.register(_SHARED_POOL.close)
# A forked child does not own the parent's workers: start it empty.
os.register_at_fork(after_in_child=_SHARED_POOL.__init__)


class ShardMergeError(RuntimeError):
    """A biclique surfaced from more than one shard.

    The ownership rule makes this impossible for results produced by
    this package — seeing it means shards ran under *different* plans
    (or orders), e.g. mixed checkpoint generations.  Enumeration output
    must never be silently deduplicated, so the merge refuses instead.
    """


def merge_shard_results(results: list[ShardResult]) -> RaggedBicliques:
    """Merge per-shard sorted runs into one sorted ragged result.

    The runs are concatenated in shard order and ranked with array
    operations (:meth:`~repro.core.RaggedBicliques.sort_ranks`), so
    equal records stay in shard order.  Raises :class:`ShardMergeError`
    on any duplicate — disjoint ownership means equal bicliques from two
    shards indicate a plan mismatch, not a benign overlap.
    """
    results = sorted(results, key=lambda r: r.shard_id)
    pool = RaggedBicliques.concat([r.bicliques for r in results])
    ranks = pool.sort_ranks()
    order = np.argsort(ranks, kind="stable")
    repeats = np.flatnonzero(ranks[order[1:]] == ranks[order[:-1]])
    if len(repeats):
        k = int(repeats[0])
        ends = np.cumsum([len(r.bicliques) for r in results])
        first, second = (
            results[int(np.searchsorted(ends, order[i], "right"))].shard_id
            for i in (k, k + 1)
        )
        item = pool[int(order[k])]
        raise ShardMergeError(
            f"duplicate biclique L={item.left} R={item.right} emitted "
            f"by shards {first} and {second} — the shards did not run "
            f"under one plan (ownership sets must be disjoint)"
        )
    return pool.take(order)


@dataclass
class ShardReport:
    """Aggregate outcome of one sharded enumeration.

    After a quarantine ``is_partial`` is set, ``shards`` and
    ``bicliques`` cover the completed shards only, and ``resume`` holds
    one :class:`~repro.sharding.ResumeHandle` per quarantined shard.
    """

    plan: ShardPlan
    #: the shards that finished, in shard order
    shards: list[ShardResult]
    #: the merged, sorted result (a given sequence of bicliques is
    #: flattened); iterating or indexing builds the objects
    bicliques: RaggedBicliques
    counters: Counters
    #: Fleet makespan under the chosen placement (seconds, simulated).
    sim_time: float
    #: GPU index each finished shard ran on (same order as ``shards``).
    placement: list[int]
    #: True when any shard halted early — the merged set is then a
    #: resumable *partial* result, not the full enumeration.
    halted: bool = False
    extras: dict = field(default_factory=dict)
    #: shard ids abandoned after exhausting their attempt budget
    quarantined: list[int] = field(default_factory=list)
    resume: list[ResumeHandle] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.bicliques = RaggedBicliques.from_bicliques(self.bicliques)

    @property
    def n_maximal(self) -> int:
        return len(self.bicliques)

    @property
    def is_partial(self) -> bool:
        """True when shards were quarantined (see :attr:`resume`)."""
        return bool(self.quarantined)

    @property
    def completed_shards(self) -> list[int]:
        return sorted(r.shard_id for r in self.shards)

    def describe(self) -> str:
        """One human line for logs and the CLI."""
        line = (
            f"{self.n_maximal} bicliques from shards "
            f"{self.completed_shards} of {self.plan.n_shards}"
        )
        if not self.is_partial:
            return line
        return f"degraded: {line}; quarantined {self.quarantined}"


class ShardCoordinator:
    """Plan → fan out → merge one sharded enumeration.

    Parameters
    ----------
    graph, n_shards:
        The input and how many ways to split its root-task space.
    config:
        Kernel knobs shared by every shard (default :class:`GMBEConfig`;
        order is re-pinned to the plan's).
    balancer:
        Ownership assignment strategy (:data:`~repro.sharding.BALANCERS`).
    plan:
        Pre-built plan to reuse (skips building; must match ``graph``
        and ``n_shards``).
    device, n_gpus_per_shard:
        Dedicated-placement hardware: each shard gets its own
        ``device`` with this many GPUs (a positive integer).
    cluster:
        Cluster placement instead: shards round-robin over the
        cluster's GPUs (one GPU per shard, plus that GPU's
        counter-claim surcharge), serial per GPU.
    pool, n_workers:
        Dispatch substrate.  ``"thread"`` (default) runs the shards
        sequentially in the calling thread — the simulated makespan is
        unchanged, since each shard models its own device.
        ``"process"`` runs them on supervised worker processes (real
        crash isolation and wall-clock parallelism): the process-wide
        warm pool when it is free (see :class:`_SharedPool`), else a
        private :class:`~repro.parallel.ProcessWorkerPool` — always a
        private one with ``n_workers``, ``supervisor_policy`` or
        ``chaos_kills``.  A :class:`~repro.parallel.ProcessWorkerPool`
        object is used as given.  Process dispatch adds per-shard
        retry: a shard whose worker dies is resubmitted (resuming from
        its checkpoint when ``checkpoint_dir`` is set) up to
        ``max_shard_attempts`` times, then **quarantined** — and the
        run returns a :class:`ShardReport` with ``is_partial`` set
        instead of raising, with resume handles for the lost shards.
        Either way every shard runs
        :func:`~repro.sharding.run_shard_task`.
        ``extras["pool_stats"]`` counts the supervision events of this
        run only, not the lifetime of a shared pool.
    max_shard_attempts:
        Attempt budget per shard under process dispatch (a positive
        integer); thread dispatch fails fast.
    supervisor_policy:
        Heartbeat/deadline/restart knobs for a private process pool
        (see :class:`~repro.parallel.SupervisorPolicy`).
    chaos_kills:
        Test-only fault injection, keyed by shard id:
        ``{shard: (n_attempts, delay_s)}`` SIGKILLs the worker running
        that shard ``delay_s`` seconds into each of its first
        ``n_attempts`` attempts.  The chaos harness for the supervision
        tests — never set it outside one.
    checkpoint_dir, checkpoint_every:
        Enable per-shard checkpointing under this directory, a snapshot
        every ``checkpoint_every`` (a positive integer) completed tasks.
    fault_plans, halt_after_tasks:
        Per-shard robustness injection, keyed by shard id (shards not
        in the mapping run clean).  A key that names no shard raises
        :class:`ValueError`, as it does in ``chaos_kills``.
    telemetry:
        Explicit telemetry; defaults to ambient discovery.  Both pools
        give the **same span tree**: each shard's ``sim.kernel``,
        ``sim.phase.*`` and fault records share the job's ``trace_id``
        and ``job_id`` under a per-shard ``shard.run`` span in the
        ``shard.job`` tree.  Inline shards record into this telemetry
        directly; process shards get a picklable
        :class:`~repro.telemetry.TraceContext` and send their records
        back, which the coordinator re-parents under its per-attempt
        ``shard.run``/``shard.retry`` spans and folds into the parent
        registry — plus parent-side ``supervisor.*`` counters.
    flight_dir:
        When set, a quarantined (degraded) run dumps its flight record
        — merged span tree, last-N records per worker including a dead
        worker's final heartbeat flush, supervisor verdicts, attempt
        ledger — to ``flight-{job}.json`` in this directory (see
        :mod:`repro.telemetry.flight`).
    """

    def __init__(
        self,
        graph: BipartiteGraph,
        n_shards: int,
        *,
        config: GMBEConfig | None = None,
        balancer: str = "greedy",
        plan: ShardPlan | None = None,
        device: DeviceSpec = A100,
        n_gpus_per_shard: int = 1,
        cluster: ClusterSpec | None = None,
        pool: ProcessWorkerPool | str | None = None,
        n_workers: int | None = None,
        max_shard_attempts: int = 3,
        supervisor_policy: SupervisorPolicy | None = None,
        chaos_kills: Mapping[int, tuple[int, float]] | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 256,
        fault_plans: Mapping[int, object] | None = None,
        halt_after_tasks: Mapping[int, int] | None = None,
        telemetry=None,
        flight_dir: str | None = None,
    ) -> None:
        self.graph = graph
        self.n_shards = n_shards
        self.config = GMBEConfig() if config is None else config
        self.balancer = balancer
        self.device = device
        # Per-shard arguments are checked here, before any shard runs:
        # a bad one would otherwise fail every shard and quarantine it.
        _check_positive_int("n_gpus_per_shard", n_gpus_per_shard)
        _check_positive_int("checkpoint_every", checkpoint_every)
        _check_positive_int("max_shard_attempts", max_shard_attempts)
        self.n_gpus_per_shard = n_gpus_per_shard
        self.cluster = cluster
        if isinstance(pool, ProcessWorkerPool):
            self._pool = pool
            self.pool_backend = "process"
        elif pool is None or pool in ("thread", "process"):
            self._pool = None
            self.pool_backend = pool or "thread"
        else:
            raise ValueError(
                f"pool must be 'thread', 'process', or a "
                f"ProcessWorkerPool, got {pool!r}"
            )
        self.n_workers = n_workers
        self.max_shard_attempts = max_shard_attempts
        self.supervisor_policy = supervisor_policy
        self.chaos_kills = dict(chaos_kills) if chaos_kills else {}
        if self.chaos_kills and self.pool_backend != "process":
            raise ValueError(
                "chaos_kills requires the process pool backend"
            )
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.fault_plans = dict(fault_plans) if fault_plans else {}
        self.halt_after_tasks = (
            dict(halt_after_tasks) if halt_after_tasks else {}
        )
        for name in ("chaos_kills", "fault_plans", "halt_after_tasks"):
            for key in getattr(self, name):
                if (not isinstance(key, int) or isinstance(key, bool)
                        or not 0 <= key < n_shards):
                    raise ValueError(
                        f"{name} key {key!r} is not a shard id: expected "
                        f"an int in [0, {n_shards}) for n_shards={n_shards}"
                    )
        self.telemetry = telemetry
        self.flight_dir = flight_dir
        if plan is not None:
            plan.validate_against(graph)
            if plan.n_shards != n_shards:
                raise ValueError(
                    f"plan has {plan.n_shards} shards, coordinator was "
                    f"asked for {n_shards}"
                )
        self._plan = plan

    # ------------------------------------------------------------------
    def _placement(self) -> tuple[list[int], list[DeviceSpec], list[float | None], list[int]]:
        """Per-shard (gpu index, device, surcharge, n_gpus)."""
        if self.cluster is None:
            return (
                list(range(self.n_shards)),
                [self.device] * self.n_shards,
                [None] * self.n_shards,
                [self.n_gpus_per_shard] * self.n_shards,
            )
        surcharges = self.cluster.surcharges()
        gpu_of = [i % self.cluster.n_gpus for i in range(self.n_shards)]
        return (
            gpu_of,
            [self.cluster.device] * self.n_shards,
            [surcharges[g] for g in gpu_of],
            [1] * self.n_shards,
        )

    # ------------------------------------------------------------------
    def plan_shards(self) -> ShardPlan:
        """Build (or return the cached) ownership plan."""
        if self._plan is None:
            self._plan = ShardPlan.build(
                self.graph,
                self.n_shards,
                order=self.config.order,
                balancer=self.balancer,
            )
        return self._plan

    def run(self) -> ShardReport:
        """Execute every shard and merge; see :class:`ShardReport`."""
        # The caller's object travels down as given: a disabled one must
        # reach each layer so that none falls back to ambient telemetry.
        given = (
            self.telemetry if self.telemetry is not None
            else current_telemetry()
        )
        telemetry = given if given is not None and given.enabled else None
        tracer = telemetry.tracer if telemetry is not None else NULL_TRACER

        with tracer.span(
            "shard.job", n_shards=self.n_shards, balancer=self.balancer
        ) as job_span:
            with tracer.span("shard.plan") as plan_span:
                plan = self.plan_shards()
                config = self.config
                if config.order != plan.order:
                    # A given plan may be built under another order;
                    # ownership was computed under the plan's, which
                    # must win.
                    config = config.with_(order=plan.order)
                if telemetry is not None:
                    plan_span.set_attr("n_roots", plan.n_roots)
                    plan_span.set_attr("imbalance", round(plan.imbalance(), 4))
                    plan_span.set_attr("signature", plan.signature()[:16])

            gpu_of, devices, surcharges, gpu_counts = self._placement()
            quarantine: dict[int, str] = {}
            if self.pool_backend == "process":
                results, attempts, quarantine, recorder, pool_stats = (
                    self._dispatch_supervised(
                        plan, config, devices, surcharges, gpu_counts,
                        telemetry, tracer, job_span,
                    )
                )
                extra_dispatch = {
                    "shard_attempts": dict(attempts),
                    "pool_stats": pool_stats,
                }
            else:
                # One after another in this thread, failing fast; each
                # shard.run span nests under shard.job.
                results = []
                for i in range(self.n_shards):
                    try:
                        results.append(run_shard_task(
                            self.graph, plan, i, telemetry=given,
                            **self._shard_kwargs(
                                i, config, devices, surcharges, gpu_counts
                            ),
                        ))
                    except Exception as exc:
                        exc.add_note(
                            f"raised while running shard {i}/{self.n_shards}"
                        )
                        raise
                extra_dispatch = {}

            with tracer.span("shard.merge") as merge_span:
                bicliques = merge_shard_results(results)
                if telemetry is not None:
                    merge_span.set_attr("n_maximal", len(bicliques))
                    if quarantine:
                        merge_span.set_attr("partial", True)

            counters = Counters()
            placement = [gpu_of[r.shard_id] for r in results]
            # fleet time under the placement: max per-GPU serial sum
            per_gpu: dict[int, float] = {}
            for r, gpu in zip(results, placement):
                counters.merge(r.counters)
                per_gpu[gpu] = per_gpu.get(gpu, 0.0) + r.sim_time
            makespan = max(per_gpu.values(), default=0.0)
            halted = any(r.halted for r in results)
            if telemetry is not None:
                job_span.set_attr("n_maximal", len(bicliques))
                job_span.set_attr("halted", halted)
                job_span.set_attr("sim_seconds", makespan)
                registry = telemetry.registry
                registry.counter("shard.jobs").add(1)
                registry.counter("shard.fanout").add(self.n_shards)
                if halted:
                    registry.counter("shard.jobs.halted").add(1)
            resume = []
            if quarantine:
                resume = self._degrade(
                    plan, attempts, quarantine, telemetry, job_span,
                    recorder, extra_dispatch,
                )

        return ShardReport(
            plan=plan,
            shards=results,
            bicliques=bicliques,
            counters=counters,
            sim_time=makespan,
            placement=placement,
            halted=halted,
            extras={
                "per_shard_seconds": [r.sim_time for r in results],
                "imbalance": plan.imbalance(),
                "plan_signature": plan.signature(),
                "resumed_shards": [r.shard_id for r in results if r.resumed],
                "config": config,
                **extra_dispatch,
            },
            quarantined=sorted(quarantine),
            resume=resume,
        )

    def _shard_kwargs(self, i, config, devices, surcharges, gpu_counts):
        """Shard ``i``'s :func:`run_shard_task` keywords (telemetry aside)."""
        return dict(
            config=config,
            device=devices[i],
            n_gpus=gpu_counts[i],
            root_pull_surcharge=surcharges[i],
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            fault_plan=self.fault_plans.get(i),
            halt_after_tasks=self.halt_after_tasks.get(i),
        )

    # ------------------------------------------------------------------
    # Process dispatch
    # ------------------------------------------------------------------
    def _pool_event_recorder(self, telemetry, flight=None):
        """Map pool supervision events onto ``supervisor.*`` counters
        (and into the flight recorder's verdict log, when one exists)."""
        if telemetry is None and flight is None:
            return None
        registry = telemetry.registry if telemetry is not None else None
        tracer = telemetry.tracer if telemetry is not None else NULL_TRACER

        def record(kind: str, info: dict) -> None:
            if registry is not None:
                name = _SUPERVISOR_COUNTERS.get(kind)
                if name is not None:
                    registry.counter(name).add(1)
                if (kind == "death"
                        and info.get("reason") in ("hung", "deadline")):
                    registry.counter("supervisor.worker_hangs").add(1)
            if kind == "restart":
                tracer.event("worker.restart", **info)
            if flight is not None:
                flight.note_pool_event(kind, info)

        return record

    def _dispatch_supervised(
        self, plan, config, devices, surcharges, gpu_counts,
        telemetry, tracer, job_span,
    ):
        """Process fan-out with per-shard retry and quarantine.

        Returns ``(results, attempts, quarantine, recorder, pool_stats)``
        where ``results`` maps shard id → :class:`ShardResult` for every
        shard that finished (as a list, shard-ordered), ``attempts``
        counts attempts per shard, ``quarantine`` maps the shards that
        exhausted their budget to their last error string, ``recorder``
        is the job's :class:`FlightRecorder` (or None), and
        ``pool_stats`` is the pool's supervision counters over this run
        (see :meth:`_process_pool`) plus its per-worker detail.

        Telemetry: the coordinator opens one *detached* span per
        dispatched attempt — ``shard.run`` for the first, ``shard.retry``
        for re-dispatches — closed when that future resolves, so a
        SIGKILLed attempt still leaves an ``status="error"`` span.  A
        :class:`TraceContext` naming that span travels into the worker;
        the snapshots the worker sends back (heartbeat piggyback + final
        flush on the result) are folded *after* the dispatch loop in
        shard/attempt/seq order, so the merged registry and trace are
        identical regardless of which worker finished first.
        """
        registry = telemetry.registry if telemetry is not None else None
        capture = telemetry is not None
        if registry is not None:
            _register_supervisor_metrics(registry)
        recorder = None
        if capture or self.flight_dir is not None:
            recorder = FlightRecorder(
                job_id=getattr(job_span, "job_id", None),
                trace_id=getattr(job_span, "trace_id", None),
            )
        attempts = {i: 0 for i in range(self.n_shards)}
        quarantine: dict[int, str] = {}
        results: dict[int, ShardResult] = {}
        pending: dict = {}
        #: (shard, attempt) -> open coordinator-side Span
        attempt_spans: dict[tuple[int, int], object] = {}
        #: (shard, attempt) -> heartbeat-flushed TelemetrySnapshots
        flushes: dict[tuple[int, int], list] = {}
        #: (shard, attempt) -> the final flush off the ShardResult
        finals: dict[tuple[int, int], TelemetrySnapshot] = {}

        def on_aux(worker_id: int, payload) -> None:
            # Monitor-thread context: collect only; folding happens on
            # the coordinator thread after dispatch completes.
            if isinstance(payload, TelemetrySnapshot):
                key = (payload.shard_id, payload.attempt)
                flushes.setdefault(key, []).append(payload)

        def submit(i: int, prior_error: str | None = None) -> None:
            attempts[i] += 1
            att = attempts[i]
            kwargs = self._shard_kwargs(
                i, config, devices, surcharges, gpu_counts
            )
            chaos = self.chaos_kills.get(i)
            if chaos is not None and att <= chaos[0]:
                kwargs["chaos_kill_after"] = chaos[1]
            if capture:
                span = tracer.begin_span(
                    "shard.run" if att == 1 else "shard.retry",
                    parent=job_span,
                    shard=i,
                    attempt=att,
                    dispatch="process",
                )
                if prior_error is not None:
                    span.set_attr("error", prior_error)
                attempt_spans[(i, att)] = span
                kwargs["trace"] = TraceContext(
                    trace_id=span.trace_id,
                    parent_span_id=span.span_id,
                    job_id=span.job_id,
                )
                kwargs["attempt"] = att
            future = pool.submit(
                run_shard_task, self.graph, plan, i,
                worker_label=f"shard {i}/{self.n_shards}",
                **kwargs,
            )
            pending[future] = i

        with self._process_pool(
            self._pool_event_recorder(telemetry, recorder),
            on_aux if capture else None,
        ) as (pool, baseline):
            for i in range(self.n_shards):
                submit(i)
            while pending:
                done, _ = cf_wait(
                    set(pending), return_when=FIRST_COMPLETED
                )
                for future in done:
                    i = pending.pop(future)
                    att = attempts[i]
                    span = attempt_spans.get((i, att))
                    try:
                        result = future.result()
                    except (Exception, CancelledError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        pool_gone = isinstance(exc, PoolBrokenError)
                        if span is not None:
                            tracer.finish_span(
                                span, status="error", error=error
                            )
                        if recorder is not None:
                            recorder.note_attempt(
                                i, att, status="error", error=error
                            )
                        if registry is not None:
                            registry.counter(
                                "supervisor.shard_failures"
                            ).add(1)
                        dead_end = pool_gone or pool.broken
                        if (not dead_end
                                and att < self.max_shard_attempts):
                            # The shard resumes from its own checkpoint
                            # (if any) on a restarted worker; the pool
                            # already replaced the dead process
                            # underneath us.
                            submit(i, prior_error=error)
                            if registry is not None:
                                registry.counter(
                                    "supervisor.shard_retries"
                                ).add(1)
                        else:
                            quarantine[i] = error
                            if registry is not None:
                                registry.counter(
                                    "supervisor.shards_quarantined"
                                ).add(1)
                        continue
                    results[i] = result
                    final = result.extras.pop("telemetry", None)
                    if isinstance(final, TelemetrySnapshot):
                        finals[(i, att)] = final
                    if span is not None:
                        span.set_attr("n_maximal", result.n_maximal)
                        span.set_attr("resumed", result.resumed)
                        span.set_attr("halted", result.halted)
                        tracer.finish_span(span)
                    if recorder is not None:
                        recorder.note_attempt(
                            i, att, status="ok",
                            pid=(final.pid
                                 if isinstance(final, TelemetrySnapshot)
                                 else None),
                        )
            pool_stats = pool.stats()
            for key, before in baseline.items():
                pool_stats[key] -= before
        if capture or recorder is not None:
            self._fold_worker_telemetry(
                telemetry, recorder, job_span, attempt_spans,
                flushes, finals,
            )
        ordered = [results[i] for i in sorted(results)]
        return ordered, attempts, quarantine, recorder, pool_stats

    @contextmanager
    def _process_pool(self, on_event, on_aux):
        """Yield ``(pool, baseline)`` for one supervised dispatch.

        The pool is the caller's, a lease on the shared warm pool, or a
        private one built for this run and shut down after it.
        ``on_event``/``on_aux`` are installed for this run only.
        ``baseline`` holds the pool's supervision counters from before
        the run (empty for a pool built for it), so the caller can
        report what happened during this run alone.
        """
        n_workers = self.n_workers or min(
            self.n_shards, os.cpu_count() or 1, 8
        )
        lease = None
        if (self._pool is None and self.n_workers is None
                and self.supervisor_policy is None and not self.chaos_kills):
            lease = _SHARED_POOL.acquire(n_workers, on_event)
        own = self._pool is None and lease is None
        if lease is not None:
            pool, baseline = lease
        elif own:
            pool, baseline = ProcessWorkerPool(
                n_workers, policy=self.supervisor_policy, on_event=on_event
            ), {}
        else:
            pool, baseline = self._pool, self._pool.supervisor.summary()
        prev = pool.supervisor.on_event, pool.on_aux
        if on_event is not None:
            pool.supervisor.on_event = on_event
        if on_aux is not None:
            pool.on_aux = on_aux
        try:
            yield pool, baseline
        finally:
            pool.supervisor.on_event, pool.on_aux = prev
            if own:
                pool.shutdown()
            elif lease is not None:
                _SHARED_POOL.release()

    def _fold_worker_telemetry(
        self, telemetry, recorder, job_span, attempt_spans, flushes,
        finals,
    ) -> None:
        """Re-parent and merge everything the workers sent back.

        Runs once, after the dispatch loop, iterating attempts in
        (shard, attempt, seq) order — worker *completion* order cannot
        influence the merged registry or the record stream.  Records
        from every attempt (including dead ones) are re-parented into
        the trace; registry dumps are folded only from *final* flushes
        — a dead attempt's counters stay out of the parent registry
        (its checkpoint-resumed retry partially replays that work) but
        survive in the flight record via its last heartbeat flush.
        """
        registry = telemetry.registry if telemetry is not None else None
        trace_id = getattr(job_span, "trace_id", None)
        job_id = getattr(job_span, "job_id", None)
        keys = sorted(set(attempt_spans) | set(flushes) | set(finals))
        for key in keys:
            shard_id, attempt = key
            span = attempt_spans.get(key)
            parent_sid = (
                span.span_id if span is not None
                else getattr(job_span, "span_id", None)
            )
            if recorder is not None and span is not None:
                recorder.add_record(span.to_dict())
            snaps = sorted(
                list(flushes.get(key, ())), key=lambda s: s.seq
            )
            final = finals.get(key)
            if final is not None:
                snaps.append(final)
            dropped = 0
            for snap in snaps:
                reparented = reparent_records(
                    snap.records,
                    trace_id=trace_id,
                    parent_span_id=parent_sid,
                    job_id=job_id,
                    prefix=f"s{shard_id}a{attempt}:",
                )
                if telemetry is not None:
                    telemetry.ingest(reparented)
                if recorder is not None:
                    recorder.add_snapshot(snap, records=reparented)
                dropped = snap.dropped
            if registry is not None:
                if final is not None and final.metrics:
                    registry.merge(final.metrics)
                if dropped:
                    registry.counter(
                        "telemetry.worker.dropped",
                        description=(
                            "records lost to worker-side ring overflow "
                            "before they could be flushed"
                        ),
                    ).add(dropped)

    def _degrade(
        self, plan, attempts, quarantine, telemetry, job_span, recorder,
        extras,
    ) -> list[ResumeHandle]:
        """Add what a quarantine adds to the report; return its resume
        handles.

        ``extras`` gains ``shard_errors`` and, when telemetry (or a
        ``flight_dir``) is active, the flight recorder's black box as
        ``extras["flight"]`` — merged span tree, each worker's last
        flushed records, supervisor verdicts, and the attempt ledger —
        which is also written to ``flight-{job}.json`` under
        ``self.flight_dir`` when set (``extras["flight_path"]``).
        """
        extras["shard_errors"] = dict(quarantine)
        if telemetry is not None:
            telemetry.registry.counter("supervisor.jobs_degraded").add(1)
            job_span.set_attr("degraded", True)
            job_span.set_attr("quarantined", sorted(quarantine))
        if recorder is not None:
            if telemetry is not None and hasattr(job_span, "to_dict"):
                # Still open (no end_s yet) — recorded so the flight's
                # span tree has its shard.job root.
                recorder.add_record(job_span.to_dict())
            flight = recorder.build(
                "quarantine",
                quarantined=sorted(quarantine),
                shard_errors=dict(quarantine),
                shard_attempts=dict(attempts),
                pool_stats=extras["pool_stats"],
            )
            extras["flight"] = flight
            if self.flight_dir is not None:
                try:
                    extras["flight_path"] = write_flight_record(
                        self.flight_dir, flight
                    )
                except OSError:
                    # The black box must never turn a degraded run into
                    # a failed one; the in-memory copy is still attached.
                    pass
        return [
            ResumeHandle(
                shard_id=i,
                checkpoint_path=shard_checkpoint_path(
                    self.checkpoint_dir, plan, i
                ),
                attempts=attempts[i],
                last_error=quarantine[i],
            )
            for i in sorted(quarantine)
        ]
