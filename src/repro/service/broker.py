"""Asyncio enumeration broker: admission, coalescing, dispatch.

One :class:`EnumerationBroker` owns the full serving pipeline::

    submit → cache lookup → coalesce with in-flight twin → bounded
    priority queue → dispatcher → worker pool → resilience wrapper →
    cache fill → fan-out to every waiter

Design decisions worth knowing:

- **Admission is explicit backpressure.**  The queue is bounded; a full
  queue raises :class:`AdmissionError` *at submission* instead of
  buffering unboundedly — the caller decides whether to shed or retry.
- **Coalescing is key-exact.**  Two jobs with the same cache key (graph
  fingerprint, algorithm, config signature, size filters) in flight at
  once execute **once**; every waiter receives the result, the
  duplicates marked ``coalesced``.
- **Snapshots are point-in-time.**  A job against a registered dynamic
  graph runs on the snapshot taken at submission.  A later edge update
  invalidates the cache entries for that graph (and changes the
  fingerprint), so no *future* job can hit a stale result — but an
  already-submitted job still answers for the moment it was admitted.
- **Faults stay inside the job.**  A worker raising mid-enumeration
  burns one attempt of that job only; dispatchers and the pool survive
  arbitrary job exceptions.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import inspect
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

from ..api import as_bipartite_graph, enumerate_maximal_bicliques
from ..core.bicliques import RaggedBicliques
from ..gmbe import GMBEConfig
from ..graph import BipartiteGraph
from ..sharding import DegradedShardRun
from ..store import StoredResultSet
from ..streaming import DynamicBipartiteGraph
from ..telemetry import (
    NULL_TRACER, MetricsRegistry, Telemetry, run_with_telemetry,
)
from ..telemetry.flight import FLIGHT_VERSION, write_flight_record
from ..tuning import TunedConfigStore, TuningStoreError, device_key, tune
from ..gpusim.device import A100
from .cache import ResultCache
from .jobs import Job, JobResult, JobStatus
from .resilience import ResiliencePolicy, execute_with_retry

__all__ = ["AdmissionError", "EnumerationBroker", "default_runner"]


class AdmissionError(RuntimeError):
    """The admission queue is full; the job was rejected, not queued."""


#: ``# HELP`` text for every ``service.*`` counter and histogram the
#: broker records (Prometheus export)
_SERVICE_DESCRIPTIONS = {
    "service.jobs.submitted": "jobs accepted past admission control",
    "service.jobs.completed": "jobs that finished with a full result",
    "service.jobs.degraded":
        "sharded jobs that returned a partial result after quarantine",
    "service.jobs.failed": "jobs that raised and exhausted retries",
    "service.jobs.rejected": "submissions refused by admission control",
    "service.jobs.timeouts": "jobs cancelled by their deadline",
    "service.jobs.expired": "queued jobs whose TTL lapsed before dispatch",
    "service.jobs.shed": "queued jobs dropped by load shedding",
    "service.jobs.cancelled": "jobs cancelled by the client",
    "service.jobs.retries": "job attempts re-dispatched after a failure",
    "service.jobs.coalesced":
        "submissions answered by piggybacking an identical in-flight job",
    "service.jobs.resumed": "jobs resumed from a checkpoint",
    "service.jobs.sharded": "jobs dispatched through the shard coordinator",
    "service.shard.auto_suppressed":
        "auto-sharding decisions suppressed by the shard circuit breaker",
    "service.shard.breaker_opened": "shard circuit breaker open transitions",
    "service.cache.hits": "result-cache hits",
    "service.cache.misses": "result-cache misses",
    "service.tuning.hits": "tuned-config store hits at dispatch",
    "service.tuning.misses": "tuned-config store misses at dispatch",
    "service.tuning.started": "background auto-tune runs started",
    "service.latency_ms": "end-to-end latency of jobs that ran on a worker",
    "service.cache.hit_latency_ms":
        "latency of jobs answered straight from the result cache",
    "service.queue.depth": "queue depth observed at each admission",
}

#: the entries of ``_SERVICE_DESCRIPTIONS`` that are histograms
_SERVICE_HISTOGRAMS = (
    "service.latency_ms",
    "service.cache.hit_latency_ms",
    "service.queue.depth",
)


def _register_service_metrics(registry: MetricsRegistry) -> None:
    """Pre-create the ``service.*`` instruments with their HELP text."""
    for name, description in _SERVICE_DESCRIPTIONS.items():
        make = (registry.histogram if name in _SERVICE_HISTOGRAMS
                else registry.counter)
        make(name, description=description)


def default_runner(
    job: Job,
    graph: BipartiteGraph,
    config: GMBEConfig,
    checkpoint_path: str | None = None,
    shards: int = 1,
    shard_pool: str = "thread",
):
    """Execute one job exactly like the one-shot API would, returning
    its result as a :class:`~repro.store.StoredResultSet`.

    When the broker assigns a ``checkpoint_path`` (its ``checkpoint_dir``
    is set and the job runs GMBE), the enumeration snapshots its
    frontier there and — if a previous attempt of the same job left a
    checkpoint behind — resumes from it instead of starting over.

    With ``shards > 1`` the job runs as N shard-jobs over disjoint
    root-task ownership sets (see :mod:`repro.sharding`) on the
    ``shard_pool`` backend (``"thread"`` or supervised ``"process"``);
    ``checkpoint_path`` is then a *directory* of per-shard snapshots, so
    a retry resumes exactly the shards that crashed.  A process-backed
    run that quarantines shards raises
    :class:`~repro.sharding.DegradedShardRun` — the broker maps it to
    the ``degraded`` job status.
    """
    kwargs: dict = {}
    if job.algorithm == "gmbe":
        if shards > 1:
            kwargs.update(shards=shards, shard_pool=shard_pool,
                          checkpoint_path=checkpoint_path)
        elif checkpoint_path is not None:
            kwargs.update(checkpoint_path=checkpoint_path,
                          resume=os.path.exists(checkpoint_path))
    return enumerate_maximal_bicliques(
        graph,
        algorithm=job.algorithm,
        min_left=job.min_left,
        min_right=job.min_right,
        config=config,
        as_store=True,
        **kwargs,
    )


def _accepts_kwarg(runner, name: str) -> bool:
    """True if ``runner`` takes ``name`` as a keyword."""
    try:
        params = inspect.signature(runner).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False
    if name in params:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


@dataclass
class _Entry:
    job: Job
    graph: BipartiteGraph
    config: GMBEConfig
    key: tuple
    tag: str | None
    future: asyncio.Future
    submitted_at: float
    deadline_at: float | None
    cancelled: bool = False
    #: effective shard fan-out (job-requested or auto-shard policy)
    shards: int = 1


def _swallow(cf) -> None:
    # An attempt abandoned by wait_for may still finish (threads can't be
    # interrupted); consume its outcome so nothing leaks a warning.
    try:
        if not cf.cancelled():
            cf.exception()
    except Exception:
        pass


class EnumerationBroker:
    """The service front door; see module docstring for the pipeline."""

    def __init__(
        self,
        *,
        n_workers: int = 4,
        queue_depth: int = 64,
        cache: ResultCache | None = None,
        policy: ResiliencePolicy | None = None,
        base_config: GMBEConfig | None = None,
        runner: Callable[[Job, BipartiteGraph, GMBEConfig], list] | None = None,
        checkpoint_dir: str | None = None,
        telemetry: Telemetry | None = None,
        telemetry_flush_interval: float = 5.0,
        tuning_store: TunedConfigStore | str | None = None,
        tune_on_miss: bool = True,
        tune_budget=None,
        auto_shard_over_edges: int | None = None,
        auto_shard_count: int = 4,
        shard_pool: str = "thread",
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        flight_dir: str | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if telemetry_flush_interval <= 0:
            raise ValueError("telemetry_flush_interval must be positive")
        if auto_shard_over_edges is not None and auto_shard_over_edges < 0:
            raise ValueError(
                f"auto_shard_over_edges must be non-negative, "
                f"got {auto_shard_over_edges}"
            )
        if auto_shard_count < 2:
            raise ValueError(
                f"auto_shard_count must be at least 2, got {auto_shard_count}"
            )
        if shard_pool not in ("thread", "process"):
            raise ValueError(
                f'shard_pool must be "thread" or "process", got {shard_pool!r}'
            )
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be positive, got {breaker_threshold}"
            )
        if breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be positive, got {breaker_cooldown}"
            )
        self.n_workers = n_workers
        self.queue_depth = queue_depth
        self.cache = cache if cache is not None else ResultCache()
        policy = policy or ResiliencePolicy()
        if DegradedShardRun not in policy.non_retryable:
            # A degraded sharded run already exhausted its per-shard
            # retry budget inside the coordinator; a broker-level retry
            # would re-run every completed shard just to fail again.
            policy = replace(
                policy,
                non_retryable=policy.non_retryable + (DegradedShardRun,),
            )
        self.policy = policy
        #: unified observability: when a Telemetry object is attached,
        #: the service metrics register into *its* registry (one dotted
        #: namespace for service + kernel), spans flow from submit down
        #: into the enumeration, and a periodic flusher drains the sinks.
        self.telemetry = telemetry
        self.telemetry_flush_interval = telemetry_flush_interval
        self._tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
        self.registry = (
            telemetry.registry if telemetry is not None else MetricsRegistry()
        )
        _register_service_metrics(self.registry)
        self.base_config = base_config or GMBEConfig()
        #: tuned-config store behind the ``Job(config="tuned")`` sentinel.
        #: ``None`` means the sentinel always resolves to ``base_config``.
        if isinstance(tuning_store, (str, os.PathLike)):
            tuning_store = TunedConfigStore(tuning_store)
        self.tuning_store = tuning_store
        #: kick a background tune (on the worker pool) when a "tuned"
        #: job misses the store, so later submissions hit it.
        self.tune_on_miss = tune_on_miss
        self.tune_budget = tune_budget
        #: graph fingerprints with a background tune in flight
        self._tuning_inflight: set[str] = set()
        self._runner = runner or default_runner
        #: jobs checkpoint under this directory (one file per cache key)
        #: so a retried/resubmitted job resumes instead of restarting;
        #: ``None`` disables job-level checkpointing entirely.
        self.checkpoint_dir = checkpoint_dir
        self._runner_takes_checkpoint = _accepts_kwarg(
            self._runner, "checkpoint_path"
        )
        #: route any gmbe job on a graph above this edge count through
        #: the sharding subsystem, even when the job didn't ask — the
        #: "graph one device can't hold" admission policy.  ``None``
        #: shards only jobs that request it (``Job.shards > 1``).
        self.auto_shard_over_edges = auto_shard_over_edges
        self.auto_shard_count = auto_shard_count
        #: pool backend sharded jobs run on ("thread" | supervised
        #: "process"); only forwarded to runners that accept it.
        self.shard_pool = shard_pool
        #: circuit breaker over *auto*-sharding: after this many
        #: consecutive degraded sharded runs, stop volunteering jobs
        #: into the dying shard backend for ``breaker_cooldown`` seconds
        #: (explicitly sharded jobs still go through — the caller asked).
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breaker_failures = 0
        self._breaker_open_until: float | None = None
        self._breaker_probing = False
        #: degraded / pool-broken runs dump their flight record (the
        #: coordinator's black box + this broker's health snapshot) as
        #: ``flight-{job}.json`` under this directory; ``None`` disables.
        self.flight_dir = flight_dir
        #: pool stats off the most recent degraded sharded run — the
        #: per-worker liveness/restart view ``health()`` exposes.
        self._last_shard_pool_stats: dict = {}
        self._runner_takes_shards = _accepts_kwarg(self._runner, "shards")
        self._runner_takes_shard_pool = _accepts_kwarg(
            self._runner, "shard_pool"
        )
        self._graphs: dict[str, DynamicBipartiteGraph] = {}
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._jobs: dict[int, _Entry] = {}
        self._seq = itertools.count()
        self._queue: asyncio.PriorityQueue | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._flusher: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._queue is not None:
            raise RuntimeError("broker already started")
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue(maxsize=self.queue_depth)
        self._pool = ThreadPoolExecutor(self.n_workers)
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatch-{i}")
            for i in range(self.n_workers)
        ]
        if self.telemetry is not None and self.telemetry.enabled:
            self._flusher = asyncio.create_task(
                self._flush_loop(), name="telemetry-flush"
            )

    async def _flush_loop(self) -> None:
        """Periodically drain telemetry sinks and refresh live gauges."""
        assert self.telemetry is not None
        while True:
            await asyncio.sleep(self.telemetry_flush_interval)
            self._observe_gauges()
            self.telemetry.flush()

    def _observe_gauges(self) -> None:
        if self.telemetry is None:
            return
        registry = self.registry
        registry.gauge(
            "service.queue.size", description="jobs waiting in the queue"
        ).set(self.queue_size)
        registry.gauge(
            "service.jobs.in_flight",
            description="distinct jobs queued or running",
        ).set(self.in_flight)
        registry.gauge(
            "service.cache.bytes",
            description="encoded bytes held by the result cache",
        ).set(getattr(self.cache, "current_bytes", 0))

    async def stop(self) -> None:
        if self._flusher is not None:
            self._flusher.cancel()
            await asyncio.gather(self._flusher, return_exceptions=True)
            self._flusher = None
        for task in self._dispatchers:
            task.cancel()
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers = []
        # Resolve whatever never ran so no caller hangs forever.
        for entry in list(self._jobs.values()):
            if not entry.future.done():
                self.registry.counter("service.jobs.cancelled").add(1)
                entry.future.set_result(
                    self._result(entry, JobStatus.CANCELLED,
                                 error="broker stopped")
                )
        self._jobs.clear()
        self._inflight.clear()
        if self._pool is not None:
            # wait=False: a still-running enumeration thread must not
            # block shutdown; its result is already unreachable.
            self._pool.shutdown(wait=False)
            self._pool = None
        self._queue = None
        if self.telemetry is not None:
            self._observe_gauges()
            self.telemetry.flush()

    # ------------------------------------------------------------------
    # Graph registry
    # ------------------------------------------------------------------
    def register_graph(self, name: str, graph) -> DynamicBipartiteGraph:
        """Register a (dynamic) graph under ``name`` and watch it.

        Jobs may then reference it via ``Job(graph_name=name)``; edge
        updates to the returned :class:`DynamicBipartiteGraph` drop the
        cache entries for this graph — and only this graph.
        """
        if name in self._graphs:
            raise ValueError(f"graph {name!r} already registered")
        if isinstance(graph, DynamicBipartiteGraph):
            dyn = graph
        else:
            dyn = DynamicBipartiteGraph.from_graph(as_bipartite_graph(graph))
        self._graphs[name] = dyn
        self.cache.watch(dyn, tag=name)
        return dyn

    def _resolve_graph(self, job: Job) -> tuple[BipartiteGraph, str | None]:
        if job.graph_name is not None:
            dyn = self._graphs.get(job.graph_name)
            if dyn is None:
                raise ValueError(
                    f"unknown graph {job.graph_name!r}; registered: "
                    f"{sorted(self._graphs)}"
                )
            return dyn.snapshot(), job.graph_name
        return as_bipartite_graph(job.graph), None

    # ------------------------------------------------------------------
    # Tuned-config resolution
    # ------------------------------------------------------------------
    #: the topology ``default_runner`` executes on (api defaults), and
    #: therefore the topology tuned configs are looked up for.
    _TUNE_DEVICE_KEY = device_key(A100, 1)

    def _resolve_tuned(self, graph: BipartiteGraph) -> GMBEConfig | None:
        """Store lookup for a ``config="tuned"`` job.

        Hit: the stored config (zero simulator work).  Miss: ``None``
        (the caller falls back to ``base_config``) and, when enabled, a
        fire-and-forget background tune on the worker pool so later
        submissions for this graph hit the store.  A corrupt store
        entry degrades to a miss — serving must not fail on it — and
        the background re-tune overwrites the bad file.
        """
        if self.tuning_store is None:
            return None
        try:
            entry = self.tuning_store.get(
                graph.fingerprint, self._TUNE_DEVICE_KEY
            )
        except TuningStoreError:
            entry = None
        if entry is not None:
            self.registry.counter("service.tuning.hits").add(1)
            return entry.config
        self.registry.counter("service.tuning.misses").add(1)
        self._maybe_tune_in_background(graph)
        return None

    def _maybe_tune_in_background(self, graph: BipartiteGraph) -> None:
        if not self.tune_on_miss or self._pool is None:
            return
        fingerprint = graph.fingerprint
        if fingerprint in self._tuning_inflight:
            return
        self._tuning_inflight.add(fingerprint)
        self.registry.counter("service.tuning.started").add(1)
        cf = self._pool.submit(
            tune,
            graph,
            budget=self.tune_budget,
            store=self.tuning_store,
        )

        def _done(f) -> None:
            self._tuning_inflight.discard(fingerprint)
            _swallow(f)  # a failed tune must never surface in serving

        cf.add_done_callback(_done)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(self, job: Job) -> asyncio.Future:
        """Admit ``job``; the returned future resolves to its JobResult.

        Raises :class:`AdmissionError` when the queue is full and
        :class:`ValueError` for unresolvable jobs (unknown graph name).
        Cache hits and coalesced twins resolve without touching the
        queue.
        """
        if self._queue is None or self._loop is None:
            raise RuntimeError("broker is not started")
        loop = self._loop
        t0 = loop.time()
        self.registry.counter("service.jobs.submitted").add(1)
        job.id = next(self._seq)
        graph, tag = self._resolve_graph(job)
        tuned = self._resolve_tuned(graph) if job.wants_tuned else None
        # The cache key (and the per-key job checkpoint below) is built
        # from the *resolved* config, never the "tuned" sentinel: a
        # re-tune yields a different signature, so stale entries keyed
        # under the previous tuned config simply become unreachable.
        config = job.resolve_config(self.base_config, tuned=tuned)
        key = ResultCache.make_key(
            graph, job.algorithm, config, job.min_left, job.min_right
        )

        with self._tracer.span(
            "cache.lookup", job_id=job.id, algorithm=job.algorithm
        ) as lookup_span:
            cached = self.cache.get(key)
            lookup_span.set_attr("hit", cached is not None)
        if cached is not None:
            self.registry.counter("service.cache.hits").add(1)
            latency = (loop.time() - t0) * 1e3
            self.registry.histogram(
                "service.cache.hit_latency_ms"
            ).record(latency)
            fut = loop.create_future()
            fut.set_result(
                JobResult(
                    job_id=job.id,
                    status=JobStatus.COMPLETED,
                    algorithm=job.algorithm,
                    store=cached,
                    cache_hit=True,
                    latency_ms=latency,
                )
            )
            return fut
        self.registry.counter("service.cache.misses").add(1)

        primary = self._inflight.get(key)
        if primary is not None:
            self.registry.counter("service.jobs.coalesced").add(1)
            waiter = loop.create_future()
            job_id = job.id

            def _fan_out(f: asyncio.Future) -> None:
                if waiter.cancelled():
                    return
                if f.cancelled():
                    waiter.cancel()
                    return
                exc = f.exception()
                if exc is not None:
                    waiter.set_exception(exc)
                    return
                res: JobResult = f.result()
                waiter.set_result(
                    replace(
                        res,
                        job_id=job_id,
                        coalesced=True,
                        cache_hit=False,
                        latency_ms=(loop.time() - t0) * 1e3,
                    )
                )

            primary.add_done_callback(_fan_out)
            return waiter

        fut = loop.create_future()
        deadline_at = None if job.deadline is None else t0 + job.deadline
        shards = job.shards
        if (
            shards == 1
            and self.auto_shard_over_edges is not None
            and job.algorithm == "gmbe"
            and graph.n_edges > self.auto_shard_over_edges
        ):
            if self._breaker_blocks(t0):
                self.registry.counter("service.shard.auto_suppressed").add(1)
            else:
                shards = self.auto_shard_count
        if shards > 1 and not self._runner_takes_shards:
            shards = 1  # custom runner can't fan out; run single-node
        entry = _Entry(
            job=job,
            graph=graph,
            config=config,
            key=key,
            tag=tag,
            future=fut,
            submitted_at=t0,
            deadline_at=deadline_at,
            shards=shards,
        )
        try:
            self._queue.put_nowait((job.priority, next(self._seq), entry))
        except asyncio.QueueFull:
            self.registry.counter("service.jobs.rejected").add(1)
            raise AdmissionError(
                f"admission queue full (depth {self.queue_depth}); "
                f"job {job.id} rejected"
            ) from None
        self._inflight[key] = fut
        self._jobs[job.id] = entry
        self.registry.histogram("service.queue.depth").record(
            self._queue.qsize()
        )
        return fut

    async def submit(self, job: Job) -> JobResult:
        """Admit ``job`` and wait for its terminal result."""
        return await self.submit_nowait(job)

    def cancel(self, job_id: int) -> bool:
        """Request cancellation; True if the job was still pending.

        Queued jobs resolve as ``cancelled`` without running; a job
        already executing stops retrying at the next attempt boundary
        (a busy worker thread itself cannot be interrupted).
        """
        entry = self._jobs.get(job_id)
        if entry is None or entry.future.done():
            return False
        entry.cancelled = True
        return True

    # ------------------------------------------------------------------
    # Auto-shard circuit breaker
    # ------------------------------------------------------------------
    def _breaker_blocks(self, now: float) -> bool:
        """True when auto-sharding should be suppressed right now.

        Closed → pass.  Open → block until the cooldown elapses.
        Half-open (cooldown elapsed) → let exactly one probe job
        through; its outcome closes or re-opens the breaker.
        """
        if self._breaker_open_until is None:
            return False
        if now < self._breaker_open_until:
            return True
        if self._breaker_probing:
            return True
        self._breaker_probing = True
        return False

    def _note_shard_outcome(self, ok: bool) -> None:
        """Feed one sharded-run outcome into the breaker."""
        if ok:
            self._breaker_failures = 0
            self._breaker_open_until = None
            self._breaker_probing = False
            return
        self._breaker_failures += 1
        reopen = self._breaker_open_until is not None  # failed probe
        if reopen or self._breaker_failures >= self.breaker_threshold:
            if self._loop is not None:
                self._breaker_open_until = (
                    self._loop.time() + self.breaker_cooldown
                )
            self._breaker_probing = False
            self.registry.counter("service.shard.breaker_opened").add(1)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            _, _, entry = await self._queue.get()
            try:
                await self._run_entry(entry)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defensive: never kill a dispatcher
                if not entry.future.done():
                    self.registry.counter("service.jobs.failed").add(1)
                    entry.future.set_result(
                        self._result(
                            entry, JobStatus.FAILED,
                            error=f"dispatch error: {exc}",
                        )
                    )
            finally:
                self._queue.task_done()

    def _checkpoint_path_for(self, entry: _Entry) -> str | None:
        """Stable per-cache-key checkpoint file, or ``None`` when
        job-level checkpointing is off or the runner can't take one.

        A sharded entry gets a *directory* (one snapshot per shard)
        instead of a file — named off the same key digest, so a
        resubmission after a crash resumes exactly its crashed shards.
        """
        if self.checkpoint_dir is None or not self._runner_takes_checkpoint:
            return None
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        digest = hashlib.sha256(repr(entry.key).encode()).hexdigest()[:16]
        if entry.shards > 1:
            return os.path.join(self.checkpoint_dir, f"job-{digest}.shards")
        return os.path.join(self.checkpoint_dir, f"job-{digest}.ckpt")

    async def _run_entry(self, entry: _Entry) -> None:
        assert self._loop is not None and self._pool is not None
        loop = self._loop
        if entry.cancelled:
            self.registry.counter("service.jobs.cancelled").add(1)
            self._finish(entry, self._result(entry, JobStatus.CANCELLED,
                                             error="cancelled while queued"))
            return
        if entry.deadline_at is not None and loop.time() >= entry.deadline_at:
            # Shed at dequeue: a job whose deadline passed while queued
            # must never occupy a worker just to time out on it.
            self.registry.counter("service.jobs.expired").add(1)
            self.registry.counter("service.jobs.shed").add(1)
            self._finish(entry, self._result(entry, JobStatus.EXPIRED,
                                             error="deadline passed in queue"))
            return

        pool = self._pool
        ckpt_path = self._checkpoint_path_for(entry)
        telemetry = self.telemetry
        traced = telemetry is not None and telemetry.enabled

        def _attempt():
            kwargs = {}
            if entry.shards > 1:
                kwargs["shards"] = entry.shards
                if self._runner_takes_shard_pool:
                    kwargs["shard_pool"] = self.shard_pool
            if ckpt_path is not None:
                if entry.shards > 1:
                    # Directory of per-shard snapshots: a resume is only
                    # real when a crashed shard actually left one behind
                    # (completed shards erase theirs).
                    if os.path.isdir(ckpt_path) and any(
                        f.endswith(".ckpt") for f in os.listdir(ckpt_path)
                    ):
                        self.registry.counter("service.jobs.resumed").add(1)
                elif os.path.exists(ckpt_path):
                    self.registry.counter("service.jobs.resumed").add(1)
                kwargs["checkpoint_path"] = ckpt_path
            if traced:
                # Ship a copy of the broker-side context (current span =
                # the retry attempt) across the thread hop, with the
                # telemetry object planted for ambient discovery — so
                # kernel spans nest under this job with its job_id.
                ctx = contextvars.copy_context()
                cf = pool.submit(
                    ctx.run, run_with_telemetry, telemetry, self._runner,
                    entry.job, entry.graph, entry.config, **kwargs,
                )
            else:
                cf = pool.submit(
                    self._runner, entry.job, entry.graph, entry.config,
                    **kwargs,
                )
            cf.add_done_callback(_swallow)
            return asyncio.wrap_future(cf)

        if entry.shards > 1:
            self.registry.counter("service.jobs.sharded").add(1)
        with self._tracer.span(
            "broker.dispatch",
            job_id=entry.job.id,
            algorithm=entry.job.algorithm,
            shards=entry.shards,
        ) as dispatch_span:
            outcome = await execute_with_retry(
                _attempt,
                self.policy,
                deadline=entry.deadline_at,
                should_cancel=lambda: entry.cancelled,
                tracer=self._tracer,
            )
            degraded = isinstance(outcome.exception, DegradedShardRun)
            dispatch_span.set_attr(
                "status", "degraded" if degraded else outcome.status
            )
            dispatch_span.set_attr("attempts", outcome.attempts)
            if degraded:
                dispatch_span.set_attr(
                    "quarantined",
                    sorted(outcome.exception.partial.quarantined),
                )
        self.registry.counter("service.jobs.retries").add(outcome.retries)
        if outcome.status == "completed":
            # The store is both the result and the cache entry: the byte
            # budget charges encoded size, and hits hand it out undecoded.
            # The default runner returns one; a custom runner's list is
            # encoded here.
            store = outcome.value
            if not isinstance(store, StoredResultSet):
                store = StoredResultSet.from_bicliques(store)
            self.cache.put(entry.key, store, tag=entry.tag)
            self.registry.counter("service.jobs.completed").add(1)
            result = self._result(entry, JobStatus.COMPLETED, store=store,
                                  attempts=outcome.attempts)
            self.registry.histogram("service.latency_ms").record(
                result.latency_ms)
            if entry.shards > 1:
                self._note_shard_outcome(True)
        elif degraded:
            # Explicit partial enumeration: surface everything the run
            # did complete, plus the exact shard inventory — and never
            # cache it (a later submission must get the full set).
            partial = outcome.exception.partial
            self.registry.counter("service.jobs.degraded").add(1)
            breaker_opened = self.registry.counter(
                "service.shard.breaker_opened"
            )
            opened_before = breaker_opened.value
            self._note_shard_outcome(False)
            self._last_shard_pool_stats = dict(
                partial.extras.get("pool_stats") or {}
            )
            self._record_flight(
                entry, "degraded",
                partial=partial,
                breaker_opened_now=breaker_opened.value > opened_before,
            )
            job = entry.job
            result = self._result(
                entry, JobStatus.DEGRADED,
                store=StoredResultSet.from_bicliques(
                    RaggedBicliques.from_bicliques(partial.bicliques).filtered(
                        job.min_left, job.min_right
                    )
                ),
                error=str(outcome.exception),
                attempts=outcome.attempts,
                completed_shards=tuple(partial.completed_shards),
                quarantined_shards=tuple(sorted(partial.quarantined)),
            )
            self.registry.histogram("service.latency_ms").record(
                result.latency_ms)
        else:
            status = {
                "timeout": JobStatus.TIMEOUT,
                "cancelled": JobStatus.CANCELLED,
            }.get(outcome.status, JobStatus.FAILED)
            if status == JobStatus.TIMEOUT:
                self.registry.counter("service.jobs.timeouts").add(1)
            elif status == JobStatus.CANCELLED:
                self.registry.counter("service.jobs.cancelled").add(1)
            else:
                self.registry.counter("service.jobs.failed").add(1)
                if "PoolBrokenError" in (outcome.error or ""):
                    # The shard pool died under the job: nothing partial
                    # to attach, but the black box (attempt count, error,
                    # broker health) still matters most on this path.
                    self._record_flight(entry, "pool_broken",
                                        error=outcome.error)
            result = self._result(
                entry, status, error=outcome.error, attempts=outcome.attempts
            )
        self._finish(entry, result)

    def _result(self, entry: _Entry, status: str, **fields) -> JobResult:
        """``entry``'s result, with its latency since submission."""
        latency = 0.0
        if self._loop is not None:
            latency = (self._loop.time() - entry.submitted_at) * 1e3
        return JobResult(
            job_id=entry.job.id,
            status=status,
            algorithm=entry.job.algorithm,
            latency_ms=latency,
            **fields,
        )

    def _finish(self, entry: _Entry, result: JobResult) -> None:
        # Order matters: the cache is already filled (on success) before
        # the in-flight slot clears, so a submit landing in between
        # either coalesces or hits — it can never duplicate the work.
        self._inflight.pop(entry.key, None)
        self._jobs.pop(entry.job.id, None)
        if not entry.future.done():
            entry.future.set_result(result)

    # ------------------------------------------------------------------
    # Health and the flight recorder
    # ------------------------------------------------------------------
    def _record_flight(
        self, entry: _Entry, reason: str, *, partial=None,
        error: str | None = None, breaker_opened_now: bool = False,
    ) -> str | None:
        """Persist the job's black box under ``self.flight_dir``.

        The coordinator already assembled the interesting part — merged
        span tree, worker last-flushes, supervisor verdicts — into
        ``partial.extras["flight"]``; this stamps the broker's view on
        top (job id, health snapshot, whether this outcome tripped the
        breaker) and writes ``flight-{job}.json``.  Runs that carry no
        coordinator record (telemetry off, or the pool broke before one
        was built) still get a minimal record.  Never raises: the black
        box must not turn a degraded run into a failed one.
        """
        if self.flight_dir is None:
            return None
        flight = None
        if partial is not None:
            flight = partial.extras.get("flight")
        if flight is None:
            flight = {
                "flight_version": FLIGHT_VERSION,
                "reason": reason,
                "job_id": None,
                "trace_id": None,
                "written_unix_s": time.time(),
            }
        else:
            flight = dict(flight)
            flight["reason"] = reason
        if flight.get("job_id") is None:
            flight["job_id"] = entry.job.id
        if error is not None:
            flight["error"] = error
        flight["breaker_opened_now"] = breaker_opened_now
        flight["health"] = self.health()
        try:
            path = write_flight_record(self.flight_dir, flight)
        except OSError:
            return None
        if partial is not None:
            partial.extras["flight_path"] = path
        return path

    def health(self) -> dict:
        """One JSON-serializable liveness snapshot of the broker.

        Answerable while degraded — this is what an operator (or
        ``gmbe serve --status-out``) polls when the service is limping:
        queue pressure, breaker state, and the per-worker
        liveness/restart view from the last supervised shard run.
        """
        now = self._loop.time() if self._loop is not None else None
        if self._breaker_open_until is None:
            breaker_state = "closed"
        elif now is not None and now >= self._breaker_open_until:
            breaker_state = "half-open"
        else:
            breaker_state = "open"
        count = self.registry.counter
        return {
            "running": self._queue is not None,
            "queue": {
                "depth": self.queue_size,
                "capacity": self.queue_depth,
            },
            "jobs": {
                "in_flight": self.in_flight,
                "submitted": count("service.jobs.submitted").value,
                "completed": count("service.jobs.completed").value,
                "degraded": count("service.jobs.degraded").value,
                "failed": count("service.jobs.failed").value,
            },
            "breaker": {
                "state": breaker_state,
                "consecutive_failures": self._breaker_failures,
                "open_until": self._breaker_open_until,
                "probing": self._breaker_probing,
            },
            "workers": {"n_workers": self.n_workers},
            "shard_pool": dict(self._last_shard_pool_stats),
        }

    # ------------------------------------------------------------------
    @property
    def queue_size(self) -> int:
        return 0 if self._queue is None else self._queue.qsize()

    @property
    def in_flight(self) -> int:
        return len(self._inflight)
