"""One shard = one ordinary kernel run restricted to its owned roots.

:func:`run_shard_task` is the one per-shard entry point, whether the
coordinator calls it inline or ships it to a worker process.  It is
deliberately thin: it derives the shard's ``root_mask`` from the plan,
pins the config's ``order`` to the plan's (the ownership rule lives in
prepared vertex space — a shard enumerating under a different order
would own different bicliques), and hands everything else to
:func:`~repro.gmbe.kernel.gmbe_gpu` — so faults, checkpoint/resume,
telemetry, batching, and tuning all work inside a shard exactly as they
do in a single-node run.

Checkpoint isolation: each shard snapshots to its own file, named by the
plan *signature* × shard id, under the coordinator's checkpoint
directory.  The kernel's existing identity guards (graph fingerprint ×
config signature × device topology) validate the snapshot on resume;
the signature-scoped filename guarantees a snapshot written under one
partition can never be picked up by a different plan or shard.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass, field

from ..core.bicliques import BicliqueCollector, Counters, RaggedBicliques
from ..gmbe.config import GMBEConfig
from ..gmbe.kernel import gmbe_gpu
from ..gpusim.device import A100, DeviceSpec
from ..graph.bipartite import BipartiteGraph
from ..telemetry import NULL_TRACER, current_telemetry
from .plan import ShardPlan

__all__ = [
    "ShardResult",
    "run_shard_task",
    "shard_checkpoint_path",
]


def shard_checkpoint_path(
    checkpoint_dir: str | None, plan: ShardPlan, shard_id: int
) -> str | None:
    """The snapshot file for one shard (plan signature × shard id)."""
    if checkpoint_dir is None:
        return None
    return os.path.join(
        checkpoint_dir,
        f"shard-{plan.signature()[:16]}-"
        f"{shard_id:04d}of{plan.n_shards}.ckpt",
    )


@dataclass
class ShardResult:
    """Everything one shard produced.

    ``bicliques`` is a sorted :class:`~repro.core.RaggedBicliques` in
    input labels (any sequence of bicliques given is flattened), ready
    for the coordinator's array merge; it pickles with its narrowest
    dtypes.  ``sim_time`` is this shard's modeled seconds on its own
    device — the coordinator folds per-device placement into a fleet
    makespan.
    """

    shard_id: int
    n_shards: int
    bicliques: RaggedBicliques
    counters: Counters
    sim_time: float
    owned_roots: int
    resumed: bool = False
    halted: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bicliques = RaggedBicliques.from_bicliques(self.bicliques)

    @property
    def n_maximal(self) -> int:
        return len(self.bicliques)


def _arm_chaos_kill(delay_s: float) -> None:
    """SIGKILL *this* process after ``delay_s`` seconds (chaos tests).

    A non-positive delay kills immediately — before the shard does any
    work — which is the deterministic building block of the quarantine
    tests.  The timer thread is a daemon: if the shard finishes first,
    the process exits normally and the pending kill dies with it.
    """
    if delay_s <= 0:
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover — SIGKILL never returns
    timer = threading.Timer(
        delay_s, os.kill, args=(os.getpid(), signal.SIGKILL)
    )
    timer.daemon = True
    timer.start()


def run_shard_task(
    graph: BipartiteGraph,
    plan: ShardPlan,
    shard_id: int,
    *,
    config: GMBEConfig | None = None,
    device: DeviceSpec = A100,
    n_gpus: int = 1,
    root_pull_surcharge: float | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 256,
    fault_plan=None,
    halt_after_tasks: int | None = None,
    telemetry=None,
    chaos_kill_after: float | None = None,
    trace: "TraceContext | None" = None,
    attempt: int = 1,
    telemetry_capacity: int = 2048,
) -> ShardResult:
    """Enumerate shard ``shard_id`` of ``plan``; see :class:`ShardResult`.

    Module-level and picklable in and out, so the coordinator can call
    it inline or ship it to a :class:`~repro.parallel.ProcessWorkerPool`
    worker.

    Parameters
    ----------
    graph:
        The *full* input graph; only root-task ownership is restricted.
    config:
        Kernel knobs.  ``order`` is pinned to the plan's: every other
        knob leaves the enumerated set unchanged, but ownership is a
        function of the prepared space.
    device, n_gpus, root_pull_surcharge:
        The simulated device; the optional surcharge models a
        cluster-placed shard paying a cost per root claim (see
        :class:`~repro.gmbe.ClusterSpec`).
    checkpoint_dir, checkpoint_every:
        Snapshot to this shard's plan-signature × shard-id file, and
        auto-resume from one a crashed attempt left behind.
    fault_plan, halt_after_tasks:
        Kernel fault injection and the kill switch the crash tests use.
    telemetry:
        Explicit telemetry for an inline call; defaults to ambient
        discovery.  The shard records ``shard.*`` metrics under one
        ``shard.run`` span.
    chaos_kill_after:
        SIGKILL this process after that many seconds — the chaos
        harness of the supervision tests; never set it outside one.
    trace, attempt, telemetry_capacity:
        Process dispatch.  With a picklable
        :class:`~repro.telemetry.TraceContext` the worker records into a
        local buffering :class:`~repro.telemetry.WorkerTelemetry` whose
        :class:`~repro.telemetry.TelemetrySnapshot`\\ s travel back on
        every heartbeat (so a SIGKILLed worker still leaves its last
        records with the parent) and finally in
        ``ShardResult.extras["telemetry"]``.  The coordinator owns the
        attempt's span, which outlives a killed worker, and re-parents
        the records under it — so with ``trace`` the shard opens no
        ``shard.run`` span of its own.
    """
    if chaos_kill_after is not None:
        _arm_chaos_kill(float(chaos_kill_after))
    worker = None
    if trace is not None:
        # Imported here, not at module top: the worker entry must stay
        # import-light for the spawn path when telemetry is off.
        from ..parallel.procpool import set_heartbeat_aux_provider
        from ..telemetry.remote import WorkerTelemetry

        worker = WorkerTelemetry(
            trace,
            shard_id=shard_id,
            attempt=attempt,
            capacity=telemetry_capacity,
        )
        telemetry = worker.telemetry
        # Mark the attempt immediately: the first heartbeat flush (one
        # interval away) then carries proof this worker started, even if
        # it is killed before the kernel emits anything.
        telemetry.tracer.event(
            "shard.worker_start",
            shard=shard_id,
            attempt=attempt,
            pid=os.getpid(),
        )
        set_heartbeat_aux_provider(worker.flush)
    elif telemetry is None:
        telemetry = current_telemetry()
    # The kernel gets the object as given, so a disabled one keeps it
    # from falling back to ambient telemetry.
    given = telemetry
    if telemetry is not None and not telemetry.enabled:
        telemetry = None
    tracer = telemetry.tracer if telemetry is not None else NULL_TRACER
    span_tracer = tracer if worker is None else NULL_TRACER
    try:
        plan.validate_against(graph)
        plan._check_shard(shard_id)
        base = config if config is not None else GMBEConfig()
        if base.order != plan.order:
            base = base.with_(order=plan.order)
        mask = plan.mask(shard_id)
        owned = int(mask.sum())
        ckpt_path = shard_checkpoint_path(checkpoint_dir, plan, shard_id)
        resume = ckpt_path is not None and os.path.exists(ckpt_path)
        if ckpt_path is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        collector = BicliqueCollector()
        surcharges = (
            None
            if root_pull_surcharge is None
            else [float(root_pull_surcharge)] * n_gpus
        )
        with span_tracer.span(
            "shard.run",
            shard=shard_id,
            n_shards=plan.n_shards,
            owned_roots=owned,
            device=device.name,
            resumed=resume,
        ) as span:
            result = gmbe_gpu(
                graph,
                collector,
                config=base,
                device=device,
                n_gpus=n_gpus,
                root_mask=mask,
                root_pull_surcharges=surcharges,
                fault_plan=fault_plan,
                checkpoint_path=ckpt_path,
                checkpoint_every=checkpoint_every,
                resume=resume,
                halt_after_tasks=halt_after_tasks,
                telemetry=given,
            )
            halted = bool(result.extras.get("halted", False))
            if telemetry is not None:
                span.set_attr("n_maximal", result.n_maximal)
                span.set_attr("halted", halted)
                registry = telemetry.registry
                registry.counter("shard.runs").add(1)
                if resume:
                    registry.counter("shard.resumed").add(1)
                registry.histogram("shard.owned_roots").record(owned)
                registry.histogram("shard.sim_seconds").record(
                    result.sim_time
                )
    finally:
        if worker is not None:
            set_heartbeat_aux_provider(None)
    if worker is not None:
        result.extras["telemetry"] = worker.flush(final=True)
    return ShardResult(
        shard_id=shard_id,
        n_shards=plan.n_shards,
        bicliques=collector.result().sorted(),
        counters=result.counters,
        sim_time=result.sim_time,
        owned_roots=owned,
        resumed=resume,
        halted=halted,
        extras=result.extras,
    )
