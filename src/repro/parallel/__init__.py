"""Parallel-execution substrates: the simulated multi-core pool used for
ParMBE timing and the supervised process pool backing crash-isolated
shard execution."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".procpool": (
        "PoolBrokenError ProcessWorkerPool RemoteTaskError Supervisor "
        "SupervisorPolicy WorkerCrashError WorkerHungError "
        "set_heartbeat_aux_provider"
    ),
    ".simpool": "PoolSchedule schedule_tasks",
})
