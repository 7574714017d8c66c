"""Parallel-execution substrates: the simulated multi-core pool used for
ParMBE timing, a real thread-pool runner for host-parallel execution, the
persistent worker pool backing the enumeration service, and the supervised
process pool backing crash-isolated shard execution."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".pool": "run_tasks_threaded",
    ".procpool": (
        "PoolBrokenError ProcessWorkerPool RemoteTaskError Supervisor "
        "SupervisorPolicy WorkerCrashError WorkerHungError "
        "set_heartbeat_aux_provider"
    ),
    ".simpool": "PoolSchedule schedule_tasks",
    ".workers": "WorkerPool",
})
