"""SIMT GPU simulator substrate: device specs, warp-step cost accounting,
the memory-demand model, two-level task queues, the persistent-thread
scheduler, and active-SM timelines."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".device": "A100 DEVICE_PRESETS RTX2080TI V100 DeviceSpec",
    ".faults": (
        "FAULT_KINDS FaultDecision FaultEvent FaultLog FaultPlan "
        "ReplayFaultPlan replay_plan"
    ),
    ".memory": "MemoryDemand MemoryModel",
    ".queues": "QueueStats TwoLevelTaskQueue",
    ".scheduler": (
        "ExecOutcome LineageEntry PersistentThreadScheduler SimReport"
    ),
    ".timeline": "BusyRecorder active_sm_curve active_units_curve",
})
