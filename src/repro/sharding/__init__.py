"""Sharded multi-worker enumeration for graphs one device can't hold.

The subsystem splits one enumeration into N independent *shard-jobs* by
partitioning root-task ownership (:class:`ShardPlan`), runs each shard
as an ordinary kernel run restricted to its owned roots
(:func:`run_shard_task`) in-process or on a warm worker-process pool,
placed on dedicated or clustered simulated GPUs, and merges the sorted
per-shard ragged results into one duplicate-free ordered set
(:class:`ShardCoordinator`), reported as one :class:`ShardReport` —
partial, with resume handles, when shards were quarantined.  DESIGN.md
§11 has the architecture and the ownership/disjointness proof sketch.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".coordinator": (
        "ShardCoordinator ShardMergeError ShardReport merge_shard_results"
    ),
    ".degraded": "DegradedShardRun ResumeHandle",
    ".plan": "BALANCERS ShardPlan root_weights",
    ".runner": "ShardResult run_shard_task",
})
