"""Checkpoint/resume for long-running enumerations.

A long GMBE run periodically snapshots its *frontier* — the pending
root cursor, every in-flight subtree task (with its lineage and retry
count), the emission ledger, work counters, and the fault-plan cursor —
to a versioned JSON file.  A killed run restarts from the last snapshot
with ``gmbe run --checkpoint PATH --resume`` (or via
:class:`~repro.service.EnumerationBroker`'s job-level resume) and
produces the same final biclique set as an uninterrupted run, each
biclique emitted exactly once.

See DESIGN.md §9 for the checkpoint format and its invariants.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".snapshot": (
        "CHECKPOINT_VERSION CheckpointError Snapshot "
        "TaskRecord load_checkpoint save_checkpoint"
    ),
    ".writer": "CheckpointWriter",
})
