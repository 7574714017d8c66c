"""Graceful degradation of a sharded run: explicit partial results.

When the process-backed :class:`~repro.sharding.ShardCoordinator`
exhausts a shard's retry budget (the shard's worker keeps dying or a
poison input keeps crashing it), failing the whole job would throw away
every shard that *did* finish — and silently returning the merged
survivors would be worse, because a caller could mistake a partial
enumeration for the full set.  The middle path is a
:class:`~repro.sharding.ShardReport` with ``is_partial`` set: the
completed shards merged (still duplicate-free — ownership disjointness
is per-shard, so a subset of shards merges exactly like the full set),
the quarantined shard ids, and one :class:`ResumeHandle` per
quarantined shard pointing at the plan-signature-scoped checkpoint a
later run can pick up.

Layers that must not hand back a partial set where a full one was
promised (the one-shot API returns a plain ``list``) raise
:class:`DegradedShardRun` around it instead; the service broker maps
that onto the ``degraded`` job status.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DegradedShardRun", "ResumeHandle"]


@dataclass(frozen=True)
class ResumeHandle:
    """Everything needed to finish one quarantined shard later.

    ``checkpoint_path`` is the shard's plan-signature-scoped snapshot
    file (``None`` when the coordinator ran without a checkpoint
    directory — the shard then has to restart from its beginning, which
    is still bit-identical).  Re-running the coordinator with the same
    graph, plan and checkpoint directory resumes exactly these shards.
    """

    shard_id: int
    checkpoint_path: str | None
    attempts: int
    last_error: str


class DegradedShardRun(RuntimeError):
    """A sharded run completed only partially.

    Raised by surfaces whose contract is the *complete* enumeration
    (``enumerate_maximal_bicliques``); carries the partial
    :class:`~repro.sharding.ShardReport` so a caller that can live with
    a partial set still gets it, along with the resume handles.
    """

    def __init__(self, partial) -> None:
        super().__init__(
            f"{partial.describe()} — re-run with the same checkpoint "
            f"directory to resume the quarantined shards"
        )
        self.partial = partial
