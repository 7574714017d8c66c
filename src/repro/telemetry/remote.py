"""Cross-process telemetry: worker-side capture and trace re-parenting.

A live :class:`~repro.telemetry.hub.Telemetry` cannot cross a process
boundary — it holds locks, sinks, and contextvars.  What *can* cross is
plain data, and this module defines the two picklable shapes plus the
worker-side harness that produces them:

:class:`TraceContext`
    The coordinator's correlation ids (``trace_id``, parent
    ``span_id``, ``job_id``), shipped *into* the worker with the task
    so every record the worker produces can later be stitched under
    the right span.

:class:`TelemetrySnapshot`
    What a worker ships *back*: drained span/event records plus a
    cumulative registry dump, stamped with pid/shard/attempt and a
    monotonic ``seq``.  Snapshots flow over two channels — piggybacked
    on heartbeats (incremental, so a SIGKILLed worker still leaves its
    last buffered records) and attached to the final
    :class:`~repro.sharding.runner.ShardResult`.

:class:`WorkerTelemetry`
    A worker-local buffering :class:`Telemetry` (ring sink + registry,
    nothing shared with the parent) whose :meth:`~WorkerTelemetry.flush`
    is safe to call from the heartbeat thread while the task thread
    records.

:func:`reparent_records`
    The merge-side half: rewrites a worker's local span ids into a
    collision-free namespace, grafts its root spans under the
    coordinator's per-attempt span, and stamps the parent's
    ``trace_id``/``job_id`` — after which the records are
    indistinguishable from locally-traced ones.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from .hub import Telemetry
from .sinks import RingSink

__all__ = [
    "TelemetrySnapshot",
    "TraceContext",
    "WorkerTelemetry",
    "reparent_records",
]


@dataclass(frozen=True)
class TraceContext:
    """Picklable correlation ids that travel parent → worker."""

    trace_id: str | None = None
    parent_span_id: str | None = None
    job_id: int | None = None


@dataclass
class TelemetrySnapshot:
    """Picklable worker telemetry: drained records + registry dump.

    ``records`` are *incremental* — each flush drains the worker's ring,
    so concatenating snapshots in ``seq`` order reconstructs the full
    stream.  ``metrics`` is *cumulative* — the registry dump at flush
    time; a merger must fold only the latest dump per attempt.
    """

    pid: int
    shard_id: int | None = None
    attempt: int = 1
    seq: int = 0
    #: True for the end-of-task flush riding on the ShardResult (as
    #: opposed to an incremental heartbeat flush).
    final: bool = False
    records: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: ring overwrites so far — nonzero means ``records`` has holes.
    dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "pid": self.pid,
            "shard_id": self.shard_id,
            "attempt": self.attempt,
            "seq": self.seq,
            "final": self.final,
            "records": list(self.records),
            "metrics": dict(self.metrics),
            "dropped": self.dropped,
        }


class WorkerTelemetry:
    """Worker-local buffering telemetry for one shard attempt.

    Owns a private ring + registry; the task thread records into them
    through ``self.telemetry`` exactly like any in-process run, and the
    heartbeat thread calls :meth:`flush` to drain what accumulated.  The
    inbound :class:`TraceContext` only seeds ``default_job_id`` here —
    span *re-parenting* happens on the coordinator side, where the
    per-attempt parent span lives.
    """

    def __init__(
        self,
        context: TraceContext | None = None,
        *,
        shard_id: int | None = None,
        attempt: int = 1,
        capacity: int = 2048,
    ) -> None:
        self.context = context
        self.shard_id = shard_id
        self.attempt = attempt
        self._ring = RingSink(capacity)
        self.telemetry = Telemetry(sinks=[self._ring])
        if context is not None and context.job_id is not None:
            self.telemetry.tracer.default_job_id = context.job_id
        self._seq = itertools.count()

    def flush(self, *, final: bool = False) -> TelemetrySnapshot:
        """Drain buffered records into a picklable snapshot.

        Called from the heartbeat thread between beats and from the task
        thread at completion; both paths use pop-based draining and a
        locked registry dump, so they never corrupt a concurrent emit.
        """
        return TelemetrySnapshot(
            pid=os.getpid(),
            shard_id=self.shard_id,
            attempt=self.attempt,
            seq=next(self._seq),
            final=final,
            records=self._ring.drain(),
            metrics=self.telemetry.registry.dump(),
            dropped=self._ring.dropped,
        )


def reparent_records(
    records,
    *,
    trace_id: str | None,
    parent_span_id: str | None,
    job_id=None,
    prefix: str = "",
) -> list[dict]:
    """Rewrite worker-local records into the parent's trace.

    - every span/event id gets ``prefix`` (e.g. ``"s3a2:"`` for shard 3
      attempt 2) so ids from different workers — which all count from
      ``s1`` — cannot collide;
    - spans without a local parent are grafted under ``parent_span_id``
      (the coordinator's ``shard.run``/``shard.retry`` span);
    - events that fired outside any worker span are attributed to
      ``parent_span_id`` directly;
    - ``trace_id`` is overwritten and a missing ``job_id`` filled in.

    Returns new dicts; the input records are not mutated.
    """
    out: list[dict] = []
    for record in records:
        r = dict(record)
        if r.get("span_id"):
            r["span_id"] = prefix + r["span_id"]
        elif r.get("type") == "event":
            r["span_id"] = parent_span_id
        if r.get("parent_id"):
            r["parent_id"] = prefix + r["parent_id"]
        elif r.get("type") == "span":
            r["parent_id"] = parent_span_id
        r["trace_id"] = trace_id
        if job_id is not None and r.get("job_id") is None:
            r["job_id"] = job_id
        out.append(r)
    return out

