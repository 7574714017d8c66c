"""Job and result value types for the enumeration service.

A :class:`Job` is one enumeration query: a graph (given directly, or by
the name of a graph registered with the broker), an algorithm, size
filters, optional per-job :class:`~repro.gmbe.GMBEConfig` overrides, a
priority, and an optional deadline.  A :class:`JobResult` is everything
the service knows about how the query went: the bicliques (as a
compressed, pageable store), of course, but also whether they came from
cache, how many execution attempts were needed, and the end-to-end
latency.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..api import _ALGORITHMS, validate_shards, validate_size_filters
from ..gmbe import GMBEConfig
from ..store import StoredResultSet

__all__ = ["Job", "JobResult", "JobStatus", "SERVICE_ALGORITHMS"]

#: Algorithms a job may request: every one the one-shot API runs.
SERVICE_ALGORITHMS = tuple(_ALGORITHMS)

#: The one store behind every result that carries no bicliques.
_EMPTY_STORE = StoredResultSet((), 0)


class JobStatus:
    """Terminal states of a service job (plain strings for JSON ease)."""

    COMPLETED = "completed"
    #: Completed with quarantined shards — partial but explicit inventory.
    DEGRADED = "degraded"
    FAILED = "failed"
    TIMEOUT = "timeout"
    REJECTED = "rejected"
    EXPIRED = "expired"
    CANCELLED = "cancelled"


@dataclass
class Job:
    """One enumeration query submitted to the service.

    Attributes
    ----------
    graph:
        Anything :func:`repro.api.as_bipartite_graph` accepts.  Mutually
        exclusive with ``graph_name``.
    graph_name:
        Name of a :class:`~repro.streaming.DynamicBipartiteGraph`
        registered with the broker; the job runs against a snapshot
        taken at dispatch time, and cache entries are invalidated when
        that graph mutates.
    algorithm:
        One of :data:`SERVICE_ALGORITHMS`.
    min_left, min_right:
        Size filters, validated exactly like the one-shot API.
    config:
        Optional full :class:`GMBEConfig` (or a mapping of its fields,
        converted via :meth:`GMBEConfig.from_dict`) replacing the
        broker's base config for this job, or the string ``"tuned"`` to
        request the broker's per-graph tuned configuration: the broker
        resolves the sentinel against its
        :class:`~repro.tuning.TunedConfigStore`
        *before* building the cache key, so cache entries and job
        checkpoints are always keyed by the **resolved** config — a
        re-tune changes the key and can never serve stale results.  On
        a store miss the broker falls back to its base config (and may
        kick off a background tune, see
        :class:`~repro.service.EnumerationBroker`).
    config_overrides:
        Field-level overrides applied on top of ``config`` (or the
        broker's base config) via :meth:`GMBEConfig.with_`.
    shards:
        With ``shards > 1`` (``algorithm="gmbe"`` only) the broker runs
        the job as N shard-jobs over disjoint root-task ownership sets
        and merges (see :mod:`repro.sharding`).  The cache is keyed on
        the *logical* job — a sharded and an unsharded submission of the
        same query share cache entries and coalesce together.
    priority:
        Lower runs first; ties dispatch FIFO.
    deadline:
        Optional seconds-from-submission budget.  A job still queued
        when its deadline passes is dropped with status ``expired``
        (it never wastes a worker); the deadline also caps per-attempt
        timeouts for running jobs.
    id:
        Assigned by the broker at admission.
    """

    graph: Any = None
    graph_name: str | None = None
    algorithm: str = "gmbe"
    min_left: int = 1
    min_right: int = 1
    config: GMBEConfig | str | None = None
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    shards: int = 1
    priority: int = 0
    deadline: float | None = None
    id: int | None = None

    def __post_init__(self) -> None:
        if (self.graph is None) == (self.graph_name is None):
            raise ValueError("provide exactly one of graph or graph_name")
        if self.algorithm not in SERVICE_ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {sorted(SERVICE_ALGORITHMS)}"
            )
        self.min_left, self.min_right = validate_size_filters(
            self.min_left, self.min_right
        )
        if self.deadline is not None:
            if (
                isinstance(self.deadline, bool)
                or not isinstance(self.deadline, numbers.Real)
                or not self.deadline > 0
            ):
                raise ValueError(
                    f"deadline must be a positive number of seconds, "
                    f"got {self.deadline!r}"
                )
            self.deadline = float(self.deadline)
        if isinstance(self.priority, bool) or not isinstance(
            self.priority, numbers.Integral
        ):
            raise ValueError(
                f"priority must be an integer, got {self.priority!r}"
            )
        self.priority = int(self.priority)
        self.shards = validate_shards(self.shards)
        if self.shards > 1 and self.algorithm != "gmbe":
            raise ValueError(
                f'shards > 1 is only supported by algorithm="gmbe", '
                f"not {self.algorithm!r}"
            )
        if isinstance(self.config, Mapping):
            self.config = GMBEConfig.from_dict(dict(self.config))
        elif not (
            self.config is None
            or isinstance(self.config, GMBEConfig)
            or (isinstance(self.config, str) and self.config == "tuned")
        ):
            raise ValueError(
                "config must be a GMBEConfig, a mapping of GMBEConfig "
                f"fields, or the string 'tuned', got {self.config!r}"
            )
        if not isinstance(self.config_overrides, Mapping):
            raise ValueError(
                "config_overrides must be a mapping of GMBEConfig fields, "
                f"got {self.config_overrides!r}"
            )
        # Fail on bogus overrides at submission, not inside a worker.
        self.resolve_config(GMBEConfig())

    @property
    def wants_tuned(self) -> bool:
        """True if this job requested the ``"tuned"`` config sentinel."""
        return self.config == "tuned"

    def resolve_config(
        self, base: GMBEConfig, *, tuned: GMBEConfig | None = None
    ) -> GMBEConfig:
        """Effective config: job config (or ``base``) + field overrides.

        ``tuned`` substitutes for the ``"tuned"`` sentinel (the broker
        passes its store-resolved config here); a sentinel with no
        ``tuned`` available falls back to ``base``.
        """
        if isinstance(self.config, str):
            cfg = tuned if tuned is not None else base
        else:
            cfg = self.config or base
        if self.config_overrides:
            cfg = cfg.with_(**dict(self.config_overrides))
        return cfg


@dataclass
class JobResult:
    """Terminal outcome of one job.

    The bicliques live in ``store``, a compressed
    :class:`~repro.store.StoredResultSet` in canonical sorted order —
    the same object the result cache holds, so a cache hit hands it out
    without decoding anything.  Page through it with :meth:`fetch_page`;
    ``bicliques`` materializes the whole set on each access.  Results
    without bicliques (failed, timed out, cancelled, rejected, expired)
    share one empty store, so ``store`` is never ``None``.
    """

    job_id: int
    status: str
    algorithm: str
    error: str | None = None
    attempts: int = 0
    cache_hit: bool = False
    coalesced: bool = False
    latency_ms: float = 0.0
    #: Shard ids that finished / were quarantined (``degraded`` only —
    #: empty for every other status, including plain ``completed``).
    completed_shards: tuple = ()
    quarantined_shards: tuple = ()
    #: Stores have no content equality, so this stays out of ``==``.
    store: StoredResultSet = field(
        default=_EMPTY_STORE, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return self.status == JobStatus.COMPLETED

    @property
    def partial(self) -> bool:
        """True when ``bicliques`` is an explicit partial enumeration."""
        return self.status == JobStatus.DEGRADED

    @property
    def bicliques(self) -> tuple:
        """Every biclique, decoded from ``store`` on each access."""
        return self.store.as_tuple()

    @property
    def count(self) -> int:
        return len(self.store)

    def fetch_page(self, cursor: str | None = None, limit: int = 100):
        """``(items, next_cursor)`` over this result's bicliques.

        Decodes one page of ``store`` (see
        :meth:`StoredResultSet.page`); pass ``next_cursor`` back in to
        continue, ``None`` means done.
        """
        return self.store.page(cursor, limit)

    def describe(self) -> str:
        """One human line, the ``gmbe serve`` per-job output."""
        if self.ok:
            src = "hit" if self.cache_hit else (
                "coalesced" if self.coalesced else "miss"
            )
            return (
                f"job {self.job_id}: ok {self.count} bicliques "
                f"{self.latency_ms:.2f}ms (algo={self.algorithm} "
                f"cache={src} attempts={self.attempts})"
            )
        if self.partial:
            return (
                f"job {self.job_id}: degraded {self.count} bicliques "
                f"from shards {list(self.completed_shards)}; quarantined "
                f"{list(self.quarantined_shards)} "
                f"({self.latency_ms:.2f}ms attempts={self.attempts})"
            )
        return (
            f"job {self.job_id}: {self.status} after {self.attempts} "
            f"attempt(s): {self.error or 'no detail'}"
        )
