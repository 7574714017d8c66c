"""Synchronous facade over the asyncio broker.

Most callers of this library are synchronous scripts and notebooks;
:class:`ServiceClient` gives them the full service pipeline (cache,
coalescing, retry, metrics) without writing a line of asyncio: it runs a
private event loop on a daemon thread and bridges calls with
:func:`asyncio.run_coroutine_threadsafe`.

    with ServiceClient(n_workers=4) as client:
        first = client.submit(graph=matrix, algorithm="gmbe-host")
        again = client.submit(graph=matrix, algorithm="gmbe-host")
        assert again.cache_hit

"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable, Mapping

from .broker import AdmissionError, EnumerationBroker
from .jobs import Job, JobResult, JobStatus

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking client owning one broker on a background event loop."""

    def __init__(self, **broker_kwargs) -> None:
        self._broker = EnumerationBroker(**broker_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service-loop", daemon=True
        )
        self._thread.start()
        self._closed = False
        self._call(self._broker.start())

    # ------------------------------------------------------------------
    def _call(self, coro):
        if self._closed:
            coro.close()  # avoid a never-awaited warning
            raise RuntimeError("client is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    @staticmethod
    def _as_job(job: Job | Mapping | None, kwargs: Mapping) -> Job:
        if job is None:
            return Job(**kwargs)
        if isinstance(job, Job):
            if kwargs:
                raise TypeError("pass either a Job or keyword fields, not both")
            return job
        return Job(**{**dict(job), **kwargs})

    # ------------------------------------------------------------------
    def register_graph(self, name: str, graph):
        """Register a dynamic graph for name-based queries (see broker)."""

        async def _register():
            return self._broker.register_graph(name, graph)

        return self._call(_register())

    def submit(self, job: Job | Mapping | None = None, /, **kwargs) -> JobResult:
        """Run one job to its terminal result (blocking).

        Accepts a prebuilt :class:`Job`, a mapping of job fields, or the
        fields as keyword arguments.  Raises :class:`AdmissionError` when
        the service queue is full.
        """
        return self._call(self._broker.submit(self._as_job(job, kwargs)))

    def submit_many(self, jobs: Iterable[Job | Mapping]) -> list[JobResult]:
        """Submit a batch concurrently; results in submission order.

        Unlike :meth:`submit`, a queue-full rejection is folded into the
        result list as a ``rejected`` :class:`JobResult` so one shed job
        doesn't discard the whole batch.
        """
        built = [self._as_job(j if isinstance(j, Job) else dict(j), {})
                 for j in jobs]

        async def _one(job: Job) -> JobResult:
            try:
                return await self._broker.submit(job)
            except AdmissionError as exc:
                return JobResult(
                    job_id=-1 if job.id is None else job.id,
                    status=JobStatus.REJECTED,
                    algorithm=job.algorithm,
                    error=str(exc),
                )

        async def _gather():
            return await asyncio.gather(*(_one(j) for j in built))

        return list(self._call(_gather()))

    def fetch_page(
        self,
        result: JobResult,
        cursor: str | None = None,
        limit: int = 100,
    ):
        """``(items, next_cursor)`` — page through a job's bicliques.

        Works on any terminal :class:`JobResult`: each call decodes one
        page from the result's compressed store (results without
        bicliques page as ``([], None)``).  Pass the returned
        ``next_cursor`` back in to continue; ``None`` means done.
        """
        return result.fetch_page(cursor, limit)

    def cancel(self, job_id: int) -> bool:
        async def _cancel():
            return self._broker.cancel(job_id)

        return self._call(_cancel())

    def health(self) -> dict:
        """The broker's liveness snapshot (queue, breaker, shard pool).

        Evaluated on the broker's own event loop so the breaker clock
        and queue depth are read consistently; see
        :meth:`EnumerationBroker.health`.
        """

        async def _health():
            return self._broker.health()

        return self._call(_health())

    # ------------------------------------------------------------------
    @property
    def broker(self) -> EnumerationBroker:
        return self._broker

    @property
    def telemetry(self):
        """The broker's :class:`~repro.telemetry.Telemetry`, or ``None``."""
        return self._broker.telemetry

    def metrics_snapshot(self) -> dict:
        """The broker registry's dotted-name snapshot
        (``{"service.jobs.submitted": 3, ...}``)."""
        return self._broker.registry.snapshot()

    def telemetry_snapshot(self) -> dict:
        """Unified observability snapshot (JSON-serializable).

        ``metrics`` is the dotted-name registry dump and ``records`` the
        recent span/event records from the telemetry ring (empty when no
        :class:`~repro.telemetry.Telemetry` is attached — the broker
        always owns a metrics registry).
        """
        telemetry = self._broker.telemetry
        if telemetry is not None:
            self._broker._observe_gauges()
            return telemetry.snapshot()
        return {
            "enabled": False,
            "metrics": self._broker.registry.snapshot(),
            "records": [],
        }

    def close(self) -> None:
        if self._closed:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._broker.stop(), self._loop
            ).result(timeout=10)
        finally:
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
