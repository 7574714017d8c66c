"""Enumeration-as-a-service layer: batching, caching, fault tolerance.

The ROADMAP's serving stack over the one-shot API — an asyncio
:class:`EnumerationBroker` (admission control, duplicate-query
coalescing, priority dispatch onto a worker thread pool, ``service.*``
metrics in a :class:`repro.telemetry.MetricsRegistry`), a
content-addressed :class:`ResultCache` invalidated by streaming edge
updates, per-job :class:`ResiliencePolicy` (timeout / retry / cancel),
and the synchronous :class:`ServiceClient` facade.  ``gmbe serve``
drives it from the CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".broker": "AdmissionError EnumerationBroker default_runner",
    ".cache": "CacheStats ResultCache graph_fingerprint",
    ".client": "ServiceClient",
    ".jobs": "Job JobResult JobStatus SERVICE_ALGORITHMS",
    ".resilience": (
        "ExecutionOutcome JobTimeoutError ResiliencePolicy execute_with_retry"
    ),
})
