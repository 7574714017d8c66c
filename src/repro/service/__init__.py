"""Enumeration-as-a-service layer: batching, caching, fault tolerance.

The ROADMAP's serving stack over the one-shot API — an asyncio
:class:`EnumerationBroker` (admission control, duplicate-query
coalescing, priority dispatch onto a :class:`repro.parallel.WorkerPool`),
a content-addressed :class:`ResultCache` invalidated by streaming edge
updates, per-job :class:`ResiliencePolicy` (timeout / retry / cancel),
:class:`ServiceMetrics` observability, and the synchronous
:class:`ServiceClient` facade.  ``gmbe serve`` drives it from the CLI.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".broker": "AdmissionError EnumerationBroker default_runner",
    ".cache": "CacheStats ResultCache graph_fingerprint",
    ".client": "ServiceClient",
    ".jobs": "Job JobResult JobStatus SERVICE_ALGORITHMS",
    ".metrics": "Histogram ServiceMetrics",
    ".resilience": (
        "ExecutionOutcome JobTimeoutError ResiliencePolicy execute_with_retry"
    ),
})
