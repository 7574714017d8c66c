"""Unified telemetry: metrics registry, tracing spans, pluggable sinks.

The observability layer the ROADMAP's production service needs and the
paper's diagnosis methodology (§6.2 profiles, Figs. 4/8/9, Table 2)
motivates: one :class:`MetricsRegistry` of stable dotted names with
Prometheus/JSON exporters, one :class:`Tracer` whose spans carry
``job_id`` from the service front door down into the simulated kernel,
and sinks (ring / JSONL / callback) the broker flushes periodically.

Fully bypassed when disabled: hot paths take a single ``is_enabled``
(or ``telemetry is None``) check — gated by
``benchmarks/bench_telemetry.py``.  See ``docs/observability.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bridge": (
        "register_counters register_fault_log register_queue_stats "
        "register_sim_report"
    ),
    ".flight": (
        "FlightRecorder build_span_tree format_flight_record "
        "load_flight_record write_flight_record"
    ),
    ".hub": "Telemetry current_telemetry run_with_telemetry use_telemetry",
    ".metrics": "Counter Gauge Histogram MetricsRegistry",
    ".remote": (
        "TelemetrySnapshot TraceContext WorkerTelemetry reparent_records"
    ),
    ".sinks": "CallbackSink JSONLSink RingSink",
    ".tracing": "NULL_TRACER NullTracer Span Tracer current_span",
})
