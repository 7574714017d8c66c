"""The :class:`Telemetry` facade and ambient propagation.

One ``Telemetry`` object bundles the three moving parts — a
:class:`~repro.telemetry.metrics.MetricsRegistry`, a
:class:`~repro.telemetry.tracing.Tracer` over a set of sinks — behind a
single ``enabled`` switch.  Layers receive (or discover) the *same*
object, which is what makes the registry unified and the spans
correlated.

Discovery is the ambient mechanism: the broker stashes its telemetry in
a :mod:`contextvars` variable before handing a job to the worker pool
(shipping a copied :class:`contextvars.Context` across the thread hop),
and :func:`repro.gmbe.kernel.gmbe_gpu` picks it up via
:func:`current_telemetry` when no explicit ``telemetry=`` was passed.
Code that never touches telemetry pays one contextvar read per
*enumeration call* — never per task.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .metrics import MetricsRegistry
from .sinks import RingSink
from .tracing import NULL_TRACER, Tracer

__all__ = [
    "Telemetry",
    "current_telemetry",
    "run_with_telemetry",
    "use_telemetry",
]

_AMBIENT: ContextVar["Telemetry | None"] = ContextVar(
    "repro_telemetry", default=None
)


def current_telemetry() -> "Telemetry | None":
    """The ambient telemetry of this logical context, if any."""
    return _AMBIENT.get()


@contextmanager
def use_telemetry(telemetry: "Telemetry | None"):
    """Make ``telemetry`` ambient for the duration of a ``with`` block."""
    token = _AMBIENT.set(telemetry)
    try:
        yield telemetry
    finally:
        _AMBIENT.reset(token)


def run_with_telemetry(telemetry, fn, /, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` with ``telemetry`` ambient.

    The broker runs this *inside a copied context* on a worker thread:
    the copy carries the current span (so kernel spans nest under the
    retry attempt) and this call plants the telemetry object for
    :func:`current_telemetry` discovery.
    """
    token = _AMBIENT.set(telemetry)
    try:
        return fn(*args, **kwargs)
    finally:
        _AMBIENT.reset(token)


class Telemetry:
    """Registry + tracer + sinks behind one switch.

    Parameters
    ----------
    enabled:
        ``False`` builds a fully inert object: the tracer is the shared
        :data:`~repro.telemetry.tracing.NULL_TRACER` and instrumented
        code paths reduce to one ``is_enabled`` check.  The registry
        still exists (exports are empty, not errors).
    sinks:
        Sink objects (``emit``/``flush``/``close``).  Default: one
        :class:`~repro.telemetry.sinks.RingSink` so ``Telemetry()`` is
        immediately useful for snapshots and tests.
    registry:
        Share an existing registry instead of creating one.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        sinks=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        if sinks is None:
            sinks = [RingSink()] if enabled else []
        self.sinks = list(sinks)
        self.tracer = Tracer(self.sinks) if enabled else NULL_TRACER

    # ------------------------------------------------------------------
    @property
    def ring(self) -> RingSink | None:
        """The first :class:`RingSink`, if any (snapshot convenience)."""
        for sink in self.sinks:
            if isinstance(sink, RingSink):
                return sink
        return None

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def ingest(self, records) -> None:
        """Emit already-formed records (e.g. re-parented worker spans)
        straight to this telemetry's sinks.  No-op when disabled."""
        if not self.enabled:
            return
        for record in records:
            for sink in self.sinks:
                sink.emit(record)

    def snapshot(self) -> dict:
        """JSON-serializable state: metrics plus recent trace records."""
        ring = self.ring
        if ring is not None and self.enabled:
            # Self-describing truncation: a capped ring that overflowed
            # says so in the same snapshot that carries its records.
            self.registry.gauge(
                "telemetry.ring.dropped",
                description="records overwritten by the bounded ring sink",
            ).set(ring.dropped)
        return {
            "enabled": self.enabled,
            "metrics": self.registry.snapshot(),
            "records": ring.records() if ring is not None else [],
        }

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
