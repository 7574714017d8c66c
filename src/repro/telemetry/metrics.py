"""Unified metrics registry: counters, gauges, windowed histograms.

One process-wide (or broker-wide) :class:`MetricsRegistry` replaces the
four disconnected counter piles this repo accumulated — service counters,
simulator ``Counters``, ``QueueStats``, ``FaultLog`` tallies — with a
single namespace of **stable dotted names** (``service.jobs.submitted``,
``sim.phase.set_op_cycles``, …) and two export formats:

- :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (dots become underscores, histograms export as
  summaries with nearest-rank quantiles), ready for a scrape endpoint
  or a textfile collector;
- :meth:`MetricsRegistry.to_json` — the JSONL/debug form, one nested
  dict keyed by the dotted names.

Instruments are get-or-create: ``registry.counter("a.b")`` returns the
same :class:`Counter` every time, so independent layers can contribute
to one name without coordination.  Asking for an existing name with a
different instrument type is a :class:`ValueError` — silent type
clashes are how metrics rot.

The instruments are deliberately plain Python (an attribute increment,
a deque append): cheap enough to be always-on, exactly like the
simulator's own cost counters they complement.
"""

from __future__ import annotations

import json
import math
import re
import threading
from collections import deque

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Dotted metric names: lowercase segments joined by dots; segments may
#: contain digits and underscores but must start with a letter.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")

#: Quantiles exported for histograms (the p50/p95/p99 of
#: :meth:`Histogram.snapshot`).
_QUANTILES = (("0.5", 50), ("0.95", 95), ("0.99", 99))


class Counter:
    """Monotonic-by-convention numeric instrument; producers count
    through :meth:`add`."""

    __slots__ = ("name", "value", "description")

    kind = "counter"

    def __init__(self, name: str, description: str | None = None) -> None:
        self.name = name
        self.value: float = 0
        self.description = description

    def add(self, n: float) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def snapshot(self):
        return self.value

    def dump(self):
        return self.value

    def merge_dump(self, data) -> None:
        """Fold another counter's :meth:`dump` into this one (adds)."""
        self.value += data


class Gauge:
    """Point-in-time numeric instrument (queue size, in-flight jobs)."""

    __slots__ = ("name", "value", "description")

    kind = "gauge"

    def __init__(self, name: str, description: str | None = None) -> None:
        self.name = name
        self.value: float = 0
        self.description = description

    def set(self, v: float) -> None:
        self.value = v

    def reset(self) -> None:
        self.value = 0

    def snapshot(self):
        return self.value

    def dump(self):
        return self.value

    def merge_dump(self, data) -> None:
        """Fold another gauge's :meth:`dump` into this one (last write)."""
        self.value = data


class Histogram:
    """Windowed sample recorder with percentile queries.

    Keeps the most recent ``window`` observations (a bounded deque, so a
    long-lived service never grows without bound) plus running count/sum
    over the full lifetime.  Percentiles use the nearest-rank method on
    the current window.
    """

    kind = "histogram"

    def __init__(
        self,
        window: int = 4096,
        name: str = "",
        description: str | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.description = description
        self._window = window
        self._samples: deque[float] = deque(maxlen=window)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self._samples.append(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the current window (0 if empty)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self._samples.clear()
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def dump(self) -> dict:
        """Mergeable raw form: lifetime aggregates + the sample window."""
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "samples": _safe_list(self._samples),
        }

    def merge_dump(self, data: dict) -> None:
        """Fold another histogram's :meth:`dump` into this one.

        Lifetime count/total/max combine exactly; the merged window
        replays the other side's samples, so percentiles over the union
        are approximate when the combined windows overflow.
        """
        for value in data.get("samples", ()):
            self._samples.append(value)
        self.count += data.get("count", 0)
        self.total += data.get("total", 0.0)
        other_max = data.get("max", 0.0)
        if other_max > self.max:
            self.max = other_max


def _safe_list(values: deque) -> list:
    """Copy a deque that another thread may be appending to.

    Worker-side snapshot dumps run on the heartbeat thread while the
    task thread keeps recording; ``list(deque)`` raises ``RuntimeError``
    if the deque mutates mid-iteration, so retry a few times and fall
    back to empty rather than ever failing a flush.
    """
    for _ in range(4):
        try:
            return list(values)
        except RuntimeError:
            continue
    return []


def prometheus_name(dotted: str) -> str:
    """Dotted metric name → Prometheus metric name (dots become ``_``)."""
    return dotted.replace(".", "_")


def _format_value(v: float) -> str:
    # Prometheus wants plain decimal/scientific floats; ints stay ints.
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int):
        return str(v)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    return repr(float(v))


class MetricsRegistry:
    """Get-or-create namespace of named instruments.

    Creation is guarded by a lock (layers register from the broker loop
    *and* worker threads); the instruments themselves rely on the GIL
    for their single-attribute updates, same as every counter this repo
    already keeps.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: str,
                       description: str | None = None):
        inst = self._instruments.get(name)
        if inst is None:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"invalid metric name {name!r}: expected lowercase "
                    "dotted segments like 'service.jobs.submitted'"
                )
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = factory()
                    self._instruments[name] = inst
                    return inst
        if inst.kind != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a "
                f"{inst.kind}, not a {kind}"
            )
        if description is not None and inst.description is None:
            inst.description = description
        return inst

    def counter(self, name: str, description: str | None = None) -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, description), "counter", description
        )

    def gauge(self, name: str, description: str | None = None) -> Gauge:
        return self._get_or_create(
            name, lambda: Gauge(name, description), "gauge", description
        )

    def histogram(
        self,
        name: str,
        window: int = 4096,
        description: str | None = None,
    ) -> Histogram:
        return self._get_or_create(
            name,
            lambda: Histogram(window=window, name=name,
                              description=description),
            "histogram",
            description,
        )

    # ------------------------------------------------------------------
    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def reset(self) -> None:
        """Zero every instrument in place (test isolation).

        Instrument *objects* survive, so references held by layers stay
        valid.
        """
        for inst in self._instruments.values():
            inst.reset()

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Dotted-name → value (numbers for counters/gauges, dicts for
        histograms); JSON-serializable."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.snapshot(), **kwargs)

    # ------------------------------------------------------------------
    # Cross-process transport
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        """Picklable, mergeable form of every instrument.

        ``{name: {"kind": ..., "data": ...}}`` — what a worker process
        ships back over the heartbeat/result pipe.  Safe to call from a
        thread other than the recording one (see :func:`_safe_list`).
        """
        with self._lock:
            items = list(self._instruments.items())
        return {
            name: {"kind": inst.kind, "data": inst.dump()}
            for name, inst in items
        }

    def merge(self, dump: dict) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters add, histograms merge (count/total/max exact, window
        replayed), gauges take the incoming value — so folding worker
        registries in a fixed order is deterministic regardless of
        which worker finished first.  Type clashes raise ``ValueError``
        like any other registration.
        """
        factories = {
            "counter": self.counter,
            "gauge": self.gauge,
            "histogram": self.histogram,
        }
        for name in sorted(dump):
            entry = dump[name]
            factory = factories.get(entry.get("kind"))
            if factory is None:
                continue
            factory(name).merge_dump(entry["data"])

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Counters and gauges export one sample each; histograms export as
        summaries — ``<name>{quantile="0.5"}`` samples over the current
        window plus ``_count``/``_sum``/``_max``.  Instruments created
        with a ``description`` get a ``# HELP`` line ahead of their
        ``# TYPE``.
        """
        lines: list[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            pname = prometheus_name(name)
            if inst.description:
                help_text = " ".join(str(inst.description).split())
                lines.append(f"# HELP {pname} {help_text}")
            if inst.kind == "counter":
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {_format_value(inst.value)}")
            elif inst.kind == "gauge":
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_format_value(inst.value)}")
            else:  # histogram -> summary
                lines.append(f"# TYPE {pname} summary")
                for label, p in _QUANTILES:
                    lines.append(
                        f'{pname}{{quantile="{label}"}} '
                        f"{_format_value(inst.percentile(p))}"
                    )
                lines.append(f"{pname}_sum {_format_value(inst.total)}")
                lines.append(f"{pname}_count {_format_value(inst.count)}")
                lines.append(f"# TYPE {pname}_max gauge")
                lines.append(f"{pname}_max {_format_value(inst.max)}")
        return "\n".join(lines) + "\n" if lines else ""
