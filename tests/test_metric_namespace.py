"""Metric-namespace drift gate.

``docs/observability.md`` is the dashboard vocabulary: every dotted
instrument name the code can register must be documented there, either
verbatim or via a documented ``family.*`` wildcard.  This test walks
every ``counter(...)`` / ``gauge(...)`` / ``histogram(...)`` literal in
``src/repro`` (plus the name tables that feed dynamic registrations)
and fails on any name the doc does not cover — so adding a metric
without documenting it breaks CI instead of silently forking the
namespace.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
DOC = Path(__file__).resolve().parents[1] / "docs" / "observability.md"

#: instrument-creation calls with a literal name
_CALL_RE = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*[rf]?[\"']([^\"'{}]+)[\"']"
)

#: doc-example names that never reach a real registry
_EXAMPLES = {"a.b"}


def _literal_names() -> set[str]:
    names: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        for match in _CALL_RE.finditer(path.read_text(encoding="utf-8")):
            names.add(match.group(1))
    return names - _EXAMPLES


def _table_names() -> set[str]:
    """Names registered through tables / f-strings the regex can't see."""
    from repro.service.broker import _SERVICE_DESCRIPTIONS
    from repro.sharding.coordinator import (
        _SUPERVISOR_COUNTERS,
        _SUPERVISOR_DESCRIPTIONS,
    )
    from repro.telemetry.bridge import _COUNTER_FIELDS, _QUEUE_FIELDS

    names: set[str] = set()
    names.update(_SERVICE_DESCRIPTIONS)
    names.update(_SUPERVISOR_COUNTERS.values())
    names.update(_SUPERVISOR_DESCRIPTIONS)
    names.update(f"sim.work.{f}" for f in _COUNTER_FIELDS)
    names.add("sim.work.peak_stack_depth")
    names.update(f"sim.queue.{f}" for f in _QUEUE_FIELDS)
    names.update(
        f"sim.tasks.{f}" for f in ("executed", "split", "requeued", "lost")
    )
    names.add("sim.makespan_cycles")
    names.add("sim.faults.total")  # per-kind names ride the sim.faults.* wildcard
    return names


def _documented(name: str, doc: str) -> bool:
    if name in doc:
        return True
    parts = name.split(".")
    return any(
        f"{'.'.join(parts[:i])}.*" in doc for i in range(1, len(parts))
    )


def test_every_metric_name_is_documented():
    doc = DOC.read_text(encoding="utf-8")
    names = _literal_names() | _table_names()
    assert names, "collector found no metric names — regex broke?"
    undocumented = sorted(n for n in names if not _documented(n, doc))
    assert not undocumented, (
        "metric names missing from docs/observability.md "
        f"(document them or a family wildcard): {undocumented}"
    )


def test_collector_sees_known_families():
    """The collector itself must not silently go blind."""
    names = _literal_names() | _table_names()
    for expected in (
        "service.jobs.submitted",
        "supervisor.worker_deaths",
        "shard.runs",
        "sim.tasks.executed",
        "telemetry.ring.dropped",
        "telemetry.worker.dropped",
        "tune.trials",
    ):
        assert expected in names, f"collector no longer sees {expected}"
