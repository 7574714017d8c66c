"""Busy-interval bookkeeping and active-SM timelines (Figs. 4 and 9).

The scheduler records one ``(start, end)`` interval per executed task per
warp.  This module folds those into the paper's diagnostic curve: *number
of SMs with at least one busy warp, as a function of simulated time*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["BusyRecorder", "active_sm_curve", "active_units_curve"]


@dataclass
class BusyRecorder:
    """Accumulates per-unit busy intervals during a simulation."""

    #: unit id -> list of (start, end) busy intervals
    intervals: dict[int, list[tuple[float, float]]] = field(default_factory=dict)

    def record(self, unit: int, start: float, end: float) -> None:
        if end < start:
            raise ValueError("interval ends before it starts")
        self.intervals.setdefault(unit, []).append((start, end))

    def unit_end(self, unit: int) -> float:
        spans = self.intervals.get(unit, [])
        return spans[-1][1] if spans else 0.0

    def makespan(self) -> float:
        return max(
            (spans[-1][1] for spans in self.intervals.values() if spans),
            default=0.0,
        )


def _merge_intervals(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not spans:
        return []
    spans = sorted(spans)
    merged = [spans[0]]
    for s, e in spans[1:]:
        ls, le = merged[-1]
        if s <= le:
            merged[-1] = (ls, max(le, e))
        else:
            merged.append((s, e))
    return merged


def active_units_curve(
    recorder: BusyRecorder,
    unit_to_group,
    *,
    n_samples: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled curve of active groups (e.g. SMs) over time.

    ``unit_to_group`` maps a unit id to its group id; a group is active
    at ``t`` while any of its units has a busy interval covering ``t``.
    Returns ``(times, active_counts)``.
    """
    group_spans: dict[int, list[tuple[float, float]]] = {}
    for unit, spans in recorder.intervals.items():
        group_spans.setdefault(unit_to_group(unit), []).extend(spans)
    horizon = recorder.makespan()
    times = np.linspace(0.0, horizon, n_samples) if horizon > 0 else np.zeros(1)
    counts = np.zeros(len(times), dtype=np.int64)
    for spans in group_spans.values():
        for s, e in _merge_intervals(spans):
            counts += (times >= s) & (times <= e)
    return times, counts


def active_sm_curve(
    recorder: BusyRecorder, warps_per_sm: int = 0, *, n_samples: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 9's curve: active SMs over time, with warps grouped per SM.

    The scheduler records each warp under the key ``sm * 10_000 + slot``
    (see :class:`repro.gpusim.scheduler.PersistentThreadScheduler`), so
    grouping divides the key back down; ``warps_per_sm`` is accepted for
    API symmetry but unused.
    """
    del warps_per_sm
    return active_units_curve(
        recorder, lambda key: key // 10_000, n_samples=n_samples
    )
