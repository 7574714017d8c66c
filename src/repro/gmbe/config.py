"""GMBE configuration.

Default values follow the paper's §6.1 *Measures*: ``bound_height = 20``,
``bound_size = 1500``, ``WarpPerSM = 16``, V sorted by ascending degree.
The Fig. 10 / Fig. 11 sensitivity benchmarks sweep these.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields, replace

__all__ = ["GMBEConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class GMBEConfig:
    """Tuning knobs of the GMBE kernel (§4.2–§4.3).

    Attributes
    ----------
    bound_height:
        Split a task when its estimated tree height ``min(|L|, |C|)``
        exceeds this (and the size bound also trips).
    bound_size:
        Split a task when its estimated node count ``min(|L|,|C|)·|C|``
        exceeds this (and the height bound also trips).
    warps_per_sm:
        Persistent-thread warps resident per SM (*WarpPerSM*).
    prune:
        Local-neighborhood-size pruning (§4.2); the GMBE-w/o_PRUNE
        variant of Fig. 8 / Table 2 turns it off.
    scheduling:
        ``"task"`` (load-aware task-centric, the paper's GMBE),
        ``"warp"`` (GMBE-WARP: one enumeration tree per warp), or
        ``"block"`` (GMBE-BLOCK: one tree per thread block).
    node_reuse:
        Memory accounting mode: node-reuse buffers (§4.1) vs the
        pre-allocated per-subtree layout of §3.1 (GMBE-w/o_REUSE).
        Enumeration behaviour is identical; only the modeled GPU memory
        demand differs (Fig. 7).
    set_backend:
        Set-representation backend for the enumeration hot path:
        ``"sorted"`` (galloping merges over sorted arrays),
        ``"bitset"`` (packed uint64 bitmaps over the task's induced
        subgraph, the cuMBE/GBC dense-task optimization), or ``"auto"``
        (per-root-task density heuristic,
        :func:`repro.core.bitset.resolve_backend`).  The enumerated
        biclique set, maximality outcomes, and pruning counts are
        bit-identical across all three; only the modeled work units
        differ (word-parallel vs merge charging).
    max_task_retries:
        Failure budget per task lineage under fault injection (§9 of
        DESIGN.md): a warp-hang / SM-crash / dropped-enqueue failure
        re-enqueues the task on a surviving SM up to this many times
        before the subtree is abandoned (and counted in
        ``SimReport.tasks_lost``).  Irrelevant to fault-free runs.
    batch_tasks:
        Cross-task batched execution of dense (bitset-backend) tasks
        (:mod:`repro.core.batch`): ``"off"`` runs every task through the
        sequential node-buffer loop, ``"auto"`` groups up to a default
        number of same-depth dense tasks per lockstep round, and a
        positive int caps the group size explicitly.  Batching is a pure
        wall-clock optimization: the enumerated biclique set, per-task
        ``Counters`` charges, simulated cycles, checkpoints, and fault
        behaviour are bit-identical to ``"off"`` (DESIGN.md §10).
    order:
        Vertex ordering of the enumeration side V applied during
        preprocessing (§5): ``"degree"`` (static ascending degree, the
        paper's default), ``"degeneracy"`` (2-hop degeneracy peeling,
        ooMBEA-style), or ``"none"`` (keep input order).  The enumerated
        biclique set is identical for every ordering — only the tree
        shape, and hence the modeled cycles, changes — which is why the
        autotuner (:mod:`repro.tuning`) treats it as just another knob.
    """

    bound_height: int = 20
    bound_size: int = 1500
    warps_per_sm: int = 16
    prune: bool = True
    scheduling: str = "task"
    node_reuse: bool = True
    set_backend: str = "auto"
    max_task_retries: int = 3
    batch_tasks: int | str = "auto"
    order: str = "degree"

    def __post_init__(self) -> None:
        for name in ("prune", "node_reuse"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        for name in (
            "bound_height", "bound_size", "warps_per_sm", "max_task_retries"
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.bound_height <= 0 or self.bound_size <= 0:
            raise ValueError("bounds must be positive")
        if self.warps_per_sm <= 0:
            raise ValueError("warps_per_sm must be positive")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be non-negative")
        if self.scheduling not in ("task", "warp", "block"):
            raise ValueError(f"unknown scheduling {self.scheduling!r}")
        if self.set_backend not in ("sorted", "bitset", "auto"):
            raise ValueError(f"unknown set_backend {self.set_backend!r}")
        if self.order not in ("degree", "degeneracy", "none"):
            raise ValueError(f"unknown order {self.order!r}")
        bt = self.batch_tasks
        if isinstance(bt, bool) or not isinstance(bt, (int, str)):
            raise ValueError(
                f"batch_tasks must be 'off', 'auto', or a positive int, "
                f"got {bt!r}"
            )
        if isinstance(bt, str) and bt not in ("off", "auto"):
            raise ValueError(f"unknown batch_tasks {bt!r}")
        if isinstance(bt, int) and bt <= 0:
            raise ValueError("batch_tasks int must be positive")

    def with_(self, **changes) -> "GMBEConfig":
        """Functional update, e.g. ``cfg.with_(prune=False)``.

        Unknown field names raise :class:`ValueError` naming them.
        """
        self._reject_unknown(changes)
        return replace(self, **changes)

    @classmethod
    def _reject_unknown(cls, keys) -> None:
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(keys) - known)
        if unknown:
            raise ValueError(
                f"unknown GMBEConfig key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(sorted(known))}"
            )

    def signature(self) -> tuple[tuple[str, object], ...]:
        """Stable, hashable field snapshot in field-name order.

        :mod:`repro.service` folds this into its content-addressed cache
        key so two jobs share a result only when *every* knob matches —
        stable across processes, unlike ``hash(self)``.
        """
        return tuple(sorted(asdict(self).items()))

    # ------------------------------------------------------------------
    # Serialization (the tuned-config store and checkpoints persist
    # configs as JSON; the round trip must be exact).
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Stable JSON object of every knob, in field-declaration order."""
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)}
        )

    @classmethod
    def from_dict(cls, data: dict) -> "GMBEConfig":
        """Build a config from a mapping, rejecting unknown keys.

        Missing keys take their defaults (a config written before a knob
        existed still loads); unknown keys raise :class:`ValueError`
        naming both the offender and the valid field set, so a typo in a
        hand-edited store entry fails loudly instead of being ignored.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"GMBEConfig JSON must be an object, got {type(data).__name__}"
            )
        cls._reject_unknown(data)
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "GMBEConfig":
        """Inverse of :meth:`to_json`; :class:`ValueError` on bad input."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"GMBEConfig JSON is malformed: {exc}") from exc
        return cls.from_dict(data)


DEFAULT_CONFIG = GMBEConfig()
