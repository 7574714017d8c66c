"""Typed search space over the GMBE kernel knobs.

A :class:`SearchSpace` is an ordered set of :class:`Dimension`\\ s, each
a finite choice list with a positive *prior* weight per choice.  Priors
come from the graph features (:func:`default_space`): they decide which
assignments the coarse grid tries first and how the seeded sampler
weights the remainder — they never exclude a choice, so the space stays
fully explorable under a large budget.

Every dimension maps 1:1 onto a :class:`~repro.gmbe.GMBEConfig` field
(vertex ordering included — it is the ``order`` knob), so an assignment
converts to a config with :meth:`SearchSpace.to_config` and back with
:meth:`SearchSpace.assignment_of`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..gmbe import GMBEConfig
from .features import GraphFeatures

__all__ = ["Dimension", "SearchSpace", "default_space"]


@dataclass(frozen=True)
class Dimension:
    """One tunable knob: a finite choice list with per-choice priors."""

    name: str
    choices: tuple
    #: positive relative weights, parallel to ``choices`` (need not sum
    #: to 1); defaults to uniform.
    priors: tuple = ()

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"dimension {self.name!r} has no choices")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"dimension {self.name!r} has duplicate choices")
        priors = self.priors or tuple(1.0 for _ in self.choices)
        if len(priors) != len(self.choices):
            raise ValueError(
                f"dimension {self.name!r}: {len(priors)} priors for "
                f"{len(self.choices)} choices"
            )
        if any(p <= 0 for p in priors):
            raise ValueError(f"dimension {self.name!r}: priors must be > 0")
        object.__setattr__(self, "priors", tuple(float(p) for p in priors))

    def ranked(self) -> tuple:
        """Choices by descending prior; ties keep declaration order."""
        order = sorted(
            range(len(self.choices)), key=lambda i: (-self.priors[i], i)
        )
        return tuple(self.choices[i] for i in order)

    def sample(self, rng: random.Random):
        """One prior-weighted draw."""
        return rng.choices(self.choices, weights=self.priors, k=1)[0]


@dataclass(frozen=True)
class SearchSpace:
    """Ordered dimensions over :class:`GMBEConfig` fields."""

    dimensions: tuple = ()
    #: knobs held fixed for every candidate (e.g. ``prune=True``).
    base: GMBEConfig = field(default_factory=GMBEConfig)

    def __post_init__(self) -> None:
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")
        valid = set(GMBEConfig.__dataclass_fields__)
        unknown = sorted(set(names) - valid)
        if unknown:
            raise ValueError(
                f"dimension(s) {unknown} are not GMBEConfig fields; "
                f"valid: {sorted(valid)}"
            )

    # ------------------------------------------------------------------
    def to_config(self, assignment: dict) -> GMBEConfig:
        """Materialize an assignment as a full config over ``base``."""
        return self.base.with_(**assignment)

    def assignment_of(self, config: GMBEConfig) -> dict:
        """The dimensions' view of ``config`` (inverse of to_config)."""
        return {d.name: getattr(config, d.name) for d in self.dimensions}

    def prior_best(self) -> dict:
        """Assignment taking every dimension's highest-prior choice."""
        return {d.name: d.ranked()[0] for d in self.dimensions}

    # ------------------------------------------------------------------
    def coarse_grid(self) -> list[dict]:
        """Deterministic coordinate sweep around the prior-best point.

        The prior-best assignment first, then every one-dimension
        variation of it, dimensions in declaration order and choices in
        descending-prior order.  This is the classic coarse grid for
        mostly-separable knob interactions: ``1 + Σ(|choices|-1)``
        candidates instead of the full product.
        """
        center = self.prior_best()
        grid = [dict(center)]
        for dim in self.dimensions:
            for choice in dim.ranked()[1:]:
                variant = dict(center)
                variant[dim.name] = choice
                grid.append(variant)
        return grid

    def sample(self, rng: random.Random) -> dict:
        """One prior-weighted random assignment (exploration beyond the
        grid when the budget allows)."""
        return {d.name: d.sample(rng) for d in self.dimensions}

    def candidates(self, max_candidates: int, seed: int) -> list[GMBEConfig]:
        """The trial list: coarse grid, then seeded prior-weighted
        samples, deduplicated, capped at ``max_candidates``."""
        if max_candidates <= 0:
            raise ValueError("max_candidates must be positive")
        rng = random.Random(seed)
        out: list[GMBEConfig] = []
        seen: set = set()
        for assignment in self.coarse_grid():
            cfg = self.to_config(assignment)
            if cfg not in seen:
                seen.add(cfg)
                out.append(cfg)
            if len(out) >= max_candidates:
                return out[:max_candidates]
        # Exploration tail: bounded draw attempts so a tiny space
        # (every combination already in the grid) terminates.
        attempts = 0
        limit = 50 * max_candidates
        while len(out) < max_candidates and attempts < limit:
            attempts += 1
            cfg = self.to_config(self.sample(rng))
            if cfg not in seen:
                seen.add(cfg)
                out.append(cfg)
        return out


def default_space(
    features: GraphFeatures, *, base: GMBEConfig | None = None
) -> SearchSpace:
    """The standard GMBE tuning space, priors seeded by graph features.

    The priors encode what the paper's sensitivity sweeps and the
    cuMBE/GBC adaptive arguments say about where each knob's optimum
    moves: hub-skewed graphs want more splitting (lower bounds) and can
    justify >16 resident warps despite the occupancy derate (Fig. 11);
    dense graphs favor the packed-bitset backend; 2-hop-light graphs
    gain little from splitting at all.
    """
    base = base if base is not None else GMBEConfig()
    dense = features.density > 0.01 or features.avg_deg_v > 24
    skewed = features.skew_v > 4.0 or features.skew_u > 4.0
    heavy = features.two_hop_max_v > 200

    def w(values: dict, choices: tuple) -> tuple:
        return tuple(values[c] for c in choices)

    heights = (4, 8, 20, 48)
    height_priors = (
        w({4: 4.0, 8: 3.0, 20: 2.0, 48: 1.0}, heights)
        if skewed or heavy
        else w({4: 1.0, 8: 2.0, 20: 4.0, 48: 2.0}, heights)
    )
    sizes = (64, 300, 1500, 6000)
    size_priors = (
        w({64: 4.0, 300: 3.0, 1500: 2.0, 6000: 1.0}, sizes)
        if skewed or heavy
        else w({64: 1.0, 300: 2.0, 1500: 4.0, 6000: 2.0}, sizes)
    )
    warps = (8, 16, 24, 32)
    warp_priors = (
        w({8: 1.0, 16: 3.0, 24: 2.0, 32: 2.5}, warps)
        if heavy
        else w({8: 1.5, 16: 4.0, 24: 1.5, 32: 1.0}, warps)
    )
    backends = ("auto", "bitset", "sorted")
    backend_priors = (4.0, 3.0, 1.0) if dense else (4.0, 1.5, 2.0)
    orders = ("degree", "degeneracy", "none")
    order_priors = (3.0, 4.0, 1.0) if skewed else (4.0, 2.0, 1.0)

    return SearchSpace(
        dimensions=(
            Dimension("bound_height", heights, height_priors),
            Dimension("bound_size", sizes, size_priors),
            Dimension("warps_per_sm", warps, warp_priors),
            Dimension("set_backend", backends, backend_priors),
            Dimension("order", orders, order_priors),
            Dimension("scheduling", ("task", "warp"), (6.0, 1.0)),
        ),
        base=base,
    )
