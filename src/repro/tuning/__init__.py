"""Per-graph autotuning of the GMBE kernel knobs.

The paper fixes one global configuration (§6.1: ``bound_height=20``,
``bound_size=1500``, ``WarpPerSM=16``) chosen empirically, but its own
Fig. 10/11 sensitivity sweeps show the optimal split thresholds and
residency vary per graph — and this reproduction exposes further knobs
(``set_backend``, ``scheduling``, vertex ``order``) whose best choice
depends on density and degree skew.  This subsystem makes the system
learn its own fastest configuration per workload and remember it:

- :mod:`~repro.tuning.features` — cheap, deterministic graph features
  (density, degree skew, 2-hop estimates) that seed the search;
- :mod:`~repro.tuning.space` — the typed search space over
  :class:`~repro.gmbe.GMBEConfig` knobs, with per-dimension,
  feature-driven priors;
- :mod:`~repro.tuning.search` — seeded coarse-grid → successive-halving
  trials, each a budget-capped simulator run scored on simulated
  cycles, with provable early termination against the incumbent;
- :mod:`~repro.tuning.store` — a content-addressed tuned-config store
  keyed by graph fingerprint × device topology × tuner version;
- :mod:`~repro.tuning.tuner` — the ``tune(graph, budget)`` orchestrator
  returning a :class:`TunedConfig` with full provenance.

Tuning may only ever change *speed*: every candidate configuration
enumerates the bit-identical maximal-biclique set (the hypothesis
property suite asserts this).  See ``docs/tuning.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".features": "GraphFeatures compute_features",
    ".search": "EvalOutcome SuccessiveHalving Trial TuneBudget",
    ".space": "Dimension SearchSpace default_space",
    ".store": (
        "TUNER_VERSION TunedConfig TunedConfigStore TuningStoreError "
        "default_store device_key store_key"
    ),
    ".tuner": "resolve_config tune",
})
