"""Core MBE algorithms: the serial baselines (MBEA, iMBEA, PMBE, ooMBEA),
the parallel CPU baseline (ParMBE), their shared enumeration engine, and
the brute-force reference oracle."""

from .._lazy import lazy_exports

# Each algorithm shares its submodule's name, and importing a submodule
# binds that name on the package, so these are bound eagerly.
from .imbea import imbea
from .mbea import mbea
from .oombea import oombea
from .parmbe import parmbe
from .pmbe import pmbe

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".batch": (
        "BatchEmissions BatchMember BatchStats batch_gamma_matches "
        "batch_intersect batch_popcount lane_state_bytes "
        "ragged_split ragged_stack run_batch"
    ),
    ".bicliques": (
        "Biclique BicliqueCollector BicliqueCounter BicliqueSink "
        "BicliqueWriter Counters EnumerationResult RaggedBicliques "
        "verify_biclique"
    ),
    ".bitset": "BitsetUniverse resolve_backend",
    ".constrained": "constrained_mbe",
    ".engine": "EngineOptions run_engine run_subtree",
    ".localcount": "LocalCounter ragged_gather",
    ".maximum": "OBJECTIVES maximum_biclique",
    ".reference": "maximal_biclique_count_reference reference_mbe",
    ".tasks": "RootTask build_root_task",
})
__all__ = sorted([*__all__, "imbea", "mbea", "oombea", "parmbe", "pmbe"])
