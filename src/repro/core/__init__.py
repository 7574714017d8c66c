"""Core MBE algorithms: the serial baselines (MBEA, iMBEA, PMBE, ooMBEA),
the parallel CPU baseline (ParMBE), their shared enumeration engine, and
the brute-force reference oracle."""

from .batch import (
    BatchEmissions,
    BatchMember,
    BatchStats,
    batch_gamma_matches,
    batch_intersect,
    batch_popcount,
    batch_subset_mask,
    lane_state_bytes,
    ragged_split,
    ragged_stack,
    run_batch,
)
from .bicliques import (
    Biclique,
    BicliqueCollector,
    BicliqueCounter,
    BicliqueSink,
    BicliqueWriter,
    Counters,
    EnumerationResult,
    verify_biclique,
)
from .bitset import BitsetUniverse, resolve_backend
from .constrained import constrained_mbe
from .engine import EngineOptions, run_engine, run_subtree
from .imbea import imbea
from .localcount import LocalCounter, ragged_gather
from .maximum import OBJECTIVES, maximum_biclique
from .mbea import mbea
from .oombea import oombea
from .parmbe import parmbe
from .pmbe import pmbe
from .reference import maximal_biclique_count_reference, reference_mbe
from .tasks import RootTask, build_root_task

__all__ = [
    "BatchEmissions",
    "BatchMember",
    "BatchStats",
    "Biclique",
    "BicliqueCollector",
    "BitsetUniverse",
    "batch_gamma_matches",
    "batch_intersect",
    "batch_popcount",
    "batch_subset_mask",
    "lane_state_bytes",
    "ragged_split",
    "ragged_stack",
    "resolve_backend",
    "run_batch",
    "BicliqueCounter",
    "BicliqueSink",
    "BicliqueWriter",
    "Counters",
    "EngineOptions",
    "EnumerationResult",
    "LocalCounter",
    "RootTask",
    "build_root_task",
    "constrained_mbe",
    "imbea",
    "OBJECTIVES",
    "maximal_biclique_count_reference",
    "maximum_biclique",
    "mbea",
    "oombea",
    "parmbe",
    "pmbe",
    "ragged_gather",
    "reference_mbe",
    "run_engine",
    "run_subtree",
    "verify_biclique",
]
