"""Post-processing of biclique sets: statistics, greedy edge-cover
selection, and overlap clustering."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cover": "CoverResult greedy_edge_cover",
    ".overlap": "OverlapComponents jaccard overlap_components",
    ".stats": "BicliqueSetStats edge_coverage participation_counts summarize",
})
