"""Streaming substrate: dynamic bipartite graphs and incremental
maintenance of the maximal biclique set under edge updates."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dynamic_graph": "DynamicBipartiteGraph",
    ".maintainer": "BicliqueMaintainer",
})
