"""GMBE reproduction: maximal biclique enumeration with a simulated GPU.

Public API tour:

- :mod:`repro.graph` — bipartite CSR graphs, IO, preprocessing, generators;
- :mod:`repro.core` — the CPU algorithms (MBEA, iMBEA, PMBE, ooMBEA,
  ParMBE) and shared enumeration machinery;
- :mod:`repro.gmbe` — the paper's contribution: node-reuse stack
  iteration, local-neighborhood-size pruning, load-aware task scheduling;
- :mod:`repro.gpusim` — the SIMT GPU simulator substrate (devices, warps,
  memory model, persistent-thread scheduler);
- :mod:`repro.datasets` — offline synthetic analogs of the paper's 12
  datasets;
- :mod:`repro.bench` — drivers regenerating every table and figure.

Package exports load on first access (see :mod:`repro._lazy`).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".api": "as_bipartite_graph enumerate_maximal_bicliques",
    ".core": (
        "Biclique BicliqueCollector BicliqueCounter EnumerationResult "
        "imbea mbea oombea parmbe pmbe"
    ),
    ".graph": "BipartiteGraph",
    ".verify": "VerificationReport verify_enumeration",
})
__all__ = sorted([*__all__, "__version__"])
