"""Succinct result storage: tree buffers, delta encoding, cursors.

The enumeration tree GMBE traverses is also the shape its *output*
compresses against: consecutive maximal bicliques share long prefixes
of their (sorted) vertex sets, because they are siblings or cousins in
that tree.  This package stores results as paths:

- :mod:`~repro.store.treebuf` — a Grigore & Kiefer-style *tree buffer*
  (``add_child`` / ``deactivate`` / ``history``) keeping only the live
  root-to-tip path plus whatever history still has live readers, in
  amortized O(history) space (the API contract is inlined in
  DESIGN.md §13);
- :mod:`~repro.store.encode` — delta-encoding of each biclique against
  the live path into packed uint32 arrays with per-block framing, so
  blocks decode independently;
- :mod:`~repro.store.resultset` — :class:`StoredResultSet`, the
  compressed, length-aware, size-filter-pushdown, cursor-paginated
  result container the cache and service hand around instead of Python
  lists;
- :mod:`~repro.store.provenance` — the same path-sharing applied to
  checkpointed executed-lineage sets (:func:`pack_lineages`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".encode": (
        "DEFAULT_BLOCK_RECORDS Block PathDeltaEncoder count_records "
        "decode_blocks"
    ),
    ".provenance": "pack_lineages unpack_lineages",
    ".resultset": "ResultStoreWriter StoredResultSet materialized_nbytes",
    ".treebuf": "ROOT TreeBuffer",
})
