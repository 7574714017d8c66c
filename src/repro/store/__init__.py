"""Succinct result storage: delta encoding, cursors, provenance.

Consecutive maximal bicliques of an enumeration order share long
prefixes of their (sorted) vertex sets, because they are siblings or
cousins in the enumeration tree (Mukherjee & Tirthapura,
arXiv:1404.4910).  This package stores results against that sharing:

- :mod:`~repro.store.encode` — delta-encoding of each biclique against
  the previous record into packed uint32 arrays with per-block framing,
  so blocks decode independently;
- :mod:`~repro.store.resultset` — :class:`StoredResultSet`, the
  compressed, length-aware, size-filter-pushdown, cursor-paginated
  result container the cache and service hand around instead of Python
  lists;
- :mod:`~repro.store.provenance` — the same prefix sharing applied to
  checkpointed executed-lineage sets (:func:`pack_lineages`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".encode": (
        "DEFAULT_BLOCK_RECORDS Block count_records decode_blocks "
        "encode_blocks"
    ),
    ".provenance": "pack_lineages unpack_lineages",
    ".resultset": "StoredResultSet materialized_nbytes",
})
