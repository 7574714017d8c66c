"""``StoredResultSet``: the compressed, cursor-paginated result container.

A list of :class:`Biclique` objects costs O(output) resident memory.
A :class:`StoredResultSet` — the service's only result container —
keeps the same logical contents as delta-encoded blocks (see
:mod:`repro.store.encode`) and serves them three ways:

- streaming iteration (``for b in store``) — decodes block by block,
  never holding more than one materialized biclique plus the running
  per-side prefixes;
- size-filter pushdown (:meth:`filtered`) — a zero-copy view sharing
  the underlying blocks, skipping whole blocks whose per-side maxima
  cannot pass;
- stable cursor pagination (:meth:`page`) — the cursor is the string of
  the next record's stream-wide ordinal, so it survives pickling, limit
  changes between calls, and filter composition, and seeking is a
  block-metadata scan rather than a decode of everything before it.

Instances hold no telemetry references (they must pickle cleanly across
the service's process boundaries); ``page()`` discovers the ambient
:class:`~repro.telemetry.hub.Telemetry` at call time to bump the
``store.pages.*`` counters.
"""

from __future__ import annotations

import numbers

from ..core.bicliques import Biclique, validate_size_filters
from .encode import (
    DEFAULT_BLOCK_RECORDS,
    count_records,
    decode_blocks,
    encode_blocks,
)

__all__ = ["StoredResultSet", "materialized_nbytes"]

#: Cost model for materialized results: a Biclique object + two tuples
#: (~96 bytes) + 8 bytes per vertex id.  Used to report the compression
#: the store buys over the plain-object form.
_BYTES_PER_VERTEX = 8
_BYTES_PER_BICLIQUE = 96


def materialized_nbytes(bicliques) -> int:
    """Modeled resident bytes of ``bicliques`` as plain Python objects.

    The "materialized" side of every encoded-vs-materialized ratio the
    store benchmarks and Fig. 7 report.
    """
    total = 0
    for b in bicliques:
        total += _BYTES_PER_BICLIQUE + _BYTES_PER_VERTEX * (
            len(b.left) + len(b.right)
        )
    return total


class StoredResultSet:
    """Immutable, ordered, compressed set of bicliques.

    Build with :meth:`from_bicliques`; the record order is exactly the
    input order (the service stores sorted results, so iteration is
    sorted).
    """

    def __init__(
        self,
        blocks,
        n_records: int,
        *,
        min_left: int = 0,
        min_right: int = 0,
    ) -> None:
        self._blocks = tuple(blocks)
        #: records in the *underlying* stream, ignoring filters
        self._n_records = int(n_records)
        self.min_left = int(min_left)
        self.min_right = int(min_right)
        self._len: int | None = (
            self._n_records if not (min_left or min_right) else None
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_bicliques(
        cls, bicliques, *, block_records: int = DEFAULT_BLOCK_RECORDS
    ) -> "StoredResultSet":
        """Encode ``bicliques`` — a :class:`~repro.core.RaggedBicliques`,
        straight from its arrays, or any iterable of bicliques, which is
        flattened first — in their given order."""
        blocks = encode_blocks(bicliques, block_records)
        store = cls(blocks, sum(b.n_records for b in blocks))
        _note_store(store)
        return store

    # -- sizing ---------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Encoded payload bytes — what the cache budget charges."""
        return sum(b.nbytes for b in self._blocks)

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    def __len__(self) -> int:
        if self._len is None:
            self._len = count_records(
                self._blocks,
                min_left=self.min_left,
                min_right=self.min_right,
            )
        return self._len

    def __bool__(self) -> bool:
        # len() may scan headers; emptiness of the unfiltered stream is
        # free and the filtered case needs the count anyway.
        return len(self) > 0

    # -- reading --------------------------------------------------------
    def records(self, *, start: int = 0):
        """Yield ``(ordinal, left, right)`` for records passing the
        filter, beginning at stream ordinal ``start``."""
        return decode_blocks(
            self._blocks,
            min_left=self.min_left,
            min_right=self.min_right,
            start=start,
        )

    def __iter__(self):
        for _, left, right in self.records():
            # left/right come back sorted and deduplicated by
            # construction, so skip Biclique.make's re-sort.
            yield Biclique(left, right)

    def as_tuple(self) -> tuple:
        """Materialize everything — the escape hatch, not the default."""
        return tuple(self)

    def filtered(self, min_left: int = 0, min_right: int = 0) -> "StoredResultSet":
        """A view with a (composed) size filter; shares the blocks.

        The filters follow :func:`~repro.api.validate_size_filters`:
        anything but a non-negative integer raises :class:`ValueError`.
        """
        min_left, min_right = validate_size_filters(min_left, min_right)
        return StoredResultSet(
            self._blocks,
            self._n_records,
            min_left=max(self.min_left, min_left),
            min_right=max(self.min_right, min_right),
        )

    def page(self, cursor: str | None = None, limit: int = 100):
        """``(items, next_cursor)`` — stable cursor pagination.

        The cursor is opaque to callers but simply the decimal ordinal
        of the next underlying record, which makes it *stable*: pages
        never skip or duplicate records across varying ``limit`` values,
        filter views, or pickled round-trips of the store.  ``None``
        means "from the start"; a returned ``next_cursor`` of ``None``
        means the stream is exhausted.
        """
        # bool is an int subclass; limit=True is a caller bug, not a 1.
        if isinstance(limit, bool) or not isinstance(limit, numbers.Integral):
            raise ValueError(f"limit must be a positive integer, got {limit!r}")
        if limit < 1:
            raise ValueError(f"limit must be positive, got {int(limit)}")
        start = _parse_cursor(cursor)
        items = []
        next_cursor = None
        for ordinal, left, right in self.records(start=start):
            if len(items) >= limit:
                next_cursor = str(ordinal)
                break
            items.append(Biclique(left, right))
        _bump({"store.pages.served": 1, "store.pages.items": len(items)})
        return items, next_cursor

    def pages(self, limit: int = 100):
        """Iterate all pages (convenience over repeated :meth:`page`)."""
        cursor: str | None = None
        while True:
            items, cursor = self.page(cursor, limit)
            if items:
                yield items
            if cursor is None:
                return

    # -- misc -----------------------------------------------------------
    def __repr__(self) -> str:
        filt = ""
        if self.min_left or self.min_right:
            filt = f", min_left={self.min_left}, min_right={self.min_right}"
        return (
            f"StoredResultSet(records={self._n_records}, "
            f"blocks={self.n_blocks}, nbytes={self.nbytes}{filt})"
        )


def _parse_cursor(cursor: str | None) -> int:
    if cursor is None or cursor == "":
        return 0
    try:
        start = int(cursor)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid cursor {cursor!r}: cursors are opaque tokens returned "
            f"by a previous page() call — do not construct them"
        ) from None
    if start < 0:
        raise ValueError(f"invalid cursor {cursor!r}: negative ordinal")
    return start


_COUNTERS = {
    "store.results.built": "result stores finished",
    "store.results.records": "records written to stores",
    "store.results.encoded_bytes":
        "encoded payload bytes across finished stores",
    "store.results.blocks": "encoded blocks written",
    "store.pages.served": "cursor pages served",
    "store.pages.items": "bicliques returned via pages",
}


def _bump(counts: dict) -> None:
    """Add ``counts`` to ``store.*`` counters of the ambient telemetry."""
    from ..telemetry.hub import current_telemetry

    telemetry = current_telemetry()
    if telemetry is None or not telemetry.enabled:
        return
    for name, value in counts.items():
        telemetry.registry.counter(
            name, description=_COUNTERS[name]
        ).add(value)


def _note_store(store: StoredResultSet) -> None:
    _bump({
        "store.results.built": 1,
        "store.results.records": len(store),
        "store.results.encoded_bytes": store.nbytes,
        "store.results.blocks": store.n_blocks,
    })

