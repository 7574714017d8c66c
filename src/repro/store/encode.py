"""Delta-encoding of biclique streams into block-framed uint32 arrays.

Wire format
-----------
A stream of records (one per biclique, order-preserving) is framed into
*blocks* of at most :data:`DEFAULT_BLOCK_RECORDS` records.  Each block
is one packed ``uint32`` numpy array of concatenated records::

    record := lcp_l  n_new_l  lcp_r  n_new_r   ── 4 header words
              left_delta[n_new_l]  right_delta[n_new_r]

- ``lcp_l`` / ``lcp_r``: how many leading vertices of the left / right
  side are shared with the *previous record* (per side, independently —
  sorted adjacent bicliques share left prefixes; DFS-adjacent emissions
  share right prefixes).  Forced to 0 for the first record of a block,
  so every block decodes with no state from its predecessors.
- deltas: the non-shared vertices, each stored as the difference from
  the previous vertex of the same side in the *same* record (the vertex
  at ``lcp-1`` is shared, hence known); the first vertex of a side
  deltas against −1.  Sides are strictly increasing, so every stored
  word is ≥ 1 and fits ``uint32``.

Per-block frame metadata (:class:`Block`) carries the starting record
ordinal plus per-side maximum lengths, which buys two things without
touching the payload: O(1) cursor seek to the containing block, and
whole-block skipping under size filters (``max_left < min_left`` means
no record in the block can pass).

Nothing in the format depends on more than the previous record, so
:func:`encode_blocks` computes every record's LCPs and deltas at once
with array operations over the flat sides of a
:class:`~repro.core.RaggedBicliques`.  Prefix sharing
between consecutive bicliques of an enumeration order is what the
format compresses (Mukherjee & Tirthapura, arXiv:1404.4910).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..core.bicliques import RaggedBicliques

__all__ = [
    "Block",
    "DEFAULT_BLOCK_RECORDS",
    "count_records",
    "decode_blocks",
    "encode_blocks",
]

#: Records per block: small enough that a cursor seek decodes little,
#: large enough that the 0-lcp block-start records are amortized away.
DEFAULT_BLOCK_RECORDS = 256

_HEADER_WORDS = 4


@dataclass(frozen=True)
class Block:
    """One self-contained frame of encoded records."""

    #: ordinal (stream-wide index) of the first record in this block
    start: int
    n_records: int
    #: per-side maxima over the block — size-filter block skipping
    max_left: int
    max_right: int
    data: np.ndarray  # uint32 payload

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)


def encode_blocks(records,
                  block_records: int = DEFAULT_BLOCK_RECORDS) -> list[Block]:
    """Encode ``records`` into blocks in one pass.

    ``records`` is a :class:`~repro.core.RaggedBicliques`, encoded
    straight from its flat arrays, or anything its ``from_bicliques``
    flattens (``(left, right)`` pairs of int sequences).  Record ``k``
    gets stream ordinal ``k``.  Every step is an array operation over the
    flat sides: per-side LCPs by one gathered compare, gaps by a shifted
    difference, words scattered to ``cumsum`` offsets and block maxima by
    ``np.maximum.reduceat``.

    Raises :class:`ValueError` (and encodes nothing) naming the first
    record with a side that is not strictly increasing non-negative ints
    whose delta words fit in ``[1, 2**32)``.
    """
    if block_records < 1:
        raise ValueError(
            f"block_records must be positive, got {block_records}"
        )
    records = RaggedBicliques.from_bicliques(records)
    n = len(records)
    if n == 0:
        return []
    fresh = np.arange(n) % block_records == 0  # lcp forced to 0
    left = _Side(records.left, records.left_ptr, fresh)
    right = _Side(records.right, records.right_ptr, fresh)
    bad = min(left.first_bad, right.first_bad)
    if bad < n:
        name, side = ("left", left) if left.first_bad == bad else (
            "right", right)
        raise ValueError(
            f"record {bad}: {name} side "
            f"{tuple(side.flat[side.offs[bad]:side.offs[bad + 1]].tolist())!r}"
            f" is not strictly increasing non-negative vertex ids with "
            f"deltas below 2**32"
        )

    new_l = left.lens - left.lcp
    new_r = right.lens - right.lcp
    pos = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(_HEADER_WORDS + new_l + new_r, out=pos[1:])
    head = pos[:-1]
    words = np.empty(int(pos[-1]), dtype=np.uint32)
    words[head[:, None] + np.arange(_HEADER_WORDS)] = np.column_stack(
        [left.lcp, new_l, right.lcp, new_r])
    left.scatter(words, head + _HEADER_WORDS)
    right.scatter(words, head + _HEADER_WORDS + new_l)

    cuts = np.arange(0, n, block_records)
    ends = np.append(cuts[1:], n)
    max_l = np.maximum.reduceat(left.lens, cuts)
    max_r = np.maximum.reduceat(right.lens, cuts)
    return [
        Block(a, b - a, ml, mr, words[pos[a]:pos[b]])
        for a, b, ml, mr in zip(cuts.tolist(), ends.tolist(),
                                max_l.tolist(), max_r.tolist())
    ]


class _Side:
    """One side of a record run as ragged flat arrays.

    ``gaps[i]`` is the delta word of flat position ``i`` against its
    predecessor in the same record (``-1`` for a record's first vertex);
    ``lcp[k]`` is record ``k``'s shared prefix with record ``k - 1``.
    """

    def __init__(self, flat: np.ndarray, offs: np.ndarray,
                 fresh: np.ndarray) -> None:
        flat = flat.astype(np.int64, copy=False)
        n = len(offs) - 1
        lens = np.diff(offs)
        gaps = np.empty_like(flat)
        gaps[1:] = flat[1:] - flat[:-1]
        heads = offs[:-1][lens > 0]
        gaps[heads] = flat[heads] + 1
        invalid = (flat < 0) | (gaps < 1) | (gaps > 0xFFFFFFFF)
        self.first_bad = (
            int(np.searchsorted(offs, invalid.argmax(), "right")) - 1
            if invalid.any() else n
        )

        # LCP: compare the first min(len, previous len) positions of
        # each record with its predecessor's; the first mismatch ends it
        span = np.zeros(n, dtype=np.int64)
        np.minimum(lens[1:], lens[:-1], out=span[1:])
        span[fresh] = 0
        lcp = span.copy()
        if n_cmp := int(span.sum()):
            rec = np.repeat(np.arange(n), span)
            within = np.arange(n_cmp) - np.repeat(np.cumsum(span) - span,
                                                  span)
            here = offs[rec] + within
            miss = np.flatnonzero(flat[here] != flat[here - lens[rec - 1]])
            hit, first = np.unique(rec[miss], return_index=True)
            lcp[hit] = within[miss[first]]
        self.flat, self.lens, self.offs = flat, lens, offs
        self.gaps, self.lcp = gaps, lcp

    def scatter(self, words: np.ndarray, dest: np.ndarray) -> None:
        """Write each record's unshared gaps to ``words[dest[k]:]``."""
        rec = np.repeat(np.arange(self.lens.size), self.lens)
        first_new = self.offs[:-1] + self.lcp
        idx = np.arange(self.gaps.size)
        keep = idx >= first_new[rec]
        words[idx[keep] + (dest - first_new)[rec[keep]]] = self.gaps[keep]


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_blocks(
    blocks,
    *,
    min_left: int = 0,
    min_right: int = 0,
    start: int = 0,
):
    """Yield ``(ordinal, left, right)`` tuples from ``start`` onward.

    Size-filter pushdown happens at two levels: blocks whose per-side
    maxima cannot satisfy the filter are skipped without touching their
    payload, and filtered-out records inside a surviving block are
    decoded (their values seed the next record's deltas) but never
    materialized into output tuples.
    """
    for block in blocks:
        if block.start + block.n_records <= start:
            continue
        if block.max_left < min_left or block.max_right < min_right:
            continue
        words = block.data.tolist()
        i = 0
        left = right = ()
        for ordinal in range(block.start, block.start + block.n_records):
            lcp_l, n_l, lcp_r, n_r = words[i:i + _HEADER_WORDS]
            i += _HEADER_WORDS
            left = _extend(left, lcp_l, words[i:i + n_l])
            i += n_l
            right = _extend(right, lcp_r, words[i:i + n_r])
            i += n_r
            if (
                ordinal >= start
                and len(left) >= min_left
                and len(right) >= min_right
            ):
                yield ordinal, left, right


def _extend(prev: tuple, lcp: int, gaps: list) -> tuple:
    """``prev[:lcp]`` followed by the vertices that ``gaps`` step to."""
    base = prev[lcp - 1] if lcp else -1
    return prev[:lcp] + tuple(accumulate(gaps, initial=base))[1:]


def count_records(blocks, *, min_left: int = 0, min_right: int = 0) -> int:
    """Number of records passing the size filter — header-only scan.

    Lengths derive from ``lcp + n_new`` alone, so counting never decodes
    a vertex value.
    """
    total = 0
    for block in blocks:
        if block.max_left < min_left or block.max_right < min_right:
            continue
        words = block.data.tolist()
        i = 0
        for _ in range(block.n_records):
            lcp_l, n_l, lcp_r, n_r = words[i:i + _HEADER_WORDS]
            i += _HEADER_WORDS + n_l + n_r
            total += lcp_l + n_l >= min_left and lcp_r + n_r >= min_right
    return total
