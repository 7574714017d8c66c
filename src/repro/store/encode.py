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

The encoder's only state between records is the previous record itself
— a ``(left, right)`` pair of tuples — which is all the per-side LCPs
need.  Prefix sharing between consecutive bicliques of an enumeration
order is what the format compresses (Mukherjee & Tirthapura,
arXiv:1404.4910).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Block",
    "DEFAULT_BLOCK_RECORDS",
    "PathDeltaEncoder",
    "count_records",
    "decode_blocks",
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


def _lcp(a: tuple, b: tuple) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _gaps(side: tuple, lcp: int, ordinal: int, name: str) -> list:
    """Delta words of ``side[lcp:]``, each against its predecessor."""
    before = side[lcp - 1:-1] if lcp else (-1,) + side[:-1]
    gaps = list(map(operator.sub, side[lcp:], before))
    # side[-1] - before[0] bounds every gap of an increasing side, so
    # the max() scan runs only when a word could overflow
    if gaps and (min(gaps) < 1 or (side[-1] - before[0] > 0xFFFFFFFF
                                   and max(gaps) > 0xFFFFFFFF)):
        raise ValueError(
            f"record {ordinal}: {name} side {side!r} is not strictly "
            f"increasing non-negative vertex ids with deltas below 2**32"
        )
    return gaps


class PathDeltaEncoder:
    """Append-only encoder; ``finish()`` freezes the block list."""

    def __init__(self, block_records: int = DEFAULT_BLOCK_RECORDS) -> None:
        if block_records < 1:
            raise ValueError(
                f"block_records must be positive, got {block_records}"
            )
        self.block_records = block_records
        #: the previous record, the only state carried between records
        self._prev: tuple[tuple, tuple] = ((), ())
        self._blocks: list[Block] = []
        self._words: list[int] = []
        self._block_start = 0
        self._block_records = 0
        self._max_l = 0
        self._max_r = 0
        self._n_records = 0
        self._finished = False

    def add(self, left: tuple, right: tuple) -> int:
        """Encode one record; returns its ordinal.

        Raises :class:`ValueError` (and encodes nothing) when a side is
        not strictly increasing non-negative ints whose delta words fit
        in ``[1, 2**32)``.
        """
        if self._finished:
            raise RuntimeError("encoder already finished")
        ordinal = self._n_records
        if self._block_records == 0:
            lcp_l = lcp_r = 0  # block-start records are self-contained
        else:
            prev_left, prev_right = self._prev
            lcp_l = _lcp(left, prev_left)
            lcp_r = _lcp(right, prev_right)
        gaps_l = _gaps(left, lcp_l, ordinal, "left")
        gaps_r = _gaps(right, lcp_r, ordinal, "right")
        words = self._words
        words.append(lcp_l)
        words.append(len(left) - lcp_l)
        words.append(lcp_r)
        words.append(len(right) - lcp_r)
        words.extend(gaps_l)
        words.extend(gaps_r)
        self._prev = (left, right)

        if len(left) > self._max_l:
            self._max_l = len(left)
        if len(right) > self._max_r:
            self._max_r = len(right)
        self._n_records += 1
        self._block_records += 1
        if self._block_records >= self.block_records:
            self._close_block()
        return ordinal

    def _close_block(self) -> None:
        if self._block_records == 0:
            return
        self._blocks.append(
            Block(
                start=self._block_start,
                n_records=self._block_records,
                max_left=self._max_l,
                max_right=self._max_r,
                data=np.asarray(self._words, dtype=np.uint32),
            )
        )
        self._words = []
        self._block_start = self._n_records
        self._block_records = 0
        self._max_l = 0
        self._max_r = 0

    def finish(self) -> list[Block]:
        """Close the open block; further ``add`` calls are an error."""
        if not self._finished:
            self._close_block()
            self._finished = True
        return self._blocks

    @property
    def n_records(self) -> int:
        return self._n_records


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
        data = block.data
        i = 0
        prev_l: tuple = ()
        prev_r: tuple = ()
        for k in range(block.n_records):
            lcp_l = int(data[i])
            n_l = int(data[i + 1])
            lcp_r = int(data[i + 2])
            n_r = int(data[i + 3])
            i += _HEADER_WORDS
            left = list(prev_l[:lcp_l])
            base = left[-1] if left else -1
            for w in data[i:i + n_l]:
                base += int(w)
                left.append(base)
            i += n_l
            right = list(prev_r[:lcp_r])
            base = right[-1] if right else -1
            for w in data[i:i + n_r]:
                base += int(w)
                right.append(base)
            i += n_r
            prev_l = tuple(left)
            prev_r = tuple(right)
            ordinal = block.start + k
            if (
                ordinal >= start
                and len(prev_l) >= min_left
                and len(prev_r) >= min_right
            ):
                yield ordinal, prev_l, prev_r


def count_records(blocks, *, min_left: int = 0, min_right: int = 0) -> int:
    """Number of records passing the size filter — header-only scan.

    Lengths derive from ``lcp + n_new`` alone, so counting never decodes
    a vertex value.
    """
    total = 0
    for block in blocks:
        if block.max_left < min_left or block.max_right < min_right:
            continue
        data = block.data
        i = 0
        len_l = len_r = 0
        for _ in range(block.n_records):
            lcp_l = int(data[i])
            n_l = int(data[i + 1])
            lcp_r = int(data[i + 2])
            n_r = int(data[i + 3])
            len_l = lcp_l + n_l
            len_r = lcp_r + n_r
            i += _HEADER_WORDS + n_l + n_r
            if len_l >= min_left and len_r >= min_right:
                total += 1
    return total
