"""Packed-bitset set kernels and per-task bitset universes.

Real GPU MBE implementations do not run sorted-array merges on dense
subproblems: cuMBE (arXiv:2401.05039) and GBC (arXiv:2403.07858) both
switch the induced subgraph of a root task to a packed bitmap so that
every intersection becomes a word-wide AND plus popcount.  This module is
the numpy analog: vertex sets over a small, task-scoped universe are
``uint64`` words (64 vertices per word), and the counting pass that
dominates node expansion collapses to one 2-D ``AND`` + ``popcount``
over a row matrix.

Scoping matters.  A :class:`BitsetUniverse` is built once per root task
by :func:`repro.core.tasks.build_root_tasks`: its bit positions are
the task's ``L_r`` relabeled to the dense range ``[0, |L_r|)``, and it
stores one packed row ``N(v) ∩ L_r`` for every V vertex *in scope* —
every ``v`` with at least one neighbor in ``L_r``, plus ``v_s`` itself.
Because ``L' ⊆ L_r`` everywhere in the subtree, any ``v ∈ Γ(L')`` has a
neighbor in ``L_r``, so the scope is closed under every maximality check
the subtree will ever perform.

Cost-model note: these kernels are charged word-parallel
(:meth:`repro.core.bicliques.Counters.charge_bitset`) — a warp moves 32
words (= 2048 vertex slots) per step with no per-row divergence — which
is exactly why the bitmap representation wins on dense tasks and why the
simulator must account it differently from galloping merges.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "WORD_BITS",
    "BitsetUniverse",
    "and_",
    "andnot",
    "count_rows_vs_mask",
    "from_sorted",
    "n_words",
    "or_",
    "popcount",
    "popcount_rows",
    "popcount_words",
    "resolve_backend",
    "test_bits",
    "to_sorted",
]

#: Bits per packed word (one ``uint64``).
WORD_BITS = 64

_ONE = np.uint64(1)
_LITTLE = sys.byteorder == "little"

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    _popcount_u64 = np.bitwise_count
else:  # pragma: no cover - numpy 1.x fallback
    #: module-level byte-popcount table — built once at import, shared by
    #: every caller (single-task and batched paths alike)
    _BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount_u64(words: np.ndarray) -> np.ndarray:
        bytes_ = words[..., None].view(np.uint8)
        return _BYTE_POP[bytes_].sum(axis=-1, dtype=np.uint64).reshape(words.shape)


#: Elementwise per-word popcount primitive (``np.bitwise_count`` on
#: numpy ≥ 2.0, a cached byte-LUT fallback otherwise).  Exported so the
#: batched path (:mod:`repro.core.batch`) reuses the exact same kernel
#: as the single-task helpers below.  Note the result dtype is ``uint8``
#: per word — reduce with an explicit ``dtype`` as done here.
popcount_words = _popcount_u64


def n_words(n_bits: int) -> int:
    """Words needed for a universe of ``n_bits`` positions (≥ 1 word)."""
    return max(1, (int(n_bits) + WORD_BITS - 1) // WORD_BITS)


def from_sorted(positions: np.ndarray, n_bits: int) -> np.ndarray:
    """Pack sorted (or any duplicate-free) positions into a word array."""
    words = np.zeros(n_words(n_bits), dtype=np.uint64)
    pos = np.asarray(positions, dtype=np.int64)
    if len(pos):
        np.bitwise_or.at(
            words, pos >> 6, _ONE << (pos & 63).astype(np.uint64)
        )
    return words


def to_sorted(words: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Unpack a word array back to sorted ascending bit positions."""
    u8 = words if _LITTLE else words.byteswap()
    bits = np.unpackbits(u8.view(np.uint8), bitorder="little")
    return np.nonzero(bits)[0].astype(dtype, copy=False)


def and_(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Word-wise ``a & b`` (set intersection)."""
    return np.bitwise_and(a, b, out=out)


def or_(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Word-wise ``a | b`` (set union)."""
    return np.bitwise_or(a, b, out=out)


def andnot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Word-wise ``a & ~b`` (set difference)."""
    return np.bitwise_and(a, np.bitwise_not(b), out=out)


def popcount(words: np.ndarray) -> int:
    """Total set bits (``|set|``) of a mask of any shape."""
    return int(_popcount_u64(words).sum())


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(rows, n_words)`` matrix."""
    return _popcount_u64(matrix).sum(axis=-1, dtype=np.int64)


def count_rows_vs_mask(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``|row_i ∩ mask|`` for every packed row — the batched replacement
    for :meth:`repro.core.localcount.LocalCounter.counts` in bitset mode."""
    return popcount_rows(rows & mask)


def test_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``positions`` are set in ``words``."""
    pos = np.asarray(positions, dtype=np.int64)
    if len(pos) == 0:
        return np.zeros(0, dtype=bool)
    return (words[pos >> 6] >> (pos & 63).astype(np.uint64)) & _ONE != 0


def resolve_backend(
    setting: str,
    n_left: int,
    n_cands: int,
    n_scope: int,
    scope_degree_total: int,
) -> str:
    """Pick ``"sorted"`` or ``"bitset"`` for one root task.

    The ``"auto"`` rule mirrors cuMBE's density switch: a sorted counting
    pass gathers the full adjacency of every in-scope vertex
    (``scope_degree_total`` elements), while a bitset pass touches
    ``n_scope · ceil(|L_r|/64)`` words.  Whenever the packed pass moves
    less data the task is dense enough for the bitmap to win.  Tasks
    with no candidates never expand a node, so there is no pass to
    amortize the universe build against — they stay sorted.
    """
    if setting != "auto":
        return setting
    if n_left == 0 or n_scope == 0 or n_cands == 0:
        return "sorted"
    return (
        "bitset"
        if scope_degree_total >= n_scope * n_words(n_left)
        else "sorted"
    )


class BitsetUniverse:
    """Packed view of one root task's induced subgraph (see module docs).

    Attributes
    ----------
    left:
        Sorted global U ids of ``L_r`` — bit position ``i`` is
        ``left[i]``.
    scope:
        Sorted global V ids with a packed row here: every vertex with a
        neighbor in ``L_r``, plus the task's ``v_s``.
    rows:
        ``(len(scope), n_words)`` uint64 matrix; row ``j`` packs
        ``N(scope[j]) ∩ L_r`` over the local positions.
    """

    __slots__ = ("left", "scope", "rows", "n_bits", "n_words")

    def __init__(self, left: np.ndarray, scope: np.ndarray, rows: np.ndarray) -> None:
        self.left = left
        self.scope = scope
        self.rows = rows
        self.n_bits = len(left)
        self.n_words = rows.shape[1] if rows.ndim == 2 else n_words(len(left))

    @staticmethod
    def build(graph, left: np.ndarray, scope: np.ndarray) -> "BitsetUniverse":
        """Pack ``N(v) ∩ left`` for every ``v`` in ``scope``.

        One ragged gather over the scope adjacency — the same order of
        work as a single sorted counting pass, amortized over the whole
        subtree.  The bits are set through a dense boolean staging
        matrix + ``packbits`` (vectorized; the matrix is task-scoped and
        tiny compared to the graph).
        """
        from .localcount import ragged_gather

        left = np.asarray(left)
        scope = np.asarray(scope)
        nb = len(left)
        nw = n_words(nb)
        if nb == 0 or len(scope) == 0:
            return BitsetUniverse(
                left, scope, np.zeros((len(scope), nw), dtype=np.uint64)
            )
        flat, lengths = ragged_gather(
            graph.v_indptr, graph.v_indices, scope.astype(np.int64)
        )
        idx = np.searchsorted(left, flat)
        idx_c = np.minimum(idx, nb - 1)
        hit = left[idx_c] == flat
        row_ids = np.repeat(np.arange(len(scope), dtype=np.int64), lengths)[hit]
        dense = np.zeros((len(scope), nw * WORD_BITS), dtype=bool)
        dense[row_ids, idx_c[hit]] = True
        packed = np.packbits(dense, axis=1, bitorder="little")
        if not _LITTLE:  # pragma: no cover - big-endian hosts
            rows = packed.view(np.uint64).byteswap()
        else:
            rows = packed.view(np.uint64)
        return BitsetUniverse(left, scope, np.ascontiguousarray(rows))

    # ------------------------------------------------------------------
    def left_positions(self, u_ids: np.ndarray) -> np.ndarray:
        """Local bit positions of global U ids (must all be in ``left``)."""
        return np.searchsorted(self.left, np.asarray(u_ids, dtype=self.left.dtype))

    def row_index(self, v_ids: np.ndarray) -> np.ndarray:
        """Row indices of global V ids (must all be in ``scope``)."""
        return np.searchsorted(self.scope, np.asarray(v_ids, dtype=self.scope.dtype))

    def mask_of_left_subset(self, u_ids: np.ndarray) -> np.ndarray:
        """Packed mask of a subset of ``left`` given as global U ids."""
        return from_sorted(self.left_positions(u_ids), self.n_bits)

    def left_ids(self, mask: np.ndarray) -> np.ndarray:
        """Sorted global U ids of a packed mask."""
        return self.left[to_sorted(mask)]

    def row(self, v_id: int) -> np.ndarray:
        """Packed ``N(v_id) ∩ L_r`` for a single in-scope V vertex."""
        return self.rows[int(self.row_index(np.asarray([v_id]))[0])]

    def memory_words(self) -> int:
        """Modeled GPU words held by the packed rows + id arrays."""
        return int(self.rows.size) + len(self.left) + len(self.scope)
