"""Biclique value types, output sinks, and enumeration counters.

Every enumerator in the library reports maximal bicliques through a
*sink* — any callable ``sink(L, R)`` receiving strictly increasing
(sorted, duplicate-free) numpy integer arrays, which may be views the
enumerator reuses after the call returns.  The provided sinks cover the
common needs: counting (the paper only counts — its Table 1 reports
``Max. bicliques``), collecting, and streaming to a file.  The GMBE
kernel calls its sink after the simulation, from the whole run held as
one :class:`RaggedBicliques` block: a :class:`BicliqueCollector` gets
the block at once, any other sink one call per biclique (DESIGN.md
§10).  Enumerators
also fill a shared :class:`Counters` record that backs Table 2 (ratio
of non-maximal to maximal checks) and the simulator's cost model.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Protocol, TextIO

import numpy as np

from .localcount import ragged_gather

__all__ = [
    "Biclique",
    "BicliqueSink",
    "BicliqueCounter",
    "BicliqueCollector",
    "BicliqueWriter",
    "Counters",
    "EnumerationResult",
    "RaggedBicliques",
    "validate_size_filters",
    "verify_biclique",
]


def _canonical(side: Iterable[int]) -> tuple[int, ...]:
    """Sorted, duplicate-free tuple of Python ints."""
    if isinstance(side, np.ndarray):
        return tuple(sorted(set(side.tolist())))
    return tuple(sorted({int(x) for x in side}))


class Biclique(NamedTuple):
    """A biclique ``(L ⊆ U, R ⊆ V)`` with hashable sorted tuples.

    A named tuple, so ordering (by ``left``, then ``right``), equality
    and hashing are the tuple's own and run in C — sorting, merging and
    set membership never call back into Python.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    @staticmethod
    def make(left: Iterable[int], right: Iterable[int]) -> "Biclique":
        return Biclique(_canonical(left), _canonical(right))

    @property
    def n_vertices(self) -> int:
        return len(self.left) + len(self.right)

    @property
    def n_edges(self) -> int:
        return len(self.left) * len(self.right)


def _validate_size_filter(name: str, value) -> int:
    # bool is an int subclass; min_left=True is a caller bug, not a 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {int(value)}")
    return int(value)


def validate_size_filters(min_left, min_right) -> tuple[int, int]:
    """Validate ``min_left``/``min_right`` size-filter arguments.

    Negative or non-integral values (including bools) raise
    :class:`ValueError` naming the offending value instead of silently
    filtering wrong — numpy integers are accepted and coerced.
    """
    return (
        _validate_size_filter("min_left", min_left),
        _validate_size_filter("min_right", min_right),
    )


def _offsets(lengths) -> np.ndarray:
    """``[0, l0, l0 + l1, ...]`` as int64 record offsets."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _flatten(sides: list) -> tuple[np.ndarray, np.ndarray]:
    """Sequences of ints as one int64 buffer plus record offsets.  An id
    outside int64 becomes -1, which every consumer rejects."""
    lens = np.fromiter(map(len, sides), dtype=np.int64, count=len(sides))
    total = int(lens.sum())
    try:
        flat = np.fromiter(chain.from_iterable(sides), np.int64, total)
    except OverflowError:
        flat = np.fromiter(
            (x if 0 <= x < 2**63 else -1 for x in chain.from_iterable(sides)),
            np.int64, total,
        )
    return flat, _offsets(lens)


def _relabel_segments(
    ids: np.ndarray, ptr: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """``table[ids]`` re-sorted within each ``ptr`` segment (int64).

    Adding ``segment * len(table)`` keeps every label inside its own
    segment's key range, so one flat sort orders each segment in place.
    """
    labels = table[ids]
    offsets = np.repeat(
        np.arange(len(ptr) - 1, dtype=np.int64) * len(table), np.diff(ptr)
    )
    labels += offsets
    labels.sort()
    labels -= offsets
    return labels


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest unsigned dtype holding its values, when
    that is narrower (never uint64, which would not mix with int64)."""
    if a.size and a.min() < 0:
        return a
    dtype = np.min_scalar_type(int(a.max(initial=0)))
    return a if dtype.itemsize >= a.dtype.itemsize else a.astype(dtype)


def _unpickle(left, left_lens, right, right_lens) -> "RaggedBicliques":
    return RaggedBicliques(left, _offsets(left_lens),
                           right, _offsets(right_lens))


class RaggedBicliques:
    """An immutable sequence of bicliques held as flat arrays.

    Record ``k`` is ``(left[left_ptr[k]:left_ptr[k+1]],
    right[right_ptr[k]:right_ptr[k+1]])``: integer ids, each side
    strictly increasing and non-negative, in any integer dtype (a run
    and a shard's result keep the narrowest).  Filtering, sorting,
    concatenation and encoding are array operations; :class:`Biclique`
    objects are built only by :meth:`to_list`, iteration and indexing.
    Equal to a list or tuple of the same bicliques in the same order;
    pickles as narrow ids and per-record lengths.
    """

    __slots__ = ("left", "left_ptr", "right", "right_ptr")

    def __init__(self, left, left_ptr, right, right_ptr) -> None:
        self.left, self.left_ptr = left, left_ptr
        self.right, self.right_ptr = right, right_ptr

    @classmethod
    def from_bicliques(cls, bicliques) -> "RaggedBicliques":
        """``bicliques`` itself if ragged, else its ``(left, right)``
        pairs of int sequences flattened, in order."""
        if isinstance(bicliques, cls):
            return bicliques
        records = list(bicliques)
        return cls(*_flatten([b[0] for b in records]),
                   *_flatten([b[1] for b in records]))

    def narrowed(self) -> "RaggedBicliques":
        """The same records with ids in the narrowest unsigned dtype."""
        return RaggedBicliques(_narrow(self.left), self.left_ptr,
                               _narrow(self.right), self.right_ptr)

    @classmethod
    def concat(cls, parts) -> "RaggedBicliques":
        """The records of ``parts``, one after another."""
        parts = list(parts) or [cls.from_bicliques(())]
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([p.left for p in parts]),
            _offsets(np.concatenate([np.diff(p.left_ptr) for p in parts])),
            np.concatenate([p.right for p in parts]),
            _offsets(np.concatenate([np.diff(p.right_ptr) for p in parts])),
        )

    def __len__(self) -> int:
        return len(self.left_ptr) - 1

    def take(self, rows) -> "RaggedBicliques":
        """Records ``rows`` (an index array), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        left, left_lens = ragged_gather(self.left_ptr, self.left, rows)
        right, right_lens = ragged_gather(self.right_ptr, self.right, rows)
        return RaggedBicliques(left, _offsets(left_lens),
                               right, _offsets(right_lens))

    def relabeled(self, prepared) -> "RaggedBicliques":
        """Prepared-graph records in ``prepared``'s input labels: per
        record :meth:`~repro.graph.preprocess.PreparedGraph.biclique_to_input_labels`
        (sides swapped when ``prepared.swapped``), as one fancy-index and
        one sort per side."""
        left = _relabel_segments(self.left, self.left_ptr, prepared.u_original)
        right = _relabel_segments(
            self.right, self.right_ptr, prepared.v_original
        )
        if prepared.swapped:
            return RaggedBicliques(right, self.right_ptr, left, self.left_ptr)
        return RaggedBicliques(left, self.left_ptr, right, self.right_ptr)

    def filtered(self, min_left: int = 0,
                 min_right: int = 0) -> "RaggedBicliques":
        """The records with at least this many vertices per side."""
        keep = ((np.diff(self.left_ptr) >= min_left)
                & (np.diff(self.right_ptr) >= min_right))
        return self if keep.all() else self.take(np.flatnonzero(keep))

    def sorted(self) -> "RaggedBicliques":
        """The records in ``(left, right)`` tuple order (stable)."""
        return self.take(np.argsort(self.sort_ranks(), kind="stable"))

    def sort_ranks(self) -> np.ndarray:
        """Each record's position in ``(left, right)`` tuple order; equal
        records share the first position of their run.

        A record's key is its left ids + 1, a 0, its right ids + 1, as
        big-endian symbols of the narrowest width, zero-padded to 64-bit
        words.  Key byte order is tuple order — the 0 puts a left side
        before every longer left it prefixes, the padding does so for
        right sides — and the keys are ranked most significant word
        first, re-sorting only the groups still tied after each word.
        """
        lens = np.diff(self.left_ptr), np.diff(self.right_ptr)
        top = max(int(self.left.max(initial=0)),
                  int(self.right.max(initial=0))) + 1
        sym = np.dtype(np.min_scalar_type(top)).newbyteorder(">")
        per_word = 8 // sym.itemsize
        n_words = (lens[0] + lens[1] + per_word) // per_word
        word_ptr = _offsets(n_words)
        keys = np.zeros(int(word_ptr[-1]) * per_word, dtype=sym)
        start = word_ptr[:-1] * per_word  # record k's first symbol
        for ids, ptr, n, at in ((self.left, self.left_ptr, lens[0], start),
                                (self.right, self.right_ptr, lens[1],
                                 start + lens[0] + 1)):
            pos = np.arange(len(ids)) + np.repeat(at - ptr[:-1], n)
            keys[pos] = ids
            keys[pos] += 1  # in the key dtype: it holds the largest id + 1
        words = keys.view(">u8").astype(np.uint64)

        rank = np.zeros(len(self), dtype=np.int64)
        tied = np.arange(len(self))  # records of tied groups, by group
        w = 0
        while len(tied) > 1:
            word = np.zeros(len(tied), dtype=np.uint64)
            more = n_words[tied] > w
            word[more] = words[word_ptr[tied[more]] + w]
            by = np.lexsort((word, rank[tied]))
            tied, word, group = tied[by], word[by], rank[tied[by]]
            at = np.arange(len(tied))
            new_group = np.r_[True, group[1:] != group[:-1]]
            new_sub = new_group | np.r_[True, word[1:] != word[:-1]]
            rank[tied] = group + (
                np.maximum.accumulate(np.where(new_sub, at, 0))
                - np.maximum.accumulate(np.where(new_group, at, 0))
            )
            # a sub-group stays tied while it has two records and one of
            # them has words left
            starts = np.flatnonzero(new_sub)
            sizes = np.diff(np.append(starts, len(tied)))
            longer = np.maximum.reduceat(n_words[tied], starts) > w + 1
            tied = tied[np.repeat((sizes > 1) & longer, sizes)]
            w += 1
        return rank

    def to_list(self) -> list[Biclique]:
        """Every record as a :class:`Biclique`: one ``tolist()`` per
        side, then tuple slices (C-level loops only)."""
        def sides(ids, ptr) -> list:
            flat, at = tuple(ids.tolist()), ptr.tolist()
            return list(map(flat.__getitem__, map(slice, at, at[1:])))

        lefts = sides(self.left, self.left_ptr)  # one flat side at a time
        return list(map(Biclique._make,
                        zip(lefts, sides(self.right, self.right_ptr))))

    def __iter__(self):
        return iter(self.to_list())

    def __getitem__(self, k: int) -> Biclique:
        return self.take([range(len(self))[k]]).to_list()[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, RaggedBicliques):
            other = other.to_list()
        if isinstance(other, (list, tuple)):
            return self.to_list() == list(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return _unpickle, tuple(map(_narrow, (
            self.left, np.diff(self.left_ptr),
            self.right, np.diff(self.right_ptr),
        )))


class BicliqueSink(Protocol):
    """Anything accepting ``sink(L, R)`` with strictly increasing numpy
    integer arrays, which the caller may reuse once the call returns."""

    def __call__(self, left: np.ndarray, right: np.ndarray) -> None: ...


class BicliqueCounter:
    """Sink that only counts maximal bicliques (the paper's default)."""

    def __init__(self) -> None:
        self.count = 0
        self.max_left = 0
        self.max_right = 0

    def __call__(self, left: np.ndarray, right: np.ndarray) -> None:
        self.count += 1
        if len(left) > self.max_left:
            self.max_left = len(left)
        if len(right) > self.max_right:
            self.max_right = len(right)


class BicliqueCollector:
    """Sink that keeps every maximal biclique, in arrival order.

    Per-emission calls (the CPU baselines, any caller-driven
    enumerator) keep one :class:`Biclique` each, relying on the sink
    contract — strictly increasing arrays — to skip
    :meth:`Biclique.make`'s dedupe and sort.  The GMBE kernel instead
    hands a whole run over in one :meth:`add`.  :meth:`result` returns
    everything as one :class:`RaggedBicliques`; :attr:`bicliques` as a
    list, built on first access.
    """

    def __init__(self) -> None:
        self._blocks: list[RaggedBicliques] = []
        self._tail: list[Biclique] = []

    def __call__(self, left: np.ndarray, right: np.ndarray) -> None:
        self._tail.append(
            Biclique(tuple(left.tolist()), tuple(right.tolist()))
        )

    def _seal(self) -> None:
        if self._tail:
            self._blocks.append(RaggedBicliques.from_bicliques(self._tail))
            self._tail = []

    def add(self, block: RaggedBicliques) -> None:
        """Append a ragged block of bicliques after those kept so far."""
        self._seal()
        self._blocks.append(block)

    def result(self) -> RaggedBicliques:
        """Everything collected, as one ragged block."""
        self._seal()
        if len(self._blocks) != 1:
            self._blocks = [RaggedBicliques.concat(self._blocks)]
        return self._blocks[0]

    @property
    def bicliques(self) -> list[Biclique]:
        if self._blocks:
            self._tail = self.result().to_list()
            self._blocks = []
        return self._tail

    @property
    def count(self) -> int:
        return sum(map(len, self._blocks)) + len(self._tail)

    def as_set(self) -> set[Biclique]:
        return set(self.bicliques)


class BicliqueWriter:
    """Sink streaming bicliques as ``u,... | v,...`` text lines."""

    def __init__(self, fh: TextIO) -> None:
        self._fh = fh
        self.count = 0

    def __call__(self, left: np.ndarray, right: np.ndarray) -> None:
        self.count += 1
        self._fh.write(
            ",".join(map(str, left.tolist()))
            + " | "
            + ",".join(map(str, right.tolist()))
            + "\n"
        )


@dataclass
class Counters:
    """Work counters shared by all enumerators.

    ``maximal``/``non_maximal`` split the outcomes of the maximality check
    (Alg. 2 line #14): their ratio ``non_maximal / maximal`` is the δ/α of
    the paper's Table 2.  ``set_op_work`` accumulates ``|a| + |b|`` over
    every sorted-set operation — and packed *words* over every bitset
    operation (:meth:`charge_bitset`) — the scalar work the cost model
    converts to simulated time.  ``pruned`` counts candidates removed by
    the local-neighborhood-size rule (§4.2).
    """

    nodes_generated: int = 0
    maximal: int = 0
    non_maximal: int = 0
    pruned: int = 0
    set_op_work: int = 0
    peak_stack_depth: int = 0
    #: Modeled 32-lane warp steps: each set op of total length W costs
    #: ``ceil(W/32) + 1`` steps; ragged per-row passes cost per-row ceils,
    #: which is how lane under-utilization (thread divergence) shows up.
    simt_cycles: int = 0

    def charge(self, a_len: int, b_len: int) -> None:
        """Record one sorted-set operation over arrays of these lengths."""
        total = a_len + b_len
        self.set_op_work += total
        self.simt_cycles += (total + 31) // 32 + 1

    def charge_ragged(self, lengths) -> None:
        """Record a per-row pass over ragged rows (numpy lengths array).

        Each row occupies whole warp steps, so short rows waste lanes —
        the divergence cost the §4.2 pruning reduces by shrinking the
        candidate set.
        """
        total = int(lengths.sum())
        self.set_op_work += total
        # sum(ceil(l/32)) == (sum(l) + sum(-l mod 32)) / 32; the remainder
        # term needs the per-row values, so keep one vector op only.
        self.simt_cycles += int((-lengths % 32).sum() + total) // 32 + 1

    def charge_bitset(self, n_rows: int, n_words: int) -> None:
        """Record a batched packed-bitset pass (word-wide AND + popcount).

        Every row is exactly ``n_words`` 64-bit words, so a warp streams
        32 words per step with *no* per-row divergence — the cuMBE/GBC
        bitmap advantage the simulator must reflect.  ``set_op_work`` is
        charged in words (the cost model's currency is vector lanes of
        useful work; one word carries 64 vertex slots).
        """
        total = int(n_rows) * int(n_words)
        self.set_op_work += total
        self.simt_cycles += (total + 31) // 32 + 1

    @property
    def checks(self) -> int:
        return self.maximal + self.non_maximal

    def nonmaximal_ratio(self) -> float:
        """δ/α — Table 2's pruning-efficiency metric."""
        return self.non_maximal / self.maximal if self.maximal else 0.0

    def merge(self, other: "Counters") -> None:
        self.nodes_generated += other.nodes_generated
        self.maximal += other.maximal
        self.non_maximal += other.non_maximal
        self.pruned += other.pruned
        self.set_op_work += other.set_op_work
        self.simt_cycles += other.simt_cycles
        self.peak_stack_depth = max(self.peak_stack_depth, other.peak_stack_depth)


@dataclass
class EnumerationResult:
    """What every top-level enumerator returns."""

    n_maximal: int
    counters: Counters = field(default_factory=Counters)
    #: Simulated wall-clock seconds, when the run was driven through a
    #: platform model (GPU simulator or the simulated CPU pool); 0.0 for
    #: plain host execution.
    sim_time: float = 0.0
    #: Algorithm-specific extras (e.g. ParMBE per-task work, GMBE SM
    #: timelines); absent keys simply aren't produced by that algorithm.
    extras: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.n_maximal


def verify_biclique(
    graph, left: Iterable[int], right: Iterable[int]
) -> tuple[bool, bool]:
    """Check ``(left, right)`` against ``graph``.

    Returns ``(is_biclique, is_maximal)``.  Quadratic; for tests.
    """
    from . import sets

    l_arr = np.asarray(sorted(set(int(x) for x in left)), dtype=np.int64)
    r_arr = np.asarray(sorted(set(int(x) for x in right)), dtype=np.int64)
    if len(l_arr) == 0 or len(r_arr) == 0:
        return False, False
    for u in l_arr:
        if not sets.is_subset(r_arr, graph.neighbors_u(int(u))):
            return False, False
    # Maximal iff no vertex outside extends it on either side.
    for u in range(graph.n_u):
        if u in l_arr:
            continue
        if sets.is_subset(r_arr, graph.neighbors_u(u)):
            return True, False
    for v in range(graph.n_v):
        if v in r_arr:
            continue
        if sets.is_subset(l_arr, graph.neighbors_v(v)):
            return True, False
    return True, True
