"""Biclique value types, output sinks, and enumeration counters.

Every enumerator in the library reports maximal bicliques through a
*sink* — any callable ``sink(L, R)`` receiving strictly increasing
(sorted, duplicate-free) numpy integer arrays.  The
provided sinks cover the common needs: counting (the paper only counts —
its Table 1 reports ``Max. bicliques``), collecting for tests, and
streaming to a file.  Enumerators also fill a shared :class:`Counters`
record that backs Table 2 (ratio of non-maximal to maximal checks) and
the simulator's cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Protocol, TextIO

import numpy as np

__all__ = [
    "Biclique",
    "BicliqueSink",
    "BicliqueCounter",
    "BicliqueCollector",
    "BicliqueWriter",
    "Counters",
    "EnumerationResult",
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


class BicliqueSink(Protocol):
    """Anything accepting ``sink(L, R)`` with strictly increasing numpy
    integer arrays (:class:`BicliqueCollector` relies on this)."""

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
    """Sink that materializes every maximal biclique (tests, small runs).

    Relies on the sink contract — strictly increasing arrays — and
    skips :meth:`Biclique.make`'s dedupe and sort.
    """

    def __init__(self) -> None:
        self.bicliques: list[Biclique] = []

    def __call__(self, left: np.ndarray, right: np.ndarray) -> None:
        self.bicliques.append(
            Biclique(tuple(left.tolist()), tuple(right.tolist()))
        )

    @property
    def count(self) -> int:
        return len(self.bicliques)

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
