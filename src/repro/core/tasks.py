"""Per-vertex root-task construction (Alg. 3 / Alg. 4 lines #7–13).

Both ParMBE and GMBE decompose the problem into one independent task per
V-vertex ``v_s``: the subtree rooted at the closure of ``{v_s}``, with
candidates drawn from the *later-ordered* 2-hop neighborhood.  A task is
dropped when ``v_s`` is not the smallest vertex of its ``R`` — the
cross-task deduplication rule — so each maximal biclique belongs to
exactly one task.

Root tasks are built in bulk, a chunk of roots at a time
(:func:`build_root_tasks`): every ``(v_s, u, w)`` 2-hop triple of the
chunk is gathered from the CSR and the packed ``v_s * n_v + w`` keys are
sorted once — the per-vertex 2-hop clustering Mukherjee & Tirthapura run
as one MapReduce round (arXiv 1404.4910).  Each root's 2-hop set, local
neighborhood sizes, dedup test, modeled charges and packed bitset rows
are all read off that one pass.  :func:`root_chunks` sizes the chunks by
a fixed byte budget on their 2-hop volume and root count, so hub blocks
and long runs of trivial roots both stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.bipartite import BipartiteGraph
from .bicliques import Counters
from .bitset import WORD_BITS, BitsetUniverse, resolve_backend
from .localcount import ragged_gather

__all__ = [
    "ROOT_CHUNK_BYTES",
    "RootChunk",
    "RootTask",
    "SubtreeTask",
    "build_root_task",
    "build_root_tasks",
    "root_chunks",
]

#: Byte budget of one bulk build: a chunk takes roots until their
#: estimated bytes (below) would pass it; the first root of a chunk is
#: always taken, however large.  The kernel holds a whole chunk of
#: built roots in its look-ahead, so the budget bounds that too.
ROOT_CHUNK_BYTES = 1 << 18

#: Bytes per 2-hop triple: the int64 key, its sort order, sorted copy
#: and bit position, plus the gathered int32 vertex.
_TRIPLE_BYTES = 36

#: Bytes per built root held until the scheduler pulls it: the task,
#: its counters and array headers.
_ROOT_BYTES = 512


@dataclass
class SubtreeTask:
    """A queued enumeration-tree task: the root node ``(left, right)``
    of one subtree and its candidates with their local neighborhood
    sizes."""

    left: np.ndarray
    right: np.ndarray
    cands: np.ndarray
    counts: np.ndarray
    #: split children must re-verify ``R == Γ(L)`` at dequeue time
    needs_check: bool = False
    #: packed-bitset universe of the owning root task (split children
    #: share their root's universe; ``left``/``cands`` stay subsets)
    universe: BitsetUniverse | None = None
    #: stable identity across retries/requeues: ``(root_v,)`` for a
    #: root task, ``parent_lineage + (child_index,)`` for a split child
    lineage: tuple = ()

    def estimated_height(self) -> int:
        """Tree-height estimate ``min(|L|, |C|)`` from §4.3."""
        return min(len(self.left), len(self.cands))

    def estimated_size(self) -> int:
        """Tree-size estimate ``min(|L|, |C|) · |C|`` from §4.3."""
        return self.estimated_height() * len(self.cands)


@dataclass
class RootTask(SubtreeTask):
    """Root node of the per-vertex subtree of ``v_s`` (lineage ``(v_s,)``).

    ``(left, right)`` is itself a maximal biclique (the closure of
    ``{v_s}``), reported by the executor exactly when the task survives
    deduplication.  ``universe`` is the packed-bitset view of the
    induced subgraph when the backend heuristic chose bitset mode for
    this task (``backend`` records the resolved choice).
    """

    backend: str = "sorted"


@dataclass
class RootChunk:
    """One bulk build: per-root charges as arrays, a task per survivor."""

    roots: np.ndarray
    #: modeled build charges of each root: zero for a root with no
    #: neighbor; a deduplicated root still pays for the passes that
    #: found it redundant
    set_op_work: np.ndarray
    simt_cycles: np.ndarray
    #: one entry per root: its task, or ``None`` when the root has no
    #: neighbor or is deduplicated
    tasks: list

    def charges(self, i=slice(None)) -> Counters:
        """Build charges of root ``i`` (by default the whole chunk's)."""
        return Counters(set_op_work=int(self.set_op_work[i].sum()),
                        simt_cycles=int(self.simt_cycles[i].sum()))


def _segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Integer sums of ``values[ptr[i]:ptr[i+1]]`` for every segment."""
    csum = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=csum[1:])
    return csum[ptr[1:]] - csum[ptr[:-1]]


def _ceil32(lengths: np.ndarray) -> np.ndarray:
    """Warp steps of each ragged row (``ceil(l / 32)``)."""
    return (lengths + 31) // 32


def root_chunks(
    graph: BipartiteGraph, start: int = 0, mask: np.ndarray | None = None
) -> list[np.ndarray]:
    """Split the roots ``>= start`` into bulk-build chunks, in order.

    Only ``mask``-owned vertices are included when a mask is given.
    Every chunk is non-empty and, unless it is a single root, estimated
    at no more than :data:`ROOT_CHUNK_BYTES`: ``_ROOT_BYTES`` per root
    plus ``_TRIPLE_BYTES`` per 2-hop triple.
    """
    if mask is None:
        roots = np.arange(start, graph.n_v, dtype=np.int64)
    else:
        roots = start + np.flatnonzero(mask[start:]).astype(np.int64)
    if len(roots) == 0:
        return []
    # 2-hop volume of v: sum of |N(u)| over u in N(v).
    volume = _segment_sums(
        graph.degrees_u[graph.v_indices], graph.v_indptr
    )[roots]
    size = volume * _TRIPLE_BYTES + _ROOT_BYTES
    end = np.cumsum(size)
    cuts = []
    i = 0
    while i < len(roots):
        limit = end[i] - size[i] + ROOT_CHUNK_BYTES
        i = max(i + 1, int(np.searchsorted(end, limit, side="right")))
        cuts.append(i)
    return np.split(roots, cuts[:-1])


def build_root_tasks(
    graph: BipartiteGraph, roots, *, backend: str = "sorted"
) -> RootChunk:
    """Build the root tasks of ``roots`` from one sorted 2-hop pass.

    Every root's build charges come out as arrays; a task object is
    made only for the roots that survive (see :class:`RootChunk`).

    A surviving task's ``right`` is the closure ``Γ(N(v_s))`` restricted
    per Alg. 3: every 2-hop neighbor fully connected to ``L_s`` joins
    ``R_s`` regardless of order, so ``R_s == Γ(L_s)`` by construction and
    the survival test is simply ``min(R_s) == v_s``.

    ``backend`` is ``"sorted"``, ``"bitset"``, or ``"auto"`` (per-task
    density heuristic, :func:`repro.core.bitset.resolve_backend`).  In
    bitset mode the task carries a :class:`BitsetUniverse` over
    ``L_s`` whose scope is every 2-hop vertex with a neighbor in ``L_s``
    plus ``v_s`` itself — closed under all maximality checks the subtree
    can perform, since ``Γ(L') ⊆ scope`` for any nonempty ``L' ⊆ L_s``.
    """
    g = graph
    roots = np.asarray(roots, dtype=np.int64)
    k = len(roots)
    # First hop: L_s of every root.
    n_left = g.degrees_v[roots]
    left_ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(n_left, out=left_ptr[1:])
    lefts, _ = ragged_gather(g.v_indptr, g.v_indices, roots)
    left_owner = np.repeat(np.arange(k, dtype=np.int64), n_left)
    # Second hop: one (v_s, u, w) triple per w in N(u), u in L_s.
    hop = g.degrees_u[lefts]
    ws, _ = ragged_gather(g.u_indptr, g.u_indices, lefts.astype(np.int64))
    keys = np.repeat(left_owner * g.n_v, hop)
    keys += ws
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    key_start = np.flatnonzero(first)
    uniq = sorted_keys[key_start]
    # |N(w) ∩ L_s| is the multiplicity of the key (v_s, w).
    key_count = np.diff(np.append(key_start, len(sorted_keys)))
    key_owner = uniq // g.n_v
    key_w = uniq - key_owner * g.n_v
    key_ptr = np.searchsorted(key_owner, np.arange(k + 1, dtype=np.int64))
    owner_v = roots[key_owner]
    full = key_count == n_left[key_owner]
    later = key_w > owner_v
    dropped = np.bincount(key_owner[full & (key_w < owner_v)], minlength=k) > 0

    # Modeled charges, the same totals the per-root passes record: the
    # ragged first hop, stamping L_s, and the ragged count over N2(v_s).
    # A root with no neighbor is never built and charges nothing.
    hop_work = _segment_sums(hop, left_ptr)
    hop_steps = _segment_sums(_ceil32(hop), left_ptr)
    w_deg = g.degrees_v[key_w]
    n_keys = key_ptr[1:] - key_ptr[:-1]
    two_hop_work = _segment_sums(w_deg, key_ptr) - n_left
    two_hop_steps = _segment_sums(_ceil32(w_deg), key_ptr) - _ceil32(n_left)
    set_op_work = hop_work + n_left + two_hop_work
    simt_cycles = hop_steps + _ceil32(n_left) + 2 + two_hop_steps
    # the count pass is skipped (uncharged) when N2(v_s) is empty
    simt_cycles += n_keys > 1
    simt_cycles[n_left == 0] = 0

    cand_keys = np.flatnonzero(later & ~full)
    cand_ptr = np.searchsorted(key_owner[cand_keys], np.arange(k + 1))
    absorbed = np.flatnonzero(later & full)
    absorbed_ptr = np.searchsorted(key_owner[absorbed], np.arange(k + 1))
    cands_all = key_w[cand_keys].astype(np.int32)
    counts_all = key_count[cand_keys]
    # R_s = v_s followed by its later fully connected 2-hop vertices
    rights = np.insert(key_w[absorbed].astype(np.int32), absorbed_ptr[:-1],
                       roots.astype(np.int32))
    right_ptr = absorbed_ptr + np.arange(k + 1)

    tasks: list[RootTask | None] = [None] * k
    alive = np.flatnonzero((n_left > 0) & ~dropped)
    bitset_roots: list[int] = []
    per_root = zip(*(a[alive].tolist() for a in (
        np.arange(k), roots, n_left, n_keys, two_hop_work + n_left,
        g.v_indptr[roots], cand_ptr[:-1], cand_ptr[1:], right_ptr[:-1],
        right_ptr[1:],
    )))
    for i, v_s, nl, n_scope, scope_deg, l_lo, lo, hi, r_lo, r_hi in per_root:
        resolved = resolve_backend(backend, nl, hi - lo, n_scope, scope_deg)
        if resolved == "bitset":
            bitset_roots.append(i)
        tasks[i] = RootTask(
            g.v_indices[l_lo : l_lo + nl], rights[r_lo:r_hi],
            cands_all[lo:hi], counts_all[lo:hi], lineage=(v_s,),
            backend=resolved,
        )
    if bitset_roots:
        # Building the packed rows is one word-parallel pass over the
        # scoped adjacency, amortized across the subtree: per root, the
        # charge of ``Counters.charge_bitset(|scope|, n_words(|L_s|))``.
        idx = np.array(bitset_roots)
        nw = np.maximum((n_left[idx] + WORD_BITS - 1) // WORD_BITS, 1)
        words = n_keys[idx] * nw
        set_op_work[idx] += words
        simt_cycles[idx] += (words + 31) // 32 + 1
        # Triples in key order: the key rank and L_s position of each.
        rank = np.cumsum(first) - 1
        left_pos = np.arange(len(lefts), dtype=np.int64) - left_ptr[left_owner]
        pos = np.repeat(left_pos, hop)[order]
        _attach_universes(
            [tasks[i] for i in bitset_roots], idx, nw,
            rank, pos, key_owner, key_ptr, key_w,
        )
    return RootChunk(roots, set_op_work, simt_cycles, tasks)


def _attach_universes(
    bitset_tasks, idx, words_per_row, rank, pos, key_owner, key_ptr, key_w
) -> None:
    """Pack the rows of every bitset root (chunk index ``idx``, rows of
    ``words_per_row`` words) with one word scatter.

    Row ``j`` of a root packs ``N(scope[j]) ∩ L_s``: each triple of key
    ``j`` sets bit ``pos``, the position in ``L_s`` of the ``u`` it came
    through.  All rows of the chunk live in one word buffer, one
    contiguous ``(|scope|, n_words)`` block per root.
    """
    nw = np.zeros(len(key_ptr) - 1, dtype=np.int64)
    nw[idx] = words_per_row
    block_ptr = np.zeros(len(key_ptr), dtype=np.int64)
    np.cumsum((key_ptr[1:] - key_ptr[:-1]) * nw, out=block_ptr[1:])
    words = np.zeros(int(block_ptr[-1]), dtype=np.uint64)
    owner = key_owner[rank]
    keep = nw[owner] > 0
    rank, owner, pos = rank[keep], owner[keep], pos[keep]
    word = block_ptr[owner] + (rank - key_ptr[owner]) * nw[owner]
    word += pos >> 6
    np.bitwise_or.at(
        words, word, np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    )
    scope = key_w.astype(np.int32)
    for i, task in zip(idx.tolist(), bitset_tasks):
        lo, hi = int(key_ptr[i]), int(key_ptr[i + 1])
        rows = words[block_ptr[i] : block_ptr[i + 1]].reshape(hi - lo, -1)
        task.universe = BitsetUniverse(task.left, scope[lo:hi], rows)


def build_root_task(
    graph: BipartiteGraph,
    v_s: int,
    counters: Counters | None = None,
    *,
    backend: str = "sorted",
) -> RootTask | None:
    """Build the root task for ``v_s``; ``None`` if empty or deduplicated.

    A one-root :func:`build_root_tasks`; its build charges are merged
    into ``counters`` when given.
    """
    chunk = build_root_tasks(graph, [v_s], backend=backend)
    if counters is not None:
        counters.merge(chunk.charges())
    return chunk.tasks[0]
