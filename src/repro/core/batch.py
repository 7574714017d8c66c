"""Cross-task batched execution of dense (bitset-backend) subtrees.

PR 1 made a *single* task word-parallel: one packed AND + popcount per
node expansion.  But the simulator's real wall-clock cost is Python
interpreter overhead, and every task still pays its own round of
``intersect``/``gamma``/maximality calls.  The GPU papers amortize
exactly this — GMBE (SC 2023) keeps many dense tasks in flight per SM,
cuMBE (arXiv:2401.05039) batches candidate pruning across warps — so
this module is the numpy analog: ``k`` same-depth dense tasks are
stacked into rectangular ``uint64`` arrays and their DFS traversals run
in *lockstep*, one ``(k·S, W)`` bitwise-AND + popcount per round instead
of ``k`` Python-level call chains.

The batched runner (:func:`run_batch`) is a bit-exact re-implementation
of :class:`repro.gmbe.node_buffer.NodeBuffer` driven by
:func:`repro.gmbe.host.run_task_with_node_buffer`: identical traversal
order, identical emissions (same arrays, same order per task), and
identical per-task :class:`~repro.core.bicliques.Counters` charges.
Cost charging stays *per logical task* — each member is charged with its
own true ``n_words``/scope size exactly as the sequential path would be
— so simulated-cycle figures, checkpoints, fault injection, and
telemetry phase attribution are unaffected by batching (DESIGN.md §10).

Each round costs a fixed number of numpy calls however many lanes are
live, including the decode of every maximal node the round found.  A
lane keeps each node's state at the node's own level, so a push writes
one level and a pop steps back one; a free lane takes over a root-level
child forked off a member still running (the host analog of the paper's
one-level split, Alg. 4), so a batch no longer waits on its longest
member.  The kernel runs as many lanes as :func:`lane_state_bytes` of
every padded array fits in its byte budget, at most one per member and
root-level child.  Memory stays flat at that width: a batch's emissions
come back as one ragged :class:`BatchEmissions` buffer (no per-biclique
arrays until a consumer slices them) and per-lane count state uses the
narrowest dtype the mask width allows.

Primitives (:func:`batch_intersect`, :func:`batch_popcount`,
:func:`ragged_stack`/:func:`ragged_split`) are exposed separately: the
kernel's batched maximality check and the tests build on them, and they
are the natural substrate for a later numba/cython backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bicliques import Counters, RaggedBicliques, _offsets
from .bitset import WORD_BITS, BitsetUniverse, popcount_words

__all__ = [
    "BatchEmissions",
    "BatchMember",
    "BatchStats",
    "batch_gamma_matches",
    "batch_intersect",
    "batch_popcount",
    "lane_state_bytes",
    "ragged_split",
    "ragged_stack",
    "run_batch",
]

#: Levels a batch's per-level lane state starts with before growing on
#: demand.
_FIRST_LEVELS = 8
#: ``Counters`` fields a lane accumulates by sum (``peak_stack_depth``
#: folds by max).
_SUMMED = (
    "nodes_generated", "maximal", "non_maximal", "pruned", "set_op_work",
    "simt_cycles",
)


# ----------------------------------------------------------------------
# Stacked-bitset primitives
# ----------------------------------------------------------------------
def batch_intersect(
    rows: np.ndarray, masks: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Word-wise ``rows & masks`` with broadcasting — the one bulk AND
    that replaces ``n_tasks`` per-task intersections."""
    return np.bitwise_and(rows, masks, out=out)


def batch_popcount(words: np.ndarray) -> np.ndarray:
    """Set-bit counts over the last (word) axis of a stacked array.

    ``(…, n_words) uint64 → (…,) int64`` — the batched form of
    :func:`repro.core.bitset.popcount`.
    """
    return popcount_words(words).sum(axis=-1, dtype=np.int64)


def ragged_stack(
    blocks: list[np.ndarray], n_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather per-task ``(r_i, w_i)`` row blocks into one ``(Σr, n_words)``
    matrix (rows zero-padded to the common word count).

    Returns ``(stacked, lengths)``; :func:`ragged_split` is the inverse
    scatter.
    """
    lengths = np.array([len(b) for b in blocks], dtype=np.int64)
    total = int(lengths.sum())
    stacked = np.zeros((total, n_words), dtype=np.uint64)
    at = 0
    for block in blocks:
        if len(block):
            stacked[at : at + len(block), : block.shape[1]] = block
            at += len(block)
    return stacked, lengths


def ragged_split(flat: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Scatter a stacked result back into per-task views (inverse of
    :func:`ragged_stack` along the row axis)."""
    return np.split(flat, np.cumsum(lengths)[:-1])


def batch_gamma_matches(
    universes: list[BitsetUniverse],
    lefts: list[np.ndarray],
    right_sizes: list[int],
    counters: list[Counters],
) -> list[bool]:
    """Batched ``|Γ(L)| == |R|`` over several tasks' packed scopes.

    One stacked AND + popcount over every task's scope rows replaces the
    per-task :func:`repro.core.expand.gamma_matches` calls made at split-
    child dequeue.  Each task is charged exactly as the sequential check
    would charge it (``charge_bitset(len(scope), n_words)``); every
    ``L`` must be nonempty (split children always are).
    """
    n_words = max(u.n_words for u in universes)
    stacked, lengths = ragged_stack([u.rows for u in universes], n_words)
    masks = np.zeros((len(universes), n_words), dtype=np.uint64)
    for i, (u, left) in enumerate(zip(universes, lefts)):
        masks[i, : u.n_words] = u.mask_of_left_subset(left)
    sizes = batch_popcount(masks)
    counts = batch_popcount(
        batch_intersect(stacked, np.repeat(masks, lengths, axis=0))
    )
    out: list[bool] = []
    for i, per_task in enumerate(ragged_split(counts, lengths)):
        counters[i].charge_bitset(len(universes[i].scope), universes[i].n_words)
        n_match = int(np.count_nonzero(per_task == sizes[i]))
        out.append(n_match == int(right_sizes[i]))
    return out


# ----------------------------------------------------------------------
# Lockstep batched DFS
# ----------------------------------------------------------------------
@dataclass
class BatchMember:
    """One dense task joining a lockstep round: the same fields
    :func:`repro.gmbe.host.run_task_with_node_buffer` consumes, plus the
    counters the sequential path would have charged."""

    universe: BitsetUniverse
    left: np.ndarray
    right: np.ndarray
    cands: np.ndarray
    counts: np.ndarray
    counters: Counters


@dataclass
class BatchStats:
    """Per-run batching statistics (telemetry feed; ``None`` when
    telemetry is off so the hot loop pays one ``is not None`` check)."""

    rounds: int = 0
    tasks_per_round: list[int] = field(default_factory=list)
    #: lockstep width of each batch that ran a round
    lanes: list[int] = field(default_factory=list)


class BatchEmissions(RaggedBicliques):
    """Every biclique one :func:`run_batch` call reported, as ragged
    records in lockstep-round order: ``int32`` prepared-graph ids.

    ``order[member_ptr[i]:member_ptr[i+1]]`` lists member ``i``'s
    emission ids in that member's own traversal order.  Nothing per
    biclique is materialized until :meth:`pairs` slices it.
    """

    __slots__ = ("order", "member_ptr")

    def __init__(self, left, left_ptr, right, right_ptr, order, member_ptr):
        super().__init__(left, left_ptr, right, right_ptr)
        self.order, self.member_ptr = order, member_ptr

    @classmethod
    def empty(cls, n_members: int) -> "BatchEmissions":
        none = np.zeros(0, dtype=np.int32)
        ptr = np.zeros(1, dtype=np.int64)
        return cls(none, ptr, none, ptr, np.zeros(0, dtype=np.intp),
                   np.zeros(n_members + 1, dtype=np.int64))

    def pairs(self, member: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Member ``member``'s ``(left, right)`` emissions in traversal
        order, sliced (as views) one at a time."""
        ids = self.order[self.member_ptr[member] : self.member_ptr[member + 1]]
        lo = self.left_ptr[ids].tolist()
        hi = self.left_ptr[ids + 1].tolist()
        ro = self.right_ptr[ids].tolist()
        rh = self.right_ptr[ids + 1].tolist()
        left, right = self.left, self.right
        for a, b, c, d in zip(lo, hi, ro, rh):
            yield left[a:b], right[c:d]


def lane_state_bytes(
    k: int, n_scope: int, n_words: int, n_cands: int, stack_depth: int
) -> int:
    """Size in bytes of the largest padded array :func:`run_batch` can
    allocate for ``k`` lanes whose largest member has ``n_scope`` scope
    rows, ``n_words`` mask words, ``n_cands`` candidates and at most
    ``stack_depth`` levels (the per-level arrays grow on demand, so this
    is their worst case).

    The scope matrix also bounds the per-round AND temporary and the
    scope-id decode table, the ``nls`` levels bound the candidate-set
    levels, and the masks bound the traversed-index and ``|R'|`` levels,
    so keeping this under a budget bounds the batch's transient memory.
    """
    nls_bytes = np.min_scalar_type(WORD_BITS * n_words).itemsize
    return k * max(
        n_scope * n_words * 8,  # scope_rows, and each round's AND
        stack_depth * n_words * 8,  # masks
        stack_depth * n_cands * nls_bytes,  # nls (and cand) levels
        n_words * WORD_BITS * 4,  # left-id decode table
    )


def run_batch(
    members: list[BatchMember],
    *,
    prune: bool = True,
    stats: BatchStats | None = None,
    lanes: int | None = None,
) -> BatchEmissions:
    """Enumerate every member's subtree in vectorized lockstep.

    Returns the members' emissions as one :class:`BatchEmissions`
    (member ``i`` of the result is ``members[i]``).  Each member's
    emissions — arrays, dtypes and order — and its ``Counters`` charges
    are bit-identical to running it through
    :func:`repro.gmbe.host.run_task_with_node_buffer` alone; only the
    Python-level work is amortized across the batch.

    ``lanes`` is the lockstep width (default ``len(members)``; never
    fewer than the members with candidates).  A free lane, one beyond
    the members or one whose work is done, takes over a maximal
    root-level child forked off a member still running, so a batch no
    longer waits on its longest member (DESIGN.md §10).
    """
    live_ids = [i for i, m in enumerate(members) if len(m.cands)]
    if not live_ids:
        return BatchEmissions.empty(len(members))
    live = [members[i] for i in live_ids]
    n = len(live)
    k = max(n, len(members) if lanes is None else lanes)
    if stats is not None:
        stats.lanes.append(k)
    w_per = np.array([m.universe.n_words for m in live], dtype=np.int64)
    s_per = np.array([len(m.universe.scope) for m in live], dtype=np.int64)
    c_per = np.array([len(m.cands) for m in live], dtype=np.int64)
    w_max = int(w_per.max())
    s_max = int(s_per.max())
    c_max = int(c_per.max())
    # Depth never exceeds min(|L|, |C|): every push strictly shrinks L
    # (traversed candidates are partial) and consumes one candidate.
    d_cap = int(np.minimum([len(m.left) for m in live], c_per).max()) + 1
    # Local-neighbourhood sizes never exceed a universe's bit count.
    nls_dtype = np.min_scalar_type(WORD_BITS * w_max)

    # Static state, one row per member, padded rectangular.  Scope rows
    # are stored candidate-first (candidate j is row j, the rest of the
    # scope follows), so a round's candidate counts are a slice of its
    # scope counts.  Padding rows count 0 < |L'| (L' is nonempty at
    # every push), so they never look full.  Decode tables: a lane's
    # mask bit b is U id left_ids[left_base[member] + b] and its scope
    # row j is V id scope_ids[scope_base[member] + j].
    scope_rows = np.zeros((n, s_max, w_max), dtype=np.uint64)
    left_bits = np.zeros((n, w_max * WORD_BITS), dtype=np.uint8)
    scope_ids = []
    for t, (m, s, w) in enumerate(zip(live, s_per.tolist(), w_per.tolist())):
        u = m.universe
        rows = u.row_index(m.cands)
        rest = np.ones(s, dtype=bool)
        rest[rows] = False
        order = np.concatenate([rows, np.flatnonzero(rest)])
        scope_rows[t, :s, :w] = u.rows[order]
        scope_ids.append(u.scope[order])
        left_bits[t, u.left_positions(m.left)] = 1
    scope_ids = np.concatenate(scope_ids).astype(np.int32, copy=False)
    scope_base = _offsets(s_per)[:-1]
    left_ids = np.concatenate([m.universe.left for m in live]).astype(
        np.int32, copy=False
    )
    left_base = _offsets([m.universe.n_bits for m in live])[:-1]

    # Dynamic state, one row per lane: level l holds the candidate set,
    # nls, traversed index, |R'| and L mask of the lane's node at depth
    # l, and is not written while that node's children run, so a pop
    # just steps back one level (DESIGN.md §10).  Lane t < n starts as
    # member t's root lane (base depth 0); the rest start free.  Levels
    # double on demand up to d_cap, which real subtrees rarely approach.
    levels = min(d_cap + 1, _FIRST_LEVELS)
    cand = np.zeros((k, levels, c_max), dtype=bool)
    nls = np.zeros((k, levels, c_max), dtype=nls_dtype)
    trav = np.zeros((k, levels), dtype=np.intp)
    right_size = np.zeros((k, levels), dtype=np.int64)
    masks = np.zeros((k, levels, w_max), dtype=np.uint64)
    cand[:n, 0] = np.arange(c_max) < c_per[:, None]
    nls[:n, 0][cand[:n, 0]] = np.concatenate([m.counts for m in live])
    right_size[:n, 0] = [len(m.right) for m in live]
    masks[:n, 0] = np.packbits(left_bits, axis=1, bitorder="little").view(
        "<u8"
    )
    depth = np.zeros(k, dtype=np.intp)
    base = np.zeros(k, dtype=np.intp)
    owner = np.zeros(k, dtype=np.intp)
    owner[:n] = np.arange(n)
    # The root-level child a lane is inside: emissions sort by
    # (member, child) to restore each member's traversal order.
    child = np.full(k, -1, dtype=np.int64)
    active = np.zeros(k, dtype=bool)
    active[:n] = True

    # Per-lane accumulators, folded into the lane's member when it
    # retires and into each member's Counters at the end — identical
    # totals to the sequential path's incremental adds.
    acc = np.zeros((len(_SUMMED), k), dtype=np.int64)
    acc_nodes, acc_maximal, acc_nonmax, acc_pruned, acc_work, acc_simt = acc
    acc_peak = np.zeros(k, dtype=np.int64)
    totals = np.zeros((len(_SUMMED), n), dtype=np.int64)
    peaks = np.zeros(n, dtype=np.int64)
    # Per-round emission pieces, concatenated once at the end.
    out_member: list[np.ndarray] = []
    out_child: list[np.ndarray] = []
    out_left: list[np.ndarray] = []
    out_left_len: list[np.ndarray] = []
    out_right: list[np.ndarray] = []
    out_right_len: list[np.ndarray] = []

    def pop(rows, d, parent, trav_i, child_nls):
        """Vectorized :meth:`NodeBuffer.pop` of lanes ``rows`` from depth
        ``d``: the traversed vertex and the siblings whose nls the child
        left unchanged (Thm 4.1) leave ``parent``, the candidate set at
        level ``d - 1``, which is returned."""
        up = d - 1
        parent[np.arange(len(rows)), trav_i] = False
        if prune:
            pending = parent & (child_nls == nls[rows, up])
            parent &= ~pending
            acc_pruned[rows] += pending.sum(axis=1)
        cand[rows, up] = parent
        depth[rows] = up
        return parent

    def retire(rows: np.ndarray) -> None:
        """Free lanes ``rows``, folding their sums into their members."""
        active[rows] = False
        who = owner[rows]
        np.add.at(totals, (slice(None), who), acc[:, rows])
        np.maximum.at(peaks, who, acc_peak[rows])
        acc[:, rows] = 0
        acc_peak[rows] = 0

    while True:
        alive = np.nonzero(active)[0]
        if len(alive) == 0:
            break
        if stats is not None:
            stats.rounds += 1
            stats.tasks_per_round.append(len(np.unique(owner[alive])))

        # Phase A — control flow: find each live lane's next candidate
        # (Alg. 2 line #6), popping exhausted nodes until one is found
        # or the lane is back at its base depth, where it retires.
        push_t: list[np.ndarray] = []
        push_cur: list[np.ndarray] = []
        rows = alive
        cur = cand[rows, depth[rows]]
        while True:
            has = cur.any(axis=1)
            push_t.append(rows[has])
            push_cur.append(cur[has])
            rows = rows[~has]
            d = depth[rows]
            done = d == base[rows]
            if done.any():
                retire(rows[done])
                rows, d = rows[~done], d[~done]
            if len(rows) == 0:
                break
            cur = pop(rows, d, cand[rows, d - 1], trav[rows, d], nls[rows, d])
        P = np.concatenate(push_t)
        if len(P) == 0:
            continue
        cur = np.concatenate(push_cur)
        ci = np.argmax(cur, axis=1)
        M = owner[P]
        d = depth[P]
        nd = d + 1
        if int(nd.max()) >= levels:
            levels = min(2 * int(nd.max()), d_cap + 1)
            cand, nls, trav, right_size, masks = (
                _deepen(a, levels) for a in (cand, nls, trav, right_size, masks)
            )

        # Phase B — batched push (Alg. 2 lines #8–14): one stacked AND +
        # popcount serves every lane's node generation and maximality
        # check this round.
        new_mask = masks[P, d] & scope_rows[M, ci]
        scoped = scope_rows[M]
        scoped &= new_mask[:, None, :]
        counts_scope = popcount_words(scoped).sum(axis=-1, dtype=nls_dtype)
        n_left = batch_popcount(new_mask)
        gamma = counts_scope == n_left[:, None]
        counts = counts_scope[:, :c_max]
        full = cur & gamma[:, :c_max]
        # The child's candidates: neither joined R' nor dropped to zero.
        child_cand = cur & ~full & (counts != 0)
        new_right = right_size[P, d] + full.sum(axis=1)
        # Maximality: |Γ(L')| == |R'| over each member's true scope rows
        # (padded rows count 0 < n_left, so they never match).
        n_match = gamma.sum(axis=1)
        maximal = n_match == new_right
        acc_nodes[P] += 1
        acc_peak[P] = np.maximum(acc_peak[P], nd)
        acc_maximal[P] += maximal
        acc_nonmax[P] += ~maximal
        root_child = d == 0
        child[P[root_child]] += 1

        # Per-lane cost charges, identical to the sequential bitset path:
        # mask AND (1 row), candidate counting pass (cur_n rows), and the
        # maximality scan (scope rows) — each over the member's own words.
        w = w_per[M]
        s = s_per[M]
        cur_n = cur.sum(axis=1)
        acc_work[P] += w + cur_n * w + s * w
        acc_simt[P] += (
            (w + 31) // 32 + (cur_n * w + 31) // 32 + (s * w + 31) // 32 + 3
        )

        # Phase C — decode every maximal node of the round at once.  R'
        # is Γ(L') at a maximal node, and Γ(L') ⊆ scope, so the right
        # side is the round's matching scope rows.
        hit = np.nonzero(maximal)[0]
        if len(hit):
            MT = M[hit]
            bits = np.unpackbits(
                new_mask[hit].astype("<u8", copy=False).view(np.uint8),
                axis=1,
                bitorder="little",
            )
            row, pos = np.nonzero(bits)
            out_left.append(left_ids[left_base[MT][row] + pos])
            out_left_len.append(n_left[hit])
            row, col = np.nonzero(gamma[hit])
            key = row.astype(np.int64) << 32
            key |= scope_ids[scope_base[MT][row] + col]
            key.sort()
            out_right.append(key.astype(np.int32))  # the low 32 bits
            out_right_len.append(n_match[hit])
            out_member.append(MT)
            out_child.append(child[P[hit]])

        # Phase D — a maximal node's level is written; a non-maximal one
        # is undone at once (Alg. 2 never descends into it).  Fork: a
        # maximal root-level child that still has a candidate is written
        # at level 1 of a free lane based at depth 1, and its root lane
        # pops depth 1 now.  Level 0 is not written while the subtree
        # runs, so this pop sees what the sequential walk's later pop
        # sees.
        lane = P.copy()
        fork = hit[root_child[hit]]
        if len(fork):
            free = np.flatnonzero(~active)
            fork = fork[child_cand[fork].any(axis=1)][: len(free)]
            dst = free[: len(fork)]
            lane[fork] = dst
            base[dst] = 1
            owner[dst] = M[fork]
            child[dst] = child[P[fork]]
            active[dst] = True
        at, lvl = lane[hit], nd[hit]
        cand[at, lvl] = child_cand[hit]
        nls[at, lvl] = counts[hit]
        trav[at, lvl] = ci[hit]
        right_size[at, lvl] = new_right[hit]
        masks[at, lvl] = new_mask[hit]
        depth[at] = lvl
        undo = np.flatnonzero(~maximal | (lane != P))
        if len(undo):
            pop(P[undo], nd[undo], cur[undo], ci[undo], counts[undo])

    for m, sums, peak in zip(live, totals.T.tolist(), peaks.tolist()):
        c = m.counters
        for name, value in zip(_SUMMED, sums):
            setattr(c, name, getattr(c, name) + value)
        c.peak_stack_depth = max(c.peak_stack_depth, peak)

    if not out_member:
        return BatchEmissions.empty(len(members))
    owner_ids = np.asarray(live_ids, dtype=np.int64)[np.concatenate(out_member)]
    children = np.concatenate(out_child)
    # Stable sort on (member, root-level child): within one child the
    # emissions come from one lane at a time, in round order.
    key = owner_ids * (int(children.max()) + 1) + children
    per_member = np.bincount(owner_ids, minlength=len(members))
    return BatchEmissions(
        np.concatenate(out_left),
        _offsets(np.concatenate(out_left_len)),
        np.concatenate(out_right),
        _offsets(np.concatenate(out_right_len)),
        np.argsort(key, kind="stable"),
        _offsets(per_member),
    )


def _deepen(stack: np.ndarray, levels: int) -> np.ndarray:
    """Copy a ``(k, depth, ...)`` per-level array into ``levels`` depths."""
    out = np.zeros(stack.shape[:1] + (levels,) + stack.shape[2:], stack.dtype)
    out[:, : stack.shape[1]] = stack
    return out
