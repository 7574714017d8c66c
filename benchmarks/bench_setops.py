"""Microbenchmark: sorted-merge vs. packed-bitset set kernels, and
sequential vs. cross-task batched execution.

Part 1 times the enumeration hot path in isolation — batched local-
neighborhood counting ``|N(v) ∩ L'|`` over many candidate rows — for
both backends across an edge-density sweep, reporting wall-clock
(``perf_counter``) *and* the simulated SIMT cycles each pass is charged.

Part 2 times whole dense root-task populations from the dataset registry
through the sequential node-buffer loop vs. the cross-task lockstep
runner (:func:`repro.core.batch.run_batch`), asserting on the way that
both paths produce identical simulated-cycle ``Counters`` — batching is
a wall-clock-only optimization by design (DESIGN.md §10).

Emits ``BENCH_setops.json`` next to this file for the perf trajectory;
``check_regression.py`` gates future PRs against the committed snapshot
(bitset-vs-sorted dense geomean, batched-vs-unbatched dense and sparse
geomeans).

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_setops.py
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from repro.core import bitset
from repro.core.batch import BatchMember, run_batch
from repro.core.bicliques import BicliqueCounter, Counters
from repro.core.bitset import BitsetUniverse
from repro.core.localcount import LocalCounter
from repro.core.tasks import build_root_task
from repro.datasets import registry
from repro.gmbe.host import run_task_with_node_buffer
from repro.graph import random_bipartite
from repro.graph.preprocess import prepare

OUT_PATH = Path(__file__).resolve().parent / "BENCH_setops.json"

DENSITIES = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)
DENSE_THRESHOLD = 0.4  # cases gated by check_regression.py
N_U = 256
N_V = 512
LEFT_FRACTION = 0.75
REPEATS = 9

#: Registry graphs for the batched-execution comparison.  The dense
#: codes carry hub blocks whose root tasks resolve to the bitset backend
#: (the batching target); the sparse codes are the no-regression guard —
#: few or no tasks are batch-eligible there, so the ratio must simply
#: stay at parity.
BATCH_DENSE = (("GH", 0.4), ("EE", 0.4), ("SO", 0.35))
BATCH_SPARSE = (("WA", 0.5), ("TM", 0.5))
BATCH_SIZE = 32
BATCH_REPEATS = 5


def _time_best(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall time in milliseconds (min filters scheduler noise)."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_case(density: float, seed: int = 0) -> dict:
    g = random_bipartite(N_U, N_V, density, seed=seed)
    rng = np.random.default_rng(seed)
    left = np.sort(
        rng.choice(N_U, size=int(N_U * LEFT_FRACTION), replace=False)
    ).astype(np.int32)
    cands = np.arange(N_V, dtype=np.int64)

    lc = LocalCounter(g)
    lc.set_left(left)

    uni = BitsetUniverse.build(
        g, np.arange(N_U, dtype=np.int32), np.arange(N_V, dtype=np.int32)
    )
    mask = uni.mask_of_left_subset(left)
    rows = uni.rows[uni.row_index(cands.astype(np.int32))]

    sorted_ms = _time_best(lambda: lc.counts(cands))
    bitset_ms = _time_best(lambda: bitset.count_rows_vs_mask(rows, mask))

    # Both kernels must agree exactly — a wrong fast kernel is worthless.
    expect, _ = lc.counts(cands)
    got = bitset.count_rows_vs_mask(rows, mask)
    assert got.tolist() == expect.tolist(), density

    # Simulated cost of the same two passes, alongside the wall clock:
    # the ragged warp charge for the gather, the word-parallel charge
    # for the packed AND + popcount.
    c_sorted = Counters()
    lc.counts(cands, c_sorted)
    c_bitset = Counters()
    c_bitset.charge_bitset(len(rows), uni.n_words)

    return {
        "density": density,
        "n_u": N_U,
        "n_v": N_V,
        "n_left": int(len(left)),
        "n_rows": int(len(cands)),
        "words_per_row": int(uni.n_words),
        "sorted_ms": sorted_ms,
        "bitset_ms": bitset_ms,
        "speedup": sorted_ms / bitset_ms,
        "sorted_simt_cycles": c_sorted.simt_cycles,
        "bitset_simt_cycles": c_bitset.simt_cycles,
        "simt_cycle_speedup": c_sorted.simt_cycles / c_bitset.simt_cycles,
    }


def _null_sink(left, right) -> None:
    """Benchmark sink: both paths pay one call per emission, nothing more."""


def run_batch_case(code: str, scale: float) -> dict:
    """Sequential vs. lockstep-batched execution of one registry graph's
    root-task population (batch-eligible tasks only drive the batched
    side; the rest run sequentially in both)."""
    prepared = prepare(registry.load(code, scale=scale), order="degree")
    g = prepared.graph
    counter = LocalCounter(g)
    tasks = []
    for v in range(g.n_v):
        t = build_root_task(g, v, None, backend="auto")
        if t is not None:
            tasks.append(t)
    dense = [t for t in tasks if t.universe is not None and len(t.cands)]
    rest = [t for t in tasks if t.universe is None or not len(t.cands)]

    def run_unbatched() -> tuple[Counters, BicliqueCounter]:
        total = Counters()
        sink = BicliqueCounter()
        for t in tasks:
            run_task_with_node_buffer(g, counter, t, sink, total)
        return total, sink

    def run_batched() -> tuple[Counters, BicliqueCounter]:
        total = Counters()
        sink = BicliqueCounter()
        for i in range(0, len(dense), BATCH_SIZE):
            chunk = dense[i : i + BATCH_SIZE]
            out = run_batch([
                BatchMember(
                    universe=t.universe, left=t.left, right=t.right,
                    cands=t.cands, counts=t.counts, counters=total,
                )
                for t in chunk
            ])
            # Deliver every emission, as the sequential side does.
            for j in range(len(chunk)):
                for left, right in out.pairs(j):
                    sink(left, right)
        for t in rest:
            run_task_with_node_buffer(g, counter, t, sink, total)
        return total, sink

    # Batching must be cycle-neutral: identical Counters either way, and
    # the same emissions delivered.
    (c_seq, s_seq), (c_bat, s_bat) = run_unbatched(), run_batched()
    assert vars(c_seq) == vars(c_bat), (code, vars(c_seq), vars(c_bat))
    assert vars(s_seq) == vars(s_bat), (code, vars(s_seq), vars(s_bat))

    unbatched_ms = _time_best(run_unbatched, BATCH_REPEATS)
    batched_ms = _time_best(run_batched, BATCH_REPEATS)
    return {
        "code": code,
        "scale": scale,
        "n_tasks": len(tasks),
        "n_batch_eligible": len(dense),
        "simt_cycles": c_seq.simt_cycles,
        "unbatched_ms": unbatched_ms,
        "batched_ms": batched_ms,
        "speedup": unbatched_ms / batched_ms,
    }


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(s) for s in values) / len(values))


def dense_geomean_speedup(cases: list[dict]) -> float:
    return _geomean(
        [c["speedup"] for c in cases if c["density"] >= DENSE_THRESHOLD]
    )


def run() -> dict:
    cases = [run_case(d) for d in DENSITIES]
    batch_dense = [run_batch_case(code, s) for code, s in BATCH_DENSE]
    batch_sparse = [run_batch_case(code, s) for code, s in BATCH_SPARSE]
    return {
        "bench": "setops",
        "config": {
            "n_u": N_U,
            "n_v": N_V,
            "left_fraction": LEFT_FRACTION,
            "repeats": REPEATS,
            "dense_threshold": DENSE_THRESHOLD,
            "batch_size": BATCH_SIZE,
            "batch_repeats": BATCH_REPEATS,
        },
        "cases": cases,
        "batch_cases": batch_dense + batch_sparse,
        "dense_geomean_speedup": dense_geomean_speedup(cases),
        "batch_dense_geomean_speedup": _geomean(
            [c["speedup"] for c in batch_dense]
        ),
        "batch_sparse_geomean_speedup": _geomean(
            [c["speedup"] for c in batch_sparse]
        ),
    }


def main() -> None:
    result = run()
    OUT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    print(f"{'density':>8} {'sorted_ms':>10} {'bitset_ms':>10} {'speedup':>8}")
    for c in result["cases"]:
        print(
            f"{c['density']:>8.2f} {c['sorted_ms']:>10.4f} "
            f"{c['bitset_ms']:>10.4f} {c['speedup']:>7.1f}x"
        )
    print(
        f"\ndense (>= {DENSE_THRESHOLD}) geomean speedup: "
        f"{result['dense_geomean_speedup']:.1f}x"
    )
    print(
        f"\n{'graph':>8} {'tasks':>6} {'dense':>6} "
        f"{'unbatched_ms':>13} {'batched_ms':>11} {'speedup':>8}"
    )
    for c in result["batch_cases"]:
        print(
            f"{c['code']:>8} {c['n_tasks']:>6} {c['n_batch_eligible']:>6} "
            f"{c['unbatched_ms']:>13.2f} {c['batched_ms']:>11.2f} "
            f"{c['speedup']:>7.2f}x"
        )
    print(
        f"\nbatched dense geomean speedup:  "
        f"{result['batch_dense_geomean_speedup']:.2f}x"
    )
    print(
        f"batched sparse geomean speedup: "
        f"{result['batch_sparse_geomean_speedup']:.2f}x"
    )
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
