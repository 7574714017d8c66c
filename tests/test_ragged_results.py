"""Differential tests for array-native results.

GMBE fills a :class:`~repro.core.BicliqueCollector` with the whole run
as one :class:`~repro.core.RaggedBicliques` block, which the API,
shards and store filter, sort, merge and encode as arrays.  Every such
path must give exactly what per-emission delivery into a sorted list of
:class:`~repro.core.Biclique` objects gives.
"""

from __future__ import annotations

import itertools
import pickle
import random

import numpy as np
import pytest

from repro.api import enumerate_maximal_bicliques
from repro.core import (
    Biclique,
    BicliqueCollector,
    Counters,
    RaggedBicliques,
    imbea,
    mbea,
    oombea,
    parmbe,
    pmbe,
    reference_mbe,
)
from repro.datasets.registry import DATASET_ORDER, load
from repro.gmbe import GMBEConfig, gmbe_gpu, gmbe_host
from repro.gpusim.faults import FaultPlan
from repro.graph import random_bipartite
from repro.sharding import ShardMergeError, merge_shard_results
from repro.sharding.runner import ShardResult
from repro.store import StoredResultSet
from tests.test_batch import make_mixed_width
from tests.test_store import _assert_same_blocks, _oracle_blocks

_ENUMERATORS = {
    "gmbe": gmbe_gpu,
    "gmbe-host": gmbe_host,
    "mbea": mbea,
    "imbea": imbea,
    "pmbe": pmbe,
    "oombea": oombea,
    "parmbe": parmbe,
}


def _per_emission(enumerate_fn, graph, **kw) -> tuple[list, object]:
    """Every emission as a Biclique, in delivery order, and the result."""
    out = []

    def sink(left, right):
        out.append(Biclique(tuple(left.tolist()), tuple(right.tolist())))

    return out, enumerate_fn(graph, sink, **kw)


def _key(b) -> tuple:
    return (b.left, b.right)


# ---------------------------------------------------------------------------
# API lists against per-emission sorted lists
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", DATASET_ORDER)
@pytest.mark.parametrize("algorithm", sorted(_ENUMERATORS))
def test_api_list_equals_sorted_per_emission_list(code, algorithm):
    graph = load(code, scale=0.1)
    expected, _ = _per_emission(_ENUMERATORS[algorithm], graph)
    expected.sort()
    got = enumerate_maximal_bicliques(graph, algorithm=algorithm)
    assert type(got) is list
    assert all(type(b) is Biclique for b in got)
    assert list(map(_key, got)) == list(map(_key, expected))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("algorithm", sorted(_ENUMERATORS))
def test_api_list_matches_reference_on_small_graphs(seed, algorithm):
    graph = random_bipartite(11, 10, 0.4, seed=seed)
    assert enumerate_maximal_bicliques(graph, algorithm=algorithm) == sorted(
        reference_mbe(graph)
    )


@pytest.mark.parametrize("code", ("Mti", "TM", "GH"))
def test_size_filters_on_arrays_match_list_filters(code):
    graph = load(code, scale=0.1)
    full = enumerate_maximal_bicliques(graph)
    got = enumerate_maximal_bicliques(graph, min_left=2, min_right=3)
    assert got == [b for b in full if len(b.left) >= 2 and len(b.right) >= 3]


# ---------------------------------------------------------------------------
# The kernel's bulk fill against per-emission delivery, across modes
# ---------------------------------------------------------------------------
_GRAPHS = {
    "mixed60-swapped": lambda: make_mixed_width(60, 10, seed=1).swapped(),
    "mixed40": lambda: make_mixed_width(40, 16, seed=2),
}
_MODES = list(itertools.product(
    _GRAPHS, ("task", "warp", "block"), ("off", "auto"),
    ({}, {"bound_height": 2, "bound_size": 8}),
))


def _config(scheduling, batch_tasks, bounds):
    return GMBEConfig(
        scheduling=scheduling, batch_tasks=batch_tasks, set_backend="bitset",
        max_task_retries=50, **bounds,
    )


@pytest.mark.parametrize("name,scheduling,batch_tasks,bounds", _MODES)
def test_collector_fill_matches_per_emission(
    name, scheduling, batch_tasks, bounds, tmp_path
):
    graph = _GRAPHS[name]()
    config = _config(scheduling, batch_tasks, bounds)
    expected, plain = _per_emission(gmbe_gpu, graph, config=config)
    for kw in (
        {},
        {"fault_plan": FaultPlan(0)},
        {"checkpoint_path": str(tmp_path / "records.ckpt")},
    ):
        collector = BicliqueCollector()
        res = gmbe_gpu(graph, collector, config=config, **kw)
        # the same bicliques, in the same order
        assert collector.bicliques == expected
        assert res.n_maximal == plain.n_maximal == len(expected)
        assert vars(res.counters) == vars(plain.counters)
        assert res.sim_time == plain.sim_time

    ckpt = str(tmp_path / "halt.ckpt")
    halted = BicliqueCollector()
    first = gmbe_gpu(graph, halted, config=config, checkpoint_path=ckpt,
                     halt_after_tasks=7)
    assert first.extras["halted"]
    assert halted.count == first.n_maximal
    resumed = BicliqueCollector()
    gmbe_gpu(graph, resumed, config=config, checkpoint_path=ckpt,
             resume=True)
    assert sorted(resumed.bicliques) == sorted(expected)


def test_collector_mixes_blocks_and_per_emission_calls():
    graph = random_bipartite(12, 9, 0.4, seed=3)
    expected_gpu, _ = _per_emission(gmbe_gpu, graph)
    expected_cpu, _ = _per_emission(oombea, graph)
    collector = BicliqueCollector()
    oombea(graph, collector)
    gmbe_gpu(graph, collector)
    oombea(graph, collector)
    assert collector.count == 2 * len(expected_cpu) + len(expected_gpu)
    assert collector.result() == expected_cpu + expected_gpu + expected_cpu
    assert collector.bicliques == expected_cpu + expected_gpu + expected_cpu


# ---------------------------------------------------------------------------
# Shards and the store
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", ("Mti", "EE", "GH"))
def test_thread_shards_equal_single_run(code):
    graph = load(code, scale=0.1)
    single = enumerate_maximal_bicliques(graph)
    assert enumerate_maximal_bicliques(
        graph, shards=2, shard_pool="thread"
    ) == single
    assert list(enumerate_maximal_bicliques(
        graph, shards=2, shard_pool="thread", min_left=2, as_store=True,
    )) == [b for b in single if len(b.left) >= 2]


@pytest.mark.parametrize("code", ("Mti", "WA", "TM", "EE", "GH"))
@pytest.mark.parametrize("algorithm", ("gmbe", "oombea"))
def test_as_store_blocks_equal_list_encoding(code, algorithm):
    graph = load(code, scale=0.1)
    listed = enumerate_maximal_bicliques(graph, algorithm=algorithm)
    stored = enumerate_maximal_bicliques(
        graph, algorithm=algorithm, as_store=True
    )
    from_list = StoredResultSet.from_bicliques(listed)
    assert len(stored) == len(listed)
    assert [
        (b.start, b.n_records, b.max_left, b.max_right, b.data.tobytes())
        for b in stored._blocks
    ] == [
        (b.start, b.n_records, b.max_left, b.max_right, b.data.tobytes())
        for b in from_list._blocks
    ]
    _assert_same_blocks(
        stored._blocks,
        _oracle_blocks([_key(b) for b in listed], 256),
    )


def test_shard_result_pickles_smaller_than_objects():
    graph = load("GH", scale=0.1)
    listed = enumerate_maximal_bicliques(graph)
    shard = ShardResult(shard_id=0, n_shards=1, bicliques=listed,
                        counters=Counters(), sim_time=0.0, owned_roots=1)
    shipped = pickle.dumps(shard)
    assert len(shipped) < len(pickle.dumps(listed))
    back = pickle.loads(shipped).bicliques
    assert back == listed
    assert back.left.dtype.itemsize < 8  # shipped and kept narrow


# ---------------------------------------------------------------------------
# Ordering and merging on the arrays
# ---------------------------------------------------------------------------
def test_sort_puts_a_prefix_before_its_extensions():
    sides = [(1, 3), (1, 2, 3), (1, 2), (1,), (2,), (0, 5)]
    records = [Biclique(side, (7,)) for side in sides]
    records += [Biclique((1, 2), side) for side in sides]
    records += [Biclique((), (1,)), Biclique((1,), ())]
    random.Random(0).shuffle(records)
    ragged = RaggedBicliques.from_bicliques(records)
    assert ragged.sorted() == sorted(records)
    assert ragged.sorted().to_list()[:5] == [
        Biclique((), (1,)), Biclique((0, 5), (7,)), Biclique((1,), ()),
        Biclique((1,), (7,)), Biclique((1, 2), (0, 5)),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_sort_matches_tuple_order_on_random_records(seed):
    rng = random.Random(seed)
    hi = rng.choice([4, 300, 70_000, 2**40])
    records = [
        Biclique(
            tuple(sorted(rng.sample(range(hi), rng.randint(0, min(hi, 9))))),
            tuple(sorted(rng.sample(range(hi), rng.randint(0, min(hi, 9))))),
        )
        for _ in range(300)
    ]
    records += records[:20]  # repeats keep their input order
    ragged = RaggedBicliques.from_bicliques(records)
    assert ragged.sorted() == sorted(records)
    ranks = ragged.sort_ranks()
    order = sorted(range(len(records)), key=lambda i: records[i])
    assert [records[i] for i in np.argsort(ranks, kind="stable")] == [
        records[i] for i in order
    ]
    # equal records share a rank, which is the first position of the run
    for pos, i in enumerate(order):
        first = next(p for p, j in enumerate(order)
                     if records[j] == records[i])
        assert ranks[i] == first


def _shard(shard_id, bicliques):
    return ShardResult(shard_id=shard_id, n_shards=3,
                       bicliques=sorted(bicliques), counters=Counters(),
                       sim_time=0.0, owned_roots=len(bicliques))


def test_merge_of_sorted_runs_is_the_sorted_union():
    rng = random.Random(4)
    pool = sorted({
        Biclique(tuple(sorted(rng.sample(range(30), rng.randint(1, 4)))),
                 tuple(sorted(rng.sample(range(30), rng.randint(1, 4)))))
        for _ in range(200)
    })
    parts = [pool[0::3], pool[1::3], pool[2::3]]
    merged = merge_shard_results(
        [_shard(i, part) for i, part in reversed(list(enumerate(parts)))]
    )
    assert isinstance(merged, RaggedBicliques)
    assert merged == pool


def test_merge_refuses_a_duplicate_naming_both_shards():
    shared = Biclique((1, 2), (3,))
    results = [
        _shard(0, [Biclique((0,), (1,))]),
        _shard(1, [Biclique((1,), (2,)), shared]),
        _shard(2, [shared, Biclique((5,), (6,))]),
    ]
    with pytest.raises(ShardMergeError,
                       match=r"L=\(1, 2\) R=\(3,\) .* shards 1 and 2"):
        merge_shard_results(results)
