"""Tests for biclique value types and sinks."""

import io
import pickle
import random

import numpy as np
import pytest

from repro import api
from repro.core.bicliques import (
    Biclique,
    BicliqueCollector,
    BicliqueCounter,
    BicliqueWriter,
    Counters,
    EnumerationResult,
)


class TestBiclique:
    def test_make_sorts_and_dedupes(self):
        b = Biclique.make([3, 1, 1], [2, 0])
        assert b.left == (1, 3) and b.right == (0, 2)

    def test_hashable_equality(self):
        a = Biclique.make([1, 2], [3])
        b = Biclique.make([2, 1], [3])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_sizes(self):
        b = Biclique.make([1, 2, 3], [4, 5])
        assert b.n_vertices == 5
        assert b.n_edges == 6

    def test_ordering_defined(self):
        assert sorted([Biclique.make([2], [1]), Biclique.make([1], [2])])

    def test_sort_matches_field_key(self):
        rng = random.Random(0)
        items = [
            Biclique.make(
                rng.sample(range(8), rng.randint(1, 4)),
                rng.sample(range(8), rng.randint(1, 4)),
            )
            for _ in range(200)
        ]
        rng.shuffle(items)
        assert sorted(items) == sorted(items, key=lambda b: (b.left, b.right))

    def test_hash_and_eq_agree_with_field_tuple(self):
        b = Biclique.make([4, 1], [7, 2, 9])
        assert b == (b.left, b.right)
        assert hash(b) == hash((b.left, b.right))
        assert b != Biclique.make([1, 4], [2, 7])

    def test_pickle_roundtrip(self):
        b = Biclique.make([5, 3], [1])
        back = pickle.loads(pickle.dumps(b))
        assert back == b and type(back) is Biclique
        assert back.n_edges == 2

    @pytest.mark.parametrize(
        "left",
        [
            np.array([3, 1, 3, 2], dtype=np.int32),
            [3, 1, 3, 2],
            [np.int64(3), np.int64(1), np.int64(3), np.int64(2)],
            (x for x in (3, 1, 3, 2)),
        ],
        ids=["int32-array", "list", "numpy-scalars", "generator"],
    )
    def test_make_accepts_any_int_iterable(self, left):
        b = Biclique.make(left, np.array([9, 9], dtype=np.int32))
        assert b == ((1, 2, 3), (9,))
        assert all(type(x) is int for x in b.left + b.right)

    def test_shard_result_pickles(self):
        from repro.sharding.runner import ShardResult

        r = ShardResult(
            shard_id=1, n_shards=2,
            bicliques=[Biclique.make([1, 2], [3]), Biclique.make([4], [5])],
            counters=Counters(maximal=2), sim_time=0.5, owned_roots=3,
        )
        back = pickle.loads(pickle.dumps(r))
        assert back.bicliques == r.bicliques
        assert all(type(b) is Biclique for b in back.bicliques)
        assert vars(back.counters) == vars(r.counters)


class TestSinks:
    def test_counter_tracks_maxima(self):
        c = BicliqueCounter()
        c(np.array([1, 2, 3]), np.array([4]))
        c(np.array([1]), np.array([4, 5]))
        assert c.count == 2
        assert c.max_left == 3 and c.max_right == 2

    def test_collector(self):
        col = BicliqueCollector()
        col(np.array([1]), np.array([2]))
        col(np.array([1]), np.array([2]))
        assert col.count == 2
        assert len(col.as_set()) == 1

    def test_collector_keeps_python_ints(self):
        col = BicliqueCollector()
        col(np.array([1, 4], dtype=np.int32), np.array([2], dtype=np.int64))
        (b,) = col.bicliques
        assert b == Biclique.make([1, 4], [2])
        assert all(type(x) is int for x in b.left + b.right)

    def test_writer_format(self):
        buf = io.StringIO()
        w = BicliqueWriter(buf)
        w(np.array([1, 2]), np.array([3]))
        assert buf.getvalue() == "1,2 | 3\n"
        assert w.count == 1


class TestCounters:
    def test_defaults_zero(self):
        c = Counters()
        assert c.checks == 0 and c.set_op_work == 0

    def test_charge_ragged_scalar_equivalence(self):
        a, b = Counters(), Counters()
        a.charge(40, 0)
        b.charge_ragged(np.array([40]))
        assert a.set_op_work == b.set_op_work
        assert a.simt_cycles == b.simt_cycles


class TestEnumerationResult:
    def test_count_alias(self):
        r = EnumerationResult(n_maximal=7)
        assert r.count == 7
        assert r.sim_time == 0.0
        assert r.extras == {}


def _enumerators():
    """Every API algorithm with its defaults, plus both GMBE variants
    with batching off and auto."""
    from repro.gmbe import GMBEConfig, gmbe_gpu, gmbe_host

    out = {"gmbe": gmbe_gpu, "gmbe-host": gmbe_host}
    for name, fn in api._ALGORITHMS.items():
        if fn is not None:
            out[name] = fn
    for batch in ("off", "auto"):
        cfg = GMBEConfig(batch_tasks=batch, set_backend="bitset")
        for name, fn in (("gmbe", gmbe_gpu), ("gmbe-host", gmbe_host)):
            out[f"{name}-batch={batch}"] = (
                lambda g, sink, fn=fn, cfg=cfg: fn(g, sink, config=cfg)
            )
    return out


_ENUMERATORS = _enumerators()


class TestSinkContract:
    """:class:`BicliqueCollector` trusts its input, so every enumerator
    must hand sinks strictly increasing arrays."""

    def test_covers_every_api_algorithm(self):
        covered = {k.split("-batch")[0] for k in _ENUMERATORS}
        assert covered == set(api._ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(_ENUMERATORS))
    def test_sink_arrays_strictly_increasing(self, name):
        from repro.graph import random_bipartite

        # n_u < n_v: the prepared graph is side-swapped and V reordered
        g = random_bipartite(14, 22, 0.4, seed=3)
        seen = []

        def sink(left, right):
            for side in (left, right):
                assert isinstance(side, np.ndarray)
                assert side.ndim == 1 and len(side) > 0
                assert (np.diff(side) > 0).all(), side
            seen.append(1)

        _ENUMERATORS[name](g, sink)
        assert seen
