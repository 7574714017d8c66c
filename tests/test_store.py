"""The succinct result store (repro.store): delta encoding, wire
format, StoredResultSet paging, provenance, and end-to-end threading
through the kernel, shard merge, checkpoint, service, and CLI layers.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import enumerate_maximal_bicliques
from repro.core.bicliques import Biclique, BicliqueCollector
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.graph import random_bipartite
from repro.store import (
    Block,
    StoredResultSet,
    count_records,
    decode_blocks,
    encode_blocks,
    materialized_nbytes,
    pack_lineages,
    unpack_lineages,
)

ALGORITHMS = ("gmbe", "gmbe-host", "mbea", "imbea", "pmbe", "oombea", "parmbe")


def _random_records(rng, n, n_u=40, n_v=50):
    recs = []
    for _ in range(n):
        left = tuple(sorted(rng.sample(range(n_u), rng.randint(1, 7))))
        right = tuple(sorted(rng.sample(range(n_v), rng.randint(1, 9))))
        recs.append((left, right))
    recs.sort()
    return recs


def _encode(recs, block_records=16) -> list:
    return encode_blocks(recs, block_records)


def _store_from(recs, block_records=16) -> StoredResultSet:
    return StoredResultSet(_encode(recs, block_records), len(recs))


def _oracle_blocks(recs, block_records) -> list:
    """The wire format, one record at a time in plain Python.

    Each side's LCP is taken against the previous record (0 at a block
    start) and the unshared vertices are stored as gaps against their
    predecessor, the first vertex of a side against -1.
    """
    blocks, words, prev = [], [], ((), ())
    start = max_l = max_r = 0
    for ordinal, rec in enumerate(recs):
        if ordinal - start == block_records:
            blocks.append(Block(start, ordinal - start, max_l, max_r,
                                np.asarray(words, dtype=np.uint32)))
            words, prev, start, max_l, max_r = [], ((), ()), ordinal, 0, 0
        header, gaps = [], []
        for side, before in zip(rec, prev):
            lcp = 0
            while (lcp < min(len(side), len(before))
                   and side[lcp] == before[lcp]):
                lcp += 1
            header += [lcp, len(side) - lcp]
            base = side[lcp - 1] if lcp else -1
            for v in side[lcp:]:
                gaps.append(v - base)
                base = v
        words += header + gaps
        prev = rec
        max_l, max_r = max(max_l, len(rec[0])), max(max_r, len(rec[1]))
    if recs:
        blocks.append(Block(start, len(recs) - start, max_l, max_r,
                            np.asarray(words, dtype=np.uint32)))
    return blocks


def _assert_same_blocks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.start, g.n_records, g.max_left, g.max_right) == (
            w.start, w.n_records, w.max_left, w.max_right)
        assert g.data.dtype == np.uint32
        assert g.data.tolist() == w.data.tolist()


# ---------------------------------------------------------------------------
class TestEncoding:
    @pytest.mark.parametrize("block_records", [1, 2, 7, 256])
    def test_roundtrip_bit_identical(self, block_records):
        rng = random.Random(3)
        recs = _random_records(rng, 300)
        blocks = _encode(recs, block_records)
        assert [(l, r) for _, l, r in decode_blocks(blocks)] == recs
        assert count_records(blocks) == len(recs)

    def test_golden_wire_format(self):
        # Hand-worked stream pinning the exact words: r1 shares a left
        # and a right prefix with r0; r2 repeats r1's left side but
        # opens block 1, so its lcps reset to 0; r3 shares only a right
        # prefix; r4 opens the last, partial block.
        recs = [
            ((1, 3), (2, 5)),
            ((1, 3, 4), (2, 6)),
            ((1, 3, 4), (2, 6, 7)),
            ((0,), (2, 6, 7, 9)),
            ((0, 8), (2, 6, 7, 9)),
        ]
        blocks = _encode(recs, 2)
        expected = [
            (0, 2, 3, 2, [0, 2, 0, 2, 2, 2, 3, 3,
                          2, 1, 1, 1, 1, 4]),
            (2, 2, 3, 4, [0, 3, 0, 3, 2, 2, 1, 3, 4, 1,
                          0, 1, 3, 1, 1, 2]),
            (4, 1, 2, 4, [0, 2, 0, 4, 1, 8, 3, 4, 1, 2]),
        ]
        assert len(blocks) == len(expected)
        for block, (start, n, max_l, max_r, words) in zip(blocks, expected):
            assert block.data.dtype == np.uint32
            assert block.data.tolist() == words
            assert (block.start, block.n_records) == (start, n)
            assert (block.max_left, block.max_right) == (max_l, max_r)
        assert [(l, r) for _, l, r in decode_blocks(blocks)] == recs

    @pytest.mark.parametrize("block_records", [1, 2, 7, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_encode_blocks_matches_oracle(self, seed, block_records):
        rng = random.Random(seed)
        recs = _random_records(rng, 700, n_u=12, n_v=15)
        # unsorted stretches, repeated records and empty sides too
        recs[100:200] = rng.sample(recs[100:200], 100)
        recs[300:305] = [recs[299]] * 5
        recs[400:403] = [((), (1,)), ((2,), ()), ((), ())]
        _assert_same_blocks(_encode(recs, block_records),
                            _oracle_blocks(recs, block_records))

    @pytest.mark.parametrize("block_records", [1, 2, 7, 256])
    def test_from_bicliques_matches_oracle(self, block_records):
        recs = _random_records(random.Random(9), 1000, n_u=12, n_v=15)
        store = StoredResultSet.from_bicliques(
            (Biclique(l, r) for l, r in recs), block_records=block_records,
        )
        _assert_same_blocks(store._blocks,
                            _oracle_blocks(recs, block_records))
        assert len(store) == len(recs)

    def test_blocks_decode_independently(self):
        rng = random.Random(5)
        recs = _random_records(rng, 100)
        blocks = _encode(recs, 8)
        # Decoding any single block alone reproduces its slice exactly —
        # the block-start lcp=0 framing carries no cross-block state.
        for block in blocks:
            got = [(l, r) for _, l, r in decode_blocks([block])]
            assert got == recs[block.start:block.start + block.n_records]

    def test_encoded_is_smaller_than_materialized_on_shared_prefixes(self):
        base = tuple(range(30))
        recs = sorted(
            (base, (v,)) for v in range(200)
        )
        store = _store_from(recs, block_records=64)
        bqs = [Biclique(l, r) for l, r in recs]
        assert store.nbytes < 0.25 * materialized_nbytes(bqs)

    def test_nonpositive_block_records_rejected(self):
        with pytest.raises(ValueError, match="block_records"):
            StoredResultSet.from_bicliques([Biclique((1,), (2,))],
                                           block_records=0)
        with pytest.raises(ValueError, match="block_records"):
            encode_blocks([((1,), (2,))], 0)

    def test_empty_stream(self):
        assert encode_blocks([]) == []
        assert StoredResultSet.from_bicliques([]).n_blocks == 0
        store = StoredResultSet([], 0)
        assert len(store) == 0 and list(store) == []
        items, cur = store.page(None, 10)
        assert items == [] and cur is None


# ---------------------------------------------------------------------------
class TestStoredResultSet:
    @pytest.fixture()
    def recs(self):
        return _random_records(random.Random(11), 400)

    def test_len_iter_and_as_tuple(self, recs):
        store = _store_from(recs)
        bqs = [Biclique(l, r) for l, r in recs]
        assert len(store) == len(bqs)
        assert list(store) == bqs
        assert store.as_tuple() == tuple(bqs)
        assert 0 < store.nbytes < materialized_nbytes(bqs)

    def test_filter_pushdown_matches_post_filtering(self, recs):
        store = _store_from(recs)
        for ml, mr in [(0, 0), (3, 1), (1, 5), (4, 6), (99, 1)]:
            view = store.filtered(min_left=ml, min_right=mr)
            expect = [
                Biclique(l, r) for l, r in recs
                if len(l) >= ml and len(r) >= mr
            ]
            assert list(view) == expect
            assert len(view) == len(expect)
        # filters compose by max
        v = store.filtered(min_left=2).filtered(min_left=4, min_right=3)
        assert v.min_left == 4 and v.min_right == 3

    @pytest.mark.parametrize("bad", [1.5, True, "2", -3, None])
    @pytest.mark.parametrize("side", ["min_left", "min_right"])
    def test_filtered_rejects_what_the_api_rejects(self, recs, side, bad):
        store = _store_from(recs)
        with pytest.raises(ValueError, match=side):
            store.filtered(**{side: bad})

    def test_filtered_accepts_numpy_integers_and_zero(self, recs):
        store = _store_from(recs)
        view = store.filtered(min_left=np.int64(3), min_right=0)
        assert (view.min_left, view.min_right) == (3, 0)
        assert type(view.min_left) is int
        assert list(view) == [
            Biclique(l, r) for l, r in recs if len(l) >= 3
        ]

    def test_block_skip_serves_filters_without_decoding(self, recs):
        store = _store_from(recs, block_records=8)
        # a filter no record passes: len() must be 0 via header scan
        assert len(store.filtered(min_left=50)) == 0
        assert list(store.filtered(min_right=50)) == []

    def test_cursor_pages_partition_the_stream(self, recs):
        store = _store_from(recs)
        bqs = [Biclique(l, r) for l, r in recs]
        got, cursor, pages = [], None, 0
        while True:
            items, cursor = store.page(cursor, 37)
            got.extend(items)
            pages += 1
            if cursor is None:
                break
        assert got == bqs
        assert pages == (len(bqs) + 36) // 37

    def test_cursor_is_stable_across_limits_and_pickling(self, recs):
        store = _store_from(recs)
        bqs = [Biclique(l, r) for l, r in recs]
        rng = random.Random(2)
        got, cursor = [], None
        while True:
            # vary the limit and re-load the store mid-pagination
            store = pickle.loads(pickle.dumps(store))
            items, cursor = store.page(cursor, rng.randint(1, 60))
            got.extend(items)
            if cursor is None:
                break
        assert got == bqs

    def test_cursor_stable_under_filters(self, recs):
        view = _store_from(recs).filtered(min_left=3, min_right=2)
        expect = list(view)
        got, cursor = [], None
        while True:
            items, cursor = view.page(cursor, 11)
            got.extend(items)
            if cursor is None:
                break
        assert got == expect

    def test_pages_iterator_matches_manual_paging(self, recs):
        store = _store_from(recs)
        flat = [b for page in store.pages(53) for b in page]
        assert flat == list(store)

    def test_bad_cursors_are_actionable(self, recs):
        store = _store_from(recs)
        with pytest.raises(ValueError, match="opaque"):
            store.page("not-a-cursor", 10)
        with pytest.raises(ValueError, match="negative"):
            store.page("-4", 10)
        with pytest.raises(ValueError, match="limit"):
            store.page(None, 0)
        # non-integral limits and bools are rejected naming the value,
        # never rounded (1.5 served 2 items) or compared (None, "2")
        for bad in (1.5, True, "2", None):
            with pytest.raises(ValueError, match=f"limit .*{bad!r}"):
                store.page(None, bad)
        items, _ = store.page(None, np.int64(3))
        assert len(items) == 3

    @pytest.mark.parametrize("left, right, side", [
        ((3, 1), (2,), "left"),    # unsorted
        ((1,), (-2, 4), "right"),  # negative id
        ((2**63,), (2,), "left"),  # id overflows int64
        ((0, 2**33), (1,), "left"),  # delta word overflows uint32
        ((1, 1), (2,), "left"),    # repeated vertex
        ((-1,), (2,), "left"),     # negative id
        ((0, 4), (5, 5), "right"),  # repeated vertex
        ((0,), (1, 2**64), "right"),  # id overflows int64
    ])
    def test_from_bicliques_names_first_bad_record(self, left, right, side):
        good = Biclique((0, 4), (2, 5))
        # record 3 is bad on both sides; record 2 is reported
        records = [good, good, Biclique(left, right),
                   Biclique((5, 5), (-1,)), good]
        with pytest.raises(ValueError, match=f"record 2: {side} side"):
            StoredResultSet.from_bicliques(records, block_records=2)


# ---------------------------------------------------------------------------
class TestProvenance:
    def test_pack_unpack_roundtrip(self):
        rng = random.Random(13)
        lins = [
            tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 8)))
            for _ in range(300)
        ]
        rows = pack_lineages(lins)
        assert unpack_lineages(rows) == sorted(lins)
        # LCP rows must not use more words than the explicit form
        assert sum(len(r) for r in rows) <= sum(len(l) + 1 for l in lins)

    def test_sibling_heavy_sets_compress(self):
        # one parent, many siblings: rows collapse to [depth-1, last]
        lins = [(4, 2, k) for k in range(100)]
        rows = pack_lineages(lins)
        assert rows[0] == [0, 4, 2, 0]
        assert all(r == [2, k] for k, r in enumerate(rows) if k > 0)

    def test_malformed_rows_are_rejected(self):
        with pytest.raises(ValueError, match="lcp"):
            unpack_lineages([[3, 1]])  # lcp exceeds previous length
        with pytest.raises(ValueError, match="malformed"):
            unpack_lineages([[]])


# ---------------------------------------------------------------------------
class TestCheckpointWireFormat:
    def test_snapshot_v2_stores_packed_paths(self):
        import json

        from repro.checkpoint import CHECKPOINT_VERSION, Snapshot

        assert CHECKPOINT_VERSION == 3
        snap = Snapshot(
            graph_fingerprint="f", config_signature=[("k", 1)],
            device_name="A100", n_gpus=1, root_cursor=0, n_roots=4,
            executed=[(2, 1), (2, 0), (2,)],
        )
        data = json.loads(snap.to_json())
        assert "executed" not in data
        assert data["executed_paths"] == [[0, 2], [1, 0], [1, 1]]
        back = Snapshot.from_json(snap.to_json())
        assert sorted(back.executed) == [(2,), (2, 0), (2, 1)]

    def test_malformed_paths_fail_actionably(self):
        import json

        from repro.checkpoint import CheckpointError, Snapshot

        snap = Snapshot(
            graph_fingerprint="f", config_signature=[], device_name="A100",
            n_gpus=1, root_cursor=0, n_roots=1,
        )
        data = json.loads(snap.to_json())
        data["executed_paths"] = [[5, 1]]  # lcp exceeds previous length
        with pytest.raises(CheckpointError, match="executed_paths"):
            Snapshot.from_json(json.dumps(data))


# ---------------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_as_store_bit_identical_across_algorithms(self, algorithm):
        graph = random_bipartite(18, 16, 0.3, seed=4)
        direct = enumerate_maximal_bicliques(graph, algorithm=algorithm)
        store = enumerate_maximal_bicliques(
            graph, algorithm=algorithm, as_store=True
        )
        assert isinstance(store, StoredResultSet)
        assert list(store) == direct

    def test_as_store_honors_size_filters(self):
        graph = random_bipartite(20, 18, 0.35, seed=9)
        direct = enumerate_maximal_bicliques(
            graph, algorithm="oombea", min_left=2, min_right=2
        )
        store = enumerate_maximal_bicliques(
            graph, algorithm="oombea", min_left=2, min_right=2, as_store=True
        )
        assert list(store) == direct

    def test_kernel_emission_ledger_writes_into_store(self):
        graph = random_bipartite(18, 16, 0.3, seed=21)
        collector = BicliqueCollector()
        res = gmbe_gpu(graph, collector, config=GMBEConfig())
        store = StoredResultSet.from_bicliques(collector.bicliques)
        # same emission order, not just the same set
        assert collector.bicliques != sorted(collector.bicliques)
        assert store.as_tuple() == tuple(collector.bicliques)
        assert res.n_maximal == len(store)

    def test_shard_merge_streams_into_store(self):
        from repro.sharding import ShardCoordinator, merge_shard_results

        graph = random_bipartite(22, 20, 0.3, seed=6)
        report = ShardCoordinator(graph, 3).run()
        store = StoredResultSet.from_bicliques(
            merge_shard_results(report.shards)
        )
        assert list(store) == report.bicliques
        single = enumerate_maximal_bicliques(graph, algorithm="gmbe")
        assert sorted(store) == single

    def test_shard_merge_to_store_refuses_duplicates(self):
        from repro.core.bicliques import Counters
        from repro.sharding import ShardMergeError, merge_shard_results
        from repro.sharding.runner import ShardResult

        b = Biclique((1,), (2,))
        shards = [
            ShardResult(shard_id=i, n_shards=2, bicliques=[b],
                        counters=Counters(), sim_time=0.0, owned_roots=1)
            for i in range(2)
        ]
        with pytest.raises(ShardMergeError, match="duplicate"):
            StoredResultSet.from_bicliques(merge_shard_results(shards))

    def test_store_metrics_registered(self):
        from repro.telemetry import Telemetry, use_telemetry

        graph = random_bipartite(16, 14, 0.3, seed=8)
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            store = enumerate_maximal_bicliques(
                graph, algorithm="oombea", as_store=True
            )
            store.page(None, 5)
        snap = telemetry.registry.snapshot()
        assert snap["store.results.built"] == 1
        assert snap["store.results.records"] == len(store)
        assert snap["store.results.encoded_bytes"] == store.nbytes
        assert snap["store.pages.served"] == 1
        assert snap["store.pages.items"] == 5


# ---------------------------------------------------------------------------
class TestServiceIntegration:
    @pytest.fixture()
    def graph(self):
        return random_bipartite(16, 14, 0.35, seed=17)

    def test_fetch_page_over_inline_and_store_results(self, graph):
        from repro.service import ServiceClient

        direct = tuple(enumerate_maximal_bicliques(graph, algorithm="oombea"))
        with ServiceClient(n_workers=2) as client:
            res = client.submit(graph=graph, algorithm="oombea")
            assert res.ok and res.count == len(direct)
            assert _walk_pages(res, 7) == res.bicliques == direct
            # the cache hit is store-backed: the very store the job built
            hit = client.submit(graph=graph, algorithm="oombea")
            assert hit.cache_hit and hit.store is res.store
            assert hit.count == len(direct)
            assert _walk_pages(hit, 13) == direct

    def test_inline_results_zero_ships_store_only(self, graph):
        import dataclasses

        from repro.service import ServiceClient
        from repro.service.jobs import JobResult

        # store-only shipping is the only mode: the option that opted
        # into it is gone, and a result carries no materialized tuple
        with pytest.raises(TypeError, match="inline_results"):
            ServiceClient(n_workers=2, inline_results=0)
        assert [f.name for f in dataclasses.fields(JobResult)
                if f.name in ("bicliques", "store")] == ["store"]
        direct = tuple(enumerate_maximal_bicliques(graph, algorithm="oombea"))
        with ServiceClient(n_workers=2) as client:
            res = client.submit(graph=graph, algorithm="oombea")
            assert res.ok
            assert isinstance(res.store, StoredResultSet)
            assert res.count == len(direct)
            assert _walk_pages(res, 13) == direct
            # cache hit is store-backed too
            hit = client.submit(graph=graph, algorithm="oombea")
            assert hit.cache_hit
            assert isinstance(hit.store, StoredResultSet)
            assert len(hit.store) == len(direct)

    def test_cache_charges_encoded_bytes(self, graph):
        from repro.service import ServiceClient

        with ServiceClient(n_workers=2) as client:
            res = client.submit(graph=graph, algorithm="oombea")
            cache = client.broker.cache
            assert len(cache) == 1
            # budget reflects encoded size, far below the object model
            assert cache.current_bytes < materialized_nbytes(res.bicliques)
            assert cache.current_bytes >= res.store.nbytes

    def test_cache_rejects_non_store_values(self, graph):
        from repro.service import ResultCache

        cache = ResultCache()
        key = ResultCache.make_key(graph, "oombea", GMBEConfig(), 1, 1)
        with pytest.raises(TypeError, match="tuple"):
            cache.put(key, (Biclique((0,), (1,)),))
        assert len(cache) == 0

    def test_cache_hit_decodes_nothing(self, graph, monkeypatch):
        from repro.service import ResiliencePolicy, ServiceClient

        decodes = []
        as_tuple, iterate = StoredResultSet.as_tuple, StoredResultSet.__iter__

        def counting_as_tuple(store):
            decodes.append("as_tuple")
            return as_tuple(store)

        def counting_iter(store):
            decodes.append("iter")
            return iterate(store)

        monkeypatch.setattr(StoredResultSet, "as_tuple", counting_as_tuple)
        monkeypatch.setattr(StoredResultSet, "__iter__", counting_iter)

        direct = tuple(enumerate_maximal_bicliques(graph, algorithm="oombea"))
        filtered = tuple(enumerate_maximal_bicliques(
            graph, algorithm="oombea", min_left=2
        ))
        with ServiceClient(n_workers=2) as client:
            cold = client.submit(graph=graph, algorithm="oombea")
            decodes.clear()
            hit = client.submit(graph=graph, algorithm="oombea")
            assert hit.cache_hit
            assert decodes == []
            primary, coalesced = client.submit_many(
                [dict(graph=graph, algorithm="oombea", min_left=2)] * 2
            )
        assert coalesced.coalesced and not primary.coalesced
        for res, want in (
            (cold, direct), (hit, direct),
            (primary, filtered), (coalesced, filtered),
        ):
            assert res.ok
            assert res.bicliques == want
            assert res.count == len(want)
            assert _walk_pages(res, 5) == want

        def boom(job, graph, config):
            raise RuntimeError("boom")

        with ServiceClient(
            n_workers=1, runner=boom,
            policy=ResiliencePolicy(timeout=30, max_attempts=1),
        ) as client:
            failed = client.submit(graph=graph, algorithm="oombea")
        assert failed.status == "failed"
        assert failed.bicliques == ()
        assert failed.count == 0
        assert failed.fetch_page() == ([], None)


def _walk_pages(result, limit: int) -> tuple:
    """Every biclique of a JobResult, gathered one cursor page at a time."""
    got, cursor = [], None
    while True:
        items, cursor = result.fetch_page(cursor, limit)
        got.extend(items)
        if cursor is None:
            return tuple(got)


# ---------------------------------------------------------------------------
class TestCLIPagination:
    def test_run_page_limit_and_cursor(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n1 0\n1 1\n2 1\n")
        assert main(["run", str(path), "--algo", "oombea",
                     "--page-limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "next cursor: 1" in out
        assert main(["run", str(path), "--algo", "oombea",
                     "--page-limit", "1", "--cursor", "1"]) == 0
        out = capsys.readouterr().out
        assert "end of results" in out

    def test_cursor_without_page_limit_rejected(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "g.txt"
        path.write_text("0 0\n")
        with pytest.raises(SystemExit, match="requires --page-limit"):
            main(["run", str(path), "--algo", "oombea", "--cursor", "0"])

    def test_serve_page_limit(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n1 0\n1 1\n2 1\n")
        assert main(["serve", "--graph", str(path), "--algo", "oombea",
                     "--page-limit", "2", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "page 1:" in out


# ---------------------------------------------------------------------------
# Satellite: hypothesis property — the union of pages over random limit
# sequences and cursor resumptions is bit-identical to full enumeration.
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestPaginationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        limits=st.lists(st.integers(1, 64), min_size=1, max_size=30),
        block_records=st.sampled_from([1, 3, 16, 256]),
        min_left=st.integers(0, 4),
        min_right=st.integers(0, 4),
    )
    def test_page_union_bit_identical(
        self, seed, limits, block_records, min_left, min_right
    ):
        rng = random.Random(seed)
        recs = _random_records(rng, rng.randint(0, 120))
        store = _store_from(recs, block_records).filtered(
            min_left=min_left, min_right=min_right
        )
        expect = [
            Biclique(l, r) for l, r in recs
            if len(l) >= min_left and len(r) >= min_right
        ]
        got, cursor, i = [], None, 0
        while True:
            limit = limits[i % len(limits)]
            i += 1
            # resume from a pickled copy every few pages: a cursor must
            # survive process boundaries
            if i % 3 == 0:
                store = pickle.loads(pickle.dumps(store))
            items, cursor = store.page(cursor, limit)
            got.extend(items)
            if cursor is None:
                break
        assert got == expect
        assert len(store) == len(expect)

    @settings(max_examples=5, deadline=None)
    @given(
        halt=st.integers(1, 30),
        limits=st.lists(st.integers(1, 40), min_size=1, max_size=8),
    )
    def test_pages_after_checkpoint_resume_match_uninterrupted(
        self, tmp_path_factory, halt, limits
    ):
        graph = random_bipartite(20, 18, 0.3, seed=5)
        cfg = GMBEConfig(bound_height=2, bound_size=4)
        base = BicliqueCollector()
        gmbe_gpu(graph, base, config=cfg)
        expect = sorted(base.bicliques)

        ckpt = str(tmp_path_factory.mktemp("store-resume") / "s.ckpt")
        first = BicliqueCollector()
        gmbe_gpu(graph, first, config=cfg, checkpoint_path=ckpt,
                 checkpoint_every=1, halt_after_tasks=halt)
        resumed = BicliqueCollector()
        gmbe_gpu(graph, resumed, config=cfg, checkpoint_path=ckpt,
                 resume=True)
        store = StoredResultSet.from_bicliques(sorted(resumed.bicliques))
        assert list(store) == expect

        got, cursor, i = [], None, 0
        while True:
            items, cursor = store.page(cursor, limits[i % len(limits)])
            i += 1
            got.extend(items)
            if cursor is None:
                break
        assert got == expect
