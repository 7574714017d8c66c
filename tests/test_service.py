"""Tests for the enumeration service layer (`repro.service`).

Extends the fault patterns of ``tests/test_failure_injection.py`` to the
serving stack: cache hit/miss/eviction/invalidation-on-update,
queue-full rejection, duplicate-query coalescing, injected worker faults
recovering via retry, timeouts, deadlines, cancellation, priorities —
and the acceptance bar that service results are bit-identical to direct
:func:`repro.api.enumerate_maximal_bicliques` calls.
"""

import asyncio
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro import enumerate_maximal_bicliques
from repro.core.bicliques import Biclique
from repro.gmbe import GMBEConfig
from repro.graph import BipartiteGraph, random_bipartite
from repro.service import (
    AdmissionError,
    EnumerationBroker,
    Job,
    JobStatus,
    ResiliencePolicy,
    ResultCache,
    ServiceClient,
    default_runner,
    execute_with_retry,
    graph_fingerprint,
)
from repro.store import StoredResultSet
from repro.streaming import DynamicBipartiteGraph
from repro.telemetry import Histogram, Telemetry
from repro.telemetry.metrics import prometheus_name


class Boom(RuntimeError):
    pass


MATRIX = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.int8)

FAST_POLICY = ResiliencePolicy(timeout=30.0, max_attempts=3, backoff_base=0.001)


def _count(broker, name: str):
    """Current value of the broker's registry counter ``name``."""
    return broker.registry.get(name).value


def run_broker(coro_fn, **broker_kwargs):
    """Run ``await coro_fn(broker)`` against a started broker."""
    broker_kwargs.setdefault("policy", FAST_POLICY)

    async def go():
        broker = EnumerationBroker(**broker_kwargs)
        await broker.start()
        try:
            return await coro_fn(broker)
        finally:
            await broker.stop()

    return asyncio.run(go())


class GatedRunner:
    """Runner whose first matching job blocks until released."""

    def __init__(self, block_priority=None):
        self.started = threading.Event()
        self.release = threading.Event()
        self.order = []
        self.block_priority = block_priority

    def __call__(self, job, graph, config):
        if job.priority == self.block_priority and not self.started.is_set():
            self.started.set()
            assert self.release.wait(10)
        self.order.append(job.min_left)
        return default_runner(job, graph, config)


# ----------------------------------------------------------------------
# Graph fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_same_content_same_fingerprint(self, paper_graph):
        rebuilt = BipartiteGraph.from_edges(
            paper_graph.n_u, paper_graph.n_v, list(paper_graph.edges()),
            name="other-name",
        )
        assert rebuilt.fingerprint == paper_graph.fingerprint

    def test_differs_on_edges_and_shape(self, paper_graph):
        minus = [e for e in paper_graph.edges()][:-1]
        other = BipartiteGraph.from_edges(paper_graph.n_u, paper_graph.n_v, minus)
        assert other.fingerprint != paper_graph.fingerprint
        wider = BipartiteGraph.from_edges(
            paper_graph.n_u, paper_graph.n_v + 1, list(paper_graph.edges())
        )
        assert wider.fingerprint != paper_graph.fingerprint

    def test_fingerprint_accepts_any_coercible_input(self):
        assert graph_fingerprint(MATRIX) == graph_fingerprint(
            BipartiteGraph.from_biadjacency(MATRIX)
        )


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def _key(self, graph, **kw):
        return ResultCache.make_key(
            graph,
            kw.get("algorithm", "gmbe"),
            kw.get("config", GMBEConfig()),
            kw.get("min_left", 1),
            kw.get("min_right", 1),
        )

    def test_roundtrip_and_lru_hit(self, paper_graph):
        cache = ResultCache()
        key = self._key(paper_graph)
        assert cache.get(key) is None
        store = StoredResultSet.from_bicliques([Biclique((0,), (1,))])
        assert cache.put(key, store)
        assert cache.get(key) is store
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_varies_with_query_identity(self, paper_graph):
        base = self._key(paper_graph)
        assert self._key(paper_graph, algorithm="mbea") != base
        assert self._key(paper_graph, min_left=2) != base
        assert self._key(paper_graph, min_right=2) != base
        assert self._key(paper_graph, config=GMBEConfig(prune=False)) != base

    def test_byte_budget_evicts_lru(self, paper_graph, tiny_path):
        # Each empty-store entry costs the fixed overhead; budget two.
        cache = ResultCache(max_bytes=400)
        k1 = self._key(paper_graph, min_left=1)
        k2 = self._key(paper_graph, min_left=2)
        k3 = self._key(paper_graph, min_left=3)
        cache.put(k1, StoredResultSet.from_bicliques([]))
        cache.put(k2, StoredResultSet.from_bicliques([]))
        cache.get(k1)  # refresh k1 so k2 is the LRU victim
        cache.put(k3, StoredResultSet.from_bicliques([]))
        assert k1 in cache and k3 in cache and k2 not in cache
        assert cache.stats.evictions == 1
        assert cache.current_bytes <= cache.max_bytes

    def test_oversized_entry_not_stored(self, paper_graph):
        cache = ResultCache(max_bytes=64)
        key = self._key(paper_graph)
        assert not cache.put(key, StoredResultSet.from_bicliques([]))
        assert len(cache) == 0

    def test_invalidate_tag_is_selective(self, paper_graph, tiny_path):
        cache = ResultCache()
        ka = self._key(paper_graph)
        kb = self._key(tiny_path)
        cache.put(ka, StoredResultSet.from_bicliques([]), tag="a")
        cache.put(kb, StoredResultSet.from_bicliques([]), tag="b")
        assert cache.invalidate_tag("a") == 1
        assert ka not in cache and kb in cache
        assert cache.stats.invalidations == 1

    def test_watch_drops_entries_on_real_mutation_only(self, paper_graph):
        cache = ResultCache()
        dyn = DynamicBipartiteGraph.from_graph(paper_graph)
        cache.watch(dyn, tag="g")
        key = self._key(dyn.snapshot())
        cache.put(key, StoredResultSet.from_bicliques([]), tag="g")
        # duplicate insert is a no-op mutation: nothing dropped
        assert dyn.has_edge(0, 2)
        assert not dyn.insert_edge(0, 2)
        assert cache.stats.invalidations == 0 and key in cache
        # a real mutation drops the watched tag's entries
        assert dyn.insert_edge(4, 0)
        assert cache.stats.invalidations == 1 and key not in cache

    def test_unwatch_all(self, paper_graph):
        cache = ResultCache()
        dyn = DynamicBipartiteGraph.from_graph(paper_graph)
        cache.watch(dyn, tag="g")
        cache.unwatch_all()
        cache.put(
            self._key(paper_graph), StoredResultSet.from_bicliques([]), tag="g"
        )
        assert dyn.insert_edge(4, 0)
        assert len(cache) == 1


# ----------------------------------------------------------------------
# Job validation
# ----------------------------------------------------------------------
class TestJobValidation:
    def test_requires_exactly_one_graph_source(self):
        with pytest.raises(ValueError):
            Job()
        with pytest.raises(ValueError):
            Job(graph=MATRIX, graph_name="g")

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            Job(graph=MATRIX, algorithm="magic")

    def test_rejects_bad_size_filters(self):
        with pytest.raises(ValueError, match="-2"):
            Job(graph=MATRIX, min_left=-2)
        with pytest.raises(ValueError, match="1.5"):
            Job(graph=MATRIX, min_right=1.5)

    def test_rejects_bad_deadline(self):
        with pytest.raises(ValueError):
            Job(graph=MATRIX, deadline=0)

    def test_bad_config_override_fails_at_construction(self):
        with pytest.raises(ValueError):
            Job(graph=MATRIX, config_overrides={"scheduling": "psychic"})
        with pytest.raises(ValueError, match="no_such_knob"):
            Job(graph=MATRIX, config_overrides={"no_such_knob": 1})

    @pytest.mark.parametrize(
        "kwargs, names",
        [
            pytest.param({"priority": "high"}, ("priority", "'high'"),
                         id="priority-str"),
            pytest.param({"priority": True}, ("priority", "True"),
                         id="priority-bool"),
            pytest.param({"priority": 1.5}, ("priority", "1.5"),
                         id="priority-float"),
            pytest.param({"deadline": "5"}, ("deadline", "'5'"),
                         id="deadline-str"),
            pytest.param({"deadline": -1.0}, ("deadline", "-1.0"),
                         id="deadline-negative"),
            pytest.param({"deadline": float("nan")}, ("deadline", "nan"),
                         id="deadline-nan"),
            pytest.param({"config": 3}, ("config", "3"), id="config-int"),
            pytest.param({"config": "fast"}, ("config", "'fast'"),
                         id="config-str"),
            pytest.param({"config": {"prune": "no"}}, ("prune", "'no'"),
                         id="config-mapping-bad-value"),
            pytest.param({"config": {"nope": 1}}, ("'nope'",),
                         id="config-mapping-unknown-key"),
            pytest.param({"config_overrides": 5}, ("config_overrides", "5"),
                         id="overrides-int"),
            pytest.param({"config_overrides": {"nope": 1}}, ("'nope'",),
                         id="overrides-unknown-key"),
            pytest.param({"config_overrides": {"bound_size": "9"}},
                         ("bound_size", "'9'"), id="overrides-bad-value"),
            pytest.param({"shards": 2.0}, ("shards", "2.0"),
                         id="shards-float"),
            pytest.param({"shards": np.int64(0)}, ("shards", "0"),
                         id="shards-numpy-zero"),
        ],
    )
    def test_bad_fields_raise_value_error_naming_them(self, kwargs, names):
        with pytest.raises(ValueError) as info:
            Job(graph=MATRIX, **kwargs)
        for name in names:
            assert name in str(info.value)

    @pytest.mark.parametrize(
        "kwargs, check",
        [
            ({"shards": np.int64(2)}, lambda j: j.shards == 2),
            ({"priority": np.int32(-3)}, lambda j: j.priority == -3),
            ({"deadline": 5}, lambda j: j.deadline == 5.0),
            (
                {"config": {"prune": False}},
                lambda j: j.config == GMBEConfig(prune=False),
            ),
            ({"config": "tuned"}, lambda j: j.wants_tuned),
        ],
        ids=["numpy-shards", "numpy-priority", "int-deadline",
             "config-mapping", "tuned"],
    )
    def test_boundary_values_accepted(self, kwargs, check):
        job = Job(graph=MATRIX, **kwargs)
        assert check(job)
        assert isinstance(job.resolve_config(GMBEConfig()), GMBEConfig)

    def test_resolve_config_layers_overrides(self):
        job = Job(graph=MATRIX, config_overrides={"prune": False})
        cfg = job.resolve_config(GMBEConfig(bound_height=7))
        assert cfg.bound_height == 7 and cfg.prune is False


# ----------------------------------------------------------------------
# Bit-identical results (acceptance criterion)
# ----------------------------------------------------------------------
class TestServiceMatchesDirectAPI:
    @pytest.mark.parametrize(
        "algorithm",
        ["gmbe", "gmbe-host", "mbea", "imbea", "pmbe", "oombea", "parmbe"],
    )
    def test_every_algorithm_bit_identical(self, algorithm):
        graph = random_bipartite(20, 15, 0.3, seed=7)
        direct = enumerate_maximal_bicliques(graph, algorithm=algorithm)

        async def go(broker):
            return await broker.submit(Job(graph=graph, algorithm=algorithm))

        result = run_broker(go, n_workers=2)
        assert result.ok
        assert list(result.bicliques) == direct

    def test_size_filters_and_config_flow_through(self, paper_graph):
        direct = enumerate_maximal_bicliques(
            paper_graph, algorithm="gmbe-host", min_left=2, min_right=2,
            config=GMBEConfig(prune=False),
        )

        async def go(broker):
            return await broker.submit(
                Job(
                    graph=paper_graph,
                    algorithm="gmbe-host",
                    min_left=2,
                    min_right=2,
                    config_overrides={"prune": False},
                )
            )

        result = run_broker(go, n_workers=1)
        assert list(result.bicliques) == direct


# ----------------------------------------------------------------------
# Caching through the broker
# ----------------------------------------------------------------------
class TestBrokerCaching:
    def test_second_identical_query_hits(self, paper_graph):
        async def go(broker):
            a = await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            b = await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            return a, b, broker.registry.snapshot()

        a, b, snap = run_broker(go, n_workers=1)
        assert not a.cache_hit and b.cache_hit
        assert a.bicliques == b.bicliques
        assert b.attempts == 0
        assert snap["service.cache.hits"] == 1
        assert snap["service.cache.misses"] == 1
        assert snap["service.cache.hit_latency_ms"]["count"] == 1

    def test_different_filters_do_not_share_entries(self, paper_graph):
        async def go(broker):
            await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            c = await broker.submit(
                Job(graph=paper_graph, algorithm="oombea", min_left=2)
            )
            return c

        c = run_broker(go, n_workers=1)
        assert not c.cache_hit
        assert all(len(b.left) >= 2 for b in c.bicliques)

    def test_failed_jobs_are_not_cached(self, paper_graph):
        calls = {"n": 0}

        def runner(job, graph, config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise Boom("first call dies")
            return default_runner(job, graph, config)

        async def go(broker):
            bad = await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            good = await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            return bad, good

        policy = ResiliencePolicy(timeout=30, max_attempts=1)
        bad, good = run_broker(go, n_workers=1, runner=runner, policy=policy)
        assert bad.status == JobStatus.FAILED
        assert good.ok and not good.cache_hit and calls["n"] == 2


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_duplicate_inflight_queries_execute_once(self, paper_graph):
        calls = {"n": 0}

        def runner(job, graph, config):
            calls["n"] += 1
            time.sleep(0.15)
            return default_runner(job, graph, config)

        async def go(broker):
            f1 = broker.submit_nowait(Job(graph=paper_graph, algorithm="oombea"))
            f2 = broker.submit_nowait(Job(graph=paper_graph, algorithm="oombea"))
            f3 = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=2)
            )
            return await asyncio.gather(f1, f2, f3), broker.registry.snapshot()

        (r1, r2, r3), snap = run_broker(go, n_workers=2, runner=runner)
        assert calls["n"] == 2  # duplicate coalesced, distinct key ran
        assert r1.ok and r2.ok and r3.ok
        assert not r1.coalesced and r2.coalesced
        assert r1.bicliques == r2.bicliques
        assert r1.job_id != r2.job_id
        assert snap["service.jobs.coalesced"] == 1

    def test_coalesced_waiters_see_the_failure(self, paper_graph):
        def runner(job, graph, config):
            time.sleep(0.1)
            raise Boom("shared execution dies")

        async def go(broker):
            f1 = broker.submit_nowait(Job(graph=paper_graph, algorithm="oombea"))
            f2 = broker.submit_nowait(Job(graph=paper_graph, algorithm="oombea"))
            return await asyncio.gather(f1, f2)

        policy = ResiliencePolicy(timeout=30, max_attempts=1)
        r1, r2 = run_broker(go, n_workers=1, runner=runner, policy=policy)
        assert r1.status == JobStatus.FAILED
        assert r2.status == JobStatus.FAILED and r2.coalesced
        assert "Boom" in r1.error


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_rejects_explicitly(self, paper_graph):
        gate = GatedRunner(block_priority=0)

        async def go(broker):
            blocker = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", priority=0)
            )
            await asyncio.to_thread(gate.started.wait, 5)
            queued = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=2,
                    priority=1)
            )
            with pytest.raises(AdmissionError):
                broker.submit_nowait(
                    Job(graph=paper_graph, algorithm="oombea", min_left=3,
                        priority=1)
                )
            gate.release.set()
            results = await asyncio.gather(blocker, queued)
            return results, broker.registry.snapshot()

        (r_block, r_queued), snap = run_broker(
            go, n_workers=1, queue_depth=1, runner=gate
        )
        assert r_block.ok and r_queued.ok
        assert snap["service.jobs.rejected"] == 1
        assert snap["service.jobs.submitted"] == 3

    def test_broker_keeps_serving_after_rejection(self, paper_graph):
        gate = GatedRunner(block_priority=0)

        async def go(broker):
            blocker = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", priority=0)
            )
            await asyncio.to_thread(gate.started.wait, 5)
            queued = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=2)
            )
            with pytest.raises(AdmissionError):
                broker.submit_nowait(
                    Job(graph=paper_graph, algorithm="oombea", min_left=3)
                )
            gate.release.set()
            await asyncio.gather(blocker, queued)
            # Queue drained: the formerly rejected query now admits fine.
            retry = await broker.submit(
                Job(graph=paper_graph, algorithm="oombea", min_left=3)
            )
            return retry

        retry = run_broker(go, n_workers=1, queue_depth=1, runner=gate)
        assert retry.ok


# ----------------------------------------------------------------------
# Fault tolerance (extends test_failure_injection patterns)
# ----------------------------------------------------------------------
class TestFaultTolerance:
    def test_injected_fault_recovers_via_retry(self, paper_graph):
        direct = enumerate_maximal_bicliques(paper_graph, algorithm="oombea")
        calls = {"n": 0}

        def runner(job, graph, config):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise Boom(f"injected fault #{calls['n']}")
            return default_runner(job, graph, config)

        async def go(broker):
            return await broker.submit(Job(graph=paper_graph, algorithm="oombea"))

        result = run_broker(go, n_workers=1, runner=runner)
        assert result.ok
        assert result.attempts == 3 and calls["n"] == 3
        assert list(result.bicliques) == direct

    def test_permanent_fault_fails_only_its_job(self, paper_graph, tiny_path):
        def runner(job, graph, config):
            if job.min_left == 3:
                raise Boom("this job always dies")
            return default_runner(job, graph, config)

        async def go(broker):
            dead = await broker.submit(
                Job(graph=paper_graph, algorithm="oombea", min_left=3)
            )
            alive = await broker.submit(
                Job(graph=tiny_path, algorithm="oombea")
            )
            return dead, alive, broker.registry.snapshot()

        dead, alive, snap = run_broker(go, n_workers=1, runner=runner)
        assert dead.status == JobStatus.FAILED
        assert "Boom" in dead.error and "always dies" in dead.error
        assert dead.attempts == FAST_POLICY.max_attempts
        assert alive.ok  # the broker survived the poisoned job
        assert snap["service.jobs.failed"] == 1
        assert snap["service.jobs.completed"] == 1
        assert snap["service.jobs.retries"] == FAST_POLICY.max_attempts - 1

    def test_timeout_resolves_without_blocking_broker(self, paper_graph):
        def runner(job, graph, config):
            time.sleep(0.5)
            return default_runner(job, graph, config)

        async def go(broker):
            t0 = time.perf_counter()
            res = await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            return res, time.perf_counter() - t0, broker.registry.snapshot()

        policy = ResiliencePolicy(timeout=0.05, max_attempts=1)
        res, elapsed, snap = run_broker(
            go, n_workers=1, runner=runner, policy=policy
        )
        assert res.status == JobStatus.TIMEOUT
        assert elapsed < 0.4  # resolved well before the worker finished
        assert snap["service.jobs.timeouts"] == 1

    def test_cancel_queued_job(self, paper_graph):
        gate = GatedRunner(block_priority=0)

        async def go(broker):
            blocker = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", priority=0)
            )
            await asyncio.to_thread(gate.started.wait, 5)
            target = Job(graph=paper_graph, algorithm="oombea", min_left=2,
                         priority=1)
            fut = broker.submit_nowait(target)
            assert broker.cancel(target.id)
            assert not broker.cancel(999999)
            gate.release.set()
            results = await asyncio.gather(blocker, fut)
            return results, broker.registry.snapshot()

        (r_block, r_cancel), snap = run_broker(go, n_workers=1, runner=gate)
        assert r_block.ok
        assert r_cancel.status == JobStatus.CANCELLED
        assert snap["service.jobs.cancelled"] == 1
        assert gate.order == [1]  # the cancelled job never ran

    def test_deadline_expires_in_queue(self, paper_graph):
        gate = GatedRunner(block_priority=0)

        async def go(broker):
            blocker = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", priority=0)
            )
            await asyncio.to_thread(gate.started.wait, 5)
            fut = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=2,
                    priority=1, deadline=0.05)
            )
            await asyncio.sleep(0.1)
            gate.release.set()
            results = await asyncio.gather(blocker, fut)
            return results, broker.registry.snapshot()

        (r_block, r_dead), snap = run_broker(go, n_workers=1, runner=gate)
        assert r_block.ok
        assert r_dead.status == JobStatus.EXPIRED
        assert snap["service.jobs.expired"] == 1


# ----------------------------------------------------------------------
# Job-level checkpoint/resume through the broker
# ----------------------------------------------------------------------
class TestBrokerCheckpointResume:
    def test_retry_resumes_from_checkpoint(self, paper_graph, tmp_path):
        """A crashed attempt's checkpoint is picked up by its retry."""
        direct = enumerate_maximal_bicliques(paper_graph, algorithm="gmbe")
        import os

        seen = []

        def runner(job, graph, config, checkpoint_path=None):
            seen.append(checkpoint_path)
            if len(seen) == 1:
                # simulate a crash after partial progress: leave a
                # (placeholder) checkpoint behind, then die
                with open(checkpoint_path, "w") as f:
                    f.write("{}")
                raise Boom("worker died mid-enumeration")
            assert os.path.exists(checkpoint_path)
            os.remove(checkpoint_path)  # a real resume consumes it
            return default_runner(job, graph, config)

        async def go(broker):
            result = await broker.submit(
                Job(graph=paper_graph, algorithm="gmbe")
            )
            return result, broker.registry.snapshot()

        result, snap = run_broker(
            go, n_workers=1, runner=runner, checkpoint_dir=str(tmp_path)
        )
        assert result.ok and result.attempts == 2
        # both attempts were handed the SAME stable per-job path
        assert len(seen) == 2 and seen[0] == seen[1]
        assert seen[0] is not None and seen[0].startswith(str(tmp_path))
        # the broker observed that the retry started from a checkpoint
        assert snap["service.jobs.resumed"] == 1
        assert list(result.bicliques) == direct

    def test_default_runner_resumes_real_enumeration(self, tmp_path):
        """End-to-end: default_runner + gmbe resumes from a genuine
        mid-run checkpoint and still reports the exact biclique set."""
        graph = random_bipartite(20, 18, 0.3, seed=7)
        direct = enumerate_maximal_bicliques(graph, algorithm="gmbe")
        calls = {"n": 0}

        def runner(job, graph_, config, checkpoint_path=None):
            calls["n"] += 1
            if calls["n"] == 1:
                # first attempt halts mid-run, leaving a real checkpoint
                from repro.gmbe import gmbe_gpu

                gmbe_gpu(graph_, config=config,
                         checkpoint_path=checkpoint_path,
                         checkpoint_every=1, halt_after_tasks=5)
                raise Boom("halted mid-run")
            return default_runner(job, graph_, config,
                                  checkpoint_path=checkpoint_path)

        async def go(broker):
            result = await broker.submit(Job(graph=graph, algorithm="gmbe"))
            return result, broker.registry.snapshot()

        result, snap = run_broker(
            go, n_workers=1, runner=runner, checkpoint_dir=str(tmp_path)
        )
        assert result.ok and snap["service.jobs.resumed"] == 1
        assert sorted(result.bicliques) == sorted(direct)
        assert len(result.bicliques) == len(set(result.bicliques))

    def test_plain_runner_gets_no_checkpoint_kwarg(self, paper_graph, tmp_path):
        """checkpoint_dir with a runner that can't take a path is inert."""

        def runner(job, graph, config):  # no checkpoint_path parameter
            return default_runner(job, graph, config)

        async def go(broker):
            result = await broker.submit(
                Job(graph=paper_graph, algorithm="oombea")
            )
            return result, broker.registry.snapshot()

        result, snap = run_broker(
            go, n_workers=1, runner=runner, checkpoint_dir=str(tmp_path)
        )
        assert result.ok and snap["service.jobs.resumed"] == 0

    def test_no_checkpoint_dir_means_no_path(self, paper_graph):
        seen = []

        def runner(job, graph, config, checkpoint_path=None):
            seen.append(checkpoint_path)
            return default_runner(job, graph, config)

        async def go(broker):
            return await broker.submit(
                Job(graph=paper_graph, algorithm="oombea")
            )

        result = run_broker(go, n_workers=1, runner=runner)
        assert result.ok and seen == [None]


# ----------------------------------------------------------------------
# Priority dispatch
# ----------------------------------------------------------------------
class TestPriority:
    def test_lower_priority_value_dispatches_first(self, paper_graph):
        gate = GatedRunner(block_priority=0)

        async def go(broker):
            blocker = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", priority=0)
            )
            await asyncio.to_thread(gate.started.wait, 5)
            low = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=5,
                    priority=10)
            )
            high = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=2,
                    priority=1)
            )
            gate.release.set()
            return await asyncio.gather(blocker, low, high)

        run_broker(go, n_workers=1, queue_depth=8, runner=gate)
        assert gate.order == [1, 2, 5]  # blocker, then high, then low


# ----------------------------------------------------------------------
# Invalidation on streaming updates (acceptance criterion)
# ----------------------------------------------------------------------
class TestInvalidationOnUpdate:
    def test_cache_hit_after_edge_update_is_impossible(self, paper_graph):
        async def go(broker):
            dyn = broker.register_graph("g", paper_graph)
            first = await broker.submit(Job(graph_name="g", algorithm="oombea"))
            warm = await broker.submit(Job(graph_name="g", algorithm="oombea"))
            assert warm.cache_hit
            assert dyn.insert_edge(4, 0)
            after = await broker.submit(Job(graph_name="g", algorithm="oombea"))
            expected = enumerate_maximal_bicliques(
                dyn.snapshot(), algorithm="oombea"
            )
            return first, after, expected, broker.cache

        first, after, expected, cache = run_broker(go, n_workers=1)
        assert not after.cache_hit
        assert list(after.bicliques) == expected
        assert after.bicliques != first.bicliques
        assert cache.stats.invalidations >= 1

    def test_update_drops_only_the_mutated_graphs_entries(
        self, paper_graph, tiny_path
    ):
        async def go(broker):
            dyn_a = broker.register_graph("a", paper_graph)
            broker.register_graph("b", tiny_path)
            await broker.submit(Job(graph_name="a", algorithm="oombea"))
            await broker.submit(Job(graph_name="b", algorithm="oombea"))
            dyn_a.insert_edge(0, 3)
            b_again = await broker.submit(Job(graph_name="b", algorithm="oombea"))
            a_again = await broker.submit(Job(graph_name="a", algorithm="oombea"))
            return a_again, b_again

        a_again, b_again = run_broker(go, n_workers=1)
        assert b_again.cache_hit  # untouched graph keeps its entries
        assert not a_again.cache_hit

    def test_unknown_graph_name_rejected(self):
        async def go(broker):
            with pytest.raises(ValueError, match="nope"):
                broker.submit_nowait(Job(graph_name="nope"))
            return True

        assert run_broker(go, n_workers=1)

    def test_duplicate_registration_rejected(self, paper_graph):
        async def go(broker):
            broker.register_graph("g", paper_graph)
            with pytest.raises(ValueError):
                broker.register_graph("g", paper_graph)
            return True

        assert run_broker(go, n_workers=1)

    def test_cold_job_and_hits_build_csr_once(self, paper_graph, monkeypatch):
        builds = []
        build = BipartiteGraph.from_edges

        def spy(*args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            if caller == "repro.streaming.dynamic_graph":
                builds.append(caller)
            return build(*args, **kwargs)

        monkeypatch.setattr(BipartiteGraph, "from_edges", staticmethod(spy))
        with ServiceClient(n_workers=1, policy=FAST_POLICY) as client:
            dyn = client.register_graph("g", paper_graph)
            cold = client.submit(graph_name="g", algorithm="oombea")
            hits = [client.submit(graph_name="g", algorithm="oombea")
                    for _ in range(8)]
            assert cold.ok and not cold.cache_hit
            assert all(hit.cache_hit for hit in hits)
            assert len(builds) == 1
            # read-your-writes: the next job sees the returned write
            assert dyn.insert_edge(4, 0)
            after = client.submit(graph_name="g", algorithm="oombea")
            assert not after.cache_hit and len(builds) == 2
            expected = enumerate_maximal_bicliques(
                dyn.snapshot(), algorithm="oombea"
            )
            assert list(after.bicliques) == expected
            assert len(builds) == 2


# ----------------------------------------------------------------------
# Resilience primitives
# ----------------------------------------------------------------------
class TestResiliencePrimitives:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(timeout=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_multiplier=0.5)

    def test_backoff_schedule_caps(self):
        # jitter disabled: this pins the deterministic schedule
        p = ResiliencePolicy(backoff_base=0.1, backoff_multiplier=10,
                             backoff_max=0.5, backoff_jitter=0)
        assert p.backoff_for(1) == pytest.approx(0.1)
        assert p.backoff_for(2) == pytest.approx(0.5)  # capped

    def test_backoff_jitter_spreads_after_cap(self):
        import random as _random

        p = ResiliencePolicy(backoff_base=0.1, backoff_multiplier=10,
                             backoff_max=0.5, backoff_jitter=0.25)
        rng = _random.Random(0)
        delays = [p.backoff_for(2, rng=rng) for _ in range(50)]
        # cap-then-jitter: every delay sits in [cap, cap*(1+jitter))
        assert all(0.5 <= d < 0.5 * 1.25 for d in delays)
        assert len({round(d, 9) for d in delays}) > 1  # actually spread

    def test_backoff_jitter_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(backoff_jitter=-0.1)

    def test_non_retryable_fails_immediately(self):
        # BaseException outside the retryable set (but not the loop's own
        # SystemExit/KeyboardInterrupt, which asyncio always re-raises).
        class Fatal(BaseException):
            pass

        calls = {"n": 0}

        async def attempt():
            calls["n"] += 1
            raise Fatal("not a job fault")

        async def go():
            policy = ResiliencePolicy(max_attempts=3, backoff_base=0)
            return await execute_with_retry(lambda: attempt(), policy)

        outcome = asyncio.run(go())
        assert outcome.status == "failed" and calls["n"] == 1

    def test_exhausted_deadline_short_circuits(self):
        async def attempt():  # pragma: no cover - must not run
            raise AssertionError("attempt ran past its deadline")

        async def go():
            loop = asyncio.get_running_loop()
            policy = ResiliencePolicy(max_attempts=3)
            return await execute_with_retry(
                lambda: attempt(), policy, deadline=loop.time() - 1
            )

        outcome = asyncio.run(go())
        assert outcome.status == "timeout" and outcome.attempts == 0

    def test_failed_outcome_keeps_full_retry_history(self):
        calls = {"n": 0}

        async def attempt():
            calls["n"] += 1
            raise Boom(f"failure {calls['n']}")

        async def go():
            policy = ResiliencePolicy(max_attempts=3, backoff_base=0)
            return await execute_with_retry(lambda: attempt(), policy)

        outcome = asyncio.run(go())
        assert outcome.status == "failed" and outcome.attempts == 3
        # the re-raisable exception is the *last* attempt's object...
        assert isinstance(outcome.exception, Boom)
        assert "failure 3" in str(outcome.exception)
        # ...annotated with every prior attempt (PEP 678 notes)
        notes = getattr(outcome.exception, "__notes__", outcome.exception.args)
        joined = " ".join(str(n) for n in notes)
        assert "attempt 1" in joined and "attempt 2" in joined
        assert "attempt 3" not in joined  # the last one IS the exception
        # and the structured history records all three in order
        assert len(outcome.attempt_errors) == 3
        assert all(f"attempt {i+1}" in e
                   for i, e in enumerate(outcome.attempt_errors))

    def test_raise_for_status_reraises_last_exception(self):
        async def attempt():
            raise Boom("terminal")

        async def go():
            policy = ResiliencePolicy(max_attempts=2, backoff_base=0)
            return await execute_with_retry(lambda: attempt(), policy)

        outcome = asyncio.run(go())
        with pytest.raises(Boom, match="terminal"):
            outcome.raise_for_status()

    def test_raise_for_status_returns_value_on_success(self):
        async def go():
            policy = ResiliencePolicy(max_attempts=2, backoff_base=0)

            async def attempt():
                return 42

            return await execute_with_retry(lambda: attempt(), policy)

        outcome = asyncio.run(go())
        assert outcome.raise_for_status() == 42


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(v)
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        assert h.percentile(99) == 99
        assert h.mean == pytest.approx(50.5)
        assert h.max == 100

    def test_histogram_window_bound(self):
        h = Histogram(window=10)
        for v in range(100):
            h.record(v)
        assert h.count == 100  # lifetime count survives the window
        assert h.percentile(50) >= 90  # but percentiles use recent samples

    def test_histogram_rejects_bad_percentile(self):
        h = Histogram()
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_snapshot_is_json_serializable(self, paper_graph):
        async def go(broker):
            await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            await broker.submit(Job(graph=paper_graph, algorithm="oombea"))
            return broker.registry.to_json()

        text = run_broker(go, n_workers=1)
        data = json.loads(text)
        assert data["service.jobs.completed"] == 1
        assert data["service.cache.hits"] == 1
        assert data["service.latency_ms"]["count"] == 1

    def test_service_instruments_described_in_telemetry_registry(
        self, paper_graph
    ):
        gate = GatedRunner(block_priority=0)
        telemetry = Telemetry()

        async def go(broker):
            assert broker.registry is telemetry.registry
            cold = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", priority=0)
            )
            await asyncio.to_thread(gate.started.wait, 5)
            queued = broker.submit_nowait(
                Job(graph=paper_graph, algorithm="oombea", min_left=2,
                    priority=1)
            )
            with pytest.raises(AdmissionError):
                broker.submit_nowait(
                    Job(graph=paper_graph, algorithm="oombea", min_left=3,
                        priority=1)
                )
            gate.release.set()
            await asyncio.gather(cold, queued)
            hit = await broker.submit(
                Job(graph=paper_graph, algorithm="oombea")
            )
            assert hit.cache_hit

        run_broker(go, n_workers=1, queue_depth=1, runner=gate,
                   telemetry=telemetry)
        registry = telemetry.registry
        snap = registry.snapshot()
        assert snap["service.jobs.submitted"] == 4
        assert snap["service.jobs.completed"] == 2
        assert snap["service.jobs.rejected"] == 1
        assert snap["service.cache.hits"] == 1
        assert snap["service.cache.hit_latency_ms"]["count"] == 1
        text = registry.to_prometheus_text()
        service = [n for n in registry.names() if n.startswith("service.")]
        assert "service.queue.size" in service  # gauges set at stop
        for name in service:
            assert f"# HELP {prometheus_name(name)} " in text, name


# ----------------------------------------------------------------------
# Synchronous client facade
# ----------------------------------------------------------------------
class TestServiceClient:
    def test_submit_kwargs_job_and_mapping(self, paper_graph):
        direct = enumerate_maximal_bicliques(paper_graph, algorithm="oombea")
        with ServiceClient(n_workers=2, policy=FAST_POLICY) as client:
            a = client.submit(graph=paper_graph, algorithm="oombea")
            b = client.submit(Job(graph=paper_graph, algorithm="oombea"))
            c = client.submit({"graph": paper_graph, "algorithm": "oombea"})
            assert list(a.bicliques) == direct
            assert b.cache_hit and c.cache_hit
            with pytest.raises(TypeError):
                client.submit(Job(graph=paper_graph), algorithm="oombea")

    def test_submit_many_and_metrics(self, paper_graph, tiny_path):
        with ServiceClient(n_workers=2, policy=FAST_POLICY) as client:
            results = client.submit_many(
                [
                    {"graph": paper_graph, "algorithm": "oombea"},
                    {"graph": paper_graph, "algorithm": "oombea"},
                    {"graph": tiny_path, "algorithm": "oombea"},
                ]
            )
            assert all(r.ok for r in results)
            snap = client.metrics_snapshot()
            assert snap["service.jobs.submitted"] == 3
        with pytest.raises(RuntimeError):
            client.submit(graph=paper_graph)  # closed client refuses work

    def test_register_graph_roundtrip(self, paper_graph):
        with ServiceClient(n_workers=1, policy=FAST_POLICY) as client:
            dyn = client.register_graph("g", paper_graph)
            first = client.submit(graph_name="g", algorithm="oombea")
            warm = client.submit(graph_name="g", algorithm="oombea")
            assert first.ok and warm.cache_hit
            assert dyn.insert_edge(4, 0)
            cold = client.submit(graph_name="g", algorithm="oombea")
            assert not cold.cache_hit


# ----------------------------------------------------------------------
# Tuned-config resolution (config="tuned" sentinel)
# ----------------------------------------------------------------------
class TestTunedConfigService:
    @staticmethod
    def _tuned_entry(graph, config):
        from repro.service.broker import EnumerationBroker as _B
        from repro.tuning import TunedConfig

        return TunedConfig(
            config=config,
            graph_fingerprint=graph.fingerprint,
            device_key=_B._TUNE_DEVICE_KEY,
            seed=0,
            trials=5,
            incumbent_cycles=10.0,
            default_cycles=20.0,
        )

    def test_sentinel_job_validation(self, paper_graph):
        assert Job(graph=paper_graph, config="tuned").wants_tuned
        with pytest.raises(ValueError, match="tuned"):
            Job(graph=paper_graph, config="fastest")

    def test_store_hit_resolves_and_counts(self, paper_graph, tmp_path):
        from repro.tuning import TunedConfigStore

        store = TunedConfigStore(tmp_path)
        tuned_cfg = GMBEConfig(bound_height=4, set_backend="bitset")
        store.put(self._tuned_entry(paper_graph, tuned_cfg))

        async def go(broker):
            res = await broker.submit(Job(graph=paper_graph, config="tuned"))
            return res, broker.registry.snapshot()

        res, snap = run_broker(
            go, n_workers=1, tuning_store=store, tune_on_miss=False
        )
        assert res.ok and res.count == 6
        assert snap["service.tuning.hits"] == 1
        assert snap["service.tuning.misses"] == 0

    def test_miss_falls_back_and_tunes_in_background(self, paper_graph,
                                                     tmp_path):
        from repro.tuning import TuneBudget, TunedConfigStore

        store = TunedConfigStore(tmp_path)
        budget = TuneBudget(max_trials=4, rung0_tasks=16,
                            max_rungs=1, finalists=2)

        async def go(broker):
            first = await broker.submit(
                Job(graph=paper_graph, config="tuned")
            )
            # Wait for the fire-and-forget background tune to land.
            for _ in range(200):
                if len(store):
                    break
                await asyncio.sleep(0.05)
            second = await broker.submit(
                Job(graph=paper_graph, config="tuned")
            )
            return first, second, broker.registry.snapshot()

        first, second, snap = run_broker(
            go, n_workers=2, tuning_store=store,
            tune_on_miss=True, tune_budget=budget,
        )
        assert first.ok and second.ok
        assert list(first.bicliques) == list(second.bicliques)
        assert len(store) == 1
        assert snap["service.tuning.misses"] == 1
        assert snap["service.tuning.started"] == 1
        assert snap["service.tuning.hits"] == 1

    def test_no_background_tune_when_disabled(self, paper_graph, tmp_path):
        from repro.tuning import TunedConfigStore

        store = TunedConfigStore(tmp_path)

        async def go(broker):
            res = await broker.submit(Job(graph=paper_graph, config="tuned"))
            await asyncio.sleep(0.1)
            return res, broker.registry.snapshot()

        res, snap = run_broker(
            go, n_workers=1, tuning_store=store, tune_on_miss=False
        )
        assert res.ok
        assert snap["service.tuning.started"] == 0 and len(store) == 0

    def test_cache_keys_use_resolved_config_not_sentinel(self, paper_graph,
                                                         tmp_path):
        """A re-tune must invalidate cache entries made under the old
        resolution: keys come from the resolved config's signature."""
        from repro.tuning import TunedConfigStore

        store = TunedConfigStore(tmp_path)

        async def go(broker):
            # Miss: resolves to the base config and caches under it.
            first = await broker.submit(
                Job(graph=paper_graph, config="tuned")
            )
            # A tune lands (different winning config than the base).
            store.put(self._tuned_entry(
                paper_graph, GMBEConfig(bound_height=4, warps_per_sm=8)
            ))
            # Same sentinel job again: were the key built from the
            # literal "tuned" string this would be a (stale) cache hit.
            second = await broker.submit(
                Job(graph=paper_graph, config="tuned")
            )
            # The base-config key is still warm for non-tuned jobs.
            third = await broker.submit(Job(graph=paper_graph))
            return first, second, third

        first, second, third = run_broker(
            go, n_workers=1, tuning_store=store, tune_on_miss=False
        )
        assert first.ok and second.ok and third.ok
        assert not second.cache_hit  # re-tune invalidated the resolution
        assert third.cache_hit  # first's fallback entry, still keyed sanely
        assert list(first.bicliques) == list(second.bicliques)

    def test_corrupt_store_entry_degrades_to_miss(self, paper_graph,
                                                  tmp_path):
        from repro.service.broker import EnumerationBroker as _B
        from repro.tuning import TunedConfigStore, store_key

        store = TunedConfigStore(tmp_path)
        bad = store.path_for(store_key(
            paper_graph.fingerprint, _B._TUNE_DEVICE_KEY
        ))
        import os as _os
        _os.makedirs(tmp_path, exist_ok=True)
        with open(bad, "w") as fh:
            fh.write("{corrupt")

        async def go(broker):
            res = await broker.submit(Job(graph=paper_graph, config="tuned"))
            return res, broker.registry.snapshot()

        res, snap = run_broker(
            go, n_workers=1, tuning_store=store, tune_on_miss=False
        )
        assert res.ok and res.count == 6
        assert snap["service.tuning.misses"] == 1

    def test_client_accepts_store_path(self, paper_graph, tmp_path):
        tuned_cfg = GMBEConfig(bound_height=4)
        from repro.tuning import TunedConfigStore

        TunedConfigStore(tmp_path).put(
            self._tuned_entry(paper_graph, tuned_cfg)
        )
        with ServiceClient(
            n_workers=1, policy=FAST_POLICY,
            tuning_store=str(tmp_path), tune_on_miss=False,
        ) as client:
            res = client.submit(graph=paper_graph, config="tuned")
            assert res.ok and res.count == 6
            assert client.metrics_snapshot()["service.tuning.hits"] == 1


# ----------------------------------------------------------------------
# Graceful degradation: degraded status, shed, circuit breaker
# ----------------------------------------------------------------------
from repro.core import Counters  # noqa: E402
from repro.sharding import (  # noqa: E402
    DegradedShardRun,
    ResumeHandle,
    ShardPlan,
    ShardReport,
)


def _fake_partial(graph, quarantined=(2,)):
    return ShardReport(
        plan=ShardPlan.build(graph, 4), shards=[], bicliques=[],
        counters=Counters(), sim_time=0.0, placement=[],
        quarantined=list(quarantined),
        resume=[ResumeHandle(q, None, 3, "WorkerCrashError: kill -9")
                for q in quarantined],
    )


class TestDegradedJobs:
    GRAPH = random_bipartite(12, 10, 0.3, seed=3)

    @staticmethod
    def _degrading_runner(job, graph, config, shards=1, shard_pool="thread"):
        if shards > 1:
            raise DegradedShardRun(_fake_partial(graph))
        return default_runner(job, graph, config)

    def test_degraded_status_with_inventory_and_no_retry(self):
        async def go(broker):
            res = await broker.submit(Job(graph=self.GRAPH, shards=4))
            # explicit partial: never 'completed', never 'failed'
            assert res.status == JobStatus.DEGRADED
            assert res.partial and not res.ok
            assert res.completed_shards == () and res.quarantined_shards == (2,)
            assert "quarantined" in res.describe()
            # the coordinator already burned the per-shard budget:
            # exactly one broker-level attempt, no retries
            assert res.attempts == 1
            assert _count(broker, "service.jobs.degraded") == 1
            # degraded results are never cached
            res2 = await broker.submit(Job(graph=self.GRAPH, shards=4))
            assert not res2.cache_hit and not res2.coalesced
            return res

        run_broker(go, n_workers=1, runner=self._degrading_runner,
                   shard_pool="process")

    def test_degraded_bicliques_surface_filtered(self, paper_graph):
        full = tuple(enumerate_maximal_bicliques(paper_graph))

        def runner(job, graph, config, shards=1, shard_pool="thread"):
            partial = _fake_partial(graph)
            partial.bicliques = list(full)
            raise DegradedShardRun(partial)

        async def go(broker):
            res = await broker.submit(
                Job(graph=paper_graph, shards=2, min_left=2, min_right=2)
            )
            assert res.status == JobStatus.DEGRADED
            # size filters apply to the partial set exactly as they
            # would to a complete one
            assert all(len(b.left) >= 2 and len(b.right) >= 2
                       for b in res.bicliques)
            assert 0 < res.count < len(full)

        run_broker(go, n_workers=1, runner=runner)

    def test_shard_pool_forwarded_only_when_accepted(self, paper_graph):
        seen = {}

        def runner_with(job, graph, config, shards=1, shard_pool="thread"):
            seen["pool"] = shard_pool
            return []

        async def go(broker):
            await broker.submit(Job(graph=paper_graph, shards=2))

        run_broker(go, n_workers=1, runner=runner_with,
                   shard_pool="process")
        assert seen["pool"] == "process"

        def runner_without(job, graph, config, shards=1):
            seen["pool"] = "not forwarded"
            return []

        run_broker(go, n_workers=1, runner=runner_without,
                   shard_pool="process")
        assert seen["pool"] == "not forwarded"

    def test_broker_validates_degradation_knobs(self):
        with pytest.raises(ValueError, match="shard_pool"):
            EnumerationBroker(shard_pool="fork")
        with pytest.raises(ValueError, match="breaker_threshold"):
            EnumerationBroker(breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_cooldown"):
            EnumerationBroker(breaker_cooldown=0)

    def test_jobs_shed_at_dequeue(self, paper_graph):
        def slow_runner(job, graph, config):
            time.sleep(0.3)
            return []

        async def go(broker):
            f1 = broker.submit_nowait(Job(graph=paper_graph))
            f2 = broker.submit_nowait(
                Job(graph=paper_graph, min_left=2, deadline=0.05)
            )
            r1, r2 = await asyncio.gather(f1, f2)
            assert r2.status == JobStatus.EXPIRED
            assert _count(broker, "service.jobs.shed") == 1
            assert _count(broker, "service.jobs.expired") == 1

        run_broker(go, n_workers=1, runner=slow_runner)


class TestAutoShardCircuitBreaker:
    GRAPH = random_bipartite(12, 10, 0.3, seed=7)

    def test_opens_after_threshold_and_suppresses_auto_sharding(self):
        calls = []

        def runner(job, graph, config, shards=1, shard_pool="thread"):
            calls.append(shards)
            if shards > 1:
                raise DegradedShardRun(_fake_partial(graph))
            return []

        async def go(broker):
            # two consecutive degraded sharded runs trip the breaker
            r1 = await broker.submit(Job(graph=self.GRAPH))
            r2 = await broker.submit(Job(graph=self.GRAPH, min_left=2))
            assert r1.status == r2.status == JobStatus.DEGRADED
            assert _count(broker, "service.shard.breaker_opened") == 1
            # open: the same admission policy no longer volunteers jobs
            # into the dying backend — they run single-node and succeed
            r3 = await broker.submit(Job(graph=self.GRAPH, min_left=3))
            assert r3.status == JobStatus.COMPLETED
            assert _count(broker, "service.shard.auto_suppressed") == 1
            assert calls == [4, 4, 1]
            # explicit shards are the caller's call: still honored
            r4 = await broker.submit(Job(graph=self.GRAPH, shards=2,
                                         min_left=4))
            assert r4.status == JobStatus.DEGRADED

        run_broker(go, n_workers=1, runner=runner,
                   auto_shard_over_edges=1, auto_shard_count=4,
                   breaker_threshold=2, breaker_cooldown=60.0)

    def test_half_open_probe_closes_on_success(self):
        state = {"healthy": False}

        def runner(job, graph, config, shards=1, shard_pool="thread"):
            if shards > 1 and not state["healthy"]:
                raise DegradedShardRun(_fake_partial(graph))
            return []

        async def go(broker):
            r1 = await broker.submit(Job(graph=self.GRAPH))
            assert r1.status == JobStatus.DEGRADED  # threshold=1: open
            assert _count(broker, "service.shard.breaker_opened") == 1
            await asyncio.sleep(0.25)  # past the cooldown -> half-open
            state["healthy"] = True
            r2 = await broker.submit(Job(graph=self.GRAPH, min_left=2))
            assert r2.status == JobStatus.COMPLETED  # the probe, sharded
            assert broker._breaker_open_until is None  # closed again
            r3 = await broker.submit(Job(graph=self.GRAPH, min_left=3))
            assert r3.status == JobStatus.COMPLETED
            assert _count(broker, "service.shard.auto_suppressed") == 0

        run_broker(go, n_workers=1, runner=runner,
                   auto_shard_over_edges=1, auto_shard_count=4,
                   breaker_threshold=1, breaker_cooldown=0.2)

    def test_half_open_probe_reopens_on_failure(self):
        def runner(job, graph, config, shards=1, shard_pool="thread"):
            if shards > 1:
                raise DegradedShardRun(_fake_partial(graph))
            return []

        async def go(broker):
            await broker.submit(Job(graph=self.GRAPH))
            assert _count(broker, "service.shard.breaker_opened") == 1
            await asyncio.sleep(0.25)
            r = await broker.submit(Job(graph=self.GRAPH, min_left=2))
            assert r.status == JobStatus.DEGRADED  # the probe failed
            assert _count(broker, "service.shard.breaker_opened") == 2  # re-opened
            r2 = await broker.submit(Job(graph=self.GRAPH, min_left=3))
            assert r2.status == JobStatus.COMPLETED  # suppressed again
            assert _count(broker, "service.shard.auto_suppressed") == 1

        run_broker(go, n_workers=1, runner=runner,
                   auto_shard_over_edges=1, auto_shard_count=4,
                   breaker_threshold=1, breaker_cooldown=0.2)


class TestBackoffDeadlineClamp:
    def test_backoff_never_sleeps_past_the_deadline(self):
        async def failing():
            raise Boom("nope")

        async def go():
            loop = asyncio.get_running_loop()
            policy = ResiliencePolicy(
                timeout=None, max_attempts=5,
                backoff_base=10.0, backoff_max=10.0, backoff_jitter=0.0,
            )
            t0 = loop.time()
            outcome = await execute_with_retry(
                lambda: failing(), policy, deadline=loop.time() + 0.3
            )
            return outcome, loop.time() - t0

        outcome, dt = asyncio.run(go())
        # unclamped, the first retry alone would sleep 10s
        assert dt < 2.0
        assert outcome.status == "timeout"
        assert outcome.attempts >= 1

    def test_policy_non_retryable_beats_retryable(self):
        calls = {"n": 0}

        async def attempt():
            calls["n"] += 1
            raise Boom("terminal this time")

        async def go():
            policy = ResiliencePolicy(
                max_attempts=3, backoff_base=0,
                retryable=(Exception,), non_retryable=(Boom,),
            )
            return await execute_with_retry(lambda: attempt(), policy)

        outcome = asyncio.run(go())
        assert outcome.status == "failed" and calls["n"] == 1
        assert isinstance(outcome.exception, Boom)
