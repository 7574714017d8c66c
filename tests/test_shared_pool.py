"""The process-wide warm shard pool (DESIGN.md §12, "Pool lifetime").

A ``shard_pool="process"`` call without private-pool options leases one
shared :class:`~repro.parallel.ProcessWorkerPool` instead of spawning
its own.  These tests pin the lease rules: warm reuse, the private-pool
fallback for a concurrent caller, replacement of a broken pool,
per-call supervision stats, and the idle shutdown that lets a host
process join its children and exit.
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
import repro.sharding.coordinator as coordinator
from repro import enumerate_maximal_bicliques
from repro.core import reference_mbe
from repro.graph import random_bipartite

pytestmark = pytest.mark.slow

SHARDED = {"shards": 2, "shard_pool": "process"}


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(10, 9, 0.4, seed=3)


@pytest.fixture(scope="module")
def expected(graph):
    return reference_mbe(graph)


@pytest.fixture(autouse=True)
def cold_pool(monkeypatch):
    """Start and end every test without a shared pool; the idle timer
    is stretched so a slow machine cannot expire the pool mid-test."""
    monkeypatch.setattr(coordinator, "_SHARED_POOL_IDLE_S", 60.0)
    coordinator._SHARED_POOL.close()
    yield
    coordinator._SHARED_POOL.close()


@pytest.fixture
def reports(monkeypatch):
    """Every ShardReport the API's coordinators return, in call order."""
    seen = []
    run = coordinator.ShardCoordinator.run

    def tap(self):
        report = run(self)
        seen.append(report)
        return report

    monkeypatch.setattr(coordinator.ShardCoordinator, "run", tap)
    return seen


def _pids(stats) -> set:
    return {w["pid"] for w in stats["workers"].values()}


def test_consecutive_calls_reuse_warm_workers(graph, expected, reports):
    for _ in range(2):
        assert set(enumerate_maximal_bicliques(graph, **SHARDED)) == expected
    first, second = (r.extras["pool_stats"] for r in reports)
    assert _pids(first) == _pids(second)
    assert first["spawned"] == len(first["workers"])
    assert second["spawned"] == 0


def test_concurrent_calls_lease_one_at_a_time(graph, expected, monkeypatch):
    """More callers than cores: each gets the shared pool or, while it
    is leased, a private one; never two holders at once."""
    shared = coordinator._SHARED_POOL
    lock = threading.Lock()
    holders, peak = [0], [0]
    acquire, release = shared.acquire, shared.release

    def counted_acquire(*args, **kwargs):
        lease = acquire(*args, **kwargs)
        if lease is not None:
            with lock:
                holders[0] += 1
                peak[0] = max(peak[0], holders[0])
        return lease

    def counted_release():
        with lock:
            holders[0] -= 1
        release()

    monkeypatch.setattr(shared, "acquire", counted_acquire)
    monkeypatch.setattr(shared, "release", counted_release)
    outs = [None] * 3

    def call(k):
        outs[k] = enumerate_maximal_bicliques(graph, **SHARDED)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in (0, 1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [set(out) for out in outs] == [expected] * 3
    assert peak == [1] and holders == [0]


def test_broken_pool_is_replaced(graph, expected):
    enumerate_maximal_bicliques(graph, **SHARDED)
    pool = coordinator._SHARED_POOL._pool
    deadline = time.monotonic() + 60
    while not pool.broken:  # kill every respawn until the budget is spent
        assert time.monotonic() < deadline, "pool never broke"
        for pid in pool.worker_pids().values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)
    assert set(enumerate_maximal_bicliques(graph, **SHARDED)) == expected
    replacement = coordinator._SHARED_POOL._pool
    assert replacement is not pool and not replacement.broken


def test_worker_death_is_reported_by_its_own_call_only(graph, reports):
    big = random_bipartite(120, 90, 0.2, seed=5)
    want = enumerate_maximal_bicliques(big)
    enumerate_maximal_bicliques(graph, **SHARDED)  # warm the pool
    pool = coordinator._SHARED_POOL._pool
    box = {}
    call = threading.Thread(
        target=lambda: box.update(
            out=enumerate_maximal_bicliques(big, **SHARDED)
        )
    )
    call.start()
    deadline = time.monotonic() + 60
    while not pool.running_labels():
        assert time.monotonic() < deadline, "no shard ever started"
        time.sleep(0.001)
    busy = next(iter(pool.running_labels()))
    os.kill(pool.worker_pids()[busy], signal.SIGKILL)
    call.join(timeout=120)
    assert box["out"] == want  # the killed shard was retried
    assert reports[-1].extras["pool_stats"]["deaths"] == 1
    enumerate_maximal_bicliques(graph, **SHARDED)
    assert reports[-1].extras["pool_stats"]["deaths"] == 0


def test_host_exits_after_joining_children(tmp_path):
    """The exit sequence of a benchmark host: join every child, then
    stop the resource tracker.  Live workers hold the tracker's pipe,
    so this hangs unless the idle pool shuts itself down."""
    script = tmp_path / "sharded_then_exit.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing
        from multiprocessing import resource_tracker

        from repro import enumerate_maximal_bicliques
        from repro.graph import random_bipartite

        if __name__ == "__main__":
            graph = random_bipartite(10, 9, 0.4, seed=3)
            enumerate_maximal_bicliques(graph, shards=2, shard_pool="process")
            for child in multiprocessing.active_children():
                child.join(timeout=10)
            tracker = resource_tracker._resource_tracker
            if getattr(tracker, "_pid", None) is not None:
                tracker._stop()
    """))
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
