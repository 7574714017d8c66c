"""Cross-process telemetry: capture, re-parenting, and the flight recorder.

The contract under test (docs/observability.md "Cross-process
telemetry"): a process-pool shard run with telemetry attached must
yield the *same* correlation surface as a thread-pool one — one
``trace_id``, one ``job_id``, worker ``sim.kernel`` spans grafted under
the coordinator's per-attempt ``shard.run``/``shard.retry`` spans, and
worker registries folded deterministically into the parent.  And when a
run degrades, the flight recorder must preserve the dead worker's last
heartbeat-flushed records — the black box a postmortem actually needs.

Process-spawning tests are marked ``slow`` like the rest of the
supervision suite; the picklable-shape and merge-determinism tests run
everywhere.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.gmbe import GMBEConfig
from repro.graph import BipartiteGraph, random_bipartite
from repro.parallel import ProcessWorkerPool, SupervisorPolicy
from repro.service import ServiceClient
from repro.sharding import DegradedShardRun, ShardCoordinator
from repro.telemetry import (
    FlightRecorder,
    MetricsRegistry,
    RingSink,
    Telemetry,
    TelemetrySnapshot,
    TraceContext,
    WorkerTelemetry,
    format_flight_record,
    load_flight_record,
    reparent_records,
    write_flight_record,
)

#: split-friendly bounds so worker traces carry real task traffic
CFG = GMBEConfig(bound_height=4, bound_size=32)


def small_graph() -> BipartiteGraph:
    edges = [(u, v) for u in range(12) for v in range(10) if (u + v) % 3 != 0]
    return BipartiteGraph.from_edges(12, 10, edges)


# ----------------------------------------------------------------------
# Picklable shapes
# ----------------------------------------------------------------------
class TestPicklableShapes:
    def test_trace_context_pickle_roundtrip(self):
        ctx = TraceContext(trace_id="t-1", parent_span_id="s-1", job_id=7)
        out = pickle.loads(pickle.dumps(ctx))
        assert out == ctx
        assert (out.trace_id, out.parent_span_id, out.job_id) == (
            "t-1", "s-1", 7
        )

    def test_snapshot_pickle_roundtrip(self):
        snap = TelemetrySnapshot(
            pid=1234, shard_id=2, attempt=3, seq=5, final=True,
            records=[{"type": "event", "name": "x"}],
            metrics={"a": {"kind": "counter", "data": 1}},
            dropped=4,
        )
        out = pickle.loads(pickle.dumps(snap))
        assert out.to_dict() == snap.to_dict()

    def test_worker_flush_is_incremental_and_reparentable(self):
        ctx = TraceContext(trace_id="trace-X", parent_span_id="parent-X",
                           job_id=42)
        worker = WorkerTelemetry(ctx, shard_id=1, attempt=2, capacity=64)
        with worker.telemetry.tracer.span("sim.kernel", shard=1):
            worker.telemetry.tracer.event("shard.worker_start", shard=1)
        first = worker.flush()
        assert first.records, "flush drained nothing"
        assert worker.flush(final=True).final is True
        # incremental: the second flush must not replay the first
        names = [r["name"] for r in first.records]
        assert "sim.kernel" in names and "shard.worker_start" in names

        rp = reparent_records(
            first.records, trace_id="trace-X", parent_span_id="parent-X",
            job_id=42, prefix="s1a2:",
        )
        for rec in rp:
            assert rec["trace_id"] == "trace-X"
            assert rec["job_id"] == 42
        roots = [r for r in rp if r.get("type") == "span"
                 and r["parent_id"] == "parent-X"]
        assert roots, "no worker root span grafted under the parent span"
        assert all(r["span_id"].startswith("s1a2:") for r in rp
                   if r.get("type") == "span")


# ----------------------------------------------------------------------
# Deterministic registry folding
# ----------------------------------------------------------------------
class TestMergeDeterminism:
    @staticmethod
    def _dump(counter: int, gauge: float, hist_samples) -> dict:
        reg = MetricsRegistry()
        reg.counter("sim.tasks.executed").add(counter)
        reg.gauge("sim.makespan_cycles").set(gauge)
        h = reg.histogram("shard.owned_roots")
        for s in hist_samples:
            h.record(s)
        return reg.dump()

    def test_fold_order_independent_after_sort(self):
        """The coordinator sorts snapshots by (shard, attempt) before
        folding — so whichever worker finished first, the fold sees the
        same sequence and lands the same registry."""
        keyed = {
            (0, 1): self._dump(10, 100.0, [1, 2]),
            (1, 1): self._dump(20, 200.0, [3]),
            (1, 2): self._dump(5, 50.0, [4, 5, 6]),
        }
        arrival_a = [(1, 2), (0, 1), (1, 1)]
        arrival_b = [(1, 1), (1, 2), (0, 1)]
        snaps = []
        for arrival in (arrival_a, arrival_b):
            reg = MetricsRegistry()
            for key in sorted(arrival):
                reg.merge(keyed[key])
            snaps.append(reg.snapshot())
        assert snaps[0] == snaps[1]
        assert snaps[0]["sim.tasks.executed"] == 35  # counters add
        assert snaps[0]["sim.makespan_cycles"] == 50.0  # gauge: last write

    def test_merge_is_exact_for_counters_and_histograms(self):
        reg = MetricsRegistry()
        for _ in range(2):
            reg.merge(self._dump(3, 1.0, [10, 20]))
        snap = reg.snapshot()
        assert snap["sim.tasks.executed"] == 6
        assert snap["shard.owned_roots"]["count"] == 4


# ----------------------------------------------------------------------
# Ring sink accounting + # HELP exposition
# ----------------------------------------------------------------------
class TestSinkAndExposition:
    def test_ring_drop_counting(self):
        ring = RingSink(capacity=4)
        for i in range(10):
            ring.emit({"type": "event", "name": f"e{i}"})
        assert ring.emitted == 10
        assert ring.dropped == 6
        assert len(ring) == 4
        assert [r["name"] for r in ring.records()] == ["e6", "e7", "e8", "e9"]
        drained = ring.drain()
        assert len(drained) == 4 and len(ring) == 0

    def test_ring_dropped_surfaces_as_gauge(self):
        ring = RingSink(capacity=2)
        tel = Telemetry(sinks=[ring])
        with tel.tracer.span("a"):
            for _ in range(5):
                tel.tracer.event("e")
        assert tel.snapshot()["metrics"]["telemetry.ring.dropped"] > 0

    def test_prometheus_help_lines(self):
        reg = MetricsRegistry()
        reg.counter(
            "supervisor.worker_deaths",
            description="workers that died and were respawned",
        ).add(2)
        text = reg.to_prometheus_text()
        assert "# HELP supervisor_worker_deaths" in text
        assert "# TYPE supervisor_worker_deaths counter" in text

    def test_service_metrics_carry_descriptions(self):
        from repro.service.broker import (
            _SERVICE_DESCRIPTIONS,
            _register_service_metrics,
        )

        reg = MetricsRegistry()
        _register_service_metrics(reg)
        text = reg.to_prometheus_text()
        assert "# HELP service_jobs_submitted" in text
        # every described service name that registered got its HELP line
        for name in ("service.jobs.completed", "service.latency_ms"):
            assert name in _SERVICE_DESCRIPTIONS


# ----------------------------------------------------------------------
# Flight record shape
# ----------------------------------------------------------------------
class TestFlightRecord:
    def test_build_write_load_format_roundtrip(self, tmp_path):
        rec = FlightRecorder(job_id=9, trace_id="t-9")
        rec.note_attempt(0, 1, status="ok", pid=111)
        rec.note_attempt(1, 1, status="error", error="boom", pid=222)
        rec.note_pool_event("worker_death", {"worker_id": 1, "pid": 222})
        rec.add_snapshot(
            TelemetrySnapshot(pid=222, shard_id=1, attempt=1, seq=0,
                              records=[{"type": "event",
                                        "name": "shard.worker_start"}]),
        )
        flight = rec.build("quarantine", quarantined=[1])
        assert flight["reason"] == "quarantine"
        assert flight["job_id"] == 9
        assert flight["attempts"]["1"][0]["status"] == "error"
        assert flight["workers"]["s1a1"]["flushes"] == 1
        assert flight["quarantined"] == [1]

        path = write_flight_record(str(tmp_path), flight)
        loaded = load_flight_record(path)
        assert loaded == json.loads(json.dumps(flight))  # JSON-clean
        text = format_flight_record(loaded)
        assert "quarantine" in text and "shard.worker_start" in text


# ----------------------------------------------------------------------
# Real process pool: one merged trace
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestProcessPoolTraceCorrelation:
    def test_worker_spans_reparented_under_one_trace(self):
        ring = RingSink(capacity=4096)
        tel = Telemetry(sinks=[ring])
        tel.tracer.default_job_id = 7  # what the broker stamps per job
        report = ShardCoordinator(
            small_graph(), 2, config=CFG, pool="process", telemetry=tel
        ).run()
        assert report.is_partial is False

        records = ring.records()
        spans = [r for r in records if r.get("type") == "span"]
        events = [r for r in records if r.get("type") == "event"]

        # one trace, one job — across the process boundary
        trace_ids = {r["trace_id"] for r in records if r.get("trace_id")}
        assert len(trace_ids) == 1
        assert {r["job_id"] for r in records} == {7}

        runs = {s["span_id"]: s for s in spans if s["name"] == "shard.run"}
        kernels = [s for s in spans if s["name"] == "sim.kernel"]
        assert len(runs) == 2 and len(kernels) == 2
        assert all(k["parent_id"] in runs for k in kernels), (
            "worker sim.kernel spans were not grafted under shard.run"
        )
        job_spans = [s for s in spans if s["name"] == "shard.job"]
        assert len(job_spans) == 1
        assert all(r["parent_id"] == job_spans[0]["span_id"]
                   for r in runs.values())

        starts = [e for e in events if e["name"] == "shard.worker_start"]
        assert {e["attrs"]["shard"] for e in starts} == {0, 1}
        assert all(e["trace_id"] == job_spans[0]["trace_id"] for e in starts)

        # worker registries folded into the parent
        metrics = tel.snapshot()["metrics"]
        assert metrics["shard.runs"] == 2
        assert metrics["sim.tasks.executed"] > 0
        assert metrics.get("telemetry.worker.dropped", 0) == 0

    def test_telemetry_does_not_change_the_answer(self):
        g = small_graph()
        plain = ShardCoordinator(g, 2, config=CFG, pool="process").run()
        traced = ShardCoordinator(
            g, 2, config=CFG, pool="process",
            telemetry=Telemetry(sinks=[RingSink()]),
        ).run()
        assert traced.bicliques == plain.bicliques


# ----------------------------------------------------------------------
# Chaos: the dead worker's last flush survives in the flight record
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestFlightRecorderUnderChaos:
    def test_partial_flush_lands_in_flight_record(self, tmp_path):
        """Shard 1's worker is SIGKILLed mid-enumeration on every
        attempt, well past several heartbeat intervals: the flight
        record must hold the records it flushed before dying, and the
        parent trace must show its attempts as error spans."""
        graph = random_bipartite(80, 64, 0.22, seed=7)
        ring = RingSink(capacity=8192)
        tel = Telemetry(sinks=[ring])
        pool = ProcessWorkerPool(
            2,
            policy=SupervisorPolicy(
                heartbeat_interval=0.05, heartbeat_timeout=10.0
            ),
        )
        try:
            partial = ShardCoordinator(
                graph, 2, config=CFG, pool=pool, telemetry=tel,
                chaos_kills={1: (99, 0.2)}, max_shard_attempts=2,
                flight_dir=str(tmp_path),
            ).run()
        finally:
            pool.shutdown()
        assert partial.is_partial is True
        assert partial.quarantined == [1]

        path = partial.extras["flight_path"]
        flight = load_flight_record(path)
        assert flight["reason"] == "quarantine"
        assert [a["status"] for a in flight["attempts"]["1"]] == [
            "error", "error"
        ]

        # the black box: both killed attempts left heartbeat flushes
        for key in ("s1a1", "s1a2"):
            entry = flight["workers"][key]
            assert entry["flushes"] >= 1, f"{key}: no flush before SIGKILL"
            assert entry["final_flush_seen"] is False
            names = [r["name"] for r in entry["records"]]
            assert "shard.worker_start" in names, (
                f"{key}: start event missing from flushed records"
            )
            assert isinstance(entry["pid"], int)
        # the surviving shard flushed its final snapshot normally
        assert flight["workers"]["s0a1"]["final_flush_seen"] is True

        # the dead attempts' records were also re-parented into the
        # live trace (metrics stay out — only final dumps merge)
        starts = [r for r in ring.records()
                  if r.get("type") == "event"
                  and r["name"] == "shard.worker_start"]
        assert {(e["attrs"]["shard"], e["attrs"]["attempt"])
                for e in starts} >= {(0, 1), (1, 1), (1, 2)}
        errors = [r for r in ring.records() if r.get("type") == "span"
                  and r["name"] in ("shard.run", "shard.retry")
                  and r.get("status") == "error"]
        assert len(errors) == 2

        assert "span_tree" in flight
        text = format_flight_record(flight)
        assert "quarantine" in text


# ----------------------------------------------------------------------
# Broker: degraded jobs write a flight record, health() answers
# ----------------------------------------------------------------------
def _chaos_shard_runner(job, graph, config, shards=1, shard_pool="thread",
                        checkpoint_path=None):
    """Service runner whose shard 1 dies past its retry budget."""
    res = ShardCoordinator(
        graph, 2, pool="process", config=CFG,
        chaos_kills={1: (99, 0.0)}, max_shard_attempts=2,
    ).run()
    if res.is_partial:
        raise DegradedShardRun(res)
    return res.bicliques


@pytest.mark.slow
class TestBrokerFlightAndHealth:
    def test_degraded_job_writes_flight_and_health_reports(self, tmp_path):
        client = ServiceClient(
            n_workers=1, telemetry=Telemetry(sinks=[RingSink()]),
            runner=_chaos_shard_runner, shard_pool="process",
            flight_dir=str(tmp_path),
        )
        try:
            res = client.submit(
                graph=small_graph(), algorithm="gmbe", shards=2
            )
            assert res.status == "degraded"
            health = client.health()
        finally:
            client.close()

        assert health["jobs"]["degraded"] == 1
        assert health["breaker"]["state"] in ("closed", "open", "half-open")
        assert health["queue"]["capacity"] > 0
        # the degraded run's pool stats surface per-worker liveness
        assert "workers" in health["shard_pool"]

        files = sorted(tmp_path.glob("flight-*.json"))
        assert len(files) == 1
        rec = load_flight_record(files[0])
        assert rec["reason"] == "degraded"
        assert rec["job_id"] is not None
        assert rec["breaker_opened_now"] is False
        assert sorted(rec["health"]["jobs"]) == [
            "completed", "degraded", "failed", "in_flight", "submitted"
        ]
