"""Tests for the unified telemetry layer (`repro.telemetry`).

Covers the metrics registry and its exporters, span tracing with
context propagation, the pluggable sinks, kernel phase attribution —
and the acceptance story: one broker job with injected faults whose
spans, scheduler tasks, fault events, and cache/retry records all share
the same ``job_id``.
"""

import asyncio
import json
import re

import pytest

from repro.core import BicliqueCollector
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.gpusim.faults import FaultPlan
from repro.graph import random_bipartite
from repro.service import (
    EnumerationBroker,
    ResiliencePolicy,
    ServiceClient,
)
from repro.telemetry import (
    CallbackSink,
    Counter,
    Gauge,
    Histogram,
    JSONLSink,
    MetricsRegistry,
    NULL_TRACER,
    RingSink,
    Telemetry,
    Tracer,
    current_span,
    current_telemetry,
    use_telemetry,
)

FAST_POLICY = ResiliencePolicy(
    timeout=30.0, max_attempts=3, backoff_base=0.001, backoff_jitter=0.0
)


# ----------------------------------------------------------------------
# Instruments and registry
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter(self):
        c = Counter("a.b")
        c.add(1)
        c.add(4)
        assert c.value == 5 and c.snapshot() == 5
        c.reset()
        assert c.value == 0

    def test_gauge(self):
        g = Gauge("a.b")
        g.set(7.5)
        assert g.snapshot() == 7.5

    def test_histogram_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(v)
        assert h.count == 100 and h.max == 100
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        snap = h.snapshot()
        assert snap["p99"] == 99 and snap["mean"] == pytest.approx(50.5)

    def test_histogram_window_bounds_memory(self):
        h = Histogram(window=10)
        for v in range(1000):
            h.record(v)
        # lifetime stats cover everything; percentiles only the window
        assert h.count == 1000
        assert h.percentile(0) == 990

    def test_histogram_rejects_bad_args(self):
        with pytest.raises(ValueError):
            Histogram(window=0)
        with pytest.raises(ValueError):
            Histogram().percentile(101)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert "a.b" in reg and len(reg) == 1

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a.b")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "A.b", "a..b", "a.b-", "1a", "a.B"):
            with pytest.raises(ValueError, match="invalid metric name"):
                reg.counter(bad)

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("jobs.done").add(3)
        reg.histogram("lat").record(10.0)
        snap = reg.snapshot()
        assert snap["jobs.done"] == 3 and snap["lat"]["count"] == 1
        json.dumps(snap)  # JSON-serializable
        reg.reset()
        assert reg.snapshot()["jobs.done"] == 0

    def test_prometheus_text_parses(self):
        reg = MetricsRegistry()
        reg.counter("service.jobs.submitted").add(2)
        reg.gauge("service.queue.size").set(1)
        reg.histogram("service.latency_ms").record(3.5)
        text = reg.to_prometheus_text()
        assert text.endswith("\n")
        name_re = re.compile(r'^[a-z_][a-z0-9_]*(\{quantile="[0-9.]+"\})?$')
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# TYPE [a-z_][a-z0-9_]* "
                                r"(counter|gauge|summary)$", line)
            else:
                name, value = line.rsplit(" ", 1)
                float(value)  # parses
                assert name_re.match(name), name
        assert "service_jobs_submitted 2" in text
        assert 'service_latency_ms{quantile="0.5"} 3.5' in text
        assert "service_latency_ms_count 1" in text


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_inheritance(self):
        ring = RingSink()
        tracer = Tracer([ring])
        with tracer.span("outer", job_id=9) as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
                assert inner.job_id == 9
        assert current_span() is None
        inner_rec, outer_rec = ring.records()
        assert inner_rec["name"] == "inner"  # children finish first
        assert outer_rec["duration_s"] >= inner_rec["duration_s"]

    def test_error_marks_span(self):
        ring = RingSink()
        tracer = Tracer([ring])
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        rec = ring.spans("boom")[0]
        assert rec["status"] == "error" and "nope" in rec["error"]

    def test_event_correlates_with_current_span(self):
        ring = RingSink()
        tracer = Tracer([ring])
        with tracer.span("work", job_id=3) as span:
            tracer.event("thing.happened", detail=1)
        ev = ring.events("thing.happened")[0]
        assert ev["span_id"] == span.span_id
        assert ev["job_id"] == 3 and ev["attrs"]["detail"] == 1

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.is_enabled is False
        cm1 = NULL_TRACER.span("anything", job_id=1, foo=2)
        cm2 = NULL_TRACER.span("else")
        assert cm1 is cm2  # one shared no-op object, no allocation
        with cm1 as span:
            span.set_attr("ignored", True)
            assert span.span_id is None
        NULL_TRACER.event("ignored")

    def test_span_counts_tally(self):
        tracer = Tracer([])
        for _ in range(3):
            with tracer.span("x"):
                pass
        assert tracer.span_counts["x"] == 3


class TestSinks:
    def test_ring_capacity(self):
        ring = RingSink(capacity=2)
        for i in range(5):
            ring.emit({"type": "event", "name": str(i)})
        assert ring.emitted == 5 and len(ring) == 2
        assert [r["name"] for r in ring.records()] == ["3", "4"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JSONLSink(path)
        sink.emit({"type": "span", "name": "a"})
        assert not path.exists()  # buffered until flush
        sink.flush()
        sink.emit({"type": "span", "name": "b"})
        sink.close()
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["a", "b"] and sink.written == 2

    def test_callback_sink_swallows_errors(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit({"ok": 1})
        bad = CallbackSink(lambda r: 1 / 0)
        bad.emit({"ok": 1})
        assert seen == [{"ok": 1}] and bad.errors == 1


class TestTelemetryFacade:
    def test_defaults_and_snapshot(self):
        t = Telemetry()
        assert t.enabled and t.ring is not None
        with t.tracer.span("s"):
            pass
        snap = t.snapshot()
        assert snap["enabled"] and len(snap["records"]) == 1
        json.dumps(snap)

    def test_disabled_uses_null_tracer(self):
        t = Telemetry(enabled=False)
        assert t.tracer is NULL_TRACER and t.ring is None
        assert t.snapshot() == {"enabled": False, "metrics": {}, "records": []}

    def test_ambient_propagation(self):
        t = Telemetry()
        assert current_telemetry() is None
        with use_telemetry(t):
            assert current_telemetry() is t
        assert current_telemetry() is None


# ----------------------------------------------------------------------
# Kernel phase attribution
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_graph():
    return random_bipartite(40, 40, 0.15, seed=1)


SPLITTY = GMBEConfig(scheduling="task", bound_height=2, bound_size=4)


class TestKernelTelemetry:
    def test_phase_counters_and_span(self, small_graph):
        t = Telemetry()
        res = gmbe_gpu(small_graph, config=SPLITTY, telemetry=t)
        reg = t.registry
        phases = {
            n: reg.get(n).value for n in reg.names()
            if n.startswith("sim.phase.")
        }
        assert phases["sim.phase.set_op_cycles"] > 0
        assert phases["sim.phase.queue_acquire_cycles"] > 0
        assert phases["sim.phase.split_cycles"] > 0
        assert reg.get("sim.tasks.executed").value == (
            res.extras["report"].tasks_executed
        )
        assert reg.get("sim.queue.device_depth").count > 0
        span = t.ring.spans("sim.kernel")[0]
        assert span["attrs"]["tasks_executed"] > 0
        assert span["status"] == "ok"

    def test_disabled_telemetry_is_noop(self, small_graph):
        t = Telemetry(enabled=False)
        res = gmbe_gpu(small_graph, telemetry=t)
        assert res.extras["report"].phase_cycles is None
        assert t.registry.snapshot() == {}

    def test_no_telemetry_collects_nothing(self, small_graph):
        res = gmbe_gpu(small_graph)
        report = res.extras["report"]
        assert report.phase_cycles is None
        assert report.queue_depth_samples == []
        assert report.split_events == []

    def test_ambient_discovery(self, small_graph):
        t = Telemetry()
        with use_telemetry(t):
            gmbe_gpu(small_graph)
        assert t.ring.spans("sim.kernel")

    def test_results_identical_with_and_without(self, small_graph):
        base = gmbe_gpu(small_graph, config=SPLITTY)
        traced = gmbe_gpu(small_graph, config=SPLITTY, telemetry=Telemetry())
        assert traced.n_maximal == base.n_maximal
        assert traced.sim_time == base.sim_time

    def test_fault_events_carry_kernel_span(self, small_graph):
        t = Telemetry()
        plan = FaultPlan(
            seed=3, p_warp_hang=0.03, p_queue_drop=0.05, max_faults=10
        )
        res = gmbe_gpu(small_graph, config=SPLITTY, fault_plan=plan,
                       telemetry=t)
        log = res.extras["fault_log"]
        assert len(log) > 0
        span = t.ring.spans("sim.kernel")[0]
        for ev in log.events:
            assert ev.span_id == span["span_id"]
        fault_events = [
            e for e in t.ring.events() if e["name"].startswith("fault.")
        ]
        assert len(fault_events) == len(log)
        for ev in fault_events:
            assert ev["span_id"] == span["span_id"]


# ----------------------------------------------------------------------
# Service integration: the correlated story
# ----------------------------------------------------------------------
def run_broker(coro_fn, **broker_kwargs):
    broker_kwargs.setdefault("policy", FAST_POLICY)

    async def go():
        broker = EnumerationBroker(**broker_kwargs)
        await broker.start()
        try:
            return await coro_fn(broker)
        finally:
            await broker.stop()

    return asyncio.run(go())


def faulty_gmbe_runner(job, graph, config):
    """Real GMBE enumeration with deterministic fault injection."""
    collector = BicliqueCollector()
    plan = FaultPlan(
        seed=7, p_warp_hang=0.03, p_queue_drop=0.08, max_faults=8
    )
    gmbe_gpu(graph, collector, config=SPLITTY, fault_plan=plan)
    out = list(collector.bicliques)
    out.sort()
    return out


class TestServiceTelemetry:
    def test_correlated_story(self, small_graph):
        """One faulty broker job: every span, scheduler task, fault
        event, and retry attempt shares the job's correlation id."""
        telemetry = Telemetry()

        async def go(broker):
            from repro.service import Job

            return await broker.submit(
                Job(graph=small_graph, algorithm="gmbe")
            )

        result = run_broker(
            go, n_workers=1, runner=faulty_gmbe_runner, telemetry=telemetry
        )
        assert result.ok
        job_id = result.job_id

        ring = telemetry.ring
        dispatch = ring.spans("broker.dispatch")[0]
        lookup = ring.spans("cache.lookup")[0]
        attempt = ring.spans("retry.attempt")[0]
        kernel = ring.spans("sim.kernel")[0]

        # one trace, one job id, parent-child chain across the thread hop
        assert dispatch["job_id"] == job_id
        assert lookup["job_id"] == job_id
        assert attempt["job_id"] == job_id
        assert kernel["job_id"] == job_id
        assert attempt["parent_id"] == dispatch["span_id"]
        assert kernel["parent_id"] == attempt["span_id"]
        assert kernel["trace_id"] == dispatch["trace_id"]

        # fault + requeue + split events correlate to the kernel span
        events = ring.events()
        fault_events = [e for e in events if e["name"].startswith("fault.")]
        assert fault_events, "the fault plan fired nothing"
        assert any(e["name"] == "fault.requeue" for e in events)
        for ev in fault_events:
            assert ev["job_id"] == job_id
            assert ev["span_id"] == kernel["span_id"]

        # service + sim metrics share one registry; prometheus parses
        reg = telemetry.registry
        assert reg.get("service.jobs.completed").value == 1
        assert reg.get("sim.tasks.executed").value > 0
        assert reg.get("sim.faults.total").value == len(fault_events)
        text = reg.to_prometheus_text()
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])

    def test_client_telemetry_snapshot(self):
        import numpy as np

        matrix = np.array([[1, 1], [1, 1]], dtype=np.int8)
        telemetry = Telemetry()
        with ServiceClient(
            n_workers=1, policy=FAST_POLICY, telemetry=telemetry
        ) as client:
            client.submit(graph=matrix, algorithm="gmbe-host")
            snap = client.telemetry_snapshot()
        assert snap["enabled"]
        assert snap["metrics"]["service.jobs.completed"] == 1
        assert any(r["name"] == "broker.dispatch" for r in snap["records"])
        json.dumps(snap)

    def test_client_snapshot_without_telemetry(self):
        import numpy as np

        matrix = np.array([[1, 1], [1, 1]], dtype=np.int8)
        with ServiceClient(n_workers=1, policy=FAST_POLICY) as client:
            client.submit(graph=matrix, algorithm="gmbe-host")
            snap = client.telemetry_snapshot()
        assert snap["enabled"] is False and snap["records"] == []
        assert snap["metrics"]["service.jobs.completed"] == 1

    def test_broker_flusher_writes_jsonl(self, tmp_path, small_graph):
        path = tmp_path / "spans.jsonl"
        telemetry = Telemetry(sinks=[RingSink(), JSONLSink(path)])

        async def go(broker):
            from repro.service import Job

            return await broker.submit(
                Job(graph=small_graph, algorithm="gmbe-host")
            )

        result = run_broker(go, n_workers=1, telemetry=telemetry)
        assert result.ok
        # broker.stop() forces a final flush
        names = {
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
        }
        assert "broker.dispatch" in names

    def test_rejects_bad_flush_interval(self):
        with pytest.raises(ValueError):
            EnumerationBroker(
                telemetry=Telemetry(), telemetry_flush_interval=0
            )
