"""Metric names, units and their derivation from one :class:`Run`.

Per-layer ``*_s`` and ``*_calls`` metrics are means per enumeration
request (an API call, or a cold service job) and use *self* time: a
span's duration minus its child spans.  The ``store.decode_s``,
``store.page_s``, ``streaming.snapshot_s`` and ``service.cache_*_s``
metrics are means per call instead.  Simulated GPU cycles keep their
own unit and are never added to host seconds.

Host times are reported in *reference seconds*: each timed sample is
divided by the speed factor measured around it (see
``Run.to_reference_seconds``), which takes out the machine's own drift
(shared vCPUs here swing by a quarter from one request to the next).
Set-up and per-layer times use the run's median factor, printed.
"""

from __future__ import annotations

import statistics

#: name -> unit; the result metrics with --trace 0 (tracing off)
END_TO_END = {
    "setup_s": "s",
    "enum_s_p50": "s",
    "bicliques_per_s": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: name -> unit; the result metrics with --trace 1 (0 where not run)
PER_LAYER = {
    "core.batch_s": "s",
    "core.batch_calls": "count",
    "core.batch_tasks": "count",
    "gmbe.seq_task_s": "s",
    "gmbe.seq_task_calls": "count",
    "core.root_build_s": "s",
    "core.root_build_calls": "count",
    "core.split_expand_s": "s",
    "core.emit_s": "s",
    "core.emit_calls": "count",
    "graph.prepare_s": "s",
    "gpusim.sched_self_s": "s",
    "gpusim.makespan_cycles": "cycles",
    "gpusim.tasks_executed": "tasks",
    "gmbe.kernel_self_s": "s",
    "api.post_s": "s",
    "store.encode_s": "s",
    "store.encoded_bytes": "bytes",
    "store.decode_s": "s",
    "store.page_s": "s",
    "streaming.snapshot_s": "s",
    "service.run_s": "s",
    "service.overhead_s": "s",
    "service.cache_get_s": "s",
    "service.cache_put_s": "s",
    "service.hit_ratio": "ratio",
    "service.invalidations": "count",
    "sharding.plan_s": "s",
    "sharding.merge_s": "s",
    "sharding.dispatch_wait_s": "s",
    "sharding.imbalance": "ratio",
    "procpool.start_s": "s",
    "procpool.result_bytes": "bytes",
    "procpool.deaths": "count",
    "hit_ms_p50": "ms",
    "hit_ms_p90": "ms",
    "page_ms_p50": "ms",
    "peak_child_rss_mb": "MB",
    "trace.request_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}

#: per-request self time: metric -> span names summed
_SELF_PER_REQUEST = {
    "core.batch_s": ("core.batch",),
    "gmbe.seq_task_s": ("gmbe.seq_task",),
    "core.root_build_s": ("core.root_build",),
    "core.split_expand_s": ("core.split_expand",),
    "core.emit_s": ("core.emit",),
    "graph.prepare_s": ("graph.prepare",),
    "gpusim.sched_self_s": ("gpusim.sched",),
    "gmbe.kernel_self_s": ("gmbe.kernel", "gmbe.execute"),
    "api.post_s": ("api",),
    "store.encode_s": ("store.encode",),
    "sharding.plan_s": ("sharding.plan",),
    "sharding.merge_s": ("sharding.merge",),
    "sharding.dispatch_wait_s": ("sharding.coordinator",),
    "procpool.start_s": ("procpool.start",),
}
#: per-request call count: metric -> span name
_CALLS_PER_REQUEST = {
    "core.batch_calls": "core.batch",
    "gmbe.seq_task_calls": "gmbe.seq_task",
    "core.root_build_calls": "core.root_build",
    "core.emit_calls": "core.emit",
}
#: per-request counts the benchmark records itself
_COUNTS_PER_REQUEST = (
    "core.batch_tasks", "store.encoded_bytes", "sharding.imbalance",
    "procpool.result_bytes",
)
#: mean self seconds per call, over every traced op
_SELF_PER_CALL = {
    "store.decode_s": "store.decode",
    "store.page_s": "store.page",
    "streaming.snapshot_s": "streaming.snapshot",
    "service.cache_get_s": "service.cache_get",
    "service.cache_put_s": "service.cache_put",
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _groups(samples) -> dict:
    groups: dict = {}
    for key, value in samples:
        groups.setdefault(key, []).append(value)
    return groups


def per_input_median(requests) -> float:
    """Median request time of each input, averaged over the inputs: a
    plain median over a mix of input sizes would jump between them."""
    groups = _groups((r.group, r.seconds) for r in requests)
    return statistics.fmean(map(median, groups.values())) if groups else 0.0


def bicliques_rate(requests) -> float:
    """Bicliques per second over one request on every input, each at
    that input's median time."""
    times = _groups((r.group, r.seconds) for r in requests)
    counts = _groups((r.group, r.bicliques) for r in requests)
    busy = sum(median(v) for v in times.values())
    work = sum(statistics.fmean(v) for v in counts.values())
    return work / busy if busy else 0.0


def visit_rate(samples, visits) -> float:
    """Operations per second over one visit of every input.

    ``samples`` are ``(kind, input, seconds)``; each ``(kind, input)``
    group counts its ops per visit of that input at the group's median
    time, so neither a straggler nor where the loop happened to stop
    (one input visited once more than another) moves the rate.
    """
    groups = _groups(((kind, key), dt) for kind, key, dt in samples)
    ops = busy = 0.0
    for (_kind, key), times in groups.items():
        per_visit = len(times) / visits[key]
        ops += per_visit
        busy += per_visit * median(times)
    return ops / busy if busy else 0.0


def normalized(metrics: dict, units: dict, speed: float) -> dict:
    """Raw host times and rates in reference-machine terms."""
    scale = {"s": 1 / speed, "ms": 1 / speed, "1/s": speed}
    return {k: v * scale.get(units[k], 1.0) for k, v in metrics.items()}


def end_to_end(run, import_s: float) -> dict:
    untraced = [r for r in run.requests if not r.traced]
    return {
        "setup_s": (import_s + run.setup_s) / run.speed,
        "enum_s_p50": per_input_median(untraced),
        "bicliques_per_s": bicliques_rate(untraced),
        "ops_per_s": visit_rate(
            ((kind, key, dt) for kind, key, dt, _ in run.op_times),
            run.visits),
        "peak_rss_mb": run.extra["peak_rss_mb"],
    }


def side_metrics(run) -> dict:
    """Metrics only some workloads have; shown always, in the result
    only with --trace 1 (every result metric must exist everywhere)."""
    out = {}
    hits = [ms for ms, _ in run.hits_ms]
    if hits:
        out["hit_ms_p50"] = percentile(hits, 50)
        out["hit_ms_p90"] = percentile(hits, 90)
    if run.pages_ms:
        out["page_ms_p50"] = median([ms for ms, _ in run.pages_ms])
    if "peak_child_rss_mb" in run.extra:
        out["peak_child_rss_mb"] = run.extra["peak_child_rss_mb"]
    out["gpusim.makespan_cycles"] = sum(c for c, _ in run.cycles.values())
    out["gpusim.tasks_executed"] = sum(t for _, t in run.cycles.values())
    return out


def per_layer(run) -> dict:
    tracer = run.tracer
    times = tracer.layer_times()
    ops = {rec[0]: rec for rec in tracer.ops}
    req_ops = [r.op for r in run.requests if r.traced]
    n = max(len(req_ops), 1)

    def total(names, op_ids, field=0):
        return sum(
            times.get((op, name), (0.0, 0.0, 0))[field]
            for op in op_ids for name in names
        )

    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric, names in _SELF_PER_REQUEST.items():
        out[metric] = total(names, req_ops) / n
    for metric, name in _CALLS_PER_REQUEST.items():
        out[metric] = total((name,), req_ops, 2) / n
    for name in _COUNTS_PER_REQUEST:
        out[name] = sum(tracer.counts.get((op, name), 0) for op in req_ops) / n
    for metric, name in _SELF_PER_CALL.items():
        calls = total((name,), ops, 2)
        out[metric] = total((name,), ops) / calls if calls else 0.0
    out["procpool.deaths"] = sum(
        v for (_, name), v in tracer.counts.items() if name == "procpool.deaths"
    )
    walls = sum(ops[op][3] - ops[op][2] for op in req_ops)
    if run.workload == "service-churn":
        run_s = total(("service.run",), req_ops, 1)
        out["service.run_s"] = run_s / n
        out["service.overhead_s"] = (
            walls - run_s - total(("store.encode",), req_ops)) / n
        out["service.hit_ratio"] = run.extra["hit_ratio"]
        out["service.invalidations"] = (
            run.extra["invalidations"] / max(len(run.requests), 1))
    in_req = set(req_ops)
    self_sum = sum(v[0] for (op, _), v in times.items() if op in in_req)
    out["trace.request_s"] = walls / n
    out["trace.unattributed_s"] = (walls - self_sum) / n
    out = normalized(out, PER_LAYER, run.speed)
    traced = per_input_median([r for r in run.requests if r.traced])
    untraced = per_input_median([r for r in run.requests if not r.traced])
    out["trace.overhead_frac"] = traced / untraced - 1 if untraced else 0.0
    out.update(side_metrics(run))
    return out


def summarize(run, import_s: float, seed: int) -> dict:
    """Print every metric by name and unit; return the JSON result."""
    print(f"workload {run.workload} seed {seed} trace {int(run.trace)}: "
          f"{run.attempted} ops attempted, {run.failed} failed")
    for line in run.notes + run.errors:
        print(f"  {line}")
    e2e = end_to_end(run, import_s)
    shown = {**e2e, **side_metrics(run)}
    if run.trace:
        metrics, names = per_layer(run), PER_LAYER
        shown.update(metrics)
        print(f"  accounting: layer self times sum to "
              f"{metrics['trace.request_s'] - metrics['trace.unattributed_s']:.4f} s "
              f"of the {metrics['trace.request_s']:.4f} s mean traced request "
              f"(remainder {metrics['trace.unattributed_s']:.4f} s in no "
              f"probed span); untraced enum_s_p50 {e2e['enum_s_p50']:.4f} s, "
              f"tracing overhead {metrics['trace.overhead_frac']:+.3f}")
    else:
        metrics, names = e2e, END_TO_END
    units = {**END_TO_END, **PER_LAYER}
    print(f"  speed factor {run.speed:.4f} (median of "
          f"{sum(map(len, run.calib))} calibration samples / reference); "
          f"times below are reference seconds")
    for name, value in shown.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_frac = {run.failed / max(run.attempted, 1):.6g} ratio "
          f"({run.failed} of {run.attempted} ops)")
    print(f"  samples: {sum(1 for r in run.requests if not r.traced)} untraced "
          f"requests, {len(run.hits_ms)} hits, {len(run.pages_ms)} pages")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
        },
    }
