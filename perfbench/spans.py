"""In-memory span tracer and the probes that time each layer.

Probes wrap the program's functions *where they are called*.
``repro.gmbe.kernel`` binds ``run_batch``, ``build_root_task``,
``prepare`` and the other layer functions into its own namespace at
import time, so a wrapper installed on ``repro.core.batch.run_batch``
would never run; the wrapper goes on ``repro.gmbe.kernel.run_batch``
instead.  Methods are looked up on their class at call time, so those
are wrapped on the class (or on the one instance the benchmark owns).
Every patch is undone when the :class:`Probes` context exits.

Spawned shard workers import a fresh copy of the program and are not
wrapped: layer numbers of the sharded-process workload are parent-side
only.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    """Spans kept in memory, one span stack per thread.

    A span is ``[id, name, start_s, end_s, parent_id, op_id]``.
    Per-biclique emission is too frequent for one record per call, so
    *leaf* probes fold their calls into one aggregate per
    ``(parent span, name)``; leaves have no children.  ``op`` is the id
    of the benchmark operation in flight: the loop is closed with a
    single caller, so every span that starts while an operation is open
    belongs to it, whichever thread runs it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: (parent_id, name) -> [op_id, total_s, calls]
        self.leaves: dict[tuple, list] = {}
        #: (op_id, name) -> summed count
        self.counts: defaultdict = defaultdict(float)
        #: [op_id, kind, start_s, end_s] per benchmark operation
        self.ops: list[list] = []
        self.op: int | None = None
        #: True while :class:`Probes` has the layer probes installed
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [next(self._ids), name, 0.0, 0.0,
               stack[-1][0] if stack else None, self.op]
        stack.append(rec)
        rec[2] = _now()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = _now()
        self._stack().pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        def probe(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return probe

    def wrap_leaf(self, name: str, fn):
        leaves = self.leaves

        def probe(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack = self._stack()
                key = (stack[-1][0] if stack else None, name)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [self.op, dt, 1]
                else:
                    agg[1] += dt
                    agg[2] += 1

        return probe

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.op, name)] += value

    @contextmanager
    def operation(self, kind: str):
        """Attribute every span started inside to one benchmark op."""
        op_id = len(self.ops)
        rec = [op_id, kind, _now(), 0.0]
        self.op = op_id
        try:
            yield op_id
        finally:
            rec[3] = _now()
            self.op = None
            self.ops.append(rec)

    # ------------------------------------------------------------------
    def layer_times(self) -> dict:
        """``(op_id, name) -> [self_s, inclusive_s, calls]``.

        Self time is a span's duration minus what its child spans and
        leaf aggregates cover; leaves are all self time.
        """
        child = defaultdict(float)
        for rec in self.spans:
            if rec[4] is not None:
                child[rec[4]] += rec[3] - rec[2]
        for (parent, _name), (_op, total, _calls) in self.leaves.items():
            if parent is not None:
                child[parent] += total
        out: defaultdict = defaultdict(lambda: [0.0, 0.0, 0])
        for rec in self.spans:
            dur = rec[3] - rec[2]
            acc = out[(rec[5], rec[1])]
            acc[0] += dur - child[rec[0]]
            acc[1] += dur
            acc[2] += 1
        for (_parent, name), (op, total, calls) in self.leaves.items():
            acc = out[(op, name)]
            acc[0] += total
            acc[1] += total
            acc[2] += calls
        return dict(out)

    def write(self, path) -> None:
        """Dump every span, leaf aggregate, count and op as JSON."""
        doc = {
            "time_unit": "s (perf_counter)",
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "op"), r))
                for r in self.spans
            ],
            "leaves": [
                {"parent": parent, "name": name, "op": op,
                 "total_s": total, "calls": calls}
                for (parent, name), (op, total, calls) in self.leaves.items()
            ],
            "counts": [
                {"op": op, "name": name, "value": value}
                for (op, name), value in self.counts.items()
            ],
            "ops": [
                dict(zip(("id", "kind", "start", "end"), r)) for r in self.ops
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class Audit:
    """Per-request facts read off return values, with tracing on or off.

    The API drops the kernel's simulator report and the coordinator's
    shard report; these taps keep them so the benchmark can check
    determinism (``gpusim.*`` cycle counts) and count pool deaths.
    """

    def __init__(self) -> None:
        self.kernel_runs: list = []
        self.shard_reports: list = []

    def drain(self) -> tuple[list, list]:
        runs, reports = self.kernel_runs, self.shard_reports
        self.kernel_runs, self.shard_reports = [], []
        return runs, reports


class Probes:
    """Install the audit taps, and with a tracer the layer probes.

    ``cache`` (the broker's :class:`~repro.service.ResultCache`) and
    ``graphs`` (registered :class:`~repro.streaming.DynamicBipartiteGraph`
    objects) are benchmark-owned instances whose methods are wrapped per
    instance.
    """

    def __init__(self, audit: Audit, tracer: Tracer | None = None, *,
                 cache=None, graphs=()) -> None:
        self.audit = audit
        self.tracer = tracer
        self.cache = cache
        self.graphs = tuple(graphs)
        self._undo: list = []

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def __enter__(self) -> "Probes":
        import repro.api as api
        import repro.gmbe.kernel as kernel
        import repro.service.broker as broker
        import repro.sharding.coordinator as coordinator
        from repro.store import StoredResultSet

        audit, tr = self.audit, self.tracer
        gmbe_gpu = api.gmbe_gpu
        run = coordinator.ShardCoordinator.run

        def kernel_tap(*args, **kwargs):
            result = gmbe_gpu(*args, **kwargs)
            audit.kernel_runs.append(result.extras["report"])
            return result

        def coordinator_tap(self_, *args, **kwargs):
            report = run(self_, *args, **kwargs)
            audit.shard_reports.append(report)
            return report

        if tr is not None:
            kernel_tap = tr.wrap("gmbe.kernel", kernel_tap)
            coordinator_tap = tr.wrap("sharding.coordinator", coordinator_tap)
        self._set(api, "gmbe_gpu", kernel_tap)
        self._set(coordinator.ShardCoordinator, "run", coordinator_tap)
        if tr is None:
            return self
        tr.enabled = True

        self._set(broker, "enumerate_maximal_bicliques",
                  tr.wrap("api", broker.enumerate_maximal_bicliques))

        # kernel-bound layer functions
        run_batch = kernel.run_batch

        def batch_probe(members, *args, **kwargs):
            tr.count("core.batch_tasks", len(members))
            return run_batch(members, *args, **kwargs)

        self._set(kernel, "run_batch", tr.wrap("core.batch", batch_probe))
        self._set(kernel, "batch_gamma_matches",
                  tr.wrap("core.batch", kernel.batch_gamma_matches))
        self._set(kernel, "run_task_with_node_buffer",
                  tr.wrap("gmbe.seq_task", kernel.run_task_with_node_buffer))
        self._set(kernel, "build_root_task",
                  tr.wrap("core.root_build", kernel.build_root_task))
        self._set(kernel, "expand_node",
                  tr.wrap("core.split_expand", kernel.expand_node))
        self._set(kernel, "gamma_matches",
                  tr.wrap("core.split_expand", kernel.gamma_matches))
        self._set(kernel, "prepare", tr.wrap("graph.prepare", kernel.prepare))
        relabeling_sink = kernel.relabeling_sink
        self._set(kernel, "relabeling_sink",
                  lambda prepared, sink: tr.wrap_leaf(
                      "core.emit", relabeling_sink(prepared, sink)))

        base_sched = kernel.PersistentThreadScheduler

        class TracedScheduler(base_sched):
            def __init__(self, *args, execute, **kwargs):
                super().__init__(
                    *args, execute=tr.wrap("gmbe.execute", execute), **kwargs
                )

            def run(self):
                with tr.span("gpusim.sched"):
                    return super().run()

        self._set(kernel, "PersistentThreadScheduler", TracedScheduler)

        # sharding and the process pool (parent side)
        build = coordinator.ShardPlan.__dict__["build"].__func__
        self._set(coordinator.ShardPlan, "build",
                  classmethod(tr.wrap("sharding.plan", build)))
        self._set(coordinator, "merge_shard_results",
                  tr.wrap("sharding.merge", coordinator.merge_shard_results))
        base_pool = coordinator.ProcessWorkerPool

        class TracedPool(base_pool):
            def __init__(self, *args, **kwargs):
                with tr.span("procpool.start"):
                    super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                with tr.span("procpool.start"):
                    return super().shutdown(*args, **kwargs)

        self._set(coordinator, "ProcessWorkerPool", TracedPool)

        # result store
        encode = StoredResultSet.__dict__["from_bicliques"].__func__
        self._set(StoredResultSet, "from_bicliques",
                  classmethod(tr.wrap("store.encode", encode)))
        self._set(StoredResultSet, "as_tuple",
                  tr.wrap("store.decode", StoredResultSet.as_tuple))
        self._set(StoredResultSet, "page",
                  tr.wrap("store.page", StoredResultSet.page))

        # service: benchmark-owned instances
        if self.cache is not None:
            self._set(self.cache, "get",
                      tr.wrap("service.cache_get", self.cache.get))
            self._set(self.cache, "put",
                      tr.wrap("service.cache_put", self.cache.put))
        for dyn in self.graphs:
            self._set(dyn, "snapshot",
                      tr.wrap("streaming.snapshot", dyn.snapshot))
        return self

    def __exit__(self, *exc) -> None:
        if self.tracer is not None:
            self.tracer.enabled = False
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def stop_helper_processes() -> None:
    """Join leftover children and stop multiprocessing's resource
    tracker, which a ``spawn`` pool starts and would otherwise outlive
    the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def traced_runner(tracer: Tracer):
    """A broker ``runner=`` that times ``default_runner`` as
    ``service.run`` while the probes are installed.  It takes the same
    keywords, so the broker forwards the checkpoint/shard arguments it
    would give the default."""
    from repro.service import default_runner

    def runner(job, graph, config, checkpoint_path=None, shards=1,
               shard_pool="thread"):
        kwargs = dict(checkpoint_path=checkpoint_path, shards=shards,
                      shard_pool=shard_pool)
        if not tracer.enabled:
            return default_runner(job, graph, config, **kwargs)
        with tracer.span("service.run"):
            return default_runner(job, graph, config, **kwargs)

    return runner
