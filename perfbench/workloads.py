"""The benchmark's three workloads, their seeded inputs and the oracle.

Every workload is a closed loop with one caller in this process.  The
seed is the only source of randomness: it draws a relabelling of each
registry graph's U and V vertices (so inputs differ per seed while
their size stays fixed, which keeps medians comparable across seeds)
and, for service-churn, the edge writes.  The program only ever sees
the generated graphs.

Workload functions live at module level and this module starts no
process on import: sharded-process spawns worker interpreters that
re-import the entry script.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple
from time import perf_counter as _now

import numpy as np

from repro.api import enumerate_maximal_bicliques
from repro.core import oombea
from repro.datasets.registry import DATASETS
from repro.graph import BipartiteGraph
from repro.service import ServiceClient
from repro.streaming import DynamicBipartiteGraph

from spans import Audit, Probes, Tracer, traced_runner

#: (registry code, scale) per input; ``DATASETS[code].build`` carries the
#: registry's generator parameters (block-overlap communities + hub block for GH/EE,
#: Zipf power-law for TM/WA/Mti — see ``repro.datasets.registry``).
DENSE_POOL = (("GH", 0.3), ("EE", 0.35), ("GH", 0.2))
SPARSE_POOL = (("TM", 0.75), ("WA", 1.0), ("Mti", 1.0))
SHARDED = {"shards": 2, "shard_pool": "process"}

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
#: calibration samples per CPU taken before each request / service round
CALIBRATIONS = 2
#: service-churn round shape
HITS_PER_ROUND = 8
PAGES_PER_ROUND = 3
PAGE_LIMIT = 100
#: each edit set = this many deletes of present edges + inserts of absent
EDIT_PAIRS = 2

OUT_DIR = Path(__file__).resolve().parent / "out"


# ----------------------------------------------------------------------
# Inputs and oracle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Input:
    name: str
    n_u: int
    n_v: int
    edges: np.ndarray  # (m, 2) int64, U id then V id

    def graph(self) -> BipartiteGraph:
        """A fresh graph object (no cached state from earlier requests)."""
        return BipartiteGraph.from_edges(self.n_u, self.n_v, self.edges)


def relabeled(code: str, scale: float, rng: np.random.Generator) -> Input:
    """Registry graph ``code@scale`` with seed-drawn vertex ids."""
    g = DATASETS[code].build(scale)
    rows = np.repeat(np.arange(g.n_u), np.diff(g.u_indptr))
    pu, pv = rng.permutation(g.n_u), rng.permutation(g.n_v)
    edges = np.column_stack([pu[rows], pv[np.asarray(g.u_indices)]])
    return Input(f"{code}@{scale}", g.n_u, g.n_v, edges.astype(np.int64))


def digest(pairs) -> str:
    """Order-sensitive digest of ``(left, right)`` int-tuple pairs."""
    h = hashlib.blake2b(digest_size=16)
    for pair in pairs:
        h.update(repr(pair).encode())
    return h.hexdigest()


def result_digest(bicliques) -> str:
    return digest(
        (tuple(map(int, b.left)), tuple(map(int, b.right)))
        for b in bicliques
    )


@dataclass(frozen=True)
class Expected:
    count: int
    full: str
    #: digest of the first ``PAGES_PER_ROUND * PAGE_LIMIT`` records
    prefix: str


def oracle(graph: BipartiteGraph) -> Expected:
    """Sorted ooMBEA result, digested; independent of GMBE's code path."""
    pairs = []
    oombea(graph, lambda left, right: pairs.append(
        (tuple(sorted(map(int, left))), tuple(sorted(map(int, right))))
    ))
    pairs.sort()
    return Expected(
        len(pairs), digest(pairs),
        digest(pairs[:PAGES_PER_ROUND * PAGE_LIMIT]),
    )


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Restart the kernel's RSS high-water mark (Linux clear_refs 5), so
    the peak covers the timed loop and not set-up or the oracle."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_child_rss_mb() -> float:
    """Largest ``ru_maxrss`` among reaped child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


#: calibration time of :func:`calibration_work` on the reference machine
#: (2-vCPU Intel Xeon VM); host times are reported in reference seconds
CALIBRATION_REF_S = 0.0093


def calibration_work() -> int:
    """Fixed CPU work: an interpreter loop plus small numpy bit ops,
    the two kinds of work the enumeration spends its time in."""
    acc, table = 0, {}
    for i in range(36000):
        acc = (acc + i * 2654435761) & 0xFFFFFFFF
        table[i & 255] = acc
    words = np.arange(2048, dtype=np.uint64)
    for _ in range(180):
        acc += int(np.count_nonzero(np.bitwise_and(words, words >> 3)))
    return acc + len(table)


def calibration_s() -> float:
    t0 = _now()
    calibration_work()
    return _now() - t0


def median_setup(setup, teardown=None):
    """Run ``setup`` ``SETUP_REPEATS`` times; (median seconds, last state)."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None and teardown is not None:
            teardown(state)
        gc.collect()
        t0 = _now()
        state = setup()
        times.append(_now() - t0)
    return statistics.median(times), state


class Request(NamedTuple):
    seconds: float
    bicliques: int
    traced: bool
    op: int | None  # tracer op id when traced
    group: str  # input the request ran on (medians are per input)
    block: int  # calibration block taken just before it


@dataclass
class Run:
    """Everything one run measured, turned into the JSON result."""

    workload: str
    trace: bool
    tracer: Tracer | None
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: one :class:`Request` per timed enumeration request
    requests: list = field(default_factory=list)
    #: blocks of :func:`calibration_s` samples taken between operations
    calib: list = field(default_factory=list)
    #: run-level speed factor, set by :meth:`to_reference_seconds`
    speed: float = 1.0
    #: (kind, input, seconds, calibration block) per untraced op
    op_times: list = field(default_factory=list)
    #: untraced visits (requests, or service rounds) per input
    visits: Counter = field(default_factory=Counter)
    #: (milliseconds, calibration block) per untraced hit / page fetch
    hits_ms: list = field(default_factory=list)
    pages_ms: list = field(default_factory=list)
    #: input key -> (makespan_cycles, tasks_executed), checked to repeat;
    #: every run visits every input, so the key set is fixed per workload
    cycles: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def calibrate(self) -> int:
        """Sample the calibration on every CPU this process may use (the
        vCPUs of a shared host slow down independently, and a sharded
        request runs on all of them); returns the block's index."""
        block: list = []
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                block.extend(calibration_s() for _ in range(CALIBRATIONS))
        except OSError:  # pinning refused: sample wherever we run
            block.extend(calibration_s() for _ in range(CALIBRATIONS))
        finally:
            os.sched_setaffinity(0, cpus)
        self.calib.append(block)
        return len(self.calib) - 1

    def to_reference_seconds(self) -> None:
        """Rescale every timed sample to the reference machine.

        A sample's speed factor is the median of the calibration blocks
        just before and just after it over :data:`CALIBRATION_REF_S`:
        the host's speed moves from one request to the next, and a
        factor taken around each sample follows it.  Call once, after a
        closing :meth:`calibrate`.
        """
        blocks = self.calib
        factor = [
            statistics.median(blocks[b] + blocks[b + 1]) / CALIBRATION_REF_S
            for b in range(len(blocks) - 1)
        ]
        self.speed = statistics.median(
            x for block in blocks for x in block) / CALIBRATION_REF_S
        self.requests = [r._replace(seconds=r.seconds / factor[r.block])
                         for r in self.requests]
        self.op_times = [(kind, key, dt / factor[b], b)
                         for kind, key, dt, b in self.op_times]
        self.hits_ms = [(ms / factor[b], b) for ms, b in self.hits_ms]
        self.pages_ms = [(ms / factor[b], b) for ms, b in self.pages_ms]

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def note_cycles(self, key, cycles: float, tasks: int) -> None:
        seen = self.cycles.setdefault(key, (cycles, tasks))
        if seen != (cycles, tasks):
            self.fail(f"{key}: simulated cycles not repeatable "
                      f"{seen} != {(cycles, tasks)}")


# ----------------------------------------------------------------------
# dense-api and sharded-process
# ----------------------------------------------------------------------
def _api_workload(name: str, seed: int, seconds: float, trace: bool,
                  api_kwargs: dict) -> Run:
    audit = Audit()
    tracer = Tracer() if trace else None
    run = Run(name, trace, tracer)

    def setup():
        rng = np.random.default_rng(seed)
        pool = [relabeled(code, scale, rng) for code, scale in DENSE_POOL]
        warm = min(pool, key=lambda inp: len(inp.edges))
        with Probes(audit):
            enumerate_maximal_bicliques(warm.graph(), **api_kwargs)
        return pool

    run.setup_s, pool = median_setup(setup)
    audit.drain()
    expected = [oracle(inp.graph()) for inp in pool]

    reset_peak_rss()
    per_visit = 2 if trace else 1  # traced runs pair untraced/traced
    deadline = _now() + seconds
    k = 0
    while k < len(pool) * per_visit or _now() < deadline:
        idx = (k // per_visit) % len(pool)
        traced = trace and k % 2 == 1
        k += 1
        inp = pool[idx]
        graph = inp.graph()
        gc.collect()
        block = run.calibrate()
        call = (tracer.wrap("api", enumerate_maximal_bicliques)
                if traced else enumerate_maximal_bicliques)
        out, error = None, None
        with Probes(audit, tracer if traced else None):
            with tracer.operation("request") if traced else nullcontext() as op:
                t0 = _now()
                try:
                    out = call(graph, **api_kwargs)
                except Exception as exc:  # counted, the loop keeps going
                    error = f"{inp.name}: {type(exc).__name__}: {exc}"
                dt = _now() - t0
        run.attempted += 1
        kernel_runs, reports = audit.drain()
        if error is not None:
            run.fail(error)
            continue
        if len(out) != expected[idx].count or (
            result_digest(out) != expected[idx].full
        ):
            run.fail(f"{inp.name}: result differs from the oracle")
            continue
        if reports:  # sharded: parent sees shard reports, not kernels
            report = reports[0]
            deaths = report.extras.get("pool_stats", {}).get("deaths", 0)
            if deaths:
                run.fail(f"{inp.name}: {deaths} shard worker deaths")
                continue
            sims = [r.extras["report"] for r in report.shards]
            run.note_cycles(inp.name, max(s.makespan_cycles for s in sims),
                            sum(s.tasks_executed for s in sims))
            if traced:
                tracer.counts[(op, "sharding.imbalance")] += (
                    report.extras["imbalance"])
                tracer.counts[(op, "procpool.result_bytes")] += len(
                    pickle.dumps(report.shards))
                tracer.counts[(op, "procpool.deaths")] += deaths
        else:
            sim = kernel_runs[0]
            run.note_cycles(inp.name, sim.makespan_cycles, sim.tasks_executed)
        run.requests.append(
            Request(dt, len(out), traced, op, inp.name, block))
        if not traced:
            run.op_times.append(("request", inp.name, dt, block))
            run.visits[inp.name] += 1
    run.extra["peak_rss_mb"] = peak_rss_mb()
    run.calibrate()
    run.to_reference_seconds()
    return run


def dense_api(seed, seconds, trace) -> Run:
    return _api_workload("dense-api", seed, seconds, trace, {})


def sharded_process(seed, seconds, trace) -> Run:
    run = _api_workload("sharded-process", seed, seconds, trace, SHARDED)
    run.extra["peak_child_rss_mb"] = peak_child_rss_mb()
    if trace:
        run.notes.append(
            "layer times are parent-side only: spawned shard workers run "
            "an unwrapped copy of the program"
        )
    return run


# ----------------------------------------------------------------------
# service-churn
# ----------------------------------------------------------------------
def _draw_edits(inp: Input, rng: np.random.Generator) -> list[list]:
    """Two edit sets of ``EDIT_PAIRS`` deletes + ``EDIT_PAIRS`` inserts."""
    present = {(int(u), int(v)) for u, v in inp.edges}
    ordered = sorted(present)
    picks = rng.choice(len(ordered), size=2 * EDIT_PAIRS, replace=False)
    deletes = [ordered[i] for i in picks]
    inserts = []
    while len(inserts) < 2 * EDIT_PAIRS:
        pair = (int(rng.integers(inp.n_u)), int(rng.integers(inp.n_v)))
        if pair not in present and pair not in inserts:
            inserts.append(pair)
    return [
        [("delete", *e) for e in deletes[i::2]]
        + [("insert", *e) for e in inserts[i::2]]
        for i in range(2)
    ]


def _state_edges(inp: Input, edits: list) -> np.ndarray:
    edges = {(int(u), int(v)) for u, v in inp.edges}
    for op, u, v in edits:
        (edges.discard if op == "delete" else edges.add)((u, v))
    return np.array(sorted(edges), dtype=np.int64)


#: visit phase -> (edit set index, apply?, resulting state)
_PHASES = ((0, True, 1), (0, False, 0), (1, True, 2), (1, False, 0))


def service_churn(seed, seconds, trace) -> Run:
    audit = Audit()
    tracer = Tracer() if trace else None
    run = Run("service-churn", trace, tracer)
    broker_kwargs = {"runner": traced_runner(tracer)} if trace else {}

    def setup():
        rng = np.random.default_rng(seed)
        inputs = [relabeled(code, scale, rng) for code, scale in SPARSE_POOL]
        edits = [_draw_edits(inp, rng) for inp in inputs]
        dyns = [DynamicBipartiteGraph.from_graph(inp.graph())
                for inp in inputs]
        client = ServiceClient(n_workers=2, **broker_kwargs)
        for j, dyn in enumerate(dyns):
            client.register_graph(f"g{j}", dyn)
        with Probes(audit):
            client.submit(graph_name="g0")
        return client, inputs, edits, dyns

    run.setup_s, (client, inputs, edits, dyns) = median_setup(
        setup, teardown=lambda state: state[0].close()
    )
    audit.drain()
    try:
        expected = {}
        for j, inp in enumerate(inputs):
            for state, applied in ((0, []), (1, edits[j][0]), (2, edits[j][1])):
                g = BipartiteGraph.from_edges(
                    inp.n_u, inp.n_v, _state_edges(inp, applied))
                expected[(j, state)] = oracle(g)
        _churn_loop(run, client, audit, inputs, edits, dyns, expected,
                    seconds)
    finally:
        client.close()
    return run


def _churn_loop(run, client, audit, inputs, edits, dyns, expected, seconds):
    tracer = run.tracer
    cache = client.broker.cache
    stats0 = cache.stats.as_dict()
    reset_peak_rss()
    n_graphs = len(inputs)
    min_rounds = n_graphs * 3  # every (graph, state) once
    deadline = _now() + seconds
    r = 0
    while r < min_rounds or _now() < deadline:
        j, visit = r % n_graphs, r // n_graphs
        traced = run.trace and r % 2 == 1
        r += 1
        edit_idx, apply, state = _PHASES[visit % len(_PHASES)]
        key = (j, state)
        want = expected[key]
        name = f"g{j}"
        probes = Probes(audit, tracer if traced else None,
                        cache=cache, graphs=dyns)

        def timed(kind, fn):
            with tracer.operation(kind) if traced else nullcontext() as op:
                t0 = _now()
                try:
                    value, error = fn(), None
                except Exception as exc:  # counted, the loop keeps going
                    value, error = None, f"{kind} {name}: {type(exc).__name__}: {exc}"
                dt = _now() - t0
            run.attempted += 1
            if not traced:
                run.op_times.append((kind, name, dt, block))
            if error is not None:
                run.fail(error)
            return value, dt, op

        gc.collect()
        block = run.calibrate()
        if not traced:
            run.visits[name] += 1
        with probes:
            # 1. writes
            ops = edits[j][edit_idx]
            if not apply:
                ops = [("insert" if o == "delete" else "delete", u, v)
                       for o, u, v in reversed(ops)]
            for o, u, v in ops:
                mutate = dyns[j].delete_edge if o == "delete" else dyns[j].insert_edge
                changed, _, _ = timed("write", lambda: mutate(u, v))
                if changed is False:
                    run.fail(f"write {o} {name} ({u},{v}) was a no-op")
            # 2. one cold query
            cold, dt, op = timed(
                "cold", lambda: client.submit(graph_name=name))
            kernel_runs, _ = audit.drain()
            if cold is not None:
                if not cold.ok or cold.cache_hit:
                    run.fail(f"cold {name}: status {cold.status}, "
                             f"hit={cold.cache_hit}: {cold.error}")
                elif result_digest(cold.store) != want.full:
                    run.fail(f"cold {name}: store differs from the oracle")
                else:
                    run.requests.append(
                        Request(dt, cold.count, traced, op, name, block))
                    sim = kernel_runs[0]
                    run.note_cycles(key, sim.makespan_cycles,
                                    sim.tasks_executed)
                    if traced:
                        tracer.counts[(op, "store.encoded_bytes")] += (
                            cold.store.nbytes)
            # 3. repeat queries served from the cache
            last = cold
            for _ in range(HITS_PER_ROUND):
                hit, dt, _ = timed(
                    "hit", lambda: client.submit(graph_name=name))
                if hit is None:
                    continue
                if not (hit.ok and hit.cache_hit):
                    run.fail(f"hit {name}: status {hit.status}, "
                             f"hit={hit.cache_hit}")
                elif result_digest(hit.bicliques) != want.full:
                    run.fail(f"hit {name}: result differs from the oracle")
                elif not traced:
                    run.hits_ms.append((dt * 1e3, block))
                last = hit
            # 4. page through the first pages
            if last is None or not last.ok:
                continue
            cursor, items = None, []
            for _ in range(PAGES_PER_ROUND):
                page, dt, _ = timed(
                    "page", lambda: client.fetch_page(last, cursor, PAGE_LIMIT))
                if page is None:
                    break
                if not traced:
                    run.pages_ms.append((dt * 1e3, block))
                items.extend(page[0])
                cursor = page[1]
                if cursor is None:
                    break
            if result_digest(items) != want.prefix:
                run.fail(f"pages {name}: union differs from the oracle")
    stats = cache.stats.as_dict()
    lookups = (stats["hits"] - stats0["hits"]) + (
        stats["misses"] - stats0["misses"])
    run.extra.update({
        "peak_rss_mb": peak_rss_mb(),
        "hit_ratio": (stats["hits"] - stats0["hits"]) / max(lookups, 1),
        "lookups": lookups,
        "invalidations": stats["invalidations"] - stats0["invalidations"],
        "rounds": r,
    })
    run.calibrate()
    run.to_reference_seconds()


WORKLOADS = {
    "dense-api": dense_api,
    "sharded-process": sharded_process,
    "service-churn": service_churn,
}
