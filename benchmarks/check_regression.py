"""Perf regression gates for the committed benchmark snapshots.

Two gates, both comparing *speedup ratios* rather than wall-clock
milliseconds so they are stable across machines of different absolute
speed:

``setops``
    Re-runs :mod:`bench_setops` and compares the dense-case geomean
    bitset speedup against ``BENCH_setops.json``.  A drop of more than
    20% below the snapshot — or below the 2x acceptance floor — means a
    change has eaten the word-parallel advantage the adaptive backend is
    built on.  The same run also gates the cross-task batched execution
    layer (DESIGN.md §10): the batched-vs-unbatched wall-clock geomean
    must stay ≥ 1.5x on the dense registry graphs and at parity (≥ 1.0x
    geomean) on the sparse ones, where few tasks are batch-eligible.

``service``
    Re-runs :mod:`bench_service_throughput` and compares the cache-hit
    speedup (cold enumeration latency / cached latency) against
    ``BENCH_service.json``.  The ratio is huge (thousands), so the gate
    only has to catch the failure mode that matters: the result cache
    silently stopping to hit.

``faults``
    Re-runs :mod:`bench_faults` and gates the fault-machinery overhead:
    a zero-fault run with lineage tracking + the emission ledger armed
    must keep a plain/robust wall-clock throughput ratio of at least
    0.95 — i.e. always-on crash tolerance may cost at most 5%.

``telemetry-off`` / ``telemetry-on``
    Re-run :mod:`bench_telemetry` (once — the run is memoized across
    the two gates) and gate the observability overhead: disabled
    telemetry must keep >= 95% of baseline throughput (the no-op path
    is a single ``is_enabled`` check per task), enabled telemetry with
    spans + phase attribution + a ring sink must keep >= 80%.

``tuning``
    Re-runs :mod:`bench_tuning` and compares the geomean simulated
    speedup of the autotuned config over the paper defaults against
    ``BENCH_tuning.json``.  The tuner's incumbent starts at the default
    config, so the ratio can never drop below 1.0 legitimately — a fall
    below the snapshot means the search stopped finding the fast
    configurations (broken priors, broken successive halving, or a
    kernel change that erased the tuning headroom).

``sharding``
    Re-runs :mod:`bench_sharding` and gates the 4-shard scaling
    efficiency (single-node simulated time over 4x the sharded
    makespan, geomean across registry graphs on a work-bound device)
    at >= 0.7x ideal.  The ratio is pure simulated cycles, so a drop
    means the ownership balancer's weight estimate degraded — and the
    bench itself asserts the merged shard union stays bit-identical to
    the single-node result, so the efficiency can never be bought with
    dropped or duplicated bicliques.

``procpool``
    Re-runs :mod:`bench_procpool` and gates the *wall-clock* scaling of
    supervised process-pool shard execution, normalized to the machine:
    ``(single_wall / 4_shard_wall) / min(4, n_cpus)`` geomean over the
    large registry graphs, floor 0.45 — on a >= 4-core box that is the
    >= 1.8x absolute-speedup acceptance bar; on smaller boxes it bounds
    the supervision overhead (heartbeats, pipes, pickling) instead.
    Wall clock is noisy, so the drift tolerance is the loosest of all
    gates; the bench asserts merged-set equality and zero worker deaths
    internally.

``store``
    Re-runs :mod:`bench_store` and gates the result-store subsystem
    (DESIGN.md §13): the delta-encoded :class:`StoredResultSet` must
    keep a >= 2.0x geomean compression ratio over the materialized-list
    byte model (encoded <= 0.5x materialized) and streamed iteration
    must keep >= 0.8x of materialize-then-iterate throughput.  The
    bench asserts bit-identical round-trips (full iteration and cursor
    page union vs direct enumeration) before measuring anything.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py                 # both gates
    PYTHONPATH=src python benchmarks/check_regression.py --only setops   # one gate
    PYTHONPATH=src python benchmarks/check_regression.py --update        # re-baseline

A missing, unreadable, or incomplete snapshot is a configuration error,
not a perf regression: the gate reports what is wrong with the file and
how to regenerate it, and exits non-zero without running the benchmark.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_faults  # noqa: E402
import bench_procpool  # noqa: E402
import bench_service_throughput  # noqa: E402
import bench_setops  # noqa: E402
import bench_sharding  # noqa: E402
import bench_store  # noqa: E402
import bench_telemetry  # noqa: E402
import bench_tuning  # noqa: E402


def _memoize(fn: Callable[[], dict]) -> Callable[[], dict]:
    """Run ``fn`` once and reuse the result (gates sharing one bench)."""
    cache: list[dict] = []

    def run() -> dict:
        if not cache:
            cache.append(fn())
        return cache[0]

    return run


_run_telemetry = _memoize(bench_telemetry.run)


class SnapshotError(RuntimeError):
    """A benchmark snapshot is missing, unreadable, or incomplete."""


@dataclass(frozen=True)
class Gate:
    name: str
    path: Path
    metric: str
    run: Callable[[], dict]
    tolerance: float  # fail if fresh < (1 - tolerance) * snapshot
    floor: float  # absolute acceptance floor on the ratio
    #: additional ``(metric, tolerance, floor)`` checks against the same
    #: snapshot/benchmark run — one gate, several gated ratios.
    extra_checks: tuple = ()


GATES = (
    Gate(
        name="setops",
        path=bench_setops.OUT_PATH,
        metric="dense_geomean_speedup",
        run=bench_setops.run,
        tolerance=0.20,
        floor=2.0,
        extra_checks=(
            ("batch_dense_geomean_speedup", 0.25, 1.5),
            ("batch_sparse_geomean_speedup", 0.25, 1.0),
        ),
    ),
    Gate(
        name="service",
        path=bench_service_throughput.OUT_PATH,
        metric="cache_hit_speedup",
        run=bench_service_throughput.run,
        tolerance=0.50,
        floor=2.0,
    ),
    Gate(
        name="faults",
        path=bench_faults.OUT_PATH,
        metric="fault_overhead_ratio",
        run=bench_faults.run,
        tolerance=0.05,
        floor=0.95,
    ),
    Gate(
        name="telemetry-off",
        path=bench_telemetry.OUT_PATH,
        metric="telemetry_disabled_ratio",
        run=_run_telemetry,
        tolerance=0.05,
        floor=0.95,
    ),
    Gate(
        name="telemetry-on",
        path=bench_telemetry.OUT_PATH,
        metric="telemetry_enabled_ratio",
        run=_run_telemetry,
        tolerance=0.10,
        floor=0.80,
        # Cross-process capture (worker buffering + heartbeat flushes +
        # coordinator re-parenting) gated against the untraced process
        # pool.  Real wall clock over real processes, so the drift
        # tolerance is as loose as the procpool gate's; the 0.80
        # absolute floor is the acceptance bar that matters.
        extra_checks=(
            ("telemetry_procpool_ratio", 0.30, 0.80),
        ),
    ),
    # Deterministic simulated-cycle ratio, not wall clock: tolerance is
    # only slack for intentional snapshot drift, not machine noise.
    Gate(
        name="tuning",
        path=bench_tuning.OUT_PATH,
        metric="tuned_vs_default_ratio",
        run=bench_tuning.run,
        tolerance=0.15,
        floor=1.0,
    ),
    # Deterministic simulated-cycle ratio (see bench_sharding): the
    # 4-shard geomean efficiency must hold >= 0.7x of ideal linear
    # scaling; merged-set equality is asserted inside the bench itself.
    Gate(
        name="sharding",
        path=bench_sharding.OUT_PATH,
        metric="shard_efficiency_4x",
        run=bench_sharding.run,
        tolerance=0.10,
        floor=0.70,
    ),
    # Real wall clock (the one gate that is): normalized to the cores
    # actually available, with the loosest drift tolerance accordingly.
    # floor 0.45 == the 1.8x/4 absolute-speedup bar on >= 4 cores.
    Gate(
        name="procpool",
        path=bench_procpool.OUT_PATH,
        metric="procpool_scaling_efficiency",
        run=bench_procpool.run,
        tolerance=0.35,
        floor=0.45,
    ),
    # Compression is deterministic (bytes over bytes), so its tolerance
    # is only snapshot-drift slack; decode throughput is wall clock over
    # two in-process loops, hence the looser drift band.  Floors are the
    # ISSUE's acceptance bars: encoded <= 0.5x materialized (ratio >=
    # 2.0) and streamed iteration >= 0.8x of materialize-then-iterate.
    Gate(
        name="store",
        path=bench_store.OUT_PATH,
        metric="store_compression_ratio",
        run=bench_store.run,
        tolerance=0.10,
        floor=2.0,
        extra_checks=(
            ("store_decode_throughput_ratio", 0.30, 0.80),
        ),
    ),
)


def load_snapshot(path: Path, metric: str) -> float:
    """Read a committed snapshot and return its gated metric.

    Raises :class:`SnapshotError` with an actionable message instead of
    leaking FileNotFoundError / JSONDecodeError / KeyError tracebacks.
    """
    if not path.exists():
        raise SnapshotError(
            f"snapshot {path} does not exist; run "
            f"'PYTHONPATH=src python {Path(__file__).name} --update' "
            f"to create it"
        )
    try:
        text = path.read_text()
    except OSError as exc:
        raise SnapshotError(f"snapshot {path} is unreadable: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"snapshot {path} is not valid JSON ({exc}); delete it and "
            f"re-baseline with --update"
        ) from exc
    if not isinstance(data, dict) or metric not in data:
        raise SnapshotError(
            f"snapshot {path} has no '{metric}' field; it was written by "
            f"an incompatible benchmark version — re-baseline with --update"
        )
    value = data[metric]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SnapshotError(
            f"snapshot {path}: '{metric}' must be a number, got {value!r}"
        )
    return float(value)


def check_gate(gate: Gate, update: bool) -> bool:
    print(f"=== {gate.name} gate ===")
    if update:
        fresh = gate.run()
        gate.path.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"snapshot written to {gate.path}")
        return True

    checks = ((gate.metric, gate.tolerance, gate.floor),) + tuple(
        gate.extra_checks
    )
    # Validate the snapshot before paying for the benchmark run.
    bases = {m: load_snapshot(gate.path, m) for m, _, _ in checks}
    result = gate.run()

    ok = True
    for metric, tolerance, abs_floor in checks:
        base = bases[metric]
        fresh = result[metric]
        floor = base * (1.0 - tolerance)
        print(f"fresh {metric}:    {fresh:.3f}x")
        print(f"snapshot {metric}: {base:.3f}x")
        print(f"regression floor (-{tolerance:.0%}): {floor:.3f}x")
        if fresh < floor:
            print(
                f"FAIL: {gate.name}/{metric} regressed >{tolerance:.0%} "
                f"({fresh:.3f}x < {floor:.3f}x)"
            )
            ok = False
        if fresh < abs_floor:
            print(
                f"FAIL: {gate.name}/{metric} below the {abs_floor:.3f}x "
                f"acceptance floor ({fresh:.3f}x)"
            )
            ok = False
    if ok:
        print(f"OK: no {gate.name} perf regression")
    return ok


def main(argv: list[str]) -> int:
    update = "--update" in argv
    only = None
    if "--only" in argv:
        try:
            only = argv[argv.index("--only") + 1]
        except IndexError:
            print("error: --only requires a gate name", file=sys.stderr)
            return 2
        if only not in {g.name for g in GATES}:
            names = ", ".join(g.name for g in GATES)
            print(f"error: unknown gate '{only}' (choose from: {names})",
                  file=sys.stderr)
            return 2

    selected = [g for g in GATES if only is None or g.name == only]
    ok = True
    for gate in selected:
        try:
            ok &= check_gate(gate, update)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
