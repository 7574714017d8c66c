"""Command-line interface.

Subcommands::

    gmbe datasets                      list the bundled dataset analogs
    gmbe stats  <graph>                Table-1 statistics of a graph
    gmbe run    <graph> [options]      enumerate maximal bicliques
    gmbe bench  <experiment> [options] regenerate a paper table/figure
    gmbe figures [--out DIR]           render every figure as SVG
    gmbe verify <graph> <bicliques>    certify an enumeration output
    gmbe serve  [--jobs FILE]          run a batch through the service layer
    gmbe faults replay <graph> <log>   re-run a recorded fault log
    gmbe tune   <graph> [--budget N]   autotune kernel knobs for a graph

``<graph>`` is either a dataset code (e.g. ``EE``) or a path to an
edge-list file.  ``<experiment>`` is one of table1, table2, fig6..fig13.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

from .api import _ALGORITHMS, _run
from .core import BicliqueCollector
from .datasets import DATASET_ORDER, DATASETS, load
from .gmbe import GMBEConfig
from .gpusim.device import DEVICE_PRESETS
from .graph import BipartiteGraph, compute_stats, read_edge_list
from .telemetry import Telemetry
from .verify import _ENUMERATORS as _REFERENCES

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "table1", "table2", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13", "all",
)


#: library parameter named by a ``ValueError`` -> the flag that sets it
_FLAG_OF = {
    "algorithm": "--algo",
    "n_gpus": "--gpus",
    "nodes": "--nodes",
    "resume": "--resume",
    "max_trials": "--budget",
    "warps_per_sm": "--warps-per-sm",
    "max_task_retries": "--max-task-retries",
    "checkpoint_every": "--checkpoint-every",
    "halt_after_tasks": "--halt-after-tasks",
    "shards": "--shards",
    "p_sm_crash": "--fault-sm-crash",
    "p_warp_hang": "--fault-warp-hang",
    "p_queue_drop": "--fault-queue-drop",
    "p_mem_pressure": "--fault-mem-pressure",
    "n_workers": "--workers",
    "queue_depth": "--queue-depth",
    "max_bytes": "--cache-mb",
    "scale": "--scale",
    "codes": "--codes",
}


@contextmanager
def _flag_errors(args):
    """Turn a library ``ValueError`` about a value the command line set
    into a one-line exit naming the flag and its value.

    The checks stay where they are (``GMBEConfig``, ``FaultPlan``,
    ``gmbe_gpu``, the run path in :mod:`repro.api`, the broker, the
    cache); their messages start with the parameter they reject.
    """
    try:
        yield
    except ValueError as exc:
        flag = _FLAG_OF.get(str(exc).split(" ", 1)[0])
        dest = flag and flag[2:].replace("-", "_")
        if dest is None or not hasattr(args, dest):
            raise
        value = getattr(args, dest)
        if isinstance(value, list):  # nargs flags, e.g. --codes
            value = " ".join(map(str, value))
        if value is not True:  # a switch is named without its value
            flag = f"{flag} {value}"
        raise SystemExit(
            f"gmbe {args.command}: invalid {flag}: {exc}"
        ) from None


def _load_graph(spec: str) -> BipartiteGraph:
    if spec in DATASETS:
        return load(spec)
    try:
        return read_edge_list(spec)
    except OSError as exc:
        raise SystemExit(
            f"gmbe: graph {spec!r} is neither a dataset code "
            f"({', '.join(DATASET_ORDER)}) nor a readable edge-list file "
            f"({exc.strerror or exc})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """Build the `gmbe` argument parser (see module docs for commands)."""
    parser = argparse.ArgumentParser(
        prog="gmbe",
        description="GMBE reproduction: maximal biclique enumeration "
        "with a simulated GPU (SC '23).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Kernel, device and output flags shared by `run` and `faults replay`.
    knobs = argparse.ArgumentParser(add_help=False)
    knobs.add_argument(
        "--device", choices=sorted(DEVICE_PRESETS), default="A100"
    )
    knobs.add_argument("--gpus", type=int, default=1, help="simulated GPUs")
    knobs.add_argument("--no-prune", action="store_true")
    knobs.add_argument(
        "--scheduling", choices=["task", "warp", "block"], default="task"
    )
    knobs.add_argument("--warps-per-sm", type=int, default=16)
    knobs.add_argument("--max-task-retries", type=int, default=3,
                       help="failure budget per task lineage under faults")
    knobs.add_argument(
        "--output", help="write bicliques to this file (default: count only)"
    )

    sub.add_parser("datasets", help="list bundled dataset analogs")

    p_stats = sub.add_parser("stats", help="graph statistics (Table 1 row)")
    p_stats.add_argument("graph", help="dataset code or edge-list path")

    p_run = sub.add_parser(
        "run", parents=[knobs], help="enumerate maximal bicliques"
    )
    p_run.add_argument("graph", help="dataset code or edge-list path")
    p_run.add_argument("--algo", choices=sorted(_ALGORITHMS),
                       default="gmbe", help="algorithm")
    p_run.add_argument(
        "--nodes",
        type=int,
        default=1,
        help="simulated cluster machines (each with --gpus GPUs); "
        "values > 1 use the distributed extension (gmbe only; "
        "checkpoint, resume, halt and fault flags need --shards > 1 "
        "with it)",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the enumeration into N independent shard-jobs over "
        "disjoint root-ownership sets and merge (gmbe only; "
        "bit-identical to --shards 1); with --nodes > 1 shards are "
        "placed round-robin over the cluster's GPUs",
    )
    p_run.add_argument(
        "--shard-balancer",
        choices=["greedy", "contiguous", "round-robin"],
        default="greedy",
        help="how root ownership is balanced across shards",
    )
    p_run.add_argument(
        "--pool",
        choices=["thread", "process"],
        default="thread",
        help="shard execution backend (--shards > 1 only): 'thread' runs "
        "shards one after another in-process; 'process' runs each shard "
        "on a supervised warm worker process with heartbeats, crash "
        "restarts, and quarantine "
        "— a degraded (partial) run prints its shard inventory and "
        "exits 1",
    )
    p_run.add_argument("--tuned", action="store_true",
                       help="use the per-graph tuned config from the tuning "
                       "store if present (gmbe/gmbe-host; explicit knob "
                       "flags above are ignored when a tuned entry hits)")
    p_run.add_argument("--tuning-store", metavar="DIR", default=None,
                       help="tuned-config store directory (default: "
                       "$GMBE_TUNING_STORE or ~/.cache/gmbe/tuned)")
    p_run.add_argument(
        "--page-limit", type=int, default=None, metavar="N",
        help="print one page of at most N bicliques (sorted) from the "
        "compressed result store, plus the cursor for the next page",
    )
    p_run.add_argument(
        "--cursor", default=None, metavar="TOK",
        help="resume pagination from this cursor token (printed by a "
        "previous --page-limit run); requires --page-limit",
    )
    p_run.add_argument("--telemetry-out", metavar="PATH",
                       help="enable unified telemetry (gmbe only) and write "
                       "its JSON snapshot — metrics registry plus trace "
                       "records — to PATH")
    p_run.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="dump a flight-{job}.json black box here when a "
                       "sharded --pool process run degrades (quarantined "
                       "shards); inspect with 'gmbe flight show'")
    rob = p_run.add_argument_group(
        "robustness (gmbe only)",
        "deterministic fault injection and checkpoint/resume; "
        "see DESIGN.md §9",
    )
    rob.add_argument("--checkpoint", metavar="PATH",
                     help="snapshot the enumeration frontier to PATH")
    rob.add_argument("--resume", action="store_true",
                     help="continue from the --checkpoint snapshot")
    rob.add_argument("--checkpoint-every", type=int, default=256,
                     metavar="N", help="snapshot every N completed tasks")
    rob.add_argument("--halt-after-tasks", type=int, default=None,
                     metavar="N",
                     help="stop after N tasks (writes a final snapshot)")
    rob.add_argument("--fault-seed", type=int, default=None,
                     help="enable fault injection with this FaultPlan seed")
    rob.add_argument("--fault-sm-crash", type=float, default=0.0,
                     metavar="P", help="per-task SM-crash probability")
    rob.add_argument("--fault-warp-hang", type=float, default=0.0,
                     metavar="P", help="per-task warp-hang probability")
    rob.add_argument("--fault-queue-drop", type=float, default=0.0,
                     metavar="P", help="per-enqueue silent-drop probability")
    rob.add_argument("--fault-mem-pressure", type=float, default=0.0,
                     metavar="P", help="per-task memory-pressure probability")
    rob.add_argument("--fault-log", metavar="PATH",
                     help="write the injected-fault log JSON to PATH")

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", choices=_EXPERIMENTS)
    p_bench.add_argument("--scale", type=float, default=None,
                         help="dataset scale factor (default per experiment)")
    p_bench.add_argument("--codes", nargs="*", default=None, metavar="CODE",
                         help="dataset codes, from: "
                         f"{' '.join(DATASET_ORDER)} "
                         "(default: the experiment's own)")
    p_bench.add_argument("--report", default=None,
                         help="with 'all': write the combined report here")

    p_fig = sub.add_parser("figures", help="render every figure as SVG")
    p_fig.add_argument("--out", default="fig", help="output directory")
    p_fig.add_argument("--scale", type=float, default=1.0)
    p_fig.add_argument("--sweep-scale", type=float, default=0.5)

    p_srv = sub.add_parser(
        "serve",
        help="run the batching/caching enumeration service over a job batch",
    )
    p_srv.add_argument(
        "--jobs",
        help="JSON-lines job file ({'graph': code-or-path, 'algorithm': ..., "
        "'min_left': ..., 'shards': N, ...} per line); default: a demo "
        "session on --graph",
    )
    p_srv.add_argument(
        "--auto-shard-over-edges", type=int, default=None, metavar="E",
        help="route gmbe jobs on graphs with more than E edges through "
        "the sharding subsystem even when the job didn't request shards",
    )
    p_srv.add_argument(
        "--auto-shard-count", type=int, default=4,
        help="shard fan-out used by --auto-shard-over-edges",
    )
    p_srv.add_argument(
        "--shard-pool", choices=["thread", "process"], default="thread",
        help="backend sharded jobs run on; 'process' supervises each "
        "shard in its own spawned worker and maps exhausted shard "
        "retries to the 'degraded' job status",
    )
    p_srv.add_argument("--graph", default="Mti",
                       help="dataset code or edge-list path for the demo session")
    p_srv.add_argument("--algo", choices=sorted(_ALGORITHMS),
                       default="gmbe-host", help="demo-session algorithm")
    p_srv.add_argument("--workers", type=int, default=4)
    p_srv.add_argument("--queue-depth", type=int, default=64)
    p_srv.add_argument("--cache-mb", type=float, default=64.0)
    p_srv.add_argument("--timeout", type=float, default=120.0,
                       help="per-attempt timeout in seconds")
    p_srv.add_argument("--retries", type=int, default=2,
                       help="retry attempts after a failed execution")
    p_srv.add_argument("--metrics-out",
                       help="also write the metrics snapshot JSON here")
    p_srv.add_argument("--prometheus-out", metavar="PATH",
                       help="write the unified metrics registry in "
                       "Prometheus text exposition format to PATH")
    p_srv.add_argument("--trace-out", metavar="PATH",
                       help="enable tracing and stream span/event records "
                       "to PATH as JSON lines")
    p_srv.add_argument("--flight-dir", metavar="DIR", default=None,
                       help="dump a flight-{job}.json black box here for "
                       "every degraded or pool-broken job; inspect with "
                       "'gmbe flight show'")
    p_srv.add_argument("--status-out", metavar="PATH", default=None,
                       help="write the broker's health snapshot (queue, "
                       "breaker, shard-pool liveness) as JSON to PATH "
                       "after the batch")
    p_srv.add_argument("--page-limit", type=int, default=None, metavar="N",
                       help="print each job's first cursor page of at "
                       "most N bicliques, decoded from the job's "
                       "compressed result store")

    p_fl = sub.add_parser(
        "flight", help="inspect degraded-run flight records"
    )
    fl_sub = p_fl.add_subparsers(dest="flight_command", required=True)
    p_fl_show = fl_sub.add_parser(
        "show", help="render a flight-{job}.json black box human-readably"
    )
    p_fl_show.add_argument("path", help="flight record JSON file")
    p_fl_show.add_argument("--events", type=int, default=8, metavar="N",
                           help="events shown per span / section "
                           "(-1 for all; default 8)")

    p_flt = sub.add_parser(
        "faults", help="fault-injection tooling (replay a recorded log)"
    )
    flt_sub = p_flt.add_subparsers(dest="faults_command", required=True)
    p_replay = flt_sub.add_parser(
        "replay",
        parents=[knobs],
        help="re-run an enumeration firing exactly the faults of a log",
    )
    p_replay.add_argument("graph", help="dataset code or edge-list path")
    p_replay.add_argument("log", help="fault-log JSON (--fault-log output)")

    p_tune = sub.add_parser(
        "tune",
        help="autotune GMBE kernel knobs for a graph and persist the result",
    )
    p_tune.add_argument("graph", help="dataset code or edge-list path")
    p_tune.add_argument("--budget", type=int, default=16, metavar="N",
                        help="candidate-config trial budget (default 16)")
    p_tune.add_argument("--seed", type=int, default=0,
                        help="search seed (fixed seed => identical trials)")
    p_tune.add_argument(
        "--device", choices=sorted(DEVICE_PRESETS), default="A100"
    )
    p_tune.add_argument("--gpus", type=int, default=1, help="simulated GPUs")
    p_tune.add_argument("--store", metavar="DIR", default=None,
                        help="tuned-config store directory (default: "
                        "$GMBE_TUNING_STORE or ~/.cache/gmbe/tuned)")
    p_tune.add_argument("--no-store", action="store_true",
                        help="tune in-memory only; do not persist the result")
    p_tune.add_argument("--force", action="store_true",
                        help="re-tune even if the store already has an entry")
    p_tune.add_argument("--json", metavar="PATH", dest="json_out",
                        help="also write the TunedConfig JSON to PATH")

    p_ver = sub.add_parser("verify", help="certify an enumeration output")
    p_ver.add_argument("graph", help="dataset code or edge-list path")
    p_ver.add_argument("bicliques", help="BicliqueWriter output file")
    p_ver.add_argument(
        "--reference", choices=sorted(_REFERENCES), default="oombea"
    )
    p_ver.add_argument("--no-deep", action="store_true",
                       help="skip per-biclique structural checks")
    return parser


def _cmd_datasets() -> int:
    from .bench.tables import format_table

    rows = []
    for code in DATASET_ORDER:
        spec = DATASETS[code]
        g = load(code)
        rows.append(
            (code, spec.paper_name, g.n_u, g.n_v, g.n_edges,
             "large" if spec.large else "")
        )
    print(format_table(
        ["code", "paper dataset", "|U|", "|V|", "|E|", ""], rows,
        title="Bundled synthetic analogs (Table 1 order)",
    ))
    return 0


def _cmd_stats(args) -> int:
    g = _load_graph(args.graph)
    s = compute_stats(g)
    print(f"{g}")
    print(f"  dU={s.max_deg_u} d2U={s.max_two_hop_u} "
          f"dV={s.max_deg_v} d2V={s.max_two_hop_v}")
    print(f"  node_buf words/procedure: {s.node_buffer_words()}")
    print(f"  naive subtree words:      {s.naive_tree_words()}")
    return 0


def _fault_plan_from_args(args):
    """Build the FaultPlan requested on the command line (or None)."""
    probs = (
        args.fault_sm_crash, args.fault_warp_hang,
        args.fault_queue_drop, args.fault_mem_pressure,
    )
    if args.fault_seed is None and not any(probs):
        return None
    from .gpusim.faults import FaultPlan

    return FaultPlan(
        args.fault_seed or 0,
        p_sm_crash=args.fault_sm_crash,
        p_warp_hang=args.fault_warp_hang,
        p_queue_drop=args.fault_queue_drop,
        p_mem_pressure=args.fault_mem_pressure,
    )


def _print_robustness(res) -> None:
    """Report fault/recovery/checkpoint info from a robust run."""
    extras = res.extras
    log = extras.get("fault_log")
    if log is not None and len(log):
        tally = ", ".join(
            f"{kind}={n}" for kind, n in sorted(log.counts().items())
        )
        print(f"injected faults: {tally}")
    if extras.get("tasks_requeued"):
        print(f"tasks requeued: {extras['tasks_requeued']} "
              f"(lost: {extras.get('tasks_lost', 0)})")
    if extras.get("halted"):
        hint = (
            " (checkpoint written; use --resume to continue)"
            if extras.get("checkpoint_writes") else ""
        )
        print(f"halted after {extras.get('tasks_executed_total', '?')} "
              f"tasks{hint}")
    if extras.get("resumed"):
        print("resumed from checkpoint")


def _line(b) -> str:
    """``b`` as a ``u,... | v,...`` text line (the
    :class:`~repro.core.BicliqueWriter` format)."""
    return ",".join(map(str, b.left)) + " | " + ",".join(map(str, b.right))


def _write_bicliques(path, bicliques) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_line(b) + "\n" for b in bicliques)


def _config_from_args(args) -> GMBEConfig:
    """The kernel knobs the shared run flags set."""
    return GMBEConfig(
        prune=not args.no_prune,
        scheduling=args.scheduling,
        warps_per_sm=args.warps_per_sm,
        max_task_retries=args.max_task_retries,
    )


def _cmd_run(args) -> int:
    g = _load_graph(args.graph)
    config = _config_from_args(args)
    if args.tuned:
        if args.algo not in ("gmbe", "gmbe-host"):
            raise SystemExit("--tuned requires --algo gmbe or gmbe-host")
        from .tuning import TunedConfigStore, resolve_config

        store = (
            TunedConfigStore(args.tuning_store)
            if args.tuning_store is not None
            else None
        )
        config, hit = resolve_config(
            g,
            store=store,
            device=DEVICE_PRESETS[args.device],
            n_gpus=args.gpus,
            base=config,
        )
        print(
            "tuned config: store hit" if hit
            else "tuned config: store miss (using command-line knobs; "
            "run `gmbe tune` first to populate the store)"
        )
    if args.pool == "process" and args.shards == 1:
        raise SystemExit("--pool process requires --shards > 1")
    page_limit = args.page_limit
    if page_limit is not None and page_limit < 1:
        raise SystemExit("--page-limit must be positive")
    if args.cursor is not None and page_limit is None:
        raise SystemExit("--cursor requires --page-limit")
    telemetry = Telemetry() if args.telemetry_out else None
    # --output and --page-limit are written and paged from one collected
    # result, after the run.
    collector = (
        BicliqueCollector()
        if args.output or page_limit is not None else None
    )
    start = time.perf_counter()
    res = _run(
        g, collector,
        algorithm=args.algo,
        config=config,
        fault_plan=_fault_plan_from_args(args),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        telemetry=telemetry,
        shards=args.shards,
        shard_balancer=args.shard_balancer,
        shard_pool=args.pool,
        device=DEVICE_PRESETS[args.device],
        n_gpus=args.gpus,
        nodes=args.nodes,
        halt_after_tasks=args.halt_after_tasks,
        flight_dir=args.flight_dir,
    )
    wall = time.perf_counter() - start
    degraded = bool(getattr(res, "is_partial", False))
    print(f"{res.n_maximal} maximal bicliques ({wall:.2f}s host wall clock)")
    if degraded:
        # Never let a partial set masquerade as the full enumeration:
        # print the exact inventory and exit non-zero below.
        print(res.describe())
        for h in res.resume:
            ckpt = h.checkpoint_path or "(no checkpoint — restarts clean)"
            print(f"  shard {h.shard_id}: {h.attempts} attempts; "
                  f"last error: {h.last_error}; resume from {ckpt}")
        flight_path = res.extras.get("flight_path")
        if flight_path:
            print(f"flight record written to {flight_path}")
    if res.sim_time:
        where = f"{args.device} x{args.gpus}"
        if args.nodes > 1:
            where += f" x{args.nodes} machines"
        if args.shards > 1:
            where += f" x{args.shards} shards"
        print(f"simulated time: {res.sim_time:.6g}s on {where}")
    resumed = res.extras.get("resumed_shards")
    if resumed:
        print(f"resumed shards: {sorted(resumed)}")
    c = res.counters
    print(f"nodes={c.nodes_generated} non-maximal={c.non_maximal} "
          f"pruned={c.pruned}")
    _print_robustness(res)
    log = res.extras.get("fault_log")
    if args.fault_log and log is not None:
        log.save(args.fault_log)
        print(f"fault log written to {args.fault_log}")
    if telemetry is not None:
        import json

        telemetry.flush()
        with open(args.telemetry_out, "w", encoding="utf-8") as fh:
            json.dump(telemetry.snapshot(), fh, indent=2, default=str)
            fh.write("\n")
        print(f"telemetry written to {args.telemetry_out}")
    if args.output:
        _write_bicliques(args.output, collector.result())
        print(f"bicliques written to {args.output}")
    if page_limit is not None:
        from .store import StoredResultSet

        result_store = StoredResultSet.from_bicliques(
            collector.result().sorted()
        )
        try:
            items, next_cursor = result_store.page(args.cursor, page_limit)
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(f"--- page ({len(items)} of {len(result_store)} bicliques, "
              f"store {result_store.nbytes} encoded bytes) ---")
        for b in items:
            print(_line(b))
        if next_cursor is not None:
            print(f"next cursor: {next_cursor} "
                  f"(re-run with --cursor {next_cursor})")
        else:
            print("next cursor: (end of results)")
    return 1 if degraded else 0


def _cmd_faults(args) -> int:
    if args.faults_command != "replay":  # pragma: no cover
        return 1
    from .gpusim.faults import FaultLog, replay_plan

    g = _load_graph(args.graph)
    try:
        log = FaultLog.load(args.log)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load fault log {args.log}: {exc}")
    collector = BicliqueCollector() if args.output else None
    res = _run(
        g, collector,
        config=_config_from_args(args),
        device=DEVICE_PRESETS[args.device],
        n_gpus=args.gpus,
        fault_plan=replay_plan(log),
    )
    replayed = res.extras["fault_log"]
    print(f"replayed {len(log)} logged faults; re-fired {len(replayed)}")
    for ev in replayed:
        where = f"dev{ev.device}/sm{ev.sm}" if ev.device >= 0 else "host"
        print(f"  cursor={ev.cursor:<8} t={ev.time:<14.1f} {ev.kind:<12} "
              f"site={ev.site:<8} {where} lineage={ev.lineage}")
    print(f"{res.n_maximal} maximal bicliques "
          f"(requeued={res.extras['tasks_requeued']}, "
          f"lost={res.extras['tasks_lost']})")
    if args.output:
        _write_bicliques(args.output, collector.result())
        print(f"bicliques written to {args.output}")
    return 0


def _cmd_tune(args) -> int:
    from .tuning import TunedConfigStore, default_store, device_key, tune

    if args.no_store and args.store:
        raise SystemExit("--no-store and --store are mutually exclusive")
    g = _load_graph(args.graph)
    store = None
    if not args.no_store:
        store = (
            TunedConfigStore(args.store) if args.store else default_store()
        )
    device = DEVICE_PRESETS[args.device]
    hit = (
        store is not None
        and not args.force
        and store.get(
            g.fingerprint, device_key(device, args.gpus)
        ) is not None
    )
    start = time.perf_counter()
    entry = tune(
        g,
        budget=args.budget,
        seed=args.seed,
        device=device,
        n_gpus=args.gpus,
        store=store,
        force=args.force,
    )
    wall = time.perf_counter() - start
    print(f"graph: {g.name} ({g.n_u}x{g.n_v}, {g.n_edges} edges)")
    print(f"device: {entry.device_key}  seed: {entry.seed}  "
          f"tuner: v{entry.tuner_version}")
    if hit:
        print("store hit: tuned config recalled with zero simulator work")
    else:
        print(f"trials: {entry.trials} simulator runs ({wall:.1f}s wall)")
    defaults = GMBEConfig()
    knobs = ", ".join(
        f"{name}={getattr(entry.config, name)!r}"
        for name in (
            "bound_height", "bound_size", "warps_per_sm",
            "set_backend", "order", "scheduling",
        )
        if getattr(entry.config, name) != getattr(defaults, name)
    ) or "(paper defaults)"
    print(f"winner: {knobs}")
    print(f"cycles: {entry.incumbent_cycles} tuned vs "
          f"{entry.default_cycles} default "
          f"=> {entry.speedup:.3f}x speedup")
    if store is not None:
        print(f"stored: {store.path_for(entry.key())}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(entry.to_json() + "\n")
        print(f"tuned config JSON written to {args.json_out}")
    return 0


def _cmd_bench(args) -> int:
    from . import bench

    if args.scale is not None and not 0 < args.scale < float("inf"):
        raise ValueError(
            f"scale must be positive and finite, got {args.scale}"
        )
    unknown = [c for c in args.codes or () if c not in DATASETS]
    if unknown:
        raise ValueError(
            f"codes must be dataset codes ({', '.join(DATASET_ORDER)}), "
            f"got {unknown[0]!r}"
        )
    if args.experiment == "all":
        text = bench.generate_report(scale=args.scale, progress=print)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"report written to {args.report}")
        else:
            print(text)
        return 0
    kwargs: dict = {}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    if args.codes:
        kwargs["codes"] = args.codes
    experiment = getattr(bench, f"experiment_{args.experiment}")
    printer = getattr(bench, f"print_{args.experiment}")
    printer(experiment(**kwargs))
    return 0


def _read_job_specs(path: str) -> list[dict]:
    """Parse a ``--jobs`` JSONL file: one :class:`~repro.service.Job`
    field mapping per non-blank line.  A bad line exits with one message
    naming the file, the line number and the offending key or value."""
    import json
    from dataclasses import fields

    from .service import Job

    known = {f.name for f in fields(Job) if f.init}
    specs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"{where}: invalid JSON ({exc.msg}): {line.strip()!r}"
                ) from None
            if not isinstance(spec, dict):
                raise SystemExit(
                    f"{where}: expected a JSON object of job fields, "
                    f"got {line.strip()!r}"
                )
            unknown = sorted(set(spec) - known)
            if unknown:
                raise SystemExit(
                    f"{where}: unknown job key {unknown[0]!r}; "
                    f"expected keys from {sorted(known)}"
                )
            specs.append(spec)
    return specs


def _cmd_serve(args) -> int:
    import json

    from .service import ResiliencePolicy, ResultCache, ServiceClient

    batch = bool(args.jobs)
    if batch:
        specs = _read_job_specs(args.jobs)
    else:
        # Demo session: the README's multi-query walkthrough — a cold
        # query, its cache-hit repeat, and a size-filtered variant.
        specs = [
            {"graph": args.graph, "algorithm": args.algo},
            {"graph": args.graph, "algorithm": args.algo},
            {"graph": args.graph, "algorithm": args.algo,
             "min_left": 2, "min_right": 2},
        ]
    graphs: dict[str, BipartiteGraph] = {}
    jobs = []
    for spec in specs:
        spec = dict(spec)
        gspec = spec.pop("graph", None)
        if not isinstance(gspec, str):
            raise SystemExit("each job spec needs a 'graph' code or path")
        if gspec not in graphs:
            graphs[gspec] = _load_graph(gspec)
        jobs.append({"graph": graphs[gspec], **spec})

    telemetry = None
    if args.prometheus_out or args.trace_out:
        from .telemetry import JSONLSink, RingSink

        sinks = [RingSink()]
        if args.trace_out:
            sinks.append(JSONLSink(args.trace_out))
        telemetry = Telemetry(sinks=sinks)

    client = ServiceClient(
        n_workers=args.workers,
        queue_depth=args.queue_depth,
        cache=ResultCache(max_bytes=int(args.cache_mb * (1 << 20))),
        policy=ResiliencePolicy(
            timeout=args.timeout, max_attempts=args.retries + 1
        ),
        telemetry=telemetry,
        auto_shard_over_edges=args.auto_shard_over_edges,
        auto_shard_count=args.auto_shard_count,
        shard_pool=args.shard_pool,
        flight_dir=args.flight_dir,
    )
    try:
        if batch:
            # Concurrent submission: duplicates coalesce, repeats hit cache.
            results = client.submit_many(jobs)
        else:
            # Sequential demo so the repeated query lands as a cache hit.
            results = [client.submit(job) for job in jobs]
        for res in results:
            print(res.describe())
            if args.page_limit is not None and (res.ok or res.partial):
                # Decodes only this page's records from the result store.
                items, next_cursor = client.fetch_page(
                    res, limit=args.page_limit
                )
                for b in items:
                    print("  " + _line(b))
                more = (
                    f"cursor {next_cursor}" if next_cursor is not None
                    else "end"
                )
                print(f"  page 1: {len(items)} bicliques ({more})")
        snapshot = client.metrics_snapshot()
        health = client.health() if args.status_out else None
    finally:
        client.close()
    if args.status_out:
        with open(args.status_out, "w", encoding="utf-8") as fh:
            json.dump(health, fh, indent=2, default=str)
            fh.write("\n")
        print(f"health snapshot written to {args.status_out}")
    print("--- service metrics ---")
    text = json.dumps(snapshot, indent=2)
    print(text)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"metrics written to {args.metrics_out}")
    if telemetry is not None:
        telemetry.close()  # flushes the JSONL trace sink
        if args.prometheus_out:
            with open(args.prometheus_out, "w", encoding="utf-8") as fh:
                fh.write(telemetry.registry.to_prometheus_text())
            print(f"prometheus metrics written to {args.prometheus_out}")
        if args.trace_out:
            print(f"trace records written to {args.trace_out}")
    return 0 if all(r.ok for r in results) else 1


def _cmd_flight(args) -> int:
    if args.flight_command != "show":  # pragma: no cover
        return 1
    from .telemetry import format_flight_record, load_flight_record

    try:
        record = load_flight_record(args.path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read flight record: {exc}")
    print(format_flight_record(record, max_events=args.events))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "run":
        with _flag_errors(args):
            return _cmd_run(args)
    if args.command == "bench":
        with _flag_errors(args):
            return _cmd_bench(args)
    if args.command == "serve":
        with _flag_errors(args):
            return _cmd_serve(args)
    if args.command == "faults":
        with _flag_errors(args):
            return _cmd_faults(args)
    if args.command == "flight":
        return _cmd_flight(args)
    if args.command == "tune":
        with _flag_errors(args):
            return _cmd_tune(args)
    if args.command == "figures":
        from .bench.figures import render_all

        written = render_all(
            args.out, scale=args.scale, sweep_scale=args.sweep_scale
        )
        for path in written:
            print(path)
        return 0
    if args.command == "verify":
        from .verify import parse_biclique_file, verify_enumeration

        report = verify_enumeration(
            _load_graph(args.graph),
            parse_biclique_file(args.bicliques),
            reference_algorithm=args.reference,
            deep_check=not args.no_deep,
        )
        print(report.summary())
        return 0 if report.ok else 1
    return 1  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
