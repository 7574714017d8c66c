"""High-level convenience API.

:func:`enumerate_maximal_bicliques` is the one-call entry point for
downstream users: accepts a :class:`BipartiteGraph`, a dense 0/1 numpy
matrix, a scipy.sparse biadjacency matrix, or a networkx bipartite
graph; runs any of the bundled algorithms; and returns the maximal
bicliques as a list (optionally size-filtered — the common need in
fraud/bicluster applications).
"""

from __future__ import annotations

import numbers
import os
from collections.abc import Mapping
from contextlib import nullcontext

import numpy as np

from .core import (
    Biclique,
    BicliqueCollector,
    imbea,
    mbea,
    oombea,
    parmbe,
    pmbe,
)
from .core.bicliques import validate_size_filters
from .gmbe import GMBEConfig, gmbe_gpu, gmbe_host
from .gmbe.kernel import _check_positive_int
from .gpusim.device import A100, DeviceSpec
from .graph import BipartiteGraph
from .telemetry import use_telemetry

__all__ = [
    "enumerate_maximal_bicliques",
    "as_bipartite_graph",
    "validate_shards",
    "validate_size_filters",
]

#: every algorithm by name: a CPU baseline's enumerator, or None for the
#: two GMBE variants, which :func:`_run` dispatches itself
_ALGORITHMS = {
    "gmbe": None,
    "gmbe-host": None,
    "mbea": mbea,
    "imbea": imbea,
    "pmbe": pmbe,
    "oombea": oombea,
    "parmbe": parmbe,
}


def as_bipartite_graph(data) -> BipartiteGraph:
    """Coerce supported inputs into a :class:`BipartiteGraph`.

    Accepts: BipartiteGraph (returned as-is), numpy 2-D arrays
    (biadjacency), scipy.sparse matrices, and networkx graphs with the
    ``bipartite`` node attribute.
    """
    if isinstance(data, BipartiteGraph):
        return data
    if isinstance(data, np.ndarray):
        return BipartiteGraph.from_biadjacency(data)
    if hasattr(data, "tocoo"):  # scipy.sparse duck type
        from .graph.interop import from_scipy_sparse

        return from_scipy_sparse(data)
    if hasattr(data, "nodes") and hasattr(data, "edges"):  # networkx
        from .graph.interop import from_networkx

        return from_networkx(data)
    raise TypeError(
        "expected BipartiteGraph, numpy array, scipy.sparse matrix, or "
        f"networkx graph; got {type(data).__name__}"
    )


def validate_shards(shards) -> int:
    """Validate a shard count: a positive integer (numpy integers are
    coerced; bools are rejected)."""
    if isinstance(shards, bool) or not isinstance(shards, numbers.Integral):
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
    if shards < 1:
        raise ValueError(f"shards must be positive, got {int(shards)}")
    return int(shards)


def enumerate_maximal_bicliques(
    data,
    *,
    algorithm: str = "gmbe",
    min_left: int = 1,
    min_right: int = 1,
    config: GMBEConfig | Mapping | str | None = None,
    tuning_store=None,
    tune_on_miss: bool = False,
    fault_plan=None,
    checkpoint_path=None,
    checkpoint_every: int = 256,
    resume: bool = False,
    telemetry=None,
    shards: int = 1,
    shard_balancer: str = "greedy",
    shard_pool: str = "thread",
    as_store: bool = False,
) -> "list[Biclique]":
    """Enumerate all maximal bicliques of ``data``.

    Parameters
    ----------
    data:
        Anything :func:`as_bipartite_graph` accepts.  For matrix inputs,
        rows are the U side and columns the V side.
    algorithm:
        ``"gmbe"`` (simulated GPU, default), ``"gmbe-host"``, or one of
        the CPU baselines (``mbea``/``imbea``/``pmbe``/``oombea``/
        ``parmbe``).  All produce the identical set.
    min_left, min_right:
        Only return bicliques with at least this many vertices per side
        (filtering happens after enumeration; maximality is global).
    config:
        Optional :class:`GMBEConfig` for the GMBE variants (a mapping of
        its fields is accepted via :meth:`GMBEConfig.from_dict`), or the
        string ``"tuned"`` to use the per-graph autotuned configuration
        (GMBE variants only): the :mod:`repro.tuning` store is consulted
        under the graph's fingerprint; a hit resolves the config with
        zero simulator work, a miss falls back to the default config —
        or, with ``tune_on_miss=True``, runs a synchronous
        :func:`repro.tuning.tune` and persists the result.
    tuning_store:
        Optional :class:`~repro.tuning.TunedConfigStore` (or a path to
        one) consulted for ``config="tuned"``; defaults to
        :func:`repro.tuning.default_store` (``$GMBE_TUNING_STORE``).
    tune_on_miss:
        With ``config="tuned"``: tune synchronously when the store has
        no entry for this graph (default: just fall back to defaults).
    fault_plan, checkpoint_path, checkpoint_every, resume:
        Robustness passthrough (``algorithm="gmbe"`` only): inject a
        seeded :class:`~repro.gpusim.FaultPlan`, and/or snapshot the
        enumeration frontier to ``checkpoint_path`` so an interrupted
        run can be resumed bit-identically (see DESIGN.md §9).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`
        (``algorithm="gmbe"`` only): the run is traced as a
        ``sim.kernel`` span and its phase/queue/fault statistics land
        in ``telemetry.registry`` (see ``docs/observability.md``).
    shards, shard_balancer:
        With ``shards > 1`` (``algorithm="gmbe"`` only) the enumeration
        runs as N independent shard-jobs over disjoint root-task
        ownership sets and the sorted results are merged — bit-identical
        to the single-node run (see :mod:`repro.sharding` and DESIGN.md
        §11).  ``checkpoint_path`` then names a *directory* holding one
        snapshot per shard (crashed shards resume individually);
        ``fault_plan``/``resume`` are per-run concepts and are rejected —
        use :class:`~repro.sharding.ShardCoordinator` directly for
        per-shard fault injection.
    shard_pool:
        ``"thread"`` (default) runs the shards one after another in the
        calling thread; ``"process"`` runs them on supervised worker
        processes (heartbeats, crash restarts, quarantine), leasing the
        process-wide warm pool so repeated calls skip spawn and import
        (see DESIGN.md §12).
        Because this function promises the *complete* enumeration, a
        process-pool run that exhausts a shard's retry budget raises
        :class:`~repro.sharding.DegradedShardRun` carrying the partial
        result rather than returning a silently short list.
    as_store:
        Return a compressed :class:`~repro.store.StoredResultSet`
        (same sorted contents; iterate, ``len()``, or page with
        ``page(cursor, limit)``) instead of a Python list — O(encoded)
        resident bytes instead of O(output) objects.

    Returns
    -------
    list[Biclique]
        Sorted for determinism.  With ``as_store=True``, a
        :class:`~repro.store.StoredResultSet` over the same sequence.
    """
    min_left, min_right = validate_size_filters(min_left, min_right)
    collector = BicliqueCollector()
    result = _run(
        data, collector,
        algorithm=algorithm,
        config=config,
        tuning_store=tuning_store,
        tune_on_miss=tune_on_miss,
        fault_plan=fault_plan,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        resume=resume,
        telemetry=telemetry,
        shards=shards,
        shard_balancer=shard_balancer,
        shard_pool=shard_pool,
    )
    if getattr(result, "is_partial", False):
        # This function's contract is the complete set; an explicit
        # partial must surface as an error that still carries it.
        from .sharding import DegradedShardRun

        raise DegradedShardRun(result)
    del result  # keeps no part of the run alive but its bicliques
    found = collector.result().filtered(min_left, min_right)
    del collector  # so that sorting frees the unsorted run
    if shards == 1:  # a merged shard report is already sorted
        found = found.sorted()
    if as_store:
        from .store import StoredResultSet

        return StoredResultSet.from_bicliques(found)
    return found.to_list()


def _run(
    data,
    collector: BicliqueCollector | None,
    *,
    algorithm: str = "gmbe",
    config: GMBEConfig | Mapping | str | None = None,
    tuning_store=None,
    tune_on_miss: bool = False,
    fault_plan=None,
    checkpoint_path=None,
    checkpoint_every: int = 256,
    resume: bool = False,
    telemetry=None,
    shards: int = 1,
    shard_balancer: str = "greedy",
    shard_pool: str = "thread",
    device: DeviceSpec = A100,
    n_gpus: int = 1,
    nodes: int = 1,
    halt_after_tasks: int | None = None,
    flight_dir: str | None = None,
):
    """Check one run's inputs against each other, run it and fill
    ``collector`` (if given) with every maximal biclique.

    The one run path behind :func:`enumerate_maximal_bicliques` and
    ``gmbe run``: ``algorithm="gmbe"`` runs the
    :class:`~repro.sharding.ShardCoordinator` with ``shards > 1`` (placed
    on a ``nodes``-machine cluster when ``nodes > 1``),
    :func:`~repro.gmbe.gmbe_cluster` with ``nodes > 1`` alone, else
    :func:`~repro.gmbe.gmbe_gpu` on ``n_gpus`` copies of ``device``.  A
    sharded run's collector gets the merged, sorted result.  Returns the
    run's :class:`~repro.core.EnumerationResult`, or the
    :class:`~repro.sharding.ShardReport` of a sharded run.  Every
    :class:`ValueError` leads with the parameter it rejects.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(
            f"algorithm must be one of {sorted(_ALGORITHMS)}, "
            f"got {algorithm!r}"
        )
    shards = validate_shards(shards)
    _check_positive_int("nodes", nodes)
    _check_positive_int("n_gpus", n_gpus)
    robust = [name for name, given in (
        ("fault_plan", fault_plan is not None),
        ("checkpoint_path", checkpoint_path is not None),
        ("resume", resume),
        ("halt_after_tasks", halt_after_tasks is not None),
    ) if given]
    gmbe_only = [name for name, given in (
        ("shards > 1", shards > 1),
        ("nodes > 1", nodes > 1),
        ("telemetry", telemetry is not None),
    ) if given] + robust
    if gmbe_only and algorithm != "gmbe":
        raise ValueError(
            f"algorithm {algorithm!r} takes no {gmbe_only[0]}; only "
            'algorithm="gmbe" does'
        )
    per_run = [name for name in robust if name != "checkpoint_path"]
    if per_run and shards > 1:
        raise ValueError(
            f"shards > 1 takes no {per_run[0]}: crashed shards resume "
            "from their own checkpoints under checkpoint_path, and "
            "repro.sharding.ShardCoordinator injects per-shard faults "
            "and halts"
        )
    if robust and nodes > 1 and shards == 1:
        raise ValueError(
            f"nodes > 1 takes no {robust[0]} without shards > 1"
        )
    if isinstance(config, Mapping):
        config = GMBEConfig.from_dict(dict(config))
    elif not (
        config is None
        or isinstance(config, GMBEConfig)
        or (isinstance(config, str) and config == "tuned")
    ):
        raise ValueError(
            "config must be a GMBEConfig, a mapping of GMBEConfig fields, "
            f"or the string 'tuned', got {config!r}"
        )
    graph = as_bipartite_graph(data)
    baseline = _ALGORITHMS[algorithm]
    if baseline is not None:
        return baseline(graph, collector)  # CPU baselines take no config
    if isinstance(config, str):
        from .tuning import TunedConfigStore, resolve_config

        if isinstance(tuning_store, (str, os.PathLike)):
            tuning_store = TunedConfigStore(tuning_store)
        config, _ = resolve_config(
            graph,
            store=tuning_store,
            tune_on_miss=tune_on_miss,
            telemetry=telemetry,
        )
    config = config or GMBEConfig()
    if algorithm == "gmbe-host":
        return gmbe_host(graph, collector, config=config)
    cluster = None
    if nodes > 1:
        from .gmbe import ClusterSpec

        cluster = ClusterSpec(
            n_nodes=nodes, gpus_per_node=n_gpus, device=device
        )
    # gmbe_gpu and the coordinator find the telemetry ambient
    with nullcontext() if telemetry is None else use_telemetry(telemetry):
        if shards > 1:
            from .sharding import ShardCoordinator

            report = ShardCoordinator(
                graph,
                shards,
                config=config,
                balancer=shard_balancer,
                device=device,
                n_gpus_per_shard=n_gpus,
                cluster=cluster,
                checkpoint_dir=checkpoint_path,
                checkpoint_every=checkpoint_every,
                pool=shard_pool,
                flight_dir=flight_dir,
            ).run()
            if collector is not None:
                collector.add(report.bicliques)
            return report
        if cluster is not None:
            from .gmbe import gmbe_cluster

            return gmbe_cluster(graph, collector, config=config,
                                cluster=cluster)
        return gmbe_gpu(
            graph,
            collector,
            config=config,
            device=device,
            n_gpus=n_gpus,
            fault_plan=fault_plan,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume=resume,
            halt_after_tasks=halt_after_tasks,
        )
