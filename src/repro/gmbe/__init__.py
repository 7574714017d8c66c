"""GMBE — the paper's contribution.

- :class:`NodeBuffer` — stack-based iteration with node reuse (§4.1);
- local-neighborhood-size pruning (§4.2), built into the buffer;
- :func:`gmbe_host` — sequential execution (correctness anchor);
- :func:`gmbe_gpu` — load-aware task-centric execution on the simulated
  GPU (§4.3, Alg. 4), including the GMBE-WARP / GMBE-BLOCK variants and
  multi-GPU scaling.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cluster": "ClusterSpec gmbe_cluster",
    ".config": "DEFAULT_CONFIG GMBEConfig",
    ".host": "gmbe_host run_task_with_node_buffer",
    ".kernel": "SubtreeTask gmbe_gpu",
    ".node_buffer": "INF_DEPTH NodeBuffer PushOutcome",
})
