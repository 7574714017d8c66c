"""Offline synthetic analogs of the paper's 12 evaluation datasets."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".paper_stats": "PAPER_MAX_BICLIQUES PAPER_TABLE1",
    ".registry": "DATASET_ORDER DATASETS LARGE_DATASETS DatasetSpec load",
})
