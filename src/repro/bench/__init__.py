"""Benchmark harness: cost models, shared plumbing, and one experiment
driver per table/figure of the paper's evaluation (§6)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".common": "AlgoRun clear_cache run_algorithm",
    ".costmodel": "XEON_5318Y CPUModel",
    ".exp_fig6": "ALGORITHMS Fig6Result experiment_fig6 print_fig6",
    ".exp_fig7": "Fig7Row experiment_fig7 print_fig7",
    ".exp_fig8": "VARIANTS Fig8Result experiment_fig8 print_fig8",
    ".exp_fig9": "Fig9Curve experiment_fig9 print_fig9",
    ".exp_fig10": "THRESHOLD_GRID Fig10Result experiment_fig10 print_fig10",
    ".exp_fig11": "WARP_GRID Fig11Result experiment_fig11 print_fig11",
    ".exp_fig12": "DEVICES Fig12Result experiment_fig12 print_fig12",
    ".exp_fig13": "GPU_COUNTS Fig13Row experiment_fig13 print_fig13",
    ".exp_table1": "Table1Row experiment_table1 print_table1",
    ".exp_table2": "Table2Row experiment_table2 print_table2",
    ".report": "EXPERIMENTS generate_report",
    ".tables": "format_series format_si format_table",
})
