"""Bipartite graph substrate: CSR graphs, IO, preprocessing, statistics,
and synthetic generators."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bipartite": "BipartiteGraph EdgeListError",
    ".cores": "alpha_beta_core core_subgraph",
    ".generators": (
        "add_dense_block block_overlap_bipartite complete_bipartite "
        "crown_graph planted_bicliques power_law_bipartite random_bipartite"
    ),
    ".interop": "from_networkx from_scipy_sparse to_networkx to_scipy_sparse",
    ".io": (
        "read_edge_list read_matrix_market reads_edge_list write_edge_list "
        "write_matrix_market"
    ),
    ".preprocess": "PreparedGraph degree_ascending_order prepare",
    ".stats": (
        "GraphStats compute_stats max_degree_u max_degree_v "
        "max_two_hop_degree_u max_two_hop_degree_v two_hop_neighbors_u "
        "two_hop_neighbors_v"
    ),
})
