"""Maximum witnesses of Boolean matrix products.

Exact bit-parallel oracles, strip-decomposition solvers, randomized
approximation schemes, a query-counted simulator of quantum minimum finding
(one vectorized engine behind ``durr_hoyer_batch`` and the four witness
algorithms, plus the scalar reference ``durr_hoyer_min``), and graph
applications (all-pairs LCA in dags, extreme-weight triangles, two-edge
paths).
"""
from __future__ import annotations

from .boolmat import (
    BoolMatrix,
    WitnessLists,
    WitnessMatrix,
    bool_product,
    max_witness_oracle,
    random_matrix,
    rank_of,
    transpose,
    witness_count,
    witness_mask,
    witness_violations,
)
from .graphs import (
    CycleError,
    Dag,
    VertexWeightedGraph,
    all_pairs_lca,
    brute_force_heaviest_triangles,
    brute_force_lca_set,
    brute_force_two_edge_paths,
    demo_dag,
    heaviest_triangle_per_edge,
    lca_matrix,
    max_weight_two_edge_paths,
    random_dag,
    random_weighted_graph,
)
from .qsim import (
    AlgoStats,
    ColumnIndexTables,
    QueryLog,
    VirtualMinTable,
    algorithm1,
    algorithm2,
    algorithm3,
    algorithm4,
    durr_hoyer_batch,
    durr_hoyer_min,
    grover_success_probability,
    max_wit,
    max_wit_table,
)
from .witness import (
    ApproxParams,
    StripDecomposition,
    approx_multiwitness,
    approx_multiwitness_boosted,
    approx_rank_bounded,
    exact_max_witness_strips,
    k_witness,
    single_witness_product,
    witness_rank_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoolMatrix",
    "WitnessMatrix",
    "WitnessLists",
    "bool_product",
    "transpose",
    "max_witness_oracle",
    "witness_mask",
    "witness_count",
    "rank_of",
    "random_matrix",
    "witness_violations",
    "StripDecomposition",
    "ApproxParams",
    "exact_max_witness_strips",
    "single_witness_product",
    "k_witness",
    "approx_rank_bounded",
    "approx_multiwitness",
    "approx_multiwitness_boosted",
    "witness_rank_matrix",
    "VirtualMinTable",
    "QueryLog",
    "ColumnIndexTables",
    "AlgoStats",
    "grover_success_probability",
    "durr_hoyer_min",
    "durr_hoyer_batch",
    "max_wit_table",
    "max_wit",
    "algorithm1",
    "algorithm2",
    "algorithm3",
    "algorithm4",
    "CycleError",
    "Dag",
    "VertexWeightedGraph",
    "demo_dag",
    "random_dag",
    "random_weighted_graph",
    "lca_matrix",
    "all_pairs_lca",
    "brute_force_lca_set",
    "heaviest_triangle_per_edge",
    "max_weight_two_edge_paths",
    "brute_force_heaviest_triangles",
    "brute_force_two_edge_paths",
]
