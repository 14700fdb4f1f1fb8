"""Cost-aware greedy coreset selection on graphs.

Selects a small weighted vertex set whose weighted average reproduces the
global mean of any sufficiently smooth vertex function, by greedy geodesic
ascent toward the uniform direction in the space of normalized random-walk
columns. Supports per-vertex costs through a slack parameter that trades
alignment quality for cheaper vertices.
"""

from .baselines import (
    betweenness_coreset,
    betweenness_scores,
    kmeans_coreset,
    random_sampling,
    spectral_clustering_coreset,
)
from .evaluate import (
    CostReport,
    ExperimentResult,
    avg_shortest_path_estimate,
    avg_shortest_path_true,
    bound_check,
    error_metric,
    estimate_mean,
    eta_diagnostic,
    results_from_csv,
    results_to_csv,
    source_average_distances,
)
from .graphs import (
    CostVector,
    Graph,
    PointCloud,
    build_knn_kernel_graph,
    generate_gaussian_mixture,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    largest_connected_component,
    load_edge_list,
    sample_costs_uniform,
    save_edge_list,
)
from .selection import (
    Coreset,
    IterationRecord,
    SelectionConfig,
    beta_star,
    cost_penalty_bound,
    residual,
    select_coreset,
    select_coreset_grid,
)
from .spectral import (
    GraphFunction,
    NormalizedColumns,
    eigendecomposition,
    lazy_walk_matrix,
    normalized_columns,
    smoothness_norm,
    synthesize_smooth_function,
    top_eigenvectors,
)

__version__ = "0.1.0"

__all__ = [
    "Coreset",
    "CostReport",
    "CostVector",
    "ExperimentResult",
    "Graph",
    "GraphFunction",
    "IterationRecord",
    "NormalizedColumns",
    "PointCloud",
    "SelectionConfig",
    "avg_shortest_path_estimate",
    "avg_shortest_path_true",
    "beta_star",
    "betweenness_coreset",
    "betweenness_scores",
    "bound_check",
    "build_knn_kernel_graph",
    "cost_penalty_bound",
    "eigendecomposition",
    "error_metric",
    "estimate_mean",
    "eta_diagnostic",
    "generate_gaussian_mixture",
    "generate_powerlaw_tree",
    "generate_random_graph",
    "generate_sbm",
    "kmeans_coreset",
    "largest_connected_component",
    "lazy_walk_matrix",
    "load_edge_list",
    "normalized_columns",
    "random_sampling",
    "residual",
    "results_from_csv",
    "results_to_csv",
    "sample_costs_uniform",
    "save_edge_list",
    "select_coreset",
    "select_coreset_grid",
    "smoothness_norm",
    "source_average_distances",
    "spectral_clustering_coreset",
    "synthesize_smooth_function",
    "top_eigenvectors",
    "__version__",
]
