"""Cost-aware greedy coreset selection on graphs.

Selects a small weighted vertex set whose weighted average reproduces the
global mean of any sufficiently smooth vertex function, by greedy geodesic
ascent toward the uniform direction in the space of normalized random-walk
columns. Supports per-vertex costs through a slack parameter that trades
alignment quality for cheaper vertices.

Importing the package loads numpy and the standard library only: every
scipy module is imported inside the functions that call it. Generating an
SBM, power-law tree, random graph or Gaussian mixture (components are
labelled over the edge array in numpy), the random and k-means baselines
and an indicator evaluation load no scipy at all; the walk matrix, its
powers and the adjacency load scipy.sparse, and so do betweenness and
average distances, which are breadth-first sweeps over the hop adjacency;
the kNN build loads scipy.spatial, and the eigenvector embedding (a
Lanczos solve) scipy.sparse.linalg.
"""

from .baselines import (
    BaselineInputs,
    betweenness_scores,
    kmeans_coreset,
    random_sampling,
)
from .evaluate import (
    ExperimentResult,
    betweenness_and_distances,
    bound_check,
    error_metric,
    estimate_mean,
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
)
from .selection import (
    Coreset,
    IterationRecord,
    SelectionConfig,
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
    "BaselineInputs",
    "Coreset",
    "CostVector",
    "ExperimentResult",
    "Graph",
    "GraphFunction",
    "IterationRecord",
    "NormalizedColumns",
    "PointCloud",
    "SelectionConfig",
    "betweenness_and_distances",
    "betweenness_scores",
    "bound_check",
    "build_knn_kernel_graph",
    "eigendecomposition",
    "error_metric",
    "estimate_mean",
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
    "results_to_csv",
    "sample_costs_uniform",
    "select_coreset",
    "select_coreset_grid",
    "smoothness_norm",
    "source_average_distances",
    "synthesize_smooth_function",
    "top_eigenvectors",
    "__version__",
]
