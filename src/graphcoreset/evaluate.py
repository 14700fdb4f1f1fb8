"""Estimator evaluation: mean-estimation error, certified error bounds, and
shortest-path (hop count) averages used by the experiment drivers.

Every evaluated statistic is a GraphFunction: its estimate is estimate_mean,
its truth GraphFunction.mean() and its error error_metric. The average
distance is GraphFunction(source_average_distances(graph, np.arange(n)));
avg_shortest_path_estimate is the paper's K-source estimator of its mean.
Hop counts have one kernel, the batched breadth-first level sweep that also
runs Brandes' forward pass (baselines._levels): a source's average distance
is its exact integer sum of depth times level size, divided by n, and
betweenness_and_distances reads both statistics off one sweep."""

import math
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, fmt_float
from .baselines import _betweenness_unit, _hop_sums
from .graphs import Graph
from .spectral import GraphFunction, NormalizedColumns, smoothness_norm

# slack added to the certified side before comparing, absorbing float error
BOUND_SLACK = 1e-9


@dataclass
class ExperimentResult:
    """One row of an experiment table.

    err is a squared error and abs_err an absolute one. In a study row
    (experiments._run) err is the median over seeds of the squared errors and
    abs_err is sqrt(err), which is not the median absolute error when the seed
    count is even.
    """

    method: str
    K: int
    err: float
    abs_err: float
    coreset_cost: float
    bound_rhs: float | None = None


def _indices(coreset, n: int) -> np.ndarray:
    """The coreset's vertex indices, each checked to lie in 0..n-1."""
    idx = np.asarray(coreset.indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"coreset index out of range for {n} vertices")
    return idx


def estimate_mean(function: GraphFunction, coreset) -> float:
    """Weighted sample estimate of the mean of a vertex function; a weighted
    sum past float range is returned as inf or nan, without a warning."""
    idx = _indices(coreset, len(function.values))
    weights = np.asarray(coreset.weights, dtype=np.float64)
    if len(idx) != len(weights):
        raise ValueError("indices and weights length mismatch")
    if len(idx) == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        return float(weights @ function.values[idx])


def error_metric(function: GraphFunction, coreset) -> tuple:
    """(squared error, absolute error) of the estimate against the true mean."""
    abs_err = abs(function.mean() - estimate_mean(function, coreset))
    return abs_err * abs_err, abs_err


def _weight_row(coreset, n: int) -> np.ndarray:
    row = np.zeros(n)
    idx = _indices(coreset, n)
    if len(idx):
        np.add.at(row, idx, np.asarray(coreset.weights, dtype=np.float64))
    return row


def bound_check(
    function: GraphFunction,
    eigenvalue_threshold: float,
    coreset,
    columns: NormalizedColumns,
) -> tuple:
    """Certified error bound for functions spanned by eigenvectors whose
    eigenvalue magnitude exceeds the threshold, at the walk power ell the
    columns were built with.

    Returns (lhs, rhs, holds): the actual estimation error, the certificate
    smoothness * threshold^-ell * ||weighted column mix - uniform||, and
    whether lhs <= rhs up to BOUND_SLACK. Where threshold^ell underflows to
    0.0, or the residual's norm overflows, the certificate is vacuous: rhs is
    +inf.
    """
    if not (0.0 < eigenvalue_threshold < 1.0):
        raise ValueError("eigenvalue_threshold must be in (0, 1)")
    norm = smoothness_norm(function)
    n = columns.n
    row = _weight_row(coreset, n)
    # the certificate controls the walk power applied to the weight spikes:
    # for eigenpairs above the threshold, |<u, 1/n - row>| <= lam^-ell *
    # |<u, P^ell (1/n - row)>|, and P^ell fixes the uniform vector
    residual_vec = columns.apply(row) - 1.0 / n
    try:
        power = eigenvalue_threshold**columns.ell
    except OverflowError:  # an ell past float range: the power underflows all the same
        power = 0.0
    with np.errstate(over="ignore"):
        distance = float(np.linalg.norm(residual_vec))
    if power == 0.0:
        rhs = math.inf
    else:  # either zero factor gives 0: the other over a denormal power may be inf
        rhs = norm * (distance / power) if norm and distance else 0.0
    lhs = abs(function.mean() - estimate_mean(function, coreset))
    return lhs, rhs, lhs <= rhs + BOUND_SLACK


def _require_connected(graph: Graph, source: int) -> None:
    """Raise unless every vertex is reachable from source, naming source and
    the lowest vertex it cannot reach: on a disconnected graph no source
    reaches every vertex, so the first source checked is the one to name."""
    root = graph.components()
    apart = np.flatnonzero(root != root[source])
    if len(apart):
        raise ValueError(f"no path between {int(source)} and {int(apart[0])}; "
                         "graph must be connected")


def source_average_distances(graph: Graph, sources) -> np.ndarray:
    """Average hop distance from each source to all vertices.

    Edge weights are affinities and are not read: every edge has length 1
    (Graph.hop_adjacency). One breadth-first sweep per block of sources
    (baselines._hop_sums, without path counts): a source's average is its
    exact integer sum of depth times level size, divided by n. A
    disconnected graph raises, naming the first source and the lowest vertex
    it cannot reach.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) == 0:
        return np.zeros(0)
    if sources.min() < 0 or sources.max() >= graph.n:
        raise ValueError(f"source index out of range for {graph.n} vertices")
    _require_connected(graph, sources[0])
    return _hop_sums(graph.hop_adjacency(), sources) / graph.n


def betweenness_and_distances(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """betweenness_scores(graph) and source_average_distances(graph,
    np.arange(n)) from one Brandes sweep, whose forward levels hold every hop
    distance. Both equal their separate computations bit for bit; a
    disconnected graph raises as source_average_distances does."""
    _require_connected(graph, 0)
    depth_sums = np.zeros(graph.n, dtype=np.int64)
    scores = _betweenness_unit(graph.hop_adjacency(), depth_sums=depth_sums)
    return scores, depth_sums / graph.n


def avg_shortest_path_estimate(graph: Graph, coreset) -> float:
    """The paper's K-source estimate of the mean average distance: the
    breadth-first sweep runs only from the selected vertices. Its exact
    counterpart is the mean of
    GraphFunction(source_average_distances(graph, np.arange(graph.n)))."""
    idx = _indices(coreset, graph.n)
    if len(idx) == 0:
        return 0.0
    weights = np.asarray(coreset.weights, dtype=np.float64)
    return float(weights @ source_average_distances(graph, idx))


def results_to_csv(rows, path: str) -> None:
    """Write experiment rows as CSV.

    Floats use repr-faithful formatting; bound_rhs is blank when absent and
    the runtime_ms column is always blank so result files stay
    machine-independent.
    """
    lines = ["method,K,err,abs_err,cost,bound_rhs,runtime_ms"]
    for r in rows:
        bound = "" if r.bound_rhs is None else fmt_float(r.bound_rhs)
        lines.append(",".join([r.method, str(int(r.K)), fmt_float(r.err), fmt_float(r.abs_err),
                               fmt_float(r.coreset_cost), bound, ""]))
    atomic_write_text(path, "\n".join(lines) + "\n")
