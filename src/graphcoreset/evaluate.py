"""Estimator evaluation: mean-estimation error, certified error bounds, and
shortest-path averages used by the experiment drivers."""

import csv
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from ._util import atomic_write_text, fmt_float
from .graphs import Graph
from .spectral import GraphFunction, NormalizedColumns, smoothness_norm

# slack added to the certified side before comparing, absorbing float error
BOUND_SLACK = 1e-9


@dataclass
class ExperimentResult:
    """One row of an experiment table."""

    method: str
    K: int
    err: float
    abs_err: float
    coreset_cost: float
    bound_rhs: float | None = None


CostReport = namedtuple("CostReport", ["c_cso", "c_cos"])


def _indices(coreset, n: int) -> np.ndarray:
    """The coreset's vertex indices, each checked to lie in 0..n-1."""
    idx = np.asarray(coreset.indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"coreset index out of range for {n} vertices")
    return idx


def estimate_mean(function: GraphFunction, coreset) -> float:
    """Weighted sample estimate of the mean of a vertex function."""
    idx = _indices(coreset, len(function.values))
    weights = np.asarray(coreset.weights, dtype=np.float64)
    if len(idx) != len(weights):
        raise ValueError("indices and weights length mismatch")
    if len(idx) == 0:
        return 0.0
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
    whether lhs <= rhs up to BOUND_SLACK.
    """
    if not (0.0 < eigenvalue_threshold < 1.0):
        raise ValueError("eigenvalue_threshold must be in (0, 1)")
    norm = smoothness_norm(function)
    n = columns.n
    row = _weight_row(coreset, n)
    # the certificate controls the walk power applied to the weight spikes:
    # for eigenpairs above the threshold, |<u, 1/n - row>| <= lam^-ell *
    # |<u, P^ell (1/n - row)>|, and P^ell fixes the uniform vector
    mixed = columns.matrix @ row
    residual_vec = mixed - np.full(n, 1.0 / n)
    rhs = norm / eigenvalue_threshold**columns.ell * float(np.linalg.norm(residual_vec))
    lhs = abs(function.mean() - estimate_mean(function, coreset))
    return lhs, rhs, lhs <= rhs + BOUND_SLACK


def eta_diagnostic(columns: NormalizedColumns, kappa: float) -> float:
    """Worst-case per-step contraction factor implied by the slack parameter."""
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must be in (0, 1]")
    best = float(np.max(columns.alignments(columns.target)))
    return float(np.sqrt(max(0.0, 1.0 - (kappa * best) ** 2)))


def source_average_distances(graph: Graph, sources) -> np.ndarray:
    """Average shortest-path distance from each source to all vertices.

    One Dijkstra per source via the sparse graph routines. Unreachable pairs
    raise, naming the first offending pair.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) == 0:
        return np.zeros(0)
    dist = _sp_dijkstra(graph.adjacency(), directed=False, indices=sources)
    dist = np.atleast_2d(dist)
    if np.isinf(dist).any():
        src_pos, tgt = np.argwhere(np.isinf(dist))[0]
        raise ValueError(
            f"no path between {int(sources[src_pos])} and {int(tgt)}; "
            "graph must be connected"
        )
    return dist.mean(axis=1)


def _weighted_average_distance(graph: Graph, indices, weights) -> float:
    averages = source_average_distances(graph, indices)
    return float(np.asarray(weights, dtype=np.float64) @ averages)


def avg_shortest_path_true(graph: Graph) -> float:
    """Exact mean over all vertices of the per-vertex average distance."""
    return _weighted_average_distance(
        graph, np.arange(graph.n), np.full(graph.n, 1.0 / graph.n)
    )


def avg_shortest_path_estimate(graph: Graph, coreset) -> float:
    """Same statistic estimated from the coreset: Dijkstra runs only from the
    selected vertices."""
    idx = _indices(coreset, graph.n)
    if len(idx) == 0:
        return 0.0
    return _weighted_average_distance(graph, idx, coreset.weights)


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


def results_from_csv(path: str) -> list:
    """Inverse of results_to_csv; a blank bound_rhs maps to None."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return [ExperimentResult(method=rec["method"], K=int(rec["K"]), err=float(rec["err"]),
                                 abs_err=float(rec["abs_err"]), coreset_cost=float(rec["cost"]),
                                 bound_rhs=float(rec["bound_rhs"]) if rec["bound_rhs"] else None)
                for rec in csv.DictReader(handle)]
