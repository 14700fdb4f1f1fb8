"""Reference selection schemes: random, k-means, spectral clustering, betweenness.

Each returns a Coreset with estimator weights that sum to 1 (beta 1, no
trajectory). These are the standard comparison points for the greedy
geodesic selector; none of them look at placement costs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .graphs import Graph, PointCloud
from .selection import Coreset
from .spectral import lazy_walk_matrix, top_eigenvectors

# Lloyd stops once every centroid moved less than _LLOYD_TOL, or after _LLOYD_MAX_ITER rounds
_LLOYD_TOL = 1e-6
_LLOYD_MAX_ITER = 300


def random_sampling(n: int, k: int, seed: int) -> Coreset:
    """k distinct vertices uniformly at random, weight 1/k each."""
    if not (1 <= k <= n):
        raise ValueError("k must be in 1..n")
    if n >= 2**63:
        raise ValueError("n must fit in int64")
    picks = np.random.default_rng(seed).choice(n, size=k, replace=False)
    return Coreset([int(i) for i in picks], np.full(k, 1.0 / k), method="random")


def _kmeans_plus_plus(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    dist2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = dist2.sum()
        if total <= 0:
            centroids[j] = points[int(rng.integers(n))]
        else:
            r = rng.random() * total
            centroids[j] = points[int(np.searchsorted(np.cumsum(dist2), r))]
        dist2 = np.minimum(dist2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _squared_distances(row_norms: np.ndarray, twice: np.ndarray, centroids: np.ndarray):
    """|x|^2 - 2 x.c + |c|^2 for every point and centroid, in that operation order."""
    dist2 = twice @ centroids.T
    np.subtract(row_norms, dist2, out=dist2)
    dist2 += np.sum(centroids * centroids, axis=1)[None, :]
    return dist2


def _cluster_sums(points: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster coordinate sums, each added in the order mean(axis=0) adds it.

    Two or more columns: one bincount over (cluster, column) keys adds each
    cluster's rows in index order, as numpy's axis-0 reduction does. One
    column: numpy sums it pairwise, so each cluster's run of a stable sort is
    summed by the same reduction.
    """
    k, d = len(counts), points.shape[1]
    if d == 1:
        column = points[np.argsort(assign, kind="stable"), 0]
        stops = np.cumsum(counts)
        return np.array([[column[stop - count:stop].sum()]
                         for stop, count in zip(stops.tolist(), counts.tolist())])
    keys = (assign * d)[:, None] + np.arange(d)
    return np.bincount(keys.ravel(), weights=points.ravel(), minlength=k * d).reshape(k, d)


def _lloyd(points: np.ndarray, k: int, seed: int):
    """Lloyd iterations from a kmeans++ start; empty clusters re-seed, in
    ascending cluster order, at the point farthest from its assigned centroid.

    Each iteration is a fixed set of whole-array operations: one distance
    matrix, one argmin, one set of cluster sums and counts, and a loop over
    the empty clusters only. Centroids are bit-equal to per-cluster
    points[members].mean(axis=0) (see _cluster_sums), and the distances
    keep one formula and operation order, so argmin ties break the same way.
    """
    rng = np.random.default_rng(seed)
    centroids = _kmeans_plus_plus(points, k, rng)
    rows = np.arange(len(points))
    row_norms = np.sum(points * points, axis=1)[:, None]
    twice = 2.0 * points
    for _ in range(_LLOYD_MAX_ITER):
        dist2 = _squared_distances(row_norms, twice, centroids)
        assign = np.argmin(dist2, axis=1)
        nearest = dist2[rows, assign]
        counts = np.bincount(assign, minlength=k)
        new = _cluster_sums(points, assign, counts) / np.maximum(counts, 1)[:, None]
        for j in np.flatnonzero(counts == 0).tolist():
            far = int(np.argmax(nearest))
            new[j] = points[far]
            nearest[far] = 0.0
        moved = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if moved < _LLOYD_TOL:
            break
    assign = np.argmin(_squared_distances(row_norms, twice, centroids), axis=1)
    return centroids, assign


def _snap_to_members(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray):
    """Representative of each cluster: member point nearest the centroid."""
    k = len(centroids)
    reps, weights = [], []
    n = len(points)
    for j in range(k):
        members = np.flatnonzero(assign == j)
        if len(members) == 0:
            continue
        d = np.sum((points[members] - centroids[j]) ** 2, axis=1)
        reps.append(int(members[int(np.argmin(d))]))
        weights.append(len(members) / n)
    return reps, np.array(weights)


def kmeans_coreset(cloud: PointCloud, k: int, seed: int) -> Coreset:
    """Lloyd/kmeans++ clustering; representatives snap to data points,
    weights are cluster fractions."""
    if not (1 <= k <= cloud.n):
        raise ValueError("k must be in 1..n")
    centroids, assign = _lloyd(cloud.coords, k, seed)
    reps, weights = _snap_to_members(cloud.coords, centroids, assign)
    return Coreset(reps, weights, method="kmeans")


def spectral_clustering_coreset(graph: Graph, k: int, seed: int) -> Coreset:
    """k-means in the top-k eigenvector embedding of the lazy walk matrix.

    A disconnected graph is handled implicitly: the eigenvalue-1 eigenspace
    spans component indicators, so clustering splits components first.
    """
    embedding = PointCloud(np.ascontiguousarray(top_eigenvectors(lazy_walk_matrix(graph), k)))
    return replace(kmeans_coreset(embedding, k, seed), method="spectral")


def betweenness_scores(graph: Graph) -> np.ndarray:
    """Exact (unnormalized) betweenness centrality; paths count hops.

    Edge weights are affinities and are not read (Graph.hop_adjacency).
    Brandes per block of sources: batched breadth-first sweeps count the
    shortest paths σ, and dependencies δ flow back level by level.
    Unreachable pairs contribute 0.
    """
    return _betweenness_unit(graph.hop_adjacency())


def _betweenness_unit(adjacency: sp.csr_matrix, batch: int = 256) -> np.ndarray:
    n = adjacency.shape[0]
    scores = np.zeros(n)
    for start in range(0, n, batch):
        sources = np.arange(start, min(start + batch, n))
        b = len(sources)
        cols = np.arange(b)
        sigma = np.zeros((n, b))
        sigma[sources, cols] = 1.0
        frontier = np.zeros((n, b), dtype=bool)
        frontier[sources, cols] = True
        levels = [frontier]
        while True:
            flow = adjacency @ (sigma * levels[-1])
            # a reached vertex has at least one shortest path: σ = 0 means unreached
            fresh = (sigma == 0.0) & (flow > 0)
            if not fresh.any():
                break
            np.copyto(sigma, flow, where=fresh)
            levels.append(fresh)
        delta = np.zeros((n, b))
        safe_sigma = np.where(sigma > 0, sigma, 1.0)
        for depth in range(len(levels) - 1, 0, -1):
            coef = np.where(levels[depth], (1.0 + delta) / safe_sigma, 0.0)
            back = adjacency @ coef
            delta += np.where(levels[depth - 1], sigma * back, 0.0)
        delta[sources, cols] = 0.0
        scores += delta.sum(axis=1)
    return scores / 2.0


def betweenness_coreset(graph: Graph, k: int) -> Coreset:
    """Top-k vertices by betweenness, uniform 1/k weights, index tie-break."""
    if not (1 <= k <= graph.n):
        raise ValueError("k must be in 1..n")
    scores = betweenness_scores(graph)
    order = np.argsort(-scores, kind="stable")[:k]
    return Coreset([int(i) for i in order], np.full(k, 1.0 / k), method="betweenness")
