"""Reference selection schemes: random, k-means, spectral clustering, betweenness.

Each returns a Coreset with estimator weights that sum to 1 (beta 1, no
trajectory). These are the standard comparison points for the greedy
geodesic selector; none of them look at placement costs.
"""

import heapq

import numpy as np
import scipy.sparse as sp

from .graphs import Graph, PointCloud
from .selection import Coreset
from .spectral import lazy_walk_matrix, top_eigenvectors


def random_sampling(n: int, k: int, seed: int) -> Coreset:
    """k distinct vertices uniformly at random, weight 1/k each."""
    if not (1 <= k <= n):
        raise ValueError("k must be in 1..n")
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


def _lloyd(points: np.ndarray, k: int, seed: int, tol: float = 1e-6, max_iter: int = 300):
    """Lloyd iterations from a kmeans++ start; empty clusters re-seed at the
    point farthest from its assigned centroid."""
    rng = np.random.default_rng(seed)
    centroids = _kmeans_plus_plus(points, k, rng)
    assign = np.zeros(len(points), dtype=np.int64)
    for _ in range(max_iter):
        dist2 = (
            np.sum(points * points, axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + np.sum(centroids * centroids, axis=1)[None, :]
        )
        assign = np.argmin(dist2, axis=1)
        nearest = dist2[np.arange(len(points)), assign]
        moved = 0.0
        for j in range(k):
            members = assign == j
            if not members.any():
                far = int(np.argmax(nearest))
                new = points[far]
                nearest[far] = 0.0
            else:
                new = points[members].mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centroids[j])))
            centroids[j] = new
        if moved < tol:
            break
    dist2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    assign = np.argmin(dist2, axis=1)
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


def spectral_clustering_coreset(
    graph: Graph, k: int, seed: int, basis: np.ndarray | None = None
) -> Coreset:
    """k-means in the top-k eigenvector embedding of the lazy walk matrix.

    A disconnected graph is handled implicitly: the eigenvalue-1 eigenspace
    spans component indicators, so clustering splits components first. basis
    may carry precomputed eigenvectors (columns, descending) to share across
    calls; at least k columns are required.
    """
    if not (1 <= k <= graph.n):
        raise ValueError("k must be in 1..n")
    if basis is None:
        basis = top_eigenvectors(lazy_walk_matrix(graph), k)
    if basis.shape[1] < k:
        raise ValueError("basis has fewer than k columns")
    embedding = np.ascontiguousarray(basis[:, :k])
    centroids, assign = _lloyd(embedding, k, seed)
    reps, weights = _snap_to_members(embedding, centroids, assign)
    return Coreset(reps, weights, method="spectral")


def betweenness_scores(graph: Graph) -> np.ndarray:
    """Exact betweenness centrality with weighted shortest paths.

    Uniform edge weights take a batched breadth-first variant; general
    weights run one Dijkstra per source. Edge weights act as lengths.
    """
    if graph.n == 1:
        return np.zeros(1)
    if np.all(graph.weights == graph.weights[0]):
        structure = graph.adjacency()
        structure.data = np.ones_like(structure.data)
        return _betweenness_unit(structure)
    return _betweenness_dijkstra(graph)


def _betweenness_unit(adjacency: sp.csr_matrix, batch: int = 256) -> np.ndarray:
    n = adjacency.shape[0]
    scores = np.zeros(n)
    for start in range(0, n, batch):
        sources = np.arange(start, min(start + batch, n))
        b = len(sources)
        cols = np.arange(b)
        dist = np.full((n, b), -1, dtype=np.int32)
        sigma = np.zeros((n, b))
        dist[sources, cols] = 0
        sigma[sources, cols] = 1.0
        frontier = np.zeros((n, b), dtype=bool)
        frontier[sources, cols] = True
        levels = [frontier]
        level = 0
        while True:
            level += 1
            flow = adjacency @ (sigma * levels[-1])
            fresh = (dist < 0) & (flow > 0)
            if not fresh.any():
                break
            dist[fresh] = level
            sigma[fresh] = flow[fresh]
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


def _betweenness_dijkstra(graph: Graph) -> np.ndarray:
    n = graph.n
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in zip(graph.edges, graph.weights):
        neighbors[u].append((int(v), float(w)))
        neighbors[v].append((int(u), float(w)))
    scores = np.zeros(n)
    for s in range(n):
        dist = np.full(n, np.inf)
        sigma = np.zeros(n)
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0.0
        sigma[s] = 1.0
        done = np.zeros(n, dtype=bool)
        order = []
        heap = [(0.0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = True
            order.append(v)
            for u, w in neighbors[v]:
                cand = d + w
                if cand < dist[u]:
                    dist[u] = cand
                    sigma[u] = sigma[v]
                    preds[u] = [v]
                    heapq.heappush(heap, (cand, u))
                elif cand == dist[u] and not done[u]:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = np.zeros(n)
        for v in reversed(order):
            for p in preds[v]:
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v])
            if v != s:
                scores[v] += delta[v]
    return scores / 2.0


def betweenness_coreset(graph: Graph, k: int) -> Coreset:
    """Top-k vertices by betweenness, uniform 1/k weights, index tie-break."""
    if not (1 <= k <= graph.n):
        raise ValueError("k must be in 1..n")
    scores = betweenness_scores(graph)
    order = np.argsort(-scores, kind="stable")[:k]
    return Coreset([int(i) for i in order], np.full(k, 1.0 / k), method="betweenness")
