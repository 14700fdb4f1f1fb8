"""Reference selection schemes: random, k-means, spectral clustering, betweenness.

Each returns a Coreset with estimator weights that sum to 1 (beta 1, no
trajectory). These are the standard comparison points for the greedy
geodesic selector; none of them look at placement costs.

BASELINES is their one table, method -> f(inputs, k, seed), read by the CLI
and the studies alike. k-means clusters the inputs' point cloud, or else the
spectral embedding: the first k of the walk's top-k_max eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import Graph, PointCloud
from .selection import Coreset
from .spectral import lazy_walk_matrix, top_eigenvectors

# Lloyd stops once every centroid moved less than _LLOYD_TOL, or after _LLOYD_MAX_ITER rounds
_LLOYD_TOL = 1e-6
_LLOYD_MAX_ITER = 300
# sources per breadth-first sweep: the sweep holds a few (n, _BATCH) arrays
_BATCH = 256
# relative gap under which two members' distances to their centroid tie in
# _snap_to_members. On the benchmark's runner pools (seeds 1 and 8675, 12,114
# clusters of two or more members) the nearest two members' relative gap is
# either below 1e-14 (1,070 two-member clusters, whose members are
# equidistant from their exact mean) or at least 5.1e-6, so any constant from
# 1e-13 to 1e-7 gives the same picks
_SNAP_TIE_RTOL = 1e-9


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


def _squared_distances(norms: np.ndarray, twice_t: np.ndarray, centroids: np.ndarray):
    """The (k, n) table |x|^2 - 2 x.c + |c|^2 of every centroid and point, in
    that operation order; norms holds each point's |x|^2 and twice_t is 2 points^T."""
    dist2 = centroids @ twice_t
    np.subtract(norms, dist2, out=dist2)
    dist2 += np.sum(centroids * centroids, axis=1)[:, None]
    return dist2


def _first_minimum(dist2: np.ndarray) -> np.ndarray:
    """np.argmin(dist2, axis=0): the first row holding each column's minimum.

    Whole-row passes over the (k, n) table instead of n short columns: each
    row that holds its column's minimum scores k minus its index, in the
    smallest unsigned type that holds k, and the top score names the first.
    A column holding NaN has no row equal to its minimum, so it scores 0 and
    falls back to argmin, which returns its first NaN.
    """
    k = len(dist2)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
    top = ((dist2 == dist2.min(axis=0)) * rank).max(axis=0)
    first = k - top.astype(np.intp)
    missed = top == 0
    if missed.any():
        first[missed] = np.argmin(dist2[:, missed], axis=0)
    return first


def _cluster_sums(points: np.ndarray, points_t: np.ndarray, assign: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Per-cluster coordinate sums, each added in the order mean(axis=0) adds it.

    Two or more columns: numpy's axis-0 reduction adds each cluster's rows
    in index order, as a bincount does, one per row of points_t (points^T).
    One column: numpy sums it pairwise, so each cluster's run of a stable
    sort is summed by the same reduction.
    """
    k = len(counts)
    if points.shape[1] == 1:
        column = points[np.argsort(assign, kind="stable"), 0]
        stops = np.cumsum(counts)
        return np.array([[column[stop - count:stop].sum()]
                         for stop, count in zip(stops.tolist(), counts.tolist())])
    return np.stack([np.bincount(assign, weights=row, minlength=k) for row in points_t], axis=1)


def _lloyd(points: np.ndarray, k: int, seed: int):
    """Lloyd iterations from a kmeans++ start; empty clusters re-seed, in
    ascending cluster order, at the point farthest from its assigned centroid.

    Each iteration is a fixed set of whole-array operations: one (k, n)
    distance table, one first-minimum pass along it, one set of cluster
    sums and counts, and a loop over the empty clusters only, which alone
    read the nearest distances. Centroids are bit-equal to per-cluster
    points[members].mean(axis=0) (see _cluster_sums), and the distances
    keep one formula and operation order, so ties break the same way. An
    assignment that repeats with no cluster re-seeded since ends the loop:
    its means are the current centroids, so every later iteration would
    repeat it.
    """
    rng = np.random.default_rng(seed)
    centroids = _kmeans_plus_plus(points, k, rng)
    norms = np.sum(points * points, axis=1)
    points_t = np.ascontiguousarray(points.T)
    twice_t = 2.0 * points_t
    assign, reseeded = None, True
    for _ in range(_LLOYD_MAX_ITER):
        dist2 = _squared_distances(norms, twice_t, centroids)
        previous, assign = assign, _first_minimum(dist2)
        if not reseeded and np.array_equal(assign, previous):
            return centroids, assign
        counts = np.bincount(assign, minlength=k)
        new = _cluster_sums(points, points_t, assign, counts) / np.maximum(counts, 1)[:, None]
        empty = np.flatnonzero(counts == 0).tolist()
        reseeded = bool(empty)
        if empty:
            nearest = dist2[assign, np.arange(len(points))]
            for j in empty:
                far = int(np.argmax(nearest))
                new[j] = points[far]
                nearest[far] = 0.0
        moved = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if moved < _LLOYD_TOL:
            break
    return centroids, _first_minimum(_squared_distances(norms, twice_t, centroids))


def _snap_to_members(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray):
    """Representative of each non-empty cluster, in cluster order: the member
    point nearest the centroid, with weight its cluster's fraction of the points.

    Members whose squared distance is within a relative _SNAP_TIE_RTOL of the
    nearest one tie, and the lowest index wins. Members equidistant from the
    exact mean (both members of any two-member cluster) then do not fall to
    the rounding of the float centroid, nor to the rounding of the embedding
    it came from. A distance of 0 ties only with exact zeros, a cluster whose
    distances are all inf picks its first member, and one whose distances
    hold a NaN picks its first NaN, as np.argmin does.
    """
    reps, weights = [], []
    for j in range(len(centroids)):
        members = np.flatnonzero(assign == j)
        if len(members) == 0:
            continue
        d = np.sum((points[members] - centroids[j]) ** 2, axis=1)
        nearest = int(np.argmin(d))
        if d[nearest] < np.inf:  # neither NaN nor inf: take the first tied member
            nearest = int(np.argmax(d - d[nearest] <= _SNAP_TIE_RTOL * d[nearest]))
        reps.append(int(members[nearest]))
        weights.append(len(members) / len(points))
    return reps, np.array(weights)


def kmeans_coreset(cloud: PointCloud, k: int, seed: int) -> Coreset:
    """Lloyd/kmeans++ clustering; representatives snap to data points,
    weights are cluster fractions."""
    if not (1 <= k <= cloud.n):
        raise ValueError("k must be in 1..n")
    centroids, assign = _lloyd(cloud.coords, k, seed)
    reps, weights = _snap_to_members(cloud.coords, centroids, assign)
    return Coreset(reps, weights, method="kmeans")


def betweenness_scores(graph: Graph) -> np.ndarray:
    """Exact (unnormalized) betweenness centrality; paths count hops.

    Edge weights are affinities and are not read (Graph.hop_adjacency).
    Brandes per block of sources: batched breadth-first sweeps count the
    shortest paths σ (_levels), and dependencies δ flow back level by level.
    Unreachable pairs contribute 0. A tree (n - 1 edges, all n vertices
    reached from vertex 0) skips the sweep: one search from vertex 0 gives
    the subtree sizes, and the scores follow from them as int64 counts that
    equal the sweep's exact float sums bit for bit (_tree_statistics).
    """
    return _betweenness_unit(graph.hop_adjacency())[0]


def _levels(adjacency: sp.csr_matrix, sources: np.ndarray, sigma: np.ndarray | None = None):
    """The breadth-first levels from each source, one column per source.

    Yields, depth by depth from the sources' own level, the (n, b) mask of
    the vertices first reached at that depth. Given sigma, an (n, b) float64
    zero array, it also counts there the shortest paths to every reached
    vertex: the frontier carries its σ through the adjacency. Without it the
    frontier is 0/1 in the adjacency's dtype; a float32 adjacency keeps that
    exact, since only the sign of a neighbour count is read.
    """
    n, b = adjacency.shape[0], len(sources)
    cols = np.arange(b)
    level = np.zeros((n, b), dtype=bool)
    level[sources, cols] = True
    unreached = ~level
    frontier = level.astype(adjacency.dtype)
    if sigma is not None:
        sigma += frontier
    while True:
        yield level
        flow = adjacency @ frontier
        level = flow > 0
        level &= unreached
        if not level.any():
            return
        unreached ^= level
        if sigma is None:
            np.copyto(frontier, level)
        else:
            # σ of the new level is its flow; σ is 0 there before the sum
            np.multiply(flow, level, out=frontier)
            sigma += frontier


def _depth_sums(levels) -> np.ndarray:
    """Each source's summed hop distance to the vertices its levels reach."""
    total = 0
    for depth, level in enumerate(levels):
        # a byte sum into int32 counts twice as fast as a boolean sum
        total = total + np.int64(depth) * level.view(np.uint8).sum(axis=0, dtype=np.int32)
    return total


def _hop_sums(adjacency: sp.csr_matrix, sources: np.ndarray) -> np.ndarray:
    """_depth_sums of each source, _BATCH sources per sweep, with a 0/1 float32
    frontier: exact, and half the memory traffic of float64."""
    adjacency = adjacency.astype(np.float32)
    return np.concatenate([_depth_sums(_levels(adjacency, sources[start:start + _BATCH]))
                           for start in range(0, len(sources), _BATCH)])


def _tree_statistics(adjacency: sp.csr_matrix):
    """(betweenness, depth sums) of a tree from its subtree sizes, or None for
    any other graph.

    A graph is a tree when it has n - 1 edges (2 (n - 1) stored entries) and
    the levels from vertex 0 reach all n vertices. Rooted at 0, each vertex's
    parent is its one neighbour a level up. Removing v leaves components of
    its children's subtree sizes and n - size(v), and v lies on the one path
    of every pair split between two of them, so its score is
    ((n - 1)^2 - sum of the children's size^2 - (n - size(v))^2) / 2. Moving
    the source from a parent to its child brings size(child) vertices one hop
    nearer and the rest one farther: D(child) = D(parent) + n - 2 size(child).
    All of it is int64: the sweep's float sums on a tree are the same integers.
    """
    n = adjacency.shape[0]
    if adjacency.nnz != 2 * (n - 1):
        return None
    levels = [np.flatnonzero(level[:, 0])
              for level in _levels(adjacency, np.zeros(1, dtype=np.intp))]
    if sum(map(len, levels)) < n:
        return None
    depth = np.empty(n, dtype=np.int64)
    for d, vertices in enumerate(levels):
        depth[vertices] = d
    rows = np.repeat(np.arange(n), np.diff(adjacency.indptr))
    up = depth[adjacency.indices] == depth[rows] - 1
    parent = np.zeros(n, dtype=np.int64)
    parent[rows[up]] = adjacency.indices[up]
    size = np.ones(n, dtype=np.int64)
    for vertices in reversed(levels[1:]):
        np.add.at(size, parent[vertices], size[vertices])
    child_squares = np.zeros(n, dtype=np.int64)
    np.add.at(child_squares, parent[1:], size[1:] ** 2)
    scores = ((n - 1) ** 2 - child_squares - (n - size) ** 2) // 2
    sums = np.empty(n, dtype=np.int64)
    sums[0] = depth.sum()
    for vertices in levels[1:]:
        sums[vertices] = sums[parent[vertices]] + n - 2 * size[vertices]
    return scores.astype(np.float64), sums


def _betweenness_unit(adjacency: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(Brandes' sums over every source, each source's _depth_sums), _BATCH
    sources per sweep; the depth sums come from the same levels, as int64.

    A tree (2 (n - 1) stored entries, and the search from vertex 0 reaches all
    n vertices) skips the sweep: _tree_statistics reads both from that one
    search's subtree sizes. Its int64 counts are the integers the sweep adds
    exactly in float64 (σ is 1 on a tree), so they are bit-equal to the
    sweep's. Every other graph takes the sweep."""
    tree = _tree_statistics(adjacency)
    if tree is not None:
        return tree
    n = adjacency.shape[0]
    scores = np.zeros(n)
    depth_sums = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BATCH):
        sources = np.arange(start, min(start + _BATCH, n))
        b = len(sources)
        sigma = np.zeros((n, b))
        levels = list(_levels(adjacency, sources, sigma))
        depth_sums[sources] = _depth_sums(levels)
        # σ is 0 exactly off the levels, where no coefficient reads it: 1 keeps
        # the division finite
        np.copyto(sigma, 1.0, where=sigma == 0.0)
        delta = np.zeros((n, b))
        coef = np.empty((n, b))
        for depth in range(len(levels) - 1, 0, -1):
            # (1 + δ)/σ on level depth and 0 elsewhere, as a product with the mask
            np.add(delta, 1.0, out=coef)
            coef /= sigma
            coef *= levels[depth]
            back = adjacency @ coef
            back *= sigma
            back *= levels[depth - 1]
            delta += back
        delta[sources, np.arange(b)] = 0.0
        scores += delta.sum(axis=1)
    return scores / 2.0, depth_sums


@dataclass
class BaselineInputs:
    """What the baselines read of one graph, or of a point cloud alone. The
    walk and the betweenness scores, unless given, and the embedding basis
    (the walk's top k_max eigenvectors) come from graph on first use."""

    graph: Graph | None
    k_max: int
    cloud: PointCloud | None = None  # what k-means clusters; None: the embedding
    walk: sp.csr_matrix | None = None
    scores: np.ndarray | None = None
    basis: np.ndarray | None = field(default=None, init=False, repr=False)

    def embedding(self, k: int) -> PointCloud:
        """The first k basis coordinates of each vertex. The eigenvalue-1 vectors
        span component indicators, so clusters split components first."""
        if k > self.k_max:
            raise ValueError(f"k {k} is above k_max {self.k_max}")
        if self.basis is None:
            walk = lazy_walk_matrix(self.graph) if self.walk is None else self.walk
            self.basis = top_eigenvectors(walk, self.k_max)
        return PointCloud(np.ascontiguousarray(self.basis[:, :k]))


def _top_betweenness(inputs: BaselineInputs, k: int, seed: int) -> Coreset:
    """The k vertices of highest betweenness, highest first and ties to the
    lower index, weight 1/k each."""
    if not (1 <= k <= inputs.graph.n):  # before the sweep, which is the costly part
        raise ValueError("k must be in 1..n")
    if inputs.scores is None:
        inputs.scores = betweenness_scores(inputs.graph)
    order = np.argsort(-inputs.scores, kind="stable")[:k]
    return Coreset([int(i) for i in order], np.full(k, 1.0 / k), method="betweenness")


BASELINES = {  # betweenness draws nothing, so reads no seed
    "random": lambda inputs, k, seed: random_sampling(inputs.graph.n, k, seed),
    "kmeans": lambda inputs, k, seed: kmeans_coreset(
        inputs.embedding(k) if inputs.cloud is None else inputs.cloud, k, seed),
    "spectral": lambda inputs, k, seed: replace(
        kmeans_coreset(inputs.embedding(k), k, seed), method="spectral"),
    "betweenness": _top_betweenness,
}
