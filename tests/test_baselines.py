"""Reference schemes: random, k-means, spectral clustering, betweenness."""

import dataclasses
import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from graphcoreset import (
    Coreset,
    CostVector,
    Graph,
    GraphFunction,
    PointCloud,
    BaselineInputs,
    betweenness_and_distances,
    betweenness_scores,
    build_knn_kernel_graph,
    estimate_mean,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    kmeans_coreset,
    random_sampling,
    source_average_distances,
)
from graphcoreset import baselines as baselines_mod
from graphcoreset import experiments as experiments_mod
from graphcoreset import spectral as spectral_mod
from graphcoreset.baselines import (
    BASELINES,
    _betweenness_unit,
    _first_minimum,
    _kmeans_plus_plus,
    _lloyd,
    _snap_to_members,
)
from graphcoreset.experiments import (
    ClusterIndicatorConfig,
    SbmIndicatorConfig,
    run_cluster_indicator,
    run_sbm_indicator,
)


def run_spectral(graph: Graph, k: int, seed: int) -> Coreset:
    """The table's spectral entry as the CLI runs it: k-means in all k of the
    walk's top-k eigenvectors."""
    return BASELINES["spectral"](BaselineInputs(graph, k), k, seed)


def run_betweenness(graph: Graph, k: int) -> Coreset:
    """The table's betweenness entry, its scores computed from the graph."""
    return BASELINES["betweenness"](BaselineInputs(graph, k), k, 0)


def test_random_sampling_basics():
    out = random_sampling(10, 10, seed=0)
    assert sorted(out.indices) == list(range(10))  # k = n means everything once
    assert np.allclose(out.weights, 0.1)
    again = random_sampling(10, 4, seed=5)
    assert again.indices == random_sampling(10, 4, seed=5).indices
    assert len(set(again.indices)) == 4
    with pytest.raises(ValueError):
        random_sampling(10, 0, seed=0)
    with pytest.raises(ValueError):
        random_sampling(10, 11, seed=0)
    with pytest.raises(ValueError, match="int64"):  # numpy's sampler takes no n from 2**63 up
        random_sampling(2**63, 2, seed=0)


def test_random_sampling_is_unbiased():
    """Averaged over seeds, the indicator estimate matches the true fraction."""
    n, k = 20, 5
    f = GraphFunction((np.arange(n) < 5).astype(float))  # mean 0.25
    estimates = [estimate_mean(f, random_sampling(n, k, seed=s)) for s in range(200)]
    # without-replacement variance p(1-p)/k * (n-k)/(n-1), then / 200 runs
    sigma = np.sqrt(0.25 * 0.75 / k * (n - k) / (n - 1) / 200)
    assert abs(np.mean(estimates) - 0.25) < 4.0 * sigma


def cluster_cloud(seed: int) -> PointCloud:
    rng = np.random.default_rng(seed)
    means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    counts = [4, 6, 10]
    coords = np.vstack([
        m + 0.05 * rng.standard_normal((c, 2)) for m, c in zip(means, counts)
    ])
    labels = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    return PointCloud(coords, labels)


def test_kmeans_recovers_separated_clusters():
    cloud = cluster_cloud(0)
    hits = 0
    for seed in range(20):
        out = kmeans_coreset(cloud, 3, seed=seed)
        if sorted(np.round(out.weights, 6)) == [0.2, 0.3, 0.5]:
            # each representative must come from the cluster it stands for
            sizes = {cloud.labels[i]: w for i, w in zip(out.indices, out.weights)}
            assert sizes == {0: 0.2, 1: 0.3, 2: 0.5}
            hits += 1
    assert hits >= 18  # kmeans++ starts essentially always split these


def test_kmeans_duplicate_points():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]]))
    out = kmeans_coreset(cloud, 2, seed=1)
    assert sorted(out.weights.tolist()) == [0.5, 0.5]
    picked = cloud.coords[np.array(out.indices)]
    assert not np.array_equal(picked[0], picked[1])  # one from each pile
    with pytest.raises(ValueError):
        kmeans_coreset(cloud, 5, seed=0)


def reference_lloyd(points, k, seed, tol=1e-6, max_iter=300):
    """The per-cluster loop that _lloyd must reproduce bit for bit."""
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


def test_lloyd_matches_reference_loop():
    """Grid clouds give duplicate points, so clusters empty out and re-seed; a
    grid half next to a Gaussian half empties several clusters at once.
    Small clouds run every k in 1..n; runner-shaped ones (up to 300 points,
    30 dimensions and k = 30) run a few k each."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            n = data.draw(st.integers(2, 60))
            dim = data.draw(st.integers(1, 6))
            ks = range(1, n + 1)
        else:
            n = data.draw(st.integers(30, 300))
            dim = data.draw(st.integers(1, 30))
            ks = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=3, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        normal = rng.standard_normal((n, dim))
        grid = rng.integers(0, data.draw(st.integers(1, 3)), (n, dim)).astype(float)
        cloud = data.draw(st.sampled_from(["normal", "grid", "mixed"]))
        points = {"normal": normal, "grid": grid,
                  "mixed": np.vstack([grid[:n // 2], normal[n // 2:]])}[cloud]
        seed = data.draw(st.integers(0, 1000))
        for k in ks:
            got_centroids, got_assign = _lloyd(points, k, seed)
            want_centroids, want_assign = reference_lloyd(points, k, seed)
            assert np.array_equal(got_centroids, want_centroids)
            assert np.array_equal(got_assign, want_assign)

    check()


def test_lloyd_goes_on_after_a_reseed_that_repeats_the_assignment(monkeypatch):
    """From centroids 3, 10.5 and 100, the empty third cluster re-seeds at 0,
    where the first centroid also lands, so the next assignment repeats. Its
    means are not the centroids yet: the next re-seed, at 10, moves them on."""
    monkeypatch.setattr(baselines_mod, "_kmeans_plus_plus",
                        lambda points, k, rng: np.array([[3.0], [10.5], [100.0]]))
    centroids, assign = _lloyd(np.array([[0.0], [0.0], [10.0], [11.0]]), 3, seed=0)
    assert centroids.ravel().tolist() == [0.0, 11.0, 10.0]
    assert assign.tolist() == [0, 0, 2, 1]


def test_first_minimum_matches_argmin():
    """Ties, signed zeros, infinities and NaN columns, k from 1 up."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, 1e300])

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 20))
        table = np.array(data.draw(st.lists(values, min_size=k * n, max_size=k * n)))
        table = table.reshape(k, n)
        got, want = _first_minimum(table), np.argmin(table, axis=0)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    check()
    # past 255 rows the scores take a wider type
    table = np.zeros((300, 4))
    table[[299, 7, 256, 0], [0, 1, 2, 3]] = -1.0
    assert _first_minimum(table).tolist() == [299, 7, 256, 0]


def test_snap_to_members_rules():
    """Each non-empty cluster, in cluster order, snaps to its member nearest the
    centroid, weighted by its fraction of the points: a tie goes to the lowest
    index, a NaN distance picks the cluster's first NaN, and an empty cluster
    is skipped."""
    points = np.column_stack([[2.0, -1.0, 5.0, 7.0, np.nan, 1.0, np.nan, 2.0], np.zeros(8)])
    centroids = np.array([[0.0, 0.0], [9.0, 0.0], [2.0, 0.0], [6.0, 0.0]])
    assign = np.array([0, 0, 2, 3, 2, 0, 2, 2])
    reps, weights = _snap_to_members(points, centroids, assign)
    assert reps == [1, 4, 3]  # 1 ties 5; 4 and 6 are NaN, ahead of 7 at distance 0
    assert weights.tolist() == [3 / 8, 4 / 8, 1 / 8]


def test_snap_ties_break_to_the_lowest_index():
    """Distances within a relative _SNAP_TIE_RTOL of the nearest tie and the
    lowest index wins, whatever the rounding of the float centroid; a NaN
    still picks the first NaN, 0 ties only with exact zeros, and inf never
    ties a finite distance."""
    def pick(column, centroid):
        points = np.column_stack([column, np.zeros(len(column))])
        return _snap_to_members(points, np.array([[centroid, 0.0]]), np.zeros(len(column), int))[0]

    pair = np.array([[0.81], [0.91]])
    centroid = float(pair.mean(axis=0)[0])  # Lloyd's float mean, 0.86 rounded
    assert np.argmin((pair[:, 0] - centroid) ** 2) == 1  # rounding favours the higher index
    assert pick(pair[:, 0], centroid) == [0]
    assert pick([3.0, np.nan, 2.0, np.nan], 2.0) == [1]
    assert pick([1e-160, 0.0, 0.0], 0.0) == [1]  # 1e-320 does not tie 0
    with np.errstate(over="ignore"):  # 1e200 squared is inf
        assert pick([1e200, 1.0, 1e200], 0.0) == [1]
        assert pick([1e200, 1e200], 0.0) == [0]  # all inf: the first member
        assert pick([1e200, np.sqrt(1.7e308)], 0.0) == [1]  # near the float limit, inf still loses


def test_kmeans_picks_match_exact_arithmetic():
    """On test_kmeans_coreset_golden_sha256's cloud, which holds coincident grid
    points, each representative is the lowest-index member at the least exact
    squared distance to its members' exact mean (fractions.Fraction)."""
    rng = np.random.default_rng(11)
    grid = rng.integers(0, 3, (30, 3)).astype(float)
    coords = np.vstack([grid, rng.standard_normal((30, 3))])
    exact = [[Fraction(x) for x in row] for row in coords.tolist()]
    for k in (1, 4, 9, 20):
        _, assign = _lloyd(coords, k, 3)
        want = []
        for j in range(k):
            members = np.flatnonzero(assign == j).tolist()
            if not members:
                continue
            mean = [sum(exact[i][c] for i in members) / len(members) for c in range(3)]
            dist = {i: sum((exact[i][c] - mean[c]) ** 2 for c in range(3)) for i in members}
            want.append(min(members, key=lambda i: (dist[i], i)))
        assert kmeans_coreset(PointCloud(coords), k, seed=3).indices == want, k


# SHA-256 of the int64 indices followed by the weights of kmeans_coreset(cloud,
# k, seed=3) on test_kmeans_coreset_golden_sha256's cloud, as recorded;
# replay --verify of a recorded kmeans baseline depends on these bytes. k = 9
# and 20 were re-recorded when _snap_to_members gained its tie rule: their old
# picks 58 and 50 won exact ties against 30 and 44 by the centroid's rounding
KMEANS_SHA256 = {
    1: "ed1aa11eefcf59e8db01645b2b9cbe4cdf1ca0611b78762ed737c877da1d8e47",
    4: "e5c7084125655c35954d92ed024be202d7064cecbd5033a376df75d7dfc7c080",
    9: "07febf21c22f8f7a34eff8a1fa4b90de04b6f4cec029096290348a27de911de2",
    20: "dfb9402a1defb365f3b229df6cd7a37aa265e533e68d14bb0c9cc681645638ea",
}


def test_kmeans_coreset_golden_sha256():
    """Thirty points of the 27-point grid {0, 1, 2}^3, so some coincide, next to
    thirty Gaussian ones."""
    rng = np.random.default_rng(11)
    grid = rng.integers(0, 3, (30, 3)).astype(float)
    cloud = PointCloud(np.vstack([grid, rng.standard_normal((30, 3))]))
    for k, want in KMEANS_SHA256.items():
        out = kmeans_coreset(cloud, k, seed=3)
        digest = hashlib.sha256(np.array(out.indices, dtype=np.int64).tobytes()
                                + out.weights.tobytes())
        assert digest.hexdigest() == want, k


def test_kmeans_on_huge_coordinates():
    """Points at 1e200 overflow their squared norms, so the distance table
    holds inf ties and NaN columns; the coresets are the ones the per-row
    argmin loop returned, and _lloyd still equals the reference loop."""
    coords = np.random.default_rng(0).standard_normal((24, 3))
    coords[::3] *= 1e200
    cloud = PointCloud(coords)
    want = {2: ([1, 0], [22, 2]), 3: ([11, 0, 3], [16, 2, 6]), 6: ([11, 0, 3], [16, 2, 6])}
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (indices, sizes) in want.items():
            for seed in (0, 1):
                out = kmeans_coreset(cloud, k, seed)
                assert out.indices == indices
                assert np.array_equal(out.weights, np.array(sizes) / 24)
                got_centroids, got_assign = _lloyd(coords, k, seed)
                want_centroids, want_assign = reference_lloyd(coords, k, seed)
                assert np.array_equal(got_centroids, want_centroids, equal_nan=True)
                assert np.array_equal(got_assign, want_assign)


def test_spectral_clustering_splits_weak_bridge(two_triangles):
    for seed in range(20):
        out = run_spectral(two_triangles, 2, seed=seed)
        groups = {tuple(sorted(i for i in out.indices if i < 3)),
                  tuple(sorted(i for i in out.indices if i >= 3))}
        assert all(len(g) == 1 for g in groups)  # one representative per triangle
        assert np.allclose(sorted(out.weights), [0.5, 0.5])


def test_spectral_clustering_on_sbm():
    g = generate_sbm([50, 50], 0.5, 0.01, seed=3)
    exact = 0
    for seed in range(20):
        out = run_spectral(g, 2, seed=seed)
        blocks = sorted(g.labels[i] for i in out.indices)
        if blocks == [0, 1] and np.allclose(sorted(out.weights), [0.5, 0.5]):
            exact += 1
    assert exact >= 19


def test_lanczos_tolerance_moves_no_pick(monkeypatch):
    """The embedding's k-means and spectral picks at every K of the default
    grids are the same at spectral._LANCZOS_TOL as at machine precision
    (tol=0), on two cluster-indicator instances (n = 2,000) and two
    sbm-indicator ones (n = 1,000). Seed 1014's spectral K = 14 and every SBM
    instance hold two-member clusters whose picks rounding would decide
    without the tie rule in _snap_to_members."""
    runs = [(run_cluster_indicator, ClusterIndicatorConfig(n=2000, seeds=(1000, 1014))),
            (run_sbm_indicator, SbmIndicatorConfig(seeds=(1000, 1001)))]

    def picks():
        seen = []  # (method, K, seed, indices) in the runners' call order

        def recording(method):
            def run(inputs, k, seed):
                out = BASELINES[method](inputs, k, seed)
                seen.append((method, k, seed, out.indices))
                return out
            return run

        table = dict(BASELINES, kmeans=recording("kmeans"), spectral=recording("spectral"))
        monkeypatch.setattr(experiments_mod, "BASELINES", table)
        for run_study, config in runs:
            run_study(config)
        return seen

    stated = picks()
    monkeypatch.setattr(spectral_mod, "_LANCZOS_TOL", 0.0)
    assert len(stated) == 2 * 2 * 2 * 7 and picks() == stated


@pytest.mark.parametrize("method", ["spectral", "kmeans"])
def test_embedding_past_k_max_is_rejected(method):
    """The embedding holds k_max eigenvectors; a k above it is an error naming
    both, not a k-means run on k_max coordinates. k = k_max still runs."""
    inputs = BaselineInputs(generate_sbm([30, 30], 0.3, 0.05, seed=0), 3)
    with pytest.raises(ValueError, match=r"^k 6 is above k_max 3$"):
        BASELINES[method](inputs, 6, 1)
    assert len(BASELINES[method](inputs, 3, 1).indices) == 3
    assert inputs.embedding(3).coords.shape == (60, 3)


# ---------------------------------------------------------------------------
# betweenness


def brute_betweenness(graph: Graph) -> np.ndarray:
    """Cubic-time oracle: Floyd-Warshall distances plus path counting, with
    the graph's weights as lengths; a unit-weight copy gives hop counts."""
    n = graph.n
    inf = np.inf
    dist = np.full((n, n), inf)
    np.fill_diagonal(dist, 0.0)
    for (u, v), w in zip(graph.edges, graph.weights):
        dist[u, v] = dist[v, u] = min(dist[u, v], w)
    for m in range(n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(graph.edges, graph.weights):
        adj[u].append((v, w))
        adj[v].append((u, w))
    sigma = np.zeros((n, n))
    for s in range(n):
        sigma[s, s] = 1.0
        for v in np.argsort(dist[s], kind="stable"):
            if v == s or dist[s, v] == inf:
                continue
            sigma[s, v] = sum(sigma[s, u] for u, w in adj[v]
                              if dist[s, u] + w == dist[s, v])
    scores = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s, t] == inf or sigma[s, t] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s, v] + dist[v, t] == dist[s, t]:
                    scores[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    return scores


def test_betweenness_path_and_star(path3, star4):
    assert betweenness_scores(path3).tolist() == [0.0, 1.0, 0.0]
    scores = betweenness_scores(star4)
    assert scores[0] == 3.0  # center carries all C(3,2) leaf pairs
    assert scores[1:].tolist() == [0.0, 0.0, 0.0]
    top = run_betweenness(star4, 2)
    assert top.indices == [0, 1]  # hub, then lowest-index leaf on the tie
    assert np.allclose(top.weights, 0.5)


def test_betweenness_matches_brute_force_unit_weights():
    g = generate_random_graph(30, 0.12, seed=5)
    assert np.allclose(betweenness_scores(g), brute_betweenness(g), atol=1e-9)


def unit_copy(graph: Graph) -> Graph:
    """The same graph with every weight 1."""
    return Graph(graph.n, graph.edges, np.ones(graph.m), graph.labels)


def test_betweenness_matches_brute_force_weighted():
    """Weights are affinities: betweenness counts hops, as on the unit-weight copy."""
    g = generate_random_graph(25, 0.15, seed=8)
    # halves and ones add exactly in binary, so the weighted oracle's ties stay exact
    weights = np.random.default_rng(1).choice([0.5, 1.0, 1.5, 2.0], size=g.m)
    wg = Graph(g.n, g.edges, weights)
    expected = brute_betweenness(unit_copy(wg))
    assert np.allclose(betweenness_scores(wg), expected, atol=1e-9)
    # read as lengths, these weights would change the scores
    assert not np.allclose(brute_betweenness(wg), expected, atol=1e-9)


def two_component_graph() -> Graph:
    # weighted path 0-1-2, 4-cycle 3-4-5-6 (two shortest paths between
    # opposite corners), isolated vertex 7
    edges = np.array([[0, 1], [1, 2], [3, 4], [4, 5], [5, 6], [3, 6]])
    return Graph(8, edges, np.array([1.0, 2.0, 1.0, 3.0, 1.0, 0.5]))


def test_betweenness_weighted_two_components():
    # pairs across components count 0
    g = two_component_graph()
    scores = betweenness_scores(g)
    assert np.allclose(scores, brute_betweenness(unit_copy(g)), atol=1e-9)
    assert scores.tolist() == [0.0, 1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0]


def test_betweenness_matches_networkx_on_knn_graph():
    """Kernel affinities are not lengths: networkx counts hops with weight=None."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(11)
    g = build_knn_kernel_graph(PointCloud(rng.standard_normal((150, 2))), 8, 1.0)
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_weighted_edges_from((int(u), int(v), float(w))
                                      for (u, v), w in zip(g.edges, g.weights))
    bc = nx.betweenness_centrality(reference, weight=None, normalized=False)
    expected = np.array([bc[v] for v in range(g.n)])
    assert np.allclose(betweenness_scores(g), expected, rtol=1e-12, atol=0.0)
    top = run_betweenness(g, 10).indices
    assert top == sorted(range(g.n), key=lambda v: (-expected[v], v))[:10]


def test_betweenness_weighted_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 12))
        # the weights are not read: scores are those of the unit-weight copy
        raw = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.sampled_from([0.5, 1.0, 1.5, 2.0])),
                                 min_size=n - 1, max_size=3 * n))
        picked = {(min(u, v), max(u, v)): w for u, v, w in raw if u != v}
        hypothesis.assume(picked)  # connected or not, but not edgeless
        g = Graph(n, np.array(list(picked)), np.array(list(picked.values())))
        public = betweenness_scores(g)
        assert np.allclose(public, brute_betweenness(unit_copy(g)), rtol=0.0, atol=1e-9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines_mod, "_BATCH", data.draw(st.integers(1, n - 1)))
            blocked, _ = _betweenness_unit(g.hop_adjacency())
        assert np.allclose(blocked, public, rtol=0.0, atol=1e-12)
        k = data.draw(st.integers(1, n))
        top = run_betweenness(g, k).indices
        assert top == sorted(range(n), key=lambda v: (-public[v], v))[:k]

    check()


def reference_betweenness_unit(adjacency, batch=256):
    """The sweep with a distance table that _betweenness_unit must reproduce bit for bit."""
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


def unit_graph(n: int, edges) -> Graph:
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return Graph(n, edges, np.ones(len(edges)))


def cycle_and_path() -> Graph:
    """A triangle beside a 3-vertex path: n - 1 edges, yet not a tree."""
    return unit_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])


@pytest.mark.parametrize("batch", [1, 7, 256])
def test_betweenness_unit_matches_reference_loop(monkeypatch, batch):
    """Scores are bit-equal to the reference sweep's, and depth sums are the
    Floyd-Warshall row sums over the reachable vertices. The trees (power-law
    at 120 and 300 vertices, a 60-vertex path, a star, one and two vertices)
    take the subtree-size rule; the other graphs, cycle_and_path among them,
    take the sweep."""
    graphs = [generate_powerlaw_tree(n, 2.5, seed=s) for n, s in ((120, 0), (120, 1), (300, 2))]
    graphs += [generate_random_graph(100, 0.05, seed=s) for s in (2, 3)]
    rng = np.random.default_rng(11)
    graphs.append(build_knn_kernel_graph(PointCloud(rng.standard_normal((90, 2))), 6, 1.0))
    graphs.append(two_component_graph())
    graphs += [unit_graph(60, [(v, v + 1) for v in range(59)]),
               unit_graph(9, [(0, v) for v in range(1, 9)]),
               unit_graph(1, []), unit_graph(2, [(0, 1)]), cycle_and_path()]
    monkeypatch.setattr(baselines_mod, "_BATCH", batch)
    for g in graphs:
        adjacency = g.hop_adjacency()
        scores, depth_sums = _betweenness_unit(adjacency)
        assert np.array_equal(scores, reference_betweenness_unit(adjacency, batch=batch))
        dist = floyd_warshall_hops(g)
        assert np.array_equal(depth_sums, np.where(np.isinf(dist), 0.0, dist).sum(axis=1))


def test_trees_search_from_one_source(monkeypatch):
    """A tree's scores and average distances, from every source or from a
    few, come from one breadth-first search from vertex 0. A graph with
    n - 1 edges and a cycle fails that search's reach, then sweeps from all
    n sources."""
    calls = []
    real = baselines_mod._levels

    def counting(adjacency, sources, sigma=None):
        calls.append(len(sources))
        return real(adjacency, sources, sigma)

    monkeypatch.setattr(baselines_mod, "_levels", counting)
    tree = generate_powerlaw_tree(300, 2.5, seed=2)
    betweenness_and_distances(tree)
    assert calls == [1]
    calls.clear()
    source_average_distances(tree, np.array([5, 7, 5]))
    assert calls == [1]
    calls.clear()
    betweenness_scores(cycle_and_path())  # disconnected: no average distances
    assert calls == [1, 6]


def floyd_warshall_hops(graph: Graph) -> np.ndarray:
    """All-pairs hop counts, inf between components."""
    dist = np.full((graph.n, graph.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in graph.edges:
        dist[u, v] = dist[v, u] = 1.0
    for m in range(graph.n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    return dist


def test_hop_kernel_matches_oracles():
    """The breadth-first sweep on graphs of up to 30 vertices, connected or not,
    with the sources in any order (repeats too) and any block size:
    source_average_distances equals the Floyd-Warshall mean exactly, or raises
    naming the pair Dijkstra's distance table named, the first source in input
    order and its lowest unreachable vertex; the betweenness of the fused
    sweep is bit-equal to the reference loop; and the studies' ranking from the
    fused scores is the table's ranking from the graph."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 30))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        if data.draw(st.booleans()):  # a random spanning tree under the pairs: connected
            parents = data.draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
            pairs += [(p % v, v) for v, p in enumerate(parents, start=1)]
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        if n >= 2 and not edges:
            edges = [(0, n - 1)]
        g = Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), np.ones(len(edges)))
        dist = floyd_warshall_hops(g)
        sources = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                              max_size=2 * n)))
        batch = data.draw(st.integers(1, n))
        adjacency = g.hop_adjacency()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines_mod, "_BATCH", batch)
            fused, depth_sums = _betweenness_unit(adjacency)
            assert np.array_equal(fused, reference_betweenness_unit(adjacency, batch=batch))
            if np.isinf(dist).any():
                row, target = np.argwhere(np.isinf(dist[sources]))[0]
                message = (f"no path between {sources[row]} and {target}; "
                           "graph must be connected")
                with pytest.raises(ValueError, match=re.escape(message)):
                    source_average_distances(g, sources)
                first = np.flatnonzero(np.isinf(dist[0]))[0]
                with pytest.raises(ValueError, match=f"no path between 0 and {first};"):
                    betweenness_and_distances(g)
                return
            averages = source_average_distances(g, sources)
        assert np.array_equal(averages, dist[sources].mean(axis=1))
        assert np.array_equal(depth_sums / n, dist.mean(axis=1))
        scores, everywhere = betweenness_and_distances(g)
        assert np.array_equal(scores, betweenness_scores(g))
        assert np.array_equal(everywhere, dist.mean(axis=1))
        k_max = data.draw(st.integers(1, n))
        ranked = BASELINES["betweenness"](BaselineInputs(g, k_max, scores=scores), k_max, 0)
        assert ranked.indices == run_betweenness(g, k_max).indices

    check()


def test_betweenness_singleton_and_validation(star4):
    lonely = Graph(1, np.empty((0, 2), dtype=np.int64), np.empty(0))
    assert betweenness_scores(lonely).tolist() == [0.0]
    with pytest.raises(ValueError):
        run_betweenness(star4, 0)


# ---------------------------------------------------------------------------
# container


def test_baseline_coreset_round_trip(tmp_path):
    sampled = random_sampling(12, 3, seed=4)
    costs = CostVector(np.ones(12))
    out = dataclasses.replace(sampled, total_cost=float(costs.costs[sampled.indices].sum()))
    assert out.total_cost == 3.0
    path = str(tmp_path / "b.json")
    out.save_json(path)
    back = Coreset.load_json(path)
    assert back.indices == out.indices
    assert np.array_equal(back.weights, out.weights)
    assert back.method == "random"
    assert back.total_cost == 3.0
