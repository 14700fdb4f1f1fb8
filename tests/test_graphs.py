"""Containers, generators, and edge-list ingestion."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from graphcoreset import (
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


# ---------------------------------------------------------------------------
# Graph container


def test_graph_canonicalizes_edges():
    g = Graph(4, np.array([[3, 1], [0, 2], [2, 1]]), np.array([3.0, 1.0, 2.0]))
    assert g.edges.tolist() == [[0, 2], [1, 2], [1, 3]]
    assert g.weights.tolist() == [1.0, 2.0, 3.0]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, np.empty((0, 2), dtype=np.int64), np.empty(0))
    with pytest.raises(ValueError):
        Graph(3, np.empty((0, 2), dtype=np.int64), np.empty(0))  # n >= 2 needs an edge
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 0]]), np.ones(1))  # self loop
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1], [1, 0]]), np.ones(2))  # duplicate after canonicalizing
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1]]), np.array([-1.0]))
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 5]]), np.ones(1))  # endpoint out of range
    with pytest.raises(ValueError):
        Graph(3, np.array([[0, 1]]), np.ones(1), labels=np.array([1, 2]))


def test_adjacency_and_degrees(two_triangles):
    adj = two_triangles.adjacency()
    assert (adj != adj.T).nnz == 0
    deg = two_triangles.degrees()
    assert deg.tolist() == [2, 2, 3, 3, 2, 2]
    assert two_triangles.m == 7


def test_graph_json_round_trip(tmp_path, two_triangles):
    path = str(tmp_path / "g.json")
    two_triangles.save_json(path)
    back = Graph.load_json(path)
    assert back.n == two_triangles.n
    assert np.array_equal(back.edges, two_triangles.edges)
    assert np.array_equal(back.weights, two_triangles.weights)
    assert np.array_equal(back.labels, two_triangles.labels)


def test_graph_json_round_trip_unlabeled(tmp_path, path3):
    path = str(tmp_path / "g.json")
    path3.save_json(path)
    assert Graph.load_json(path).labels is None


@pytest.mark.parametrize("graph", [
    Graph(1, np.empty((0, 2), dtype=np.int64), np.empty(0)),
    Graph(1, np.empty((0, 2), dtype=np.int64), np.empty(0), labels=np.array([7])),
    Graph(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]), np.array([5e-324, 0.1, 1.0, 1e300])),
    Graph(5, np.array([[0, 4], [1, 2], [3, 4], [0, 1]]), np.array([1e-17, 2.5, 1 / 3, 1e300]),
          labels=np.array([0, -2, 1, 10**12, 0])),
], ids=["single-vertex", "single-vertex-labeled", "extreme-weights", "labeled"])
def test_graph_save_json_matches_json_dumps(tmp_path, graph):
    """save_json writes exactly json.dumps(to_dict(), indent=2), and loads back."""
    path = tmp_path / "g.json"
    graph.save_json(str(path))
    assert path.read_bytes() == (json.dumps(graph.to_dict(), indent=2) + "\n").encode()
    back = Graph.load_json(str(path))
    assert back.n == graph.n
    assert np.array_equal(back.edges, graph.edges)
    assert back.weights.tobytes() == graph.weights.tobytes()
    if graph.labels is None:
        assert back.labels is None
    else:
        assert np.array_equal(back.labels, graph.labels)


# ---------------------------------------------------------------------------
# point clouds and costs


def test_point_cloud_round_trip(tmp_path):
    cloud = PointCloud(np.array([[0.5, -1.25], [3e-17, 2.0]]), np.array([0, 1]))
    path = str(tmp_path / "c.csv")
    cloud.save_csv(path)
    back = PointCloud.load_csv(path)
    assert np.array_equal(back.coords, cloud.coords)  # 17 digits keep doubles exact
    assert np.array_equal(back.labels, cloud.labels)
    assert back.n == 2 and back.dim == 2


def test_point_cloud_unlabeled_round_trip(tmp_path):
    cloud = PointCloud(np.array([[1.0], [2.0], [3.0]]))
    path = str(tmp_path / "c.csv")
    cloud.save_csv(path)
    back = PointCloud.load_csv(path)
    assert back.labels is None
    assert np.array_equal(back.coords, cloud.coords)


def test_cost_vector_validation_and_io(tmp_path):
    with pytest.raises(ValueError):
        CostVector(np.array([1.0, -0.5]))
    assert CostVector.zeros(4).costs.tolist() == [0.0] * 4
    cv = CostVector(np.array([0.25, 1.5, 0.0]))
    path = str(tmp_path / "costs.json")
    cv.save_json(path)
    assert np.array_equal(CostVector.load_json(path).costs, cv.costs)


def test_sample_costs_uniform():
    a = sample_costs_uniform(100, seed=3)
    b = sample_costs_uniform(100, seed=3)
    assert np.array_equal(a.costs, b.costs)
    assert np.all(a.costs >= 0.0) and np.all(a.costs < 1.0)
    assert not np.array_equal(a.costs, sample_costs_uniform(100, seed=4).costs)


# ---------------------------------------------------------------------------
# generators


def test_gaussian_mixture_component_counts():
    means = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
    cloud = generate_gaussian_mixture(means, [0.2, 0.3, 0.5], 0.01, 10, seed=1)
    assert cloud.n == 10
    assert np.bincount(cloud.labels).tolist() == [2, 3, 5]
    # tiny covariance: every point sits next to its component mean
    for point, label in zip(cloud.coords, cloud.labels):
        assert np.linalg.norm(point - np.asarray(means[label])) < 1.0


def test_gaussian_mixture_validation():
    with pytest.raises(ValueError):
        generate_gaussian_mixture([[0.0]], [0.5], 1.0, 10, seed=0)  # fractions sum != 1
    with pytest.raises(ValueError):
        generate_gaussian_mixture([[0.0], [1.0]], [0.5, 0.5], 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        generate_gaussian_mixture([[0.0], [1.0]], [0.5, 0.5], 1.0, 1, seed=0)


def test_gaussian_mixture_deterministic():
    args = ([[0.0, 1.0], [5.0, 5.0]], [0.4, 0.6], 2.0, 50, 9)
    a = generate_gaussian_mixture(*args)
    b = generate_gaussian_mixture(*args)
    assert np.array_equal(a.coords, b.coords)


def test_knn_kernel_collinear_points():
    cloud = PointCloud(np.array([[0.0], [1.0], [2.1]]))
    g = build_knn_kernel_graph(cloud, k_neighbors=1, bandwidth=1.0)
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert np.allclose(g.weights, [np.exp(-1.0), np.exp(-1.21)])


def test_knn_kernel_identical_points_get_unit_weight():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]))
    g = build_knn_kernel_graph(cloud, k_neighbors=1, bandwidth=1.0)
    pairs = {tuple(e): w for e, w in zip(g.edges.tolist(), g.weights)}
    assert pairs[(0, 1)] == 1.0  # zero distance
    assert g.m == 2


def test_knn_kernel_degree_at_least_k():
    cloud = PointCloud(np.random.default_rng(0).standard_normal((30, 3)))
    k = 4
    g = build_knn_kernel_graph(cloud, k_neighbors=k, bandwidth=1.0)
    counts = np.zeros(30, dtype=int)
    for u, v in g.edges:
        counts[u] += 1
        counts[v] += 1
    assert counts.min() >= k


def reference_knn_kernel_graph(cloud, k_neighbors, bandwidth):
    """The per-point dict loop that build_knn_kernel_graph must reproduce bit for bit."""
    dist, idx = cKDTree(cloud.coords).query(cloud.coords, k=k_neighbors + 1)
    pairs = {}
    for u in range(cloud.n):
        taken = 0
        for d, v in zip(dist[u], idx[u]):
            if v == u:
                continue
            if taken == k_neighbors:
                break
            key = (u, v) if u < v else (v, u)
            pairs.setdefault(key, float(np.exp(-(d * d) / (bandwidth * bandwidth))))
            taken += 1
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    weights = np.array([pairs[(u, v)] for u, v in edges])
    return Graph(cloud.n, edges, weights, cloud.labels)


def test_knn_kernel_matches_reference_loop():
    """Grid clouds give duplicate points, distance ties and rows whose self is not first."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 24))
        dim = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            coords = rng.standard_normal((n, dim))
        else:
            coords = rng.integers(0, data.draw(st.integers(1, 3)), (n, dim)).astype(float)
        labels = rng.integers(0, 3, n) if data.draw(st.booleans()) else None
        cloud = PointCloud(coords, labels)
        bandwidth = data.draw(st.sampled_from([0.3, 1.0, 2.5]))
        for k in range(1, n):
            got = build_knn_kernel_graph(cloud, k, bandwidth)
            want = reference_knn_kernel_graph(cloud, k, bandwidth)
            assert np.array_equal(got.edges, want.edges)
            assert got.weights.tobytes() == want.weights.tobytes()
            assert (got.labels is None) == (labels is None)
            if labels is not None:
                assert np.array_equal(got.labels, labels)

    check()


def test_knn_kernel_validation():
    cloud = PointCloud(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        build_knn_kernel_graph(cloud, 5, 1.0)
    with pytest.raises(ValueError):
        build_knn_kernel_graph(cloud, 2, 0.0)


def test_sbm_labels_and_edge_counts():
    """Intra and inter block edge counts stay within 4 sigma of binomial means."""
    sizes = [60, 60]
    p_in, p_out = 0.3, 0.05
    g = generate_sbm(sizes, p_in, p_out, seed=11)
    assert g.n == 120
    assert np.bincount(g.labels).tolist() == sizes
    lab = g.labels
    intra0 = int(np.sum((lab[g.edges[:, 0]] == 0) & (lab[g.edges[:, 1]] == 0)))
    inter = int(np.sum(lab[g.edges[:, 0]] != lab[g.edges[:, 1]]))
    pairs_in = 60 * 59 // 2
    pairs_out = 60 * 60
    for count, pairs, p in ((intra0, pairs_in, p_in), (inter, pairs_out, p_out)):
        mean = pairs * p
        sigma = np.sqrt(pairs * p * (1.0 - p))
        assert abs(count - mean) < 4.0 * sigma


def test_sbm_extremes_and_determinism():
    g = generate_sbm([3, 4], 1.0, 0.0, seed=0)
    assert g.m == 3 + 6  # both blocks complete, nothing across
    a = generate_sbm([20, 30], 0.2, 0.05, seed=5)
    b = generate_sbm([20, 30], 0.2, 0.05, seed=5)
    assert np.array_equal(a.edges, b.edges)
    with pytest.raises(ValueError):
        generate_sbm([0, 5], 0.5, 0.1, seed=0)
    with pytest.raises(ValueError):
        generate_sbm([5, 5], 1.5, 0.1, seed=0)


def test_powerlaw_tree_is_a_tree():
    g = generate_powerlaw_tree(200, 3.0, seed=4)
    assert g.m == 199
    assert largest_connected_component(g).n == 200
    a = generate_powerlaw_tree(50, 2.5, seed=7)
    b = generate_powerlaw_tree(50, 2.5, seed=7)
    assert np.array_equal(a.edges, b.edges)


def test_powerlaw_tree_validation():
    with pytest.raises(ValueError):
        generate_powerlaw_tree(1, 3.0, seed=0)
    with pytest.raises(ValueError):
        generate_powerlaw_tree(10, 2.0, seed=0)


def test_random_graph_extremes():
    g = generate_random_graph(5, 1.0, seed=0)
    assert g.n == 5 and g.m == 10
    with pytest.raises(ValueError):  # every redraw is a single vertex
        generate_random_graph(4, 0.0, seed=0)
    # seed 2 draws no edge among 3 vertices, so the graph is seed 3's draw
    assert not (np.random.default_rng(2).random(3) < 0.2).any()
    redrawn, next_seed = generate_random_graph(3, 0.2, seed=2), generate_random_graph(3, 0.2, seed=3)
    assert redrawn.n > 1 and np.array_equal(redrawn.edges, next_seed.edges)


def test_random_graph_keeps_largest_component():
    g = generate_random_graph(80, 0.05, seed=2)
    assert largest_connected_component(g).n == g.n  # already connected output
    assert g.n > 1


def test_largest_connected_component_renumbers():
    edges = np.array([[0, 1], [0, 2], [1, 2], [3, 4]])
    g = Graph(5, edges, np.array([1.0, 2.0, 3.0, 4.0]), labels=np.array([7, 7, 7, 9, 9]))
    sub = largest_connected_component(g)
    assert sub.n == 3
    assert sub.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert sub.weights.tolist() == [1.0, 2.0, 3.0]
    assert sub.labels.tolist() == [7, 7, 7]


# ---------------------------------------------------------------------------
# edge lists


def test_load_edge_list_merging_and_ids(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\na b\nb c 2.5\na b\nd d\n")
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_edge_list(str(path), weighted=True)
    # ids in first-appearance order: a=0 b=1 c=2 d=3 (d only in the loop line)
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.weights.tolist() == [2.0, 2.5]  # duplicate a-b summed as 1 + 1


def test_load_edge_list_unweighted_collapses_duplicates(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 9.0\n1 0\n1 2\n")
    g = load_edge_list(str(path), weighted=False)
    assert g.weights.tolist() == [1.0, 1.0]


def test_load_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_edge_list(str(empty))
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 3\n")
    with pytest.raises(ValueError, match="expected"):
        load_edge_list(str(bad))
    neg = tmp_path / "neg.txt"
    neg.write_text("0 1 -2\n")
    with pytest.raises(ValueError, match="positive"):
        load_edge_list(str(neg), weighted=True)


def test_save_edge_list_round_trip(tmp_path):
    g = Graph(4, np.array([[0, 1], [1, 2], [2, 3]]), np.array([0.5, 1.0, 2.0]))
    path = str(tmp_path / "out.txt")
    save_edge_list(g, path)
    back = load_edge_list(path, weighted=True)
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.weights, g.weights)


def test_save_edge_list_unit_weights_omitted(tmp_path, path3):
    path = str(tmp_path / "out.txt")
    save_edge_list(path3, path)
    assert "1" == Path(path).read_text(encoding="utf-8").strip().split("\n")[0].split()[1]  # "0 1" no weight
