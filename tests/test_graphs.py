"""Containers, generators, and edge-list ingestion."""

import csv
import hashlib
import io
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


def test_graph_canonical_shuffled_and_flipped_tables_agree():
    """A canonical table keeps its rows; shuffled and flipped copies sort to them."""
    rng = np.random.default_rng(5)
    canonical = build_knn_kernel_graph(PointCloud(rng.standard_normal((60, 2))), 4, 1.0)
    edges, weights = canonical.edges, canonical.weights
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    flipped = np.where(flip[:, None], edges[:, ::-1], edges)
    for table, w in [(edges, weights), (edges[order], weights[order]), (flipped, weights),
                     (flipped[order], weights[order])]:
        g = Graph(60, table, w)
        assert g.edges.dtype == np.int64 and g.weights.dtype == np.float64
        assert g.edges.tobytes() == edges.tobytes()
        assert g.weights.tobytes() == weights.tobytes()
    # u falls while v rises: every row has u < v, yet the rows are out of order
    g = Graph(4, np.array([[1, 2], [0, 3]]), np.array([1.0, 2.0]))
    assert g.edges.tolist() == [[0, 3], [1, 2]] and g.weights.tolist() == [2.0, 1.0]
    # flipped rows at the largest endpoint whose sort key fits in int64
    top = 3_037_000_498
    g = Graph(2**40, np.array([[top, top - 1], [1, 0]]), np.array([1.0, 2.0]))
    assert g.edges.tolist() == [[0, 1], [top - 1, top]] and g.weights.tolist() == [2.0, 1.0]


def test_graph_canonical_looking_duplicate_raises():
    """Sorted rows with u < v and one repeat are not canonical: they still raise."""
    with pytest.raises(ValueError, match="duplicate"):
        Graph(4, np.array([[0, 1], [1, 2], [1, 2], [2, 3]]), np.ones(4))
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, np.array([[0, 1], [0, 2], [0, 1]]), np.ones(3))


def test_graph_owns_its_arrays():
    """Mutating the caller's edge, weight and label arrays leaves a built graph
    alone, whether its table was canonical or had to be sorted."""
    for rows in ([[0, 1], [0, 2], [1, 2]], [[1, 2], [0, 2], [1, 0]]):
        edges, weights = np.array(rows, dtype=np.int64), np.array([1.0, 2.0, 3.0])
        labels = np.array([4, 5, 6], dtype=np.int64)
        g = Graph(3, edges, weights, labels)
        before = g.edges.copy(), g.weights.copy()
        edges[:] = [[0, 0]]
        weights[:] = -1.0
        labels[:] = 0
        assert np.array_equal(g.edges, before[0]) and np.array_equal(g.weights, before[1])
        assert g.labels.tolist() == [4, 5, 6]


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
    """save_json writes exactly json.dumps(to_dict()) and a newline, one column
    per field, and loads back bit for bit."""
    path = tmp_path / "g.json"
    graph.save_json(str(path))
    doc = graph.to_dict()
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode()
    assert (doc["u"], doc["v"], doc["w"]) == (graph.edges[:, 0].tolist(),
                                              graph.edges[:, 1].tolist(), graph.weights.tolist())
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


@pytest.mark.parametrize("coords", [
    np.empty((0, 2)), np.empty((3, 0)), np.array([[0.0, np.nan]]), np.array([[np.inf], [0.0]]),
], ids=["no-points", "no-coordinates", "nan", "inf"])
def test_point_cloud_rejects_degenerate_coordinates(coords):
    with pytest.raises(ValueError):
        PointCloud(coords)


def reference_save_csv(cloud, path):
    """The csv.writer row loop that PointCloud.save_csv must reproduce byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"x{i}" for i in range(cloud.dim)]
    if cloud.labels is not None:
        header.append("label")
    writer.writerow(header)
    for i in range(cloud.n):
        row = ["%.17g" % x for x in cloud.coords[i]]
        if cloud.labels is not None:
            row.append(str(int(cloud.labels[i])))
        writer.writerow(row)
    Path(path).write_text(buf.getvalue(), encoding="utf-8", newline="")


def reference_load_csv(path):
    """The csv.reader row loop that PointCloud.load_csv must agree with on valid files."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        labeled = header[-1] == "label"
        dim = len(header) - (1 if labeled else 0)
        coords, labels = [], []
        for row in reader:
            if not row:
                continue
            assert len(row) == len(header)
            coords.append([float(x) for x in row[:dim]])
            if labeled:
                labels.append(int(row[-1]))
    return np.array(coords), (np.array(labels) if labeled else None)


def test_point_cloud_save_csv_keeps_large_labels_exact(tmp_path):
    """Labels past 2**53, which a float column would round, keep every digit."""
    cloud = PointCloud(np.array([[0.1, -2.0], [1e300, 5e-324]]),
                       np.array([2**53 + 1, -(2**62) - 1]))
    cloud.save_csv(str(tmp_path / "got.csv"))
    reference_save_csv(cloud, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert np.array_equal(PointCloud.load_csv(str(tmp_path / "got.csv")).labels, cloud.labels)


def test_point_cloud_csv_matches_reference_rows(tmp_path):
    """save_csv writes the old writer's bytes; load_csv reads the old reader's arrays,
    also from files with blank lines, quoted fields, CRLF endings and signed labels."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    reals = st.floats(allow_nan=False, allow_infinity=False)
    spellings = st.sampled_from(["%.17g", "%r", "%.3f", "%e", "%+g"])

    @hypothesis.settings(max_examples=80)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8))
        dim = data.draw(st.integers(1, 3))
        coords = np.array(data.draw(st.lists(st.lists(reals, min_size=dim, max_size=dim),
                                             min_size=n, max_size=n)))
        labels = (np.array(data.draw(st.lists(st.integers(-2**62, 2**62), min_size=n,
                                              max_size=n)))
                  if data.draw(st.booleans()) else None)
        cloud = PointCloud(coords.reshape(n, dim), labels)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cloud.save_csv(str(got))
        reference_save_csv(cloud, want)
        assert got.read_bytes() == want.read_bytes()

        # the same points in other valid spellings
        quote = data.draw(st.booleans())
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        lines = [",".join([f"x{i}" for i in range(dim)] + ["label"] * (labels is not None))]
        for i in range(n):
            fields = [data.draw(spellings) % x for x in cloud.coords[i].tolist()]
            if labels is not None:
                fields.append(data.draw(st.sampled_from(["%d", "%+d"])) % int(labels[i]))
            lines.append(",".join(f'"{f}"' if quote else f for f in fields))
            lines += [""] * data.draw(st.integers(0, 2))
        got.write_bytes((end.join(lines) + end).encode())
        back = PointCloud.load_csv(str(got))
        want_coords, want_labels = reference_load_csv(got)
        assert back.coords.tobytes() == want_coords.tobytes()
        if labels is None:
            assert back.labels is None and want_labels is None
        else:
            assert np.array_equal(back.labels, want_labels)

    check()


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
    for bandwidth in (float("nan"), 1e-300):  # NaN, and a square that underflows to 0
        with pytest.raises(ValueError, match="bandwidth"):
            build_knn_kernel_graph(cloud, 2, bandwidth)


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
    with pytest.raises(ValueError, match="non-empty list of positive integers"):
        generate_sbm([], 0.5, 0.1, seed=0)
    with pytest.raises(ValueError):
        generate_sbm([5, 5], 1.5, 0.1, seed=0)


def _reference_sbm_table(sizes, p_in, p_out, seed):
    """generate_sbm's edge table as its block-by-block loop first drew it, before
    any sort, with the vertex labels."""
    starts = np.cumsum([0] + sizes)
    rng = np.random.default_rng(seed)
    edge_u, edge_v = [], []
    for a in range(len(sizes)):
        ia = np.arange(starts[a], starts[a + 1])
        iu, iv = np.triu_indices(len(ia), k=1)
        keep = rng.random(len(iu)) < p_in
        edge_u.append(ia[iu[keep]])
        edge_v.append(ia[iv[keep]])
        for b in range(a + 1, len(sizes)):
            ib = np.arange(starts[b], starts[b + 1])
            iu2, iv2 = np.nonzero(rng.random((len(ia), len(ib))) < p_out)
            edge_u.append(ia[iu2])
            edge_v.append(ib[iv2])
    edges = np.column_stack([np.concatenate(edge_u), np.concatenate(edge_v)])
    labels = np.concatenate([np.full(s, b) for b, s in enumerate(sizes)])
    return edges, labels


@pytest.mark.parametrize("sizes", [[1], [2], [7], [1, 1], [3, 1, 4], [5, 5], [12, 1, 9, 6]],
                         ids=str)
def test_sbm_table_is_canonical_and_matches_reference_loop(sizes):
    """The graph generate_sbm builds is the reference loop's table in (u, v)
    order: same draws, same edges, unit weights and block labels. A draw with
    no edge on two or more vertices is no graph."""
    for p_in in (0.0, 0.3, 1.0):
        for p_out in (0.0, 0.1, 1.0):
            for seed in (0, 7):
                want, want_labels = _reference_sbm_table(sizes, p_in, p_out, seed)
                if len(want) == 0 and sum(sizes) >= 2:
                    with pytest.raises(ValueError, match="at least one edge"):
                        generate_sbm(sizes, p_in, p_out, seed=seed)
                    continue
                g = generate_sbm(sizes, p_in, p_out, seed=seed)
                want = want[np.lexsort((want[:, 1], want[:, 0]))]
                assert g.n == sum(sizes)
                assert g.edges.dtype == np.int64 and g.edges.shape == want.shape
                assert np.array_equal(g.edges, want)
                assert np.array_equal(g.weights, np.ones(len(want)))
                assert np.array_equal(g.labels, want_labels)


# SHA-256 of generate_sbm's int64 edge array, recorded from the table as
# generate_sbm sorted it before Graph sorted every table; replay --verify of
# a recorded generate depends on these bytes. The first two are the
# sbm-indicator defaults, the last a complete graph
SBM_SHA256 = {
    ((100, 500, 400), 0.15, 0.045, 0):
        "50b69a2cfe61250ff807021e00d176028c0e4eb791b01c9719029c2ad2a81588",
    ((100, 500, 400), 0.15, 0.045, 1000):
        "7e92d4ecfcf32a82e1e30d0be74bcb52085ef8c66b1a8cec0038b41952d7b379",
    ((100, 500, 400), 0.1, 0.01, 3):
        "5d1b234c5d646a32357f3b6a7dc067d3360c4ce0939ca5fc69e092a647e4419f",
    ((30, 30), 0.3, 0.05, 0): "6411f9b6383cfb653c2a48f3c6ec4e6b9558b8888ce1efc05e5913a2a12afcd4",
    ((12, 1, 9, 6), 1.0, 1.0, 7):
        "fd535737db8cada0473572c7413deff900e4d9264cf4d64f7c60533f0080642d",
}


@pytest.mark.parametrize("sizes, p_in, p_out, seed", sorted(SBM_SHA256))
def test_sbm_golden_sha256(sizes, p_in, p_out, seed):
    edges = generate_sbm(list(sizes), p_in, p_out, seed).edges
    assert edges.dtype == np.int64
    assert hashlib.sha256(edges.tobytes()).hexdigest() == SBM_SHA256[sizes, p_in, p_out, seed]


def test_powerlaw_tree_is_a_tree():
    g = generate_powerlaw_tree(200, 3.0, seed=4)
    assert g.m == 199
    assert largest_connected_component(g).n == 200
    a = generate_powerlaw_tree(50, 2.5, seed=7)
    b = generate_powerlaw_tree(50, 2.5, seed=7)
    assert np.array_equal(a.edges, b.edges)


# SHA-256 of each tree's int64 edge array, recorded from the rng.choice draw
# that replay --verify of a recorded generate depends on; at exponent 2.05
# seeds 0 and 1 both draw the star on vertex 1
POWERLAW_TREE_SHA256 = {
    (2.05, 0): "88e4e73a350ba3ad518f826ff51c20a201dd3b27463a81d423cff4af65385d5f",
    (2.05, 1): "88e4e73a350ba3ad518f826ff51c20a201dd3b27463a81d423cff4af65385d5f",
    (3.0, 0): "dba42507c6a1738148b81660b7e4418a99522cf77fca28c6ef61cf15d43ab91b",
    (3.0, 1): "4863a533b6fe830d3443731dbbedc0fe0ac48a0af43ba354eee3606d3b94eb48",
}


@pytest.mark.parametrize("exponent, seed", sorted(POWERLAW_TREE_SHA256))
def test_powerlaw_tree_golden_sha256(exponent, seed):
    edges = generate_powerlaw_tree(300, exponent, seed).edges
    assert edges.dtype == np.int64
    assert hashlib.sha256(edges.tobytes()).hexdigest() == POWERLAW_TREE_SHA256[exponent, seed]


def test_powerlaw_tree_near_exponent_two():
    """At exponent 2.004 (tilt 250) the first vertex to lead takes every later
    attachment: 19 vertices keep its weight 17 ** 250 in float range and draw
    a star on vertex 0 or 1, while 20 reach 18 ** 250, past it, and raise
    naming the exponent, as does an exponent one ulp above 2."""
    for seed in range(3):
        degree = np.bincount(generate_powerlaw_tree(19, 2.004, seed).edges.ravel(), minlength=19)
        assert int(np.argmax(degree)) in (0, 1)
        assert sorted(degree.tolist()) == [1] * 18 + [18]
        with pytest.raises(ValueError, match=r"exponent 2\.004 overflows"):
            generate_powerlaw_tree(20, 2.004, seed)
    with pytest.raises(ValueError, match=r"exponent 2\.0000000000000004 overflows"):
        generate_powerlaw_tree(6, 2.0000000000000004, seed=0)


def test_powerlaw_tree_validation():
    with pytest.raises(ValueError):
        generate_powerlaw_tree(1, 3.0, seed=0)
    with pytest.raises(ValueError):
        generate_powerlaw_tree(10, 2.0, seed=0)
    with pytest.raises(ValueError, match="exponent"):
        generate_powerlaw_tree(10, float("nan"), seed=0)


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


def test_components_match_csgraph():
    """Graph.components partitions the vertices as scipy's connected_components
    does and names each part by its lowest vertex; largest_connected_component
    keeps the part scipy's label order and argmax keep, the one holding the
    lowest vertex when sizes tie, with the same renumbering. The graphs have
    several components, relabelled at random so that no component is a run of
    consecutive vertices, and some have ties in size."""
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(5)
    # two triangles and a path of three, then two paths of four around an edge
    fixed = [Graph(9, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [6, 7], [7, 8]], np.ones(8)),
             Graph(10, [[8, 9], [0, 5], [5, 6], [6, 7], [1, 2], [2, 3], [3, 4]], np.ones(7))]
    drawn = []
    for trial in range(200):
        n = int(rng.integers(2, 80))
        perm = rng.permutation(n)
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(len(iu)) < rng.uniform(0.005, 0.08)
        keep[int(rng.integers(len(iu)))] = True
        drawn.append(Graph(n, np.column_stack([perm[iu[keep]], perm[iv[keep]]]),
                           rng.uniform(0.5, 2.0, keep.sum()), labels=rng.integers(0, 3, n)))
    ties = 0
    for g in fixed + drawn:
        count, member = connected_components(g.adjacency(), directed=False)
        root = g.components()
        lowest = np.array([np.flatnonzero(member == c)[0] for c in range(count)])
        assert np.array_equal(root, lowest[member])
        sizes = np.bincount(member)
        ties += int(np.sum(sizes == sizes.max()) > 1)
        keep = member == int(np.argmax(sizes))
        sub = largest_connected_component(g)
        if count == 1:
            assert sub is g
            continue
        old_ids = np.flatnonzero(keep)
        remap = -np.ones(g.n, dtype=np.int64)
        remap[old_ids] = np.arange(len(old_ids))
        inside = keep[g.edges[:, 0]] & keep[g.edges[:, 1]]
        assert sub.n == len(old_ids)
        assert np.array_equal(sub.edges, remap[g.edges[inside]])
        assert np.array_equal(sub.weights, g.weights[inside])
        assert (sub.labels is None if g.labels is None
                else np.array_equal(sub.labels, g.labels[old_ids]))
    assert ties >= 20
    assert largest_connected_component(fixed[0]).edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert largest_connected_component(fixed[1]).edges.tolist() == [[0, 1], [1, 2], [2, 3]]


# ---------------------------------------------------------------------------
# edge lists


def test_load_edge_list_merging_and_ids(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# comment\na b\nb c 2.5\na b\nd d\n")
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_edge_list(str(path))
    # ids in first-appearance order: a=0 b=1 c=2 d=3 (d only in the loop line)
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.weights.tolist() == [1.0, 1.0]  # duplicate a-b collapsed, 2.5 not read


def test_load_edge_list_unweighted_collapses_duplicates(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 9.0\n1 0\n1 2\n2 3 abc\n")
    g = load_edge_list(str(path))  # the third column is not parsed
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert g.weights.tolist() == [1.0, 1.0, 1.0]


def test_load_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        load_edge_list(str(empty))
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 2 3\n")
    with pytest.raises(ValueError, match="expected"):
        load_edge_list(str(bad))


def test_load_edge_list_golden_sha256(tmp_path):
    """String ids, both edge orientations, self loops, comments, blank lines and
    mixed 2- and 3-token lines; the edge and weight arrays hash as recorded,
    since replay --verify of a recorded ego-centrality study depends on them."""
    path = tmp_path / "edges.txt"
    path.write_text("# header\na b\nb a\nnode-7 a 0.5\n\nc c\n  # indented comment\n"
                    "10\t01\t2.5\n01 b\nx\u00e9 node-7\nb b 1\n9 10\na node-7\n",
                    encoding="utf-8")
    with pytest.warns(UserWarning, match="dropped 2 self-loop line"):
        g = load_edge_list(str(path))
    # a=0 b=1 node-7=2 c=3 10=4 01=5 xé=6 9=7, c only in its loop line
    assert g.n == 8
    assert g.edges.dtype == np.int64
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
        "a407680c23aea87e155578f44997535aa89ab8fdff5e850fd2090618657819ab")
    assert hashlib.sha256(g.weights.tobytes()).hexdigest() == (
        "961e76f1c44f5ce8d5761ea1aa65e20225642a79548cbe995da4644fae5f8c11")
