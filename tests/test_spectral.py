"""Walk matrix, normalized walk-power columns, smooth function synthesis."""

import numpy as np
import pytest
import scipy.sparse as sp

from graphcoreset import (
    GraphFunction,
    PointCloud,
    build_knn_kernel_graph,
    eigendecomposition,
    generate_sbm,
    lazy_walk_matrix,
    normalized_columns,
    smoothness_norm,
    synthesize_smooth_function,
    top_eigenvectors,
)
from graphcoreset import spectral
from graphcoreset.graphs import Graph


@pytest.fixture(scope="module")
def large_knn_walk():
    """Walk on 2100 kNN points, above the dense walk-power cutoff: ell >= 2 multiplies sparsely."""
    cloud = PointCloud(np.random.default_rng(11).standard_normal((2100, 2)))
    walk = lazy_walk_matrix(build_knn_kernel_graph(cloud, 10, 1.0))
    assert walk.shape[0] > spectral._DENSE_POWER_MAX_N
    return walk


def _power_column(walk, ell: int, i: int) -> np.ndarray:
    """P^ell[:, i] as ell matvecs on e_i (P is symmetric)."""
    col = np.zeros(walk.shape[0])
    col[i] = 1.0
    for _ in range(ell):
        col = walk @ col
    return col


def test_walk_matrix_path3_entries(path3):
    """Hand-checked: degrees [1,2,1], d_max 2."""
    walk = lazy_walk_matrix(path3)
    assert isinstance(walk, sp.csr_matrix)
    expected = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    assert np.allclose(walk.toarray(), expected)


def test_walk_matrix_rows_sum_to_one(two_triangles):
    walk = lazy_walk_matrix(two_triangles)
    dense = walk.toarray()
    assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(dense, dense.T)
    assert np.all(dense >= 0.0)


def test_walk_matrix_needs_an_edge():
    lonely = Graph(1, np.empty((0, 2), dtype=np.int64), np.empty(0))
    with pytest.raises(ValueError):
        lazy_walk_matrix(lonely)


def test_star_eigenvalues_closed_form(star4):
    """Star on 4 vertices: spectrum {1, 2/3, 2/3, -1/3}."""
    values, vectors = eigendecomposition(lazy_walk_matrix(star4))
    assert np.allclose(values, [1.0, 2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0], atol=1e-12)
    assert np.allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)


def test_spectrum_inside_unit_interval():
    g = generate_sbm([30, 30], 0.3, 0.05, seed=1)
    values, vectors = eigendecomposition(lazy_walk_matrix(g))
    assert values[0] <= 1.0 + 1e-9 and values[-1] >= -1.0 - 1e-9
    assert np.all(np.diff(values) <= 1e-12)  # descending
    # reconstruction
    dense = lazy_walk_matrix(g).toarray()
    assert np.allclose(vectors @ np.diag(values) @ vectors.T, dense, atol=1e-10)


def test_walk_powers_fix_the_uniform_vector(two_triangles):
    walk = lazy_walk_matrix(two_triangles)
    ones = np.ones(walk.shape[0])
    vec = ones.copy()
    for _ in range(8):
        vec = walk @ vec
        assert np.max(np.abs(vec - ones)) < 1e-10


def test_normalized_columns_match_matrix_power(two_triangles):
    walk = lazy_walk_matrix(two_triangles)
    for ell in (1, 2, 5):
        cols = normalized_columns(walk, ell)
        power = np.linalg.matrix_power(walk.toarray(), ell)
        assert np.allclose(cols.matrix.toarray(), power, atol=1e-12)
        for i in range(walk.shape[0]):
            col = cols.column(i)
            assert abs(np.linalg.norm(col) - 1.0) < 1e-12
            assert np.allclose(col * cols.column_norms[i], power[:, i], atol=1e-12)


def test_normalized_columns_sparse_path_agrees(large_knn_walk):
    """Past the cutoff the sequential sparse product gives the columns and norms of ell matvecs."""
    cols = normalized_columns(large_knn_walk, 3)
    for i in (0, 1049, 2099):
        want = _power_column(large_knn_walk, 3, i)
        assert np.allclose(cols.matrix[:, [i]].toarray().ravel(), want, rtol=0, atol=1e-14)
        assert cols.column_norms[i] == pytest.approx(np.linalg.norm(want), rel=1e-13)


def _with_stored_zero_diagonal(walk):
    """The same P with the zero diagonal entries of its max-degree vertices stored explicitly."""
    coo = walk.tocoo()
    hubs = np.flatnonzero(walk.diagonal() == 0)
    rows, cols = np.concatenate([coo.row, hubs]), np.concatenate([coo.col, hubs])
    data = np.concatenate([coo.data, np.zeros(len(hubs))])
    return sp.csr_matrix((data, (rows, cols)), shape=coo.shape)


@pytest.mark.parametrize("case", ["knn", "star", "stored-zero"])
def test_ell_one_columns_equal_dense_round_trip(star4, case):
    """At ell = 1 the CSC arrays and norms are bit-equal to the dense round trip of P."""
    if case == "knn":
        cloud = PointCloud(np.random.default_rng(5).standard_normal((300, 2)))
        walk = lazy_walk_matrix(build_knn_kernel_graph(cloud, 6, 1.0))
    else:
        walk = lazy_walk_matrix(star4)  # the centre has degree d_max: P[0, 0] == 0
        if case == "stored-zero":
            walk = _with_stored_zero_diagonal(walk)
            assert np.any(walk.data == 0)
    assert np.any(walk.diagonal() == 0)
    stored_before = walk.data.copy()
    cols = normalized_columns(walk, 1)
    want = sp.csc_matrix(np.linalg.matrix_power(walk.toarray(), 1))
    want_norms = np.sqrt(np.asarray(want.multiply(want).sum(axis=0)).ravel())
    for name in ("indptr", "indices", "data"):
        got_array, want_array = getattr(cols.matrix, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()
    assert cols.column_norms.tobytes() == want_norms.tobytes()
    assert np.array_equal(walk.data, stored_before)  # P itself is left as it was


@pytest.mark.parametrize("case", ["dense-power", "sparse-power"])
def test_column_is_the_normalized_power_column(case, large_knn_walk):
    """column(i) equals P^ell[:, i] / norm_i on both walk-power paths, picked by graph size."""
    if case == "dense-power":
        walk = lazy_walk_matrix(generate_sbm([12, 9, 6], 0.4, 0.05, seed=2))
        sample = range(walk.shape[0])
    else:
        walk, sample = large_knn_walk, (0, 1049, 2099)
    cols = normalized_columns(walk, 3)
    for i in sample:
        col = cols.column(i)
        stored = cols.matrix[:, [i]].toarray().ravel()
        assert np.array_equal(col, stored / cols.column_norms[i])
        power = _power_column(walk, 3, i)
        assert np.allclose(col, power / np.linalg.norm(power), rtol=0, atol=1e-14)


def test_normalized_columns_helpers(two_triangles):
    walk = lazy_walk_matrix(two_triangles)
    cols = normalized_columns(walk, 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(walk.shape[0])
    manual = np.array([cols.column(i) @ x for i in range(walk.shape[0])])
    assert np.allclose(cols.alignments(x), manual, atol=1e-12)
    coeffs = rng.standard_normal(walk.shape[0])
    manual_combo = sum(coeffs[i] * cols.column(i) for i in range(walk.shape[0]))
    assert np.allclose(cols.combine(coeffs), manual_combo, atol=1e-12)
    assert np.allclose(cols.target, 1.0 / np.sqrt(walk.shape[0]))
    with pytest.raises(ValueError):
        normalized_columns(walk, 0)


def test_top_eigenvectors_lanczos_path():
    g = generate_sbm([240, 230, 230], 0.1, 0.005, seed=3)
    walk = lazy_walk_matrix(g)
    assert walk.shape[0] > spectral._DENSE_EIG_MAX_N  # past the dense cutoff: Lanczos
    vecs = top_eigenvectors(walk, 3)
    assert vecs.shape == (700, 3)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-8)
    rhos = []
    for j in range(3):
        u = vecs[:, j]
        rhos.append(u @ (walk @ u))
        assert np.linalg.norm(walk @ u - rhos[-1] * u) < 1e-8
    # the top three, descending: the stationary 1, then the two block modes
    assert rhos[0] == pytest.approx(1.0, abs=1e-12) and rhos[0] > rhos[1] > rhos[2] > 0.5
    # repeated calls reproduce bit for bit (fixed start vector)
    again = top_eigenvectors(walk, 3)
    assert np.array_equal(vecs, again)
    with pytest.raises(ValueError):
        top_eigenvectors(walk, 0)


def test_top_eigenvectors_dense_small(star4):
    walk = lazy_walk_matrix(star4)
    vecs = top_eigenvectors(walk, 2)
    values, full = eigendecomposition(walk)
    assert np.array_equal(vecs, full[:, :2])


def test_synthesize_smooth_function(star4):
    walk = lazy_walk_matrix(star4)
    # spectrum {1, 2/3, 2/3, -1/3}: threshold 0.5 keeps three eigenvectors
    f = synthesize_smooth_function(walk, 0.5, seed=2)
    assert len(f.coefficients) == 3
    again = synthesize_smooth_function(walk, 0.5, seed=2)
    assert np.array_equal(f.values, again.values)
    # explicit coefficients land on the exact eigenvector combination
    values, vectors = eigendecomposition(walk)
    g = synthesize_smooth_function(walk, 0.5, coefficients=[1.0, 0.0, 0.0])
    assert np.allclose(g.values, vectors[:, 0], atol=1e-12)
    assert smoothness_norm(g) == 1.0


def test_synthesize_validation(star4):
    walk = lazy_walk_matrix(star4)
    with pytest.raises(ValueError):
        synthesize_smooth_function(walk, 1.5, seed=0)
    with pytest.raises(ValueError):
        synthesize_smooth_function(walk, 0.5)  # no coefficients, no seed
    with pytest.raises(ValueError):
        synthesize_smooth_function(walk, 0.5, coefficients=[1.0])  # needs 3


def test_smoothness_norm():
    assert smoothness_norm(GraphFunction(np.zeros(2), np.array([3.0, 4.0]))) == 5.0
    with pytest.raises(ValueError):
        smoothness_norm(GraphFunction(np.zeros(2)))


def test_graph_function_mean():
    f = GraphFunction(np.array([1.0, 2.0, 6.0]))
    assert f.mean() == 3.0
