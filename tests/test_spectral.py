"""Walk matrix, normalized walk-power columns, smooth function synthesis."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import graphcoreset
from graphcoreset import (
    CostVector,
    GraphFunction,
    PointCloud,
    build_knn_kernel_graph,
    eigendecomposition,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    lazy_walk_matrix,
    normalized_columns,
    select_coreset_grid,
    smoothness_norm,
    synthesize_smooth_function,
    top_eigenvectors,
)
from graphcoreset import spectral
from graphcoreset.graphs import Graph
from graphcoreset.spectral import NormalizedColumns


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


def _reference_dense_power(dense: np.ndarray, ell: int) -> np.ndarray:
    """np.linalg.matrix_power's chain with every squaring taken as X @ X.T."""
    if ell == 3:
        return (dense @ dense.T) @ dense
    power, square = None, dense
    while True:
        ell, bit = divmod(ell, 2)
        if bit:
            power = square if power is None else power @ square
        if not ell:
            return power
        square = square @ square.T


def test_dense_power_matches_matrix_power():
    """The chain that frees its factors computes the reference loop's
    products, bit for bit, and np.linalg.matrix_power's to rounding. The
    entries are nonnegative, so no product cancels: each of the at most
    2 log2(ell) products adds about n * eps of relative rounding per entry,
    2e-13 in all at n = 75 and ell <= 64. At ell = 1 the power is P itself."""
    walk = lazy_walk_matrix(generate_sbm([30, 25, 20], 0.3, 0.05, seed=2))
    dense = walk.toarray()
    assert spectral._power(walk, 1) is walk
    for ell in range(2, 65):
        got = spectral._power(walk, ell)
        assert got.tobytes() == _reference_dense_power(dense, ell).tobytes(), ell
        assert np.allclose(got, np.linalg.matrix_power(dense, ell), rtol=1e-12, atol=0), ell


def test_squared_dense_powers_are_exactly_symmetric():
    """Every power-of-two power of the tree study's walk is exactly symmetric:
    numpy hands X @ X.T on one buffer to BLAS syrk, which mirrors one
    triangle. A plain X @ X (gemm) square of this walk is not exactly
    symmetric, so this fails if the squaring stops going through syrk."""
    walk = lazy_walk_matrix(generate_powerlaw_tree(300, 3.0, seed=0))
    for ell in (2, 4, 8, 16, 32, 64):
        power = spectral._power(walk, ell)
        assert np.array_equal(power, power.T), ell


def test_normalized_columns_sparse_path_agrees(large_knn_walk):
    """Past the cutoff the sparse chain's (P @ P.T) @ P has the arrays of
    P @ P @ P, and the columns and norms of ell matvecs."""
    cols = normalized_columns(large_knn_walk, 3)
    # scipy's product stores no zeros, so the CSC copy is the product's own conversion
    want = sp.csc_matrix(large_knn_walk @ large_knn_walk @ large_knn_walk)
    for name in ("indptr", "indices", "data"):
        assert getattr(cols.matrix, name).tobytes() == getattr(want, name).tobytes()
    for i in (0, 1049, 2099):
        want = _power_column(large_knn_walk, 3, i)
        assert np.allclose(cols.matrix[:, [i]].toarray().ravel(), want, rtol=0, atol=1e-14)
        assert cols.column_norms[i] == pytest.approx(np.linalg.norm(want), rel=1e-13)


@pytest.mark.parametrize("ell", [5, 1000, 10**9])
def test_filled_sparse_power_finishes_densely(monkeypatch, ell):
    """Past the cutoff the chain starts sparse, and its first square to store
    all n * n entries (P^4 here) turns dense, so the power comes out full.
    It agrees with the dense branch to rounding: nonnegative entries and no
    cancellation, a few eps of relative rounding (measured 1.2e-15 at ell 5,
    7.3e-15 at ell 1000). At ell = 10**9 both chains drift from the exact
    limit, the uniform 1/n of a connected aperiodic doubly stochastic walk,
    by about ell * eps relative (3.0e-8 dense, 2.5e-8 sparse-start): a
    rounding error delta in the row sums of a factor grows to about
    (1 + delta)**ell in the power's, so that case checks the limit within
    ell * eps. The chain takes 41 products there, not ell - 1."""
    walk = lazy_walk_matrix(generate_sbm([30, 25, 20], 0.3, 0.05, seed=2))
    n = walk.shape[0]
    want = normalized_columns(walk, ell)
    assert (walk @ walk).nnz < n * n == (walk @ walk @ walk @ walk).nnz
    monkeypatch.setattr(spectral, "_DENSE_POWER_MAX_N", 1)
    got = normalized_columns(walk, ell)
    assert type(got.rows) is np.ndarray  # a full power, stored from the dense chain
    if ell < 10**9:
        assert np.allclose(got.rows, want.rows, rtol=1e-12, atol=0)
        assert np.allclose(got.column_norms, want.column_norms, rtol=1e-12, atol=0)
    else:
        tolerance = ell * np.finfo(float).eps
        assert np.allclose(got.rows, 1.0 / n, rtol=tolerance, atol=0)
        assert np.allclose(got.column_norms, 1.0 / np.sqrt(n), rtol=tolerance, atol=0)


def test_sparse_power_that_fills_last_is_stored_dense(monkeypatch):
    """Past the cutoff at ell = 3, P^2 is sparse but the last product (P @ P.T)
    @ P stores all n * n entries: it is kept as the dense column-major array,
    whose bytes are that product's CSC data, and scored by the gemv."""
    walk = lazy_walk_matrix(generate_sbm([30, 25, 20], 0.3, 0.1, seed=2))
    n = walk.shape[0]
    product = (walk @ walk.T) @ walk
    assert (walk @ walk).nnz < n * n == product.nnz
    monkeypatch.setattr(spectral, "_DENSE_POWER_MAX_N", 1)
    cols = normalized_columns(walk, 3)
    assert type(cols.power) is np.ndarray and cols.power.flags.f_contiguous
    assert cols.power.tobytes(order="F") == sp.csc_matrix(product).data.tobytes()
    assert type(cols.rows) is np.ndarray and np.shares_memory(cols.rows, cols.power)


def test_power_that_never_fills_stays_sparse_and_bounded():
    """On a graph with two components no power fills, so past the cutoff the
    chain stays sparse; it still squares, so ell = 10**9 takes 41 products
    (a chain of ell - 1 products would not finish). Each block of P^ell is
    the uniform 1/30 of its 30-vertex component to rounding, and no entry
    crosses between the components. Run in a child process with a timeout."""
    code = ("import numpy as np\n"
            "from graphcoreset import generate_sbm, lazy_walk_matrix, spectral\n"
            "walk = lazy_walk_matrix(generate_sbm([30, 30], 0.3, 0.0, seed=2))\n"
            "spectral._DENSE_POWER_MAX_N = 1\n"
            "power = spectral._power(walk, 10**9)\n"
            "assert not isinstance(power, np.ndarray)\n"
            "power = power.toarray()\n"
            "assert not power[:30, 30:].any() and not power[30:, :30].any()\n"
            "assert np.allclose(power[:30, :30], 1 / 30, rtol=0, atol=1e-7)\n"
            "assert np.allclose(power[30:, 30:], 1 / 30, rtol=0, atol=1e-7)\n")
    src = str(Path(graphcoreset.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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
    x = np.random.default_rng(0).standard_normal(walk.shape[0])
    # ell = 1 takes the sparse power branch, ell = 2 the dense one; the last
    # columns are built by hand, bypassing normalized_columns
    hand = sp.csc_matrix(np.array([[2.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 3.0, 0.0]]))
    hand_norms = np.sqrt(np.asarray(hand.multiply(hand).sum(axis=0)).ravel())
    for cols in (normalized_columns(walk, 1), normalized_columns(walk, 2),
                 NormalizedColumns(1, hand, hand_norms)):
        y = x[:cols.n]
        manual = np.array([cols.column(i) @ y for i in range(cols.n)])
        assert np.allclose(cols.alignments(y), manual, atol=1e-12)
        # the once-built view gives the per-call transpose's matvec bit for bit
        assert cols.alignments(y).tobytes() == ((cols.matrix.T @ y) / cols.column_norms).tobytes()
    assert np.allclose(cols.target, 1.0 / np.sqrt(cols.n))
    with pytest.raises(ValueError):
        normalized_columns(walk, 0)


@pytest.fixture(scope="module")
def full_powers():
    """(walk, ell, dense P^ell from _power) for walks whose dense-branch
    power has no zero entry: the SBM study's graph at ell = 12 and the
    power-law tree study's at ell = 32."""
    sbm = lazy_walk_matrix(generate_sbm([100, 500, 400], 0.15, 0.045, seed=1))
    tree = lazy_walk_matrix(generate_powerlaw_tree(300, 3.0, seed=0))
    return {name: (walk, ell, spectral._power(walk, ell))
            for name, walk, ell in (("sbm", sbm, 12), ("tree", tree, 32))}


@pytest.mark.parametrize("case", ["sbm", "tree"])
def test_full_power_is_scored_by_a_dense_gemv(full_powers, case):
    """A power with no zero entry is stored as the dense column-major array
    _power gives, and rows is its buffer read as the row-major (P^ell)^T."""
    walk, ell, dense = full_powers[case]
    cols = normalized_columns(walk, ell)
    assert np.count_nonzero(dense) == dense.size
    assert type(cols.power) is np.ndarray and cols.power.flags.f_contiguous
    assert cols.power.tobytes(order="F") == dense.tobytes(order="F")
    assert type(cols.rows) is np.ndarray and cols.rows.flags.c_contiguous
    assert np.shares_memory(cols.rows, cols.power)
    assert np.array_equal(cols.rows, dense.T)
    y = np.random.default_rng(4).standard_normal(cols.n)
    got = cols.alignments(y)
    assert got.tobytes() == ((cols.rows @ y) / cols.column_norms).tobytes()
    # the CSR matvec sums each column in another order than the gemv; the
    # largest relative gap measured is 1.02e-13 (the SBM's P^12 at 1 BLAS
    # thread; 0.98e-13 at 2 threads, 0.73e-13 with gemm squares, the tree
    # 0.31e-13), so the bound allows twice that
    csr = (cols.matrix.T @ y) / cols.column_norms
    assert np.allclose(got, csr, rtol=2e-13, atol=0)


@pytest.mark.parametrize("case", ["full", "sparse"])
def test_matrix_is_the_csc_of_the_power(full_powers, large_knn_walk, case):
    """The benchmark's trace hook reads the power's size through
    NormalizedColumns.matrix: shape, nnz and the CSC arrays, which match
    scipy's conversion of the power byte for byte on a full power (the SBM's
    P^12, stored dense) and on a sparse one (the kNN walk's P^3, stored CSC)."""
    if case == "full":
        walk, ell, power = full_powers["sbm"]
    else:
        walk, ell = large_knn_walk, 3
        power = large_knn_walk @ large_knn_walk @ large_knn_walk
    cols = normalized_columns(walk, ell)
    want = sp.csc_matrix(power)
    got = cols.matrix
    assert got.shape == want.shape and got.nnz == want.nnz
    assert (got.nnz == cols.n * cols.n) == (case == "full")
    for name in ("data", "indices", "indptr"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()
    if case == "full":
        assert np.shares_memory(cols.rows, cols.power)


def _matrix_power_columns(walk, ell: int) -> NormalizedColumns:
    """normalized_columns(walk, ell) with np.linalg.matrix_power's gemm squares."""
    power = np.asfortranarray(np.linalg.matrix_power(walk.toarray(), ell))
    assert np.count_nonzero(power) == power.size
    return NormalizedColumns(ell, power, np.sqrt(spectral._column_sums_of_squares(power)))


@pytest.mark.parametrize("family, seed", [
    ("sbm", 1000), ("sbm", 1023), ("tree", 1000), ("tree", 1001),
    ("random", 1000), ("random", 1003)])
def test_syrk_squares_move_selections_by_rounding_only(family, seed):
    """The study graphs select the same vertices, statuses and trajectories
    from the syrk-squared power as from np.linalg.matrix_power's.

    The powers differ by rounding (a few eps per entry), but a high power's
    columns all lie near the uniform vector, so each step size divides by
    differences of alignments near 1 and the weights move by far more: at
    most 3.45e-9 relative over 320 cells (the SBM study at seeds 1000-1031,
    trees and random graphs at 1000-1015; seed 1023 is that maximum). The
    bound leaves a 30x margin over it.
    """
    if family == "sbm":
        graph, ell, ks = generate_sbm([100, 500, 400], 0.15, 0.045, seed=seed), 12, \
            (4, 8, 12, 16, 20, 24, 28)
    elif family == "tree":
        graph, ell, ks = generate_powerlaw_tree(300, 3.0, seed=seed), 32, (5, 10, 20)
    else:
        graph, ell, ks = generate_random_graph(300, 0.03, seed=seed), 32, (5, 10, 20)
    walk = lazy_walk_matrix(graph)
    costs = CostVector.zeros(graph.n)
    got = select_coreset_grid(normalized_columns(walk, ell), costs, 1.0, ks)
    want = select_coreset_grid(_matrix_power_columns(walk, ell), costs, 1.0, ks)
    for k in ks:
        assert got[k].indices == want[k].indices, k
        assert got[k].status == want[k].status, k
        assert [r.vertex for r in got[k].trajectory] == [r.vertex for r in want[k].trajectory]
        assert np.allclose(got[k].weights, want[k].weights, rtol=1e-7, atol=0), k


def test_power_with_a_zero_entry_keeps_the_csr_view(two_triangles):
    """A dense-branch power with any zero entry is scored by the CSR matvec."""
    walk = lazy_walk_matrix(two_triangles)
    cols = normalized_columns(walk, 2)  # vertices 0 and 4 are three hops apart
    assert 0 < cols.matrix.nnz < cols.n * cols.n
    assert isinstance(cols.rows, sp.csr_matrix)
    want = sp.csc_matrix(np.linalg.matrix_power(walk.toarray(), 2))
    for name in ("indptr", "indices", "data"):
        assert getattr(cols.matrix, name).tobytes() == getattr(want, name).tobytes()


def _stored_zero_and_empty_column():
    """A CSC matrix with a stored zero in column 0 and nothing in column 1."""
    data, indices, indptr = np.array([3.0, 0.0, 4.0, 1e-200]), np.array([0, 1, 2, 0]), \
        np.array([0, 3, 3, 4])
    return sp.csc_matrix((data, indices, indptr), shape=(3, 3))


@pytest.mark.parametrize("case", ["dense", "sparse", "stored-zero-and-empty-column"])
def test_column_norms_equal_the_sparse_sum(full_powers, large_knn_walk, case):
    """Sums of squares per column, of a dense column-major power or a CSC one,
    are byte-identical to multiply().sum(axis=0) on the CSC form."""
    if case == "dense":
        power = np.asfortranarray(full_powers["sbm"][2])
    elif case == "sparse":
        power = normalized_columns(large_knn_walk, 3).power
    else:
        power = _stored_zero_and_empty_column()
    matrix = sp.csc_matrix(power)
    want = np.asarray(matrix.multiply(matrix).sum(axis=0)).ravel()
    got = spectral._column_sums_of_squares(power)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_gemv_bytes_do_not_depend_on_blas_threads(full_powers, tmp_path):
    """alignments on a stored full power gives the same bytes under 1 and 2
    BLAS threads. The power is saved once, so only the gemv runs in each child."""
    _, ell, dense = full_powers["sbm"]
    np.save(tmp_path / "power.npy", dense)
    code = ("import sys\n"
            "import numpy as np\n"
            "from graphcoreset import spectral\n"
            "power = np.asfortranarray(np.load(sys.argv[1]))\n"
            "norms = np.sqrt(spectral._column_sums_of_squares(power))\n"
            f"cols = spectral.NormalizedColumns({ell}, power, norms)\n"
            "assert type(cols.rows) is np.ndarray\n"
            "y = np.random.default_rng(7).standard_normal(cols.n)\n"
            "sys.stdout.write(cols.alignments(y).tobytes().hex())\n")
    src = str(Path(graphcoreset.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "power.npy")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(outputs[0]) == 2 * 8 * dense.shape[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("entries, ell", [
    pytest.param([[1.0, 0.0], [0.0, 0.0]], 1, id="empty-column-sparse"),
    pytest.param([[1.0, 0.0], [0.0, 0.0]], 2, id="empty-column-dense"),
    pytest.param([[1e200, 1e200], [1e200, 1e200]], 2, id="overflowing-power"),
])
def test_normalized_columns_rejects_zero_or_nonfinite_column(entries, ell):
    with pytest.raises(ValueError, match="zero or non-finite column"):
        normalized_columns(sp.csr_matrix(np.array(entries)), ell)


def test_top_eigenvectors_lanczos_path():
    g = generate_sbm([240, 230, 230], 0.1, 0.005, seed=3)
    walk = lazy_walk_matrix(g)
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
    """k = n - 1 and k = n (no room for Lanczos) slice the full dense
    eigendecomposition; k = 2 <= n - 2 is a Lanczos solve. star4's 2/3 is a
    double eigenvalue, so that solve may return another basis of its
    eigenspace: it is checked by orthonormality, residuals and eigenvalues."""
    walk = lazy_walk_matrix(star4)
    values, full = eigendecomposition(walk)
    for k in (3, 4):
        assert np.array_equal(top_eigenvectors(walk, k), full[:, :k])
    vecs = top_eigenvectors(walk, 2)
    assert vecs.shape == (4, 2)
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)
    rhos = np.einsum("ij,ij->j", vecs, walk @ vecs)
    for j in range(2):
        assert np.linalg.norm(walk @ vecs[:, j] - rhos[j] * vecs[:, j]) < 1e-8
    assert np.allclose(rhos, values[:2], atol=1e-12)


def test_synthesize_smooth_function(star4):
    walk = lazy_walk_matrix(star4)
    # spectrum {1, 2/3, 2/3, -1/3}: threshold 0.5 keeps three eigenvectors
    f = synthesize_smooth_function(walk, 0.5, seed=2)
    assert len(f.coefficients) == 3
    again = synthesize_smooth_function(walk, 0.5, seed=2)
    assert np.array_equal(f.values, again.values)
    # the values are the kept eigenvectors combined by the coefficients
    values, vectors = eigendecomposition(walk)
    assert np.array_equal(f.values, vectors[:, np.abs(values) > 0.5] @ f.coefficients)


def test_synthesize_validation(star4):
    walk = lazy_walk_matrix(star4)
    with pytest.raises(ValueError):
        synthesize_smooth_function(walk, 1.5, seed=0)


def test_smoothness_norm():
    assert smoothness_norm(GraphFunction(np.zeros(2), np.array([3.0, 4.0]))) == 5.0
    with pytest.raises(ValueError):
        smoothness_norm(GraphFunction(np.zeros(2)))


def test_graph_function_mean():
    f = GraphFunction(np.array([1.0, 2.0, 6.0]))
    assert f.mean() == 3.0
