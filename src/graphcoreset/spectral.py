"""Lazy random-walk matrix, normalized walk-power columns, smooth functions.

The walk matrix P = (W - D)/d_max + I is exactly symmetric, doubly
stochastic, and has spectrum inside [-1, 1]; lazy_walk_matrix returns it as a
CSR matrix. The walk power P^ell is one chain, np.linalg.matrix_power's
repeated squaring with each square taken as X @ X.T (see _power). Its
factors start dense for ell >= 2 on graphs of at most 2048 vertices, so BLAS
squares them by syrk, and sparse otherwise (ell = 1 is P itself); a sparse
square that stores all n * n entries turns dense. That follows from n, ell
and the squares' fill alone; no caller chooses it.
A power with no zero entry is stored as the dense column-major array and
any other as CSC; that follows from the power's fill alone, too.
NormalizedColumns derives the uniform target 1/sqrt(n) from n as well.
Eigenvectors never enter column construction: top_eigenvectors, one seeded
Lanczos solve stopped at the stated residual tolerance _LANCZOS_TOL, embeds
the graph for the spectral and graph k-means baselines, and the dense
eigendecomposition serves smooth-function synthesis. The embedding is exact
only to that tolerance; baselines._snap_to_members ties distances within a
relative 1e-9, so its picks do not follow the solver's last digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph

# largest vertex count whose walk power (ell >= 2) starts from the dense matrix
_DENSE_POWER_MAX_N = 2048
# ARPACK's stopping tolerance for top_eigenvectors: it returns a Ritz pair
# (theta, u) once ||P u - theta u|| <= _LANCZOS_TOL * max(|theta|, eps^(2/3)),
# which is _LANCZOS_TOL * |theta| for any |theta| of 4e-11 or more. At tol=0
# (machine precision) a 2,000-point kNN walk at k = 14 takes 504 matvecs
# against 377, and with the tie rule of baselines._snap_to_members no baseline
# pick on the benchmark's runner pools differs between the two. test_top_eigenvectors_lanczos_path
# asserts residuals below 1e-8, so 1e-8 itself would leave that no margin
_LANCZOS_TOL = 1e-10


def lazy_walk_matrix(graph: Graph) -> sp.csr_matrix:
    """Build P = (W - D)/d_max + I, as CSR, for a graph with at least one edge."""
    if graph.m == 0:
        raise ValueError("graph has no edges, d_max would be zero")
    import scipy.sparse as sp

    adjacency = graph.adjacency()
    with np.errstate(over="ignore", invalid="ignore"):  # the row check reports both
        degrees = graph.degrees()
        d_max = float(degrees.max())
        matrix = adjacency / d_max + sp.diags(1.0 - degrees / d_max)
        matrix = sp.csr_matrix(matrix)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    if not np.max(np.abs(row_sums - 1.0)) <= 1e-12:  # a NaN row fails too
        raise ValueError("walk matrix rows failed to normalize")
    return matrix


@dataclass(frozen=True)
class NormalizedColumns:
    """Unit-normalized columns of a walk power.

    power holds the raw power P^ell (symmetric), read only by these methods:
    the dense column-major array when it has no zero entry, CSC otherwise.
    Column i of the normalized family is power[:, i] / column_norms[i]. rows
    is power.T, built once and sharing power's buffers, so alignments is one
    matvec with no per-call transpose: a BLAS gemv on a dense power's buffer
    read as the row-major (P^ell)^T, a CSR matvec otherwise. The fields are
    frozen, so the view cannot go stale.

    gram(i), every column's alignment with column i, is all that a greedy
    round reads of the power.
    """

    ell: int
    power: np.ndarray | sp.csc_matrix
    column_norms: np.ndarray
    rows: np.ndarray | sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", self.power.T)

    @property
    def n(self) -> int:
        return self.power.shape[0]

    @property
    def matrix(self) -> sp.csc_matrix:
        """The power as CSC (built on each call from a dense power), kept only
        for the benchmark's trace hook in bench/spans.py; nothing here reads it."""
        import scipy.sparse as sp

        return sp.csc_matrix(self.power)

    @property
    def target(self) -> np.ndarray:
        """The uniform unit vector 1/sqrt(n) that every column is compared against."""
        return np.full(self.n, 1.0 / np.sqrt(self.n))

    def column(self, i: int) -> np.ndarray:
        """Dense unit-norm column i, sliced from a dense power or filled from CSC."""
        if isinstance(self.power, np.ndarray):
            return self.power[:, i] / self.column_norms[i]
        start, stop = self.power.indptr[i], self.power.indptr[i + 1]
        col = np.zeros(self.n)
        col[self.power.indices[start:stop]] = self.power.data[start:stop]
        return col / self.column_norms[i]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The raw power applied to x, P^ell @ x."""
        return self.power @ x

    def alignments(self, x: np.ndarray) -> np.ndarray:
        """Inner product of every normalized column with x: one matvec with rows,
        a BLAS gemv on a full power and a CSR matvec otherwise."""
        return (self.rows @ x) / self.column_norms

    def gram(self, i: int) -> np.ndarray:
        """Inner product of every normalized column with normalized column i.

        A full power takes alignments(column(i)). A stored sparse power sums
        the columns on column i's support, weighted by column i's entries,
        reading column j as row j of the symmetric power: one bincount over
        slices of the CSC arrays, with work (fill * n)^2 in place of fill * n^2.
        """
        if isinstance(self.power, np.ndarray):
            return self.alignments(self.column(i))
        indptr, indices, data = self.power.indptr, self.power.indices, self.power.data
        start, stop = indptr[i], indptr[i + 1]
        support = indices[start:stop]
        starts = indptr[support]
        lengths = indptr[support + 1] - starts
        # positions of the support columns' entries, column after column
        where = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        where += np.arange(len(where))
        weights = data[where] * np.repeat(data[start:stop] / self.column_norms[i], lengths)
        return np.bincount(indices[where], weights, minlength=self.n) / self.column_norms


def normalized_columns(walk: sp.csr_matrix, ell: int) -> NormalizedColumns:
    """Normalized columns of P^ell.

    walk must be exactly symmetric, as lazy_walk_matrix returns it: the
    power squares by X @ X.T (see _power). The result carries ell: the
    selection and the error bound work from these columns and take no ell of
    their own. A sparse power is copied to CSC without explicit zeros: the
    same arrays a dense round trip would give, without densifying. A power
    with no zero entry is kept as the dense column-major array.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    import scipy.sparse as sp

    # rounding can carry a huge power past float range; the norm check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        power = _power(walk, ell)
        if not isinstance(power, np.ndarray):
            power = sp.csc_matrix(power, copy=True)
            power.eliminate_zeros()
            if power.nnz == power.shape[0] ** 2:  # a last sparse product that filled
                power = power.toarray(order="F")
        elif np.count_nonzero(power) < power.size:
            power = sp.csc_matrix(power)
        else:
            power = np.asfortranarray(power)
        norms = np.sqrt(_column_sums_of_squares(power))
    if not np.all((norms > 0) & (norms < np.inf)):  # a NaN norm fails too
        raise ValueError("walk power has a zero or non-finite column")
    return NormalizedColumns(ell, power, norms)


def _power(walk: sp.csr_matrix, ell: int) -> np.ndarray | sp.csr_matrix:
    """walk to the power ell >= 1, for an exactly symmetric walk.

    The chain is np.linalg.matrix_power's: right-to-left bits, one general
    product per extra set bit, and the ell == 3 short cut. Each squaring is
    X @ X.T, which is X @ X to rounding as P is symmetric. The factors start
    as walk.toarray() for ell >= 2 on graphs of at most _DENSE_POWER_MAX_N
    vertices, where numpy hands X @ X.T on one buffer to BLAS syrk (one
    triangle, mirrored: the square is exactly symmetric), and as walk itself
    otherwise, where (P @ P.T) @ P has the bytes of (P @ P) @ P. A sparse
    square that stores all n * n entries turns dense, and a power that never
    fills (a disconnected or regular bipartite graph) stays sparse; any ell
    takes at most 2 log2(ell) products. The walk's dense copy goes after its
    first squaring only for even ell. For odd ell it is the product's first
    factor and stays until the next set bit's product, so the chain holds
    three n * n arrays at ell 5, 7 and 9 against two at ell 4, 8 and 16. Each
    square goes after the last product that reads it.
    """
    n = walk.shape[0]
    square = walk.toarray() if ell >= 2 and n <= _DENSE_POWER_MAX_N else walk
    if ell == 3:  # numpy's short cut; the chain below would give P @ P^2
        return (square @ square.T) @ square
    power = None
    while True:
        ell, bit = divmod(ell, 2)
        if bit:
            power = square if power is None else power @ square
        if not ell:
            return power
        square = square @ square.T
        if not isinstance(square, np.ndarray) and square.nnz == n * n:
            square = square.toarray()


def _column_sums_of_squares(power: np.ndarray | sp.csc_matrix) -> np.ndarray:
    """Sum of squared entries per column, dense or stored, in storage order.

    Bit-identical to multiply().sum(axis=0) on the CSC form. reduceat returns
    the next element for an empty segment, so empty columns are left at 0.
    """
    if isinstance(power, np.ndarray):
        data, indptr = power.ravel(order="F"), np.arange(0, power.size + 1, power.shape[0])
    else:
        data, indptr = power.data, power.indptr
    sums = np.zeros(power.shape[1])
    filled = np.flatnonzero(np.diff(indptr))
    sums[filled] = np.add.reduceat(data * data, indptr[filled])
    return sums


def eigendecomposition(walk: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full orthonormal eigenbasis of P, eigenvalues descending, by a dense eigh:
    for smooth-function synthesis, and top_eigenvectors at k >= n - 1."""
    values, vectors = np.linalg.eigh(walk.toarray())
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def top_eigenvectors(walk: sp.csr_matrix, k: int) -> np.ndarray:
    """Eigenvectors of the k largest eigenvalues, as columns, descending.

    One Lanczos solve (eigsh) from a start vector drawn from seed 0 on every
    graph size, so repeated calls give the same bytes, under one BLAS thread
    or two. It stops at _LANCZOS_TOL: every returned pair (theta, u) has
    ||P u - theta u|| <= _LANCZOS_TOL * |theta| (for |theta| of 4e-11 or more).
    k = n - 1 or n slices the full eigendecomposition instead: eigsh refuses
    k = n, and at k = n - 1 its Krylov space is the whole space.
    """
    n = walk.shape[0]
    if not (1 <= k <= n):
        raise ValueError("k must be in 1..n")
    if k > n - 2:
        _, vectors = eigendecomposition(walk)
        return vectors[:, :k]
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(0).standard_normal(n)
    values, vectors = eigsh(walk, k=k, which="LA", v0=v0, tol=_LANCZOS_TOL)
    order = np.argsort(-values, kind="stable")
    return vectors[:, order]


@dataclass
class GraphFunction:
    """Vertex function, optionally with its spectral coefficients."""

    values: np.ndarray
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.coefficients is not None:
            self.coefficients = np.asarray(self.coefficients, dtype=np.float64).reshape(-1)

    def mean(self) -> float:
        return float(self.values.mean())


def synthesize_smooth_function(walk: sp.csr_matrix, eigenvalue_threshold: float,
                               seed: int) -> GraphFunction:
    """Build a function spanned by eigenvectors with |eigenvalue| above threshold.

    The coefficients, one per retained eigenvector in descending eigenvalue
    order, are drawn standard normal from the seed.
    """
    if not (0.0 < eigenvalue_threshold < 1.0):
        raise ValueError("eigenvalue_threshold must be in (0, 1)")
    values, vectors = eigendecomposition(walk)
    keep = np.abs(values) > eigenvalue_threshold
    count = int(keep.sum())
    if count == 0:
        raise ValueError("no eigenvalues above the threshold")
    coefficients = np.random.default_rng(seed).standard_normal(count)
    return GraphFunction(vectors[:, keep] @ coefficients, coefficients)


def smoothness_norm(function: GraphFunction) -> float:
    """Euclidean norm of the spectral coefficient vector."""
    if function.coefficients is None:
        raise ValueError("function has no spectral coefficients")
    return float(np.linalg.norm(function.coefficients))

