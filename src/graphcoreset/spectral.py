"""Lazy random-walk matrix, normalized walk-power columns, smooth functions.

The walk matrix P = (W - D)/d_max + I is symmetric, doubly stochastic, and
has spectrum inside [-1, 1]; lazy_walk_matrix returns it as a CSR matrix.
The walk power P^ell is P itself at ell = 1; for ell >= 2 it is a dense BLAS
matrix power on graphs of at most 2048 vertices and repeated sparse
multiplication on larger ones. The path follows from n alone; no caller
chooses it. NormalizedColumns derives the uniform target 1/sqrt(n) from n
as well. Dense eigendecompositions appear only in the synthesis and
diagnostic paths, never in column construction.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graphs import Graph

# largest vertex count whose walk power (ell >= 2) goes through a dense matrix
_DENSE_POWER_MAX_N = 2048
# largest vertex count whose top eigenvectors come from a full dense eigh
_DENSE_EIG_MAX_N = 600


def lazy_walk_matrix(graph: Graph) -> sp.csr_matrix:
    """Build P = (W - D)/d_max + I, as CSR, for a graph with at least one edge."""
    if graph.m == 0:
        raise ValueError("graph has no edges, d_max would be zero")
    adjacency = graph.adjacency()
    degrees = graph.degrees()
    d_max = float(degrees.max())
    matrix = adjacency / d_max + sp.diags(1.0 - degrees / d_max)
    matrix = sp.csr_matrix(matrix)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    if np.max(np.abs(row_sums - 1.0)) > 1e-12:
        raise ValueError("walk matrix rows failed to normalize")
    return matrix


@dataclass
class NormalizedColumns:
    """Unit-normalized columns of a walk power.

    matrix holds the raw power P^ell (symmetric, sparse); column i of the
    normalized family is matrix[:, i] / column_norms[i].
    """

    ell: int
    matrix: sp.csc_matrix
    column_norms: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def target(self) -> np.ndarray:
        """The uniform unit vector 1/sqrt(n) that every column is compared against."""
        return np.full(self.n, 1.0 / np.sqrt(self.n))

    def column(self, i: int) -> np.ndarray:
        """Dense unit-norm column i, filled from the CSC slice of column i."""
        start, stop = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        col = np.zeros(self.n)
        col[self.matrix.indices[start:stop]] = self.matrix.data[start:stop]
        return col / self.column_norms[i]

    def alignments(self, x: np.ndarray) -> np.ndarray:
        """Inner product of every normalized column with x, one matvec."""
        return (self.matrix.T @ x) / self.column_norms

    def combine(self, coefficients: np.ndarray) -> np.ndarray:
        """Linear combination sum_i coefficients[i] * (column i / norm i)."""
        return self.matrix @ (coefficients / self.column_norms)


def normalized_columns(walk: sp.csr_matrix, ell: int) -> NormalizedColumns:
    """Normalized columns of P^ell.

    The result carries ell: the selection and the error bound work from these
    columns and take no ell of their own.
    At ell = 1 the power is P, copied to CSC without its explicit zeros: the
    same arrays a dense round trip would give, without densifying. For
    ell >= 2, graphs of at most _DENSE_POWER_MAX_N vertices go through a
    dense BLAS matrix power (repeated squaring, so large ell stays cheap);
    larger graphs build the power by sequential sparse multiplication to
    avoid densifying them.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if ell == 1:
        power = sp.csc_matrix(walk, copy=True)
        power.eliminate_zeros()
    elif walk.shape[0] <= _DENSE_POWER_MAX_N:
        power = sp.csc_matrix(np.linalg.matrix_power(walk.toarray(), ell))
    else:
        power = walk
        for _ in range(ell - 1):
            power = power @ walk
        power = sp.csc_matrix(power)
    norms = np.sqrt(np.asarray(power.multiply(power).sum(axis=0)).ravel())
    if np.any(norms <= 0):
        raise ValueError("walk power has a zero column")
    return NormalizedColumns(ell, power, norms)


def eigendecomposition(walk: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full orthonormal eigenbasis of P, eigenvalues descending.

    Dense; intended for synthesis, diagnostics, and modest n.
    """
    values, vectors = np.linalg.eigh(walk.toarray())
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def top_eigenvectors(walk: sp.csr_matrix, k: int) -> np.ndarray:
    """Eigenvectors of the k largest eigenvalues, as columns, descending.

    Graphs of at most _DENSE_EIG_MAX_N vertices go through the dense path;
    larger ones use Lanczos with a fixed seeded start vector so repeated
    calls are reproducible.
    """
    n = walk.shape[0]
    if not (1 <= k <= n):
        raise ValueError("k must be in 1..n")
    if n <= _DENSE_EIG_MAX_N or k > n - 2:
        _, vectors = eigendecomposition(walk)
        return vectors[:, :k]
    v0 = np.random.default_rng(0).standard_normal(n)
    values, vectors = spla.eigsh(walk, k=k, which="LA", v0=v0)
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


def synthesize_smooth_function(
    walk: sp.csr_matrix,
    eigenvalue_threshold: float,
    coefficients: np.ndarray | None = None,
    seed: int | None = None,
) -> GraphFunction:
    """Build a function spanned by eigenvectors with |eigenvalue| above threshold.

    Coefficients may be supplied (one per retained eigenvector, in descending
    eigenvalue order) or drawn standard normal from the seed.
    """
    if not (0.0 < eigenvalue_threshold < 1.0):
        raise ValueError("eigenvalue_threshold must be in (0, 1)")
    values, vectors = eigendecomposition(walk)
    keep = np.abs(values) > eigenvalue_threshold
    count = int(keep.sum())
    if count == 0:
        raise ValueError("no eigenvalues above the threshold")
    if coefficients is None:
        if seed is None:
            raise ValueError("provide coefficients or a seed")
        coefficients = np.random.default_rng(seed).standard_normal(count)
    coefficients = np.asarray(coefficients, dtype=np.float64).reshape(-1)
    if len(coefficients) != count:
        raise ValueError(f"expected {count} coefficients, got {len(coefficients)}")
    return GraphFunction(vectors[:, keep] @ coefficients, coefficients)


def smoothness_norm(function: GraphFunction) -> float:
    """Euclidean norm of the spectral coefficient vector."""
    if function.coefficients is None:
        raise ValueError("function has no spectral coefficients")
    return float(np.linalg.norm(function.coefficients))

