"""Graph and point-cloud containers, synthetic generators, edge-list ingestion.

Graphs are undirected, weighted, and stored in canonical form: each edge once
as (u, v) with u < v, sorted lexicographically, strictly positive weights, no
self loops. All generators draw from numpy's seeded Generator so identical
arguments reproduce identical objects.
"""

import csv
import io
import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from ._util import atomic_write_text, dump_json, has_type

# One edge of Graph.to_dict() as json.dumps(indent=2) lays it out; floats
# take repr(), which is what the json encoder writes for finite values.
_EDGE_JSON = "    [\n      %d,\n      %d,\n      %r\n    ]"


@dataclass
class Graph:
    """Undirected weighted graph on vertices 0..n-1.

    Attributes:
        n: vertex count, positive.
        edges: (m, 2) int array, canonical u < v rows, lexicographically sorted.
        weights: (m,) positive finite floats, weights[i] belongs to edges[i].
        labels: optional (n,) int array of per-vertex labels (e.g. block ids).
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights length mismatch")
        if self.n >= 2 and len(self.edges) == 0:
            raise ValueError("graph with n >= 2 must have at least one edge")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")
        if len(self.edges):
            if self.edges.min() < 0 or self.edges.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise ValueError("self loops are not allowed")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
                raise ValueError("edge weights must be positive and finite")
            # canonical form: u < v, lexicographic order, no duplicates
            u = np.minimum(self.edges[:, 0], self.edges[:, 1])
            v = np.maximum(self.edges[:, 0], self.edges[:, 1])
            order = np.lexsort((v, u))
            self.edges = np.column_stack([u[order], v[order]])
            self.weights = self.weights[order]
            if len(self.edges) > 1:
                same = np.all(self.edges[1:] == self.edges[:-1], axis=1)
                if np.any(same):
                    raise ValueError("duplicate edges are not allowed")

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric sparse weight matrix W."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.concatenate([self.weights, self.weights])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def degrees(self) -> np.ndarray:
        """Weighted degree of each vertex, D_ii = sum_j W_ij."""
        deg = np.zeros(self.n)
        np.add.at(deg, self.edges[:, 0], self.weights)
        np.add.at(deg, self.edges[:, 1], self.weights)
        return deg

    def to_dict(self) -> dict:
        out = {
            "n": int(self.n),
            "edges": [[int(u), int(v), float(w)] for (u, v), w in zip(self.edges, self.weights)],
        }
        if self.labels is not None:
            out["labels"] = [int(x) for x in self.labels]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        """Inverse of to_dict; raises ValueError on any malformed field."""
        if not isinstance(data, dict):
            raise ValueError("graph must be a JSON object")
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("graph needs an integer n")
        edges = data.get("edges")
        if not isinstance(edges, list):
            raise ValueError("graph needs a list of edges")
        table = _number_array(edges, np.float64)
        if edges and (table is None or table.ndim != 2 or table.shape[1] != 3):
            raise ValueError("graph edges must be [u, v, w] triples")
        table = table.reshape(-1, 3)
        ends = table[:, :2]
        if np.any(ends != np.floor(ends)):
            raise ValueError("edge endpoints must be integers")
        if len(ends) and (ends.min() < 0 or ends.max() >= n):
            raise ValueError("edge endpoint out of range")
        labels = None
        if "labels" in data:
            raw = data["labels"]
            labels = _number_array(raw, None) if isinstance(raw, list) else None
            if labels is None or labels.ndim != 1 or labels.dtype.kind not in "iu":
                raise ValueError("graph labels must be a list of integers")
        return cls(n, ends.astype(np.int64), table[:, 2], labels)

    def save_json(self, path: str) -> None:
        """Write to_dict() in json.dumps(indent=2) layout, one template per edge."""
        parts = ['{\n  "n": %d,\n  "edges": ' % self.n]
        if self.m:
            u, v = self.edges.T.tolist()
            parts += ["[\n", ",\n".join([_EDGE_JSON % row for row in
                                         zip(u, v, self.weights.tolist())]), "\n  ]"]
        else:
            parts.append("[]")
        if self.labels is not None:
            parts += [',\n  "labels": [\n',
                      ",\n".join(["    %d" % x for x in self.labels.tolist()]), "\n  ]"]
        parts.append("\n}\n")
        atomic_write_text(path, "".join(parts))

    @classmethod
    def load_json(cls, path: str) -> "Graph":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _number_array(values: list, dtype) -> np.ndarray | None:
    """np.array(values, dtype), or None when the nesting or an entry does not fit."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass
class PointCloud:
    """Points in R^d with optional integer labels."""

    coords: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2:
            raise ValueError("coords must be a 2-d array (n points x d dims)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if len(self.labels) != len(self.coords):
                raise ValueError("labels length must equal point count")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def save_csv(self, path: str) -> None:
        """Header x0..x{d-1}[,label], one row per point, 17-digit reals."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = [f"x{i}" for i in range(self.dim)]
        if self.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(self.n):
            row = ["%.17g" % x for x in self.coords[i]]
            if self.labels is not None:
                row.append(str(int(self.labels[i])))
            writer.writerow(row)
        atomic_write_text(path, buf.getvalue())

    @classmethod
    def load_csv(cls, path: str) -> "PointCloud":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header:
                raise ValueError(f"{path}: empty point cloud file")
            labeled = header[-1] == "label"
            dim = len(header) - (1 if labeled else 0)
            coords, labels = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"{path}: line {lineno}: expected {len(header)} fields")
                coords.append([float(x) for x in row[:dim]])
                if labeled:
                    labels.append(int(row[-1]))
        if not coords:
            raise ValueError(f"{path}: no points")
        return cls(np.array(coords), np.array(labels) if labeled else None)


@dataclass
class CostVector:
    """Non-negative per-vertex placement costs."""

    costs: np.ndarray

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.costs)) or np.any(self.costs < 0):
            raise ValueError("costs must be finite and non-negative")

    @property
    def n(self) -> int:
        return len(self.costs)

    def save_json(self, path: str) -> None:
        dump_json({"costs": [float(c) for c in self.costs]}, path)

    @classmethod
    def load_json(cls, path: str) -> "CostVector":
        """Read {"costs": [numbers]}; raises ValueError on any malformed field."""
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("costs file must be a JSON object")
        costs = data.get("costs")
        if not isinstance(costs, list):
            raise ValueError("costs file needs a list of costs")
        if not all(has_type(c, float) for c in costs):
            raise ValueError("costs must be numbers")
        values = _number_array(costs, np.float64)
        if values is None:
            raise ValueError("costs must fit in a float")
        return cls(values)

    @classmethod
    def zeros(cls, n: int) -> "CostVector":
        return cls(np.zeros(n))


def sample_costs_uniform(n: int, seed: int) -> CostVector:
    """Independent uniform [0, 1) cost per vertex."""
    if n < 1:
        raise ValueError("n must be positive")
    return CostVector(np.random.default_rng(seed).random(n))


def generate_gaussian_mixture(means, fractions, covariance_scale: float, n: int, seed: int) -> PointCloud:
    """Sample n points from an isotropic Gaussian mixture with labels.

    Component c contributes floor(fractions[c] * n) points, the last component
    absorbs the remainder. Covariance is covariance_scale * I.
    """
    means = np.asarray(means, dtype=np.float64)
    fractions = np.asarray(fractions, dtype=np.float64)
    if means.ndim != 2 or len(means) != len(fractions):
        raise ValueError("means must be (c, d) with one fraction per component")
    if np.any(fractions <= 0) or abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be positive and sum to 1")
    if covariance_scale <= 0:
        raise ValueError("covariance_scale must be positive")
    if n < len(fractions):
        raise ValueError("need at least one point per component")
    counts = np.floor(fractions * n).astype(int)
    counts[-1] = n - counts[:-1].sum()
    if np.any(counts < 1):
        raise ValueError("a component came out empty; increase n or its fraction")
    rng = np.random.default_rng(seed)
    std = float(np.sqrt(covariance_scale))
    blocks, labels = [], []
    for c, (mean, count) in enumerate(zip(means, counts)):
        blocks.append(mean + std * rng.standard_normal((count, means.shape[1])))
        labels.append(np.full(count, c, dtype=np.int64))
    return PointCloud(np.vstack(blocks), np.concatenate(labels))


def build_knn_kernel_graph(cloud: PointCloud, k_neighbors: int, bandwidth: float) -> Graph:
    """Symmetrized k-nearest-neighbor graph with Gaussian kernel weights.

    Each point connects to its k nearest neighbors (self excluded); the union
    of the directed picks is kept, so every degree is at least k. Edge weight
    is exp(-dist^2 / bandwidth^2).
    """
    if not (0 < k_neighbors < cloud.n):
        raise ValueError("k_neighbors must satisfy 0 < k < n")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    tree = cKDTree(cloud.coords)
    dist, idx = tree.query(cloud.coords, k=k_neighbors + 1)
    # first k entries of each row other than the point itself, in query order
    other = idx != np.arange(cloud.n)[:, None]
    keep = other & (np.cumsum(other, axis=1) <= k_neighbors)
    rows = np.nonzero(keep)[0]
    cols = idx[keep]
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    # unique's stable sort returns each pair's first occurrence in row order
    _, first = np.unique(lo * cloud.n + hi, return_index=True)
    d = dist[keep][first]
    weights = np.exp(-(d * d) / (bandwidth * bandwidth))
    edges = np.column_stack([lo[first], hi[first]])
    return Graph(cloud.n, edges, weights, cloud.labels)


def generate_sbm(block_sizes, p_in: float, p_out: float, seed: int) -> Graph:
    """Stochastic block model with unit edge weights and block labels."""
    sizes = [int(s) for s in block_sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must be in [0, 1]")
    n = sum(sizes)
    starts = np.cumsum([0] + sizes)
    labels = np.concatenate([np.full(s, b, dtype=np.int64) for b, s in enumerate(sizes)])
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
            mask = rng.random((len(ia), len(ib))) < p_out
            iu2, iv2 = np.nonzero(mask)
            edge_u.append(ia[iu2])
            edge_v.append(ib[iv2])
    u = np.concatenate(edge_u)
    v = np.concatenate(edge_v)
    edges = np.column_stack([u, v])
    return Graph(n, edges, np.ones(len(edges)), labels)


def generate_powerlaw_tree(n: int, exponent: float, seed: int) -> Graph:
    """Random tree grown by tilted preferential attachment.

    Each new vertex attaches to one existing vertex with probability
    proportional to degree**(1 / (exponent - 2)); exponent 3 is linear
    preferential attachment. The tilt is a heuristic mapping to the target
    degree-tail exponent, steeper tilt for smaller exponents.
    """
    if n < 2:
        raise ValueError("tree needs at least 2 vertices")
    if exponent <= 2:
        raise ValueError("exponent must exceed 2")
    tilt = 1.0 / (exponent - 2.0)
    rng = np.random.default_rng(seed)
    degree = np.zeros(n)
    targets = np.zeros(n - 1, dtype=np.int64)
    degree[0] = degree[1] = 1.0  # first edge 0-1
    for t in range(2, n):
        weight = degree[:t] ** tilt
        probs = weight / weight.sum()
        target = int(rng.choice(t, p=probs))
        targets[t - 1] = target
        degree[t] = 1.0
        degree[target] += 1.0
    edges = np.column_stack([np.arange(1, n), targets])
    return Graph(n, edges, np.ones(n - 1))


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest component, vertices renumbered in order."""
    count, member = connected_components(graph.adjacency(), directed=False)
    if count == 1:
        return graph
    sizes = np.bincount(member, minlength=count)
    keep = member == int(np.argmax(sizes))
    old_ids = np.flatnonzero(keep)
    remap = -np.ones(graph.n, dtype=np.int64)
    remap[old_ids] = np.arange(len(old_ids))
    mask = keep[graph.edges[:, 0]] & keep[graph.edges[:, 1]]
    edges = remap[graph.edges[mask]]
    labels = graph.labels[old_ids] if graph.labels is not None else None
    return Graph(len(old_ids), edges, graph.weights[mask], labels)


def generate_random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Independent-pair random graph; largest component when disconnected.

    When the largest component is a single vertex the graph is redrawn with
    consecutive seeds; after 100 such draws it raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    iu, iv = np.triu_indices(n, k=1)
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        keep = rng.random(len(iu)) < edge_probability
        edges = np.column_stack([iu[keep], iv[keep]])
        if len(edges) == 0:
            graph = Graph(1, np.empty((0, 2), dtype=np.int64), np.empty(0))
        else:
            graph = largest_connected_component(Graph(n, edges, np.ones(len(edges))))
        if graph.n > 1:
            return graph
    raise ValueError("random graph degenerated to a single vertex")


def load_edge_list(path: str, weighted: bool = False) -> Graph:
    """Read a whitespace edge list ("u v" or "u v w" lines, '#' comments).

    Vertex ids are compacted to 0..n-1 in order of first appearance.
    Self loops are dropped with a warning that reports the count. Duplicate
    edges merge: weights sum in weighted mode, collapse to a single unit
    edge otherwise.
    """
    ids: dict[str, int] = {}
    pair_weight: dict[tuple[int, int], float] = {}
    loops = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}: line {lineno}: expected 'u v' or 'u v w'")
            try:
                weight = float(parts[2]) if (weighted and len(parts) == 3) else 1.0
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad weight {parts[2]!r}")
            if weight <= 0 or not np.isfinite(weight):
                raise ValueError(f"{path}: line {lineno}: weight must be positive")
            ends = []
            for token in parts[:2]:
                if token not in ids:
                    ids[token] = len(ids)
                ends.append(ids[token])
            u, v = ends
            if u == v:
                loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in pair_weight:
                if weighted:
                    pair_weight[key] += weight
            else:
                pair_weight[key] = weight
    if loops:
        warnings.warn(f"{path}: dropped {loops} self-loop line(s)")
    if not pair_weight:
        raise ValueError(f"{path}: no edges found")
    edges = np.array(sorted(pair_weight), dtype=np.int64)
    weights = np.array([pair_weight[(u, v)] for u, v in edges])
    return Graph(len(ids), edges, weights)


def save_edge_list(graph: Graph, path: str, weighted: bool | None = None) -> None:
    """Write the canonical edge list; weights included unless all are 1."""
    if weighted is None:
        weighted = not np.all(graph.weights == 1.0)
    lines = []
    for (u, v), w in zip(graph.edges, graph.weights):
        if weighted:
            lines.append(f"{u} {v} {'%.17g' % w}")
        else:
            lines.append(f"{u} {v}")
    atomic_write_text(path, "\n".join(lines) + "\n")
