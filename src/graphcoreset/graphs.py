"""Graph and point-cloud containers, synthetic generators, edge-list ingestion.

Graphs are undirected, weighted, and stored in canonical form: each edge once
as (u, v) with u < v, sorted lexicographically, strictly positive weights, no
self loops. Graph alone puts a table in that form, whatever order its rows
come in; generators and loaders hand it their rows as drawn. A graph file is
JSON in columns, {"n": n, "u": [...], "v": [...], "w": [...]} with an
optional "labels": [...], edge i being (u[i], v[i], w[i]).
All generators draw from numpy's seeded Generator so identical arguments
reproduce identical objects.
"""

from __future__ import annotations

import io
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, check_fields, dump_json, read_json

# the type of each graph field; the entries of each list are checked by _number_array
_GRAPH_FIELDS = {"n": int, "u": list, "v": list, "w": list, "labels": list}
# Graph's sort keys u * b + v, b = largest endpoint + 1, fit in int64 while b^2 <= 2^63
_MAX_ENDPOINT = 3_037_000_498


@dataclass
class Graph:
    """Undirected weighted graph on vertices 0..n-1.

    Edge weights are affinities, which only the walk reads (through
    adjacency and degrees); shortest paths and betweenness count hops
    (hop_adjacency), whatever the weights.

    Every edge table takes one path to canonical form: u = min and v = max
    of each row, one stable argsort of the int64 keys u * b + v (b = largest
    endpoint + 1), and ValueError where two sorted keys are equal. Distinct
    keys sort as the (u, v) pairs do. An endpoint above _MAX_ENDPOINT
    (3,037,000,498) would overflow a key and raises ValueError naming it.

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
            self.labels = np.array(self.labels, dtype=np.int64).reshape(-1)
        if self.n < 1:
            raise ValueError("graph must have at least one vertex")
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights length mismatch")
        if self.n >= 2 and len(self.edges) == 0:
            raise ValueError("graph with n >= 2 must have at least one edge")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")
        if len(self.edges):
            top = int(self.edges.max())
            if self.edges.min() < 0 or top >= self.n:
                raise ValueError("edge endpoint out of range")
            if top > _MAX_ENDPOINT:
                raise ValueError(f"edge endpoint {top} is above {_MAX_ENDPOINT}, the largest "
                                 "whose (u, v) sort key fits in int64")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise ValueError("self loops are not allowed")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
                raise ValueError("edge weights must be positive and finite")
            # the sorted copies leave the caller's arrays alone, and the sorted
            # columns come back from the sorted keys: no copy of u or v is held
            first, second = self.edges.T
            key = np.minimum(first, second) * (top + 1) + np.maximum(first, second)
            order = np.argsort(key, kind="stable")
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate edges are not allowed")
            self.weights = self.weights[order]
            del order
            self.edges = np.empty((len(key), 2), dtype=np.int64)
            np.divmod(key, top + 1, out=(self.edges[:, 0], self.edges[:, 1]))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric sparse weight matrix W."""
        import scipy.sparse as sp

        u, v = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.concatenate([self.weights, self.weights])
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def hop_adjacency(self) -> sp.csr_matrix:
        """The adjacency with every edge of length 1: paths count hops."""
        hops = self.adjacency()
        hops.data = np.ones_like(hops.data)
        return hops

    def components(self) -> np.ndarray:
        """Each vertex's connected component, named by its lowest vertex.

        Hook and shortcut over the edge array: every round, each root hooks
        to the lowest root it shares an edge with, then pointer jumping
        flattens every tree to a star. A root only ever points lower, so no
        cycle forms. A round merges whole trees rather than moving labels one
        hop, so unlike label propagation the rounds do not step along the
        diameter.
        """
        root = np.arange(self.n)
        u, v = self.edges[:, 0], self.edges[:, 1]
        while True:
            ru, rv = root[u], root[v]
            cross = ru != rv
            if not cross.any():
                return root
            # an edge inside one component stays inside it
            u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while True:
                jumped = root[root]
                if np.array_equal(jumped, root):
                    break
                root = jumped

    def degrees(self) -> np.ndarray:
        """Weighted degree of each vertex, D_ii = sum_j W_ij."""
        deg = np.zeros(self.n)
        np.add.at(deg, self.edges[:, 0], self.weights)
        np.add.at(deg, self.edges[:, 1], self.weights)
        return deg

    def to_dict(self) -> dict:
        """The graph file's columns: n, the edges' u, v and w, and labels if any."""
        out = {"n": int(self.n), "u": self.edges[:, 0].tolist(), "v": self.edges[:, 1].tolist(),
               "w": self.weights.tolist()}
        if self.labels is not None:
            out["labels"] = self.labels.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        """Inverse of to_dict; raises ValueError, naming the field, on any malformed one."""
        check_fields(data, _GRAPH_FIELDS, "graph", optional=("labels",))
        n = data["n"]
        if n >= 2**63:
            raise ValueError("graph n must fit in int64")
        u, v, w = (_number_array(data, key, np.float64) for key in "uvw")
        if not len(u) == len(v) == len(w):
            raise ValueError(f"graph u, v and w must have equal lengths, got "
                             f"{len(u)}, {len(v)} and {len(w)}")
        for key, ends in (("u", u), ("v", v)):
            if np.any(ends != np.floor(ends)):
                raise ValueError(f"graph {key} must hold integer endpoints")
            if len(ends) and (ends.min() < 0 or ends.max() >= n):
                raise ValueError(f"graph {key} holds an endpoint out of range")
        labels = _number_array(data, "labels", np.int64) if "labels" in data else None
        return cls(n, np.column_stack([u, v]).astype(np.int64), w, labels)

    def save_json(self, path: str) -> None:
        """Write to_dict() as one line of JSON."""
        atomic_write_text(path, json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load_json(cls, path: str) -> "Graph":
        return cls.from_dict(read_json(path))


def _number_array(data: dict, key: str, dtype) -> np.ndarray:
    """The list data[key] as a 1-d array of dtype. ValueError, naming the field,
    unless every entry is a JSON number (an int for an int64 array; never a
    boolean) that dtype holds."""
    kinds, what = ({int}, "integers") if dtype is np.int64 else ({int, float}, "numbers")
    if not set(map(type, data[key])) <= kinds:
        raise ValueError(f"graph {key} must hold {what} only")
    try:
        return np.array(data[key], dtype=dtype)
    except OverflowError:
        raise ValueError(f"graph {key} must fit in {np.dtype(dtype).name}") from None


@dataclass
class PointCloud:
    """Points in R^d with optional integer labels."""

    coords: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2:
            raise ValueError("coords must be a 2-d array (n points x d dims)")
        if self.coords.shape[0] < 1 or self.coords.shape[1] < 1:
            raise ValueError("a point cloud needs at least one point and one coordinate")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("point coordinates must be finite")
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
        names = [f"x{i}" for i in range(self.dim)]
        columns, formats = [self.coords.astype(object)], ["%.17g"] * self.dim
        if self.labels is not None:
            names.append("label")
            columns.append(self.labels.astype(object))  # Python ints: every label stays exact
            formats.append("%d")
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack(columns), fmt=formats, delimiter=",",
                   header=",".join(names), comments="")
        atomic_write_text(path, buf.getvalue())

    @classmethod
    def load_csv(cls, path: str) -> "PointCloud":
        """Inverse of save_csv; blank lines are skipped and fields may be quoted.
        Raises ValueError, naming the file line, on a ragged row, a non-numeric
        field or a label that is not an integer, and naming the file when it
        is not UTF-8."""
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                header = handle.readline().rstrip("\r\n").split(",")
                body = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if header == [""]:
            raise ValueError(f"{path}: empty point cloud file")
        if not body.strip():
            raise ValueError(f"{path}: no points")
        labeled = header[-1] == "label"
        fields = [("coords", np.float64, (len(header) - labeled,))]
        if labeled:
            fields.append(("label", np.int64))

        def rows(text: str) -> np.ndarray:
            return np.loadtxt(io.StringIO(text), dtype=fields, delimiter=",", comments=None,
                              quotechar='"', ndmin=1)

        try:
            table = rows(body)
        except ValueError as exc:
            # numpy counts rows from the first data line: name the first file
            # line that fails on its own instead
            error, where = exc, ""
            for lineno, line in enumerate(body.split("\n"), start=2):
                if not line.strip():
                    continue
                try:
                    rows(line)
                except ValueError as line_exc:
                    error, where = line_exc, f" line {lineno}:"
                    break
            message = re.sub(r" at row \d+(; use `usecols`.*)?", "", str(error))
            raise ValueError(f"{path}:{where} {message}") from None
        return cls(table["coords"], table["label"] if labeled else None)


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
        return cls(check_fields(read_json(path), {"costs": list[float]}, "costs file")["costs"])

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
    fractions = np.asarray(fractions, dtype=np.float64)
    try:
        means = np.asarray(means, dtype=np.float64)
    except ValueError:  # ragged rows have no (c, d) shape
        means = np.empty(0)
    if means.ndim != 2 or len(means) != len(fractions):
        raise ValueError("means must be (c, d) with one fraction per component")
    if not (np.all(fractions > 0) and abs(fractions.sum() - 1.0) <= 1e-9):  # NaN fails
        raise ValueError("fractions must be positive and sum to 1")
    if not 0 < covariance_scale < np.inf:  # NaN fails too
        raise ValueError("covariance_scale must be positive and finite")
    if not len(fractions) <= n < 2**63:
        raise ValueError("need at least one point per component and n within int64")
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
    if not (bandwidth > 0 and bandwidth * bandwidth > 0):  # NaN fails too
        raise ValueError("bandwidth must be positive, with a square that does not underflow to 0")
    from scipy.spatial import cKDTree

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
    with np.errstate(over="ignore"):  # d² / bandwidth² past float range: weight 0, rejected
        weights = np.exp(-(d * d) / (bandwidth * bandwidth))
    edges = np.column_stack([lo[first], hi[first]])
    return Graph(cloud.n, edges, weights, cloud.labels)


def generate_sbm(block_sizes, p_in: float, p_out: float, seed: int) -> Graph:
    """Stochastic block model with unit edge weights and block labels.

    The edges are drawn block by block: for each block a, the pairs inside
    it, then its pairs with each later block b. Graph sorts the table.
    """
    sizes = [int(s) for s in block_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("block sizes must be a non-empty list of positive integers")
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
    edges = np.column_stack([np.concatenate(edge_u), np.concatenate(edge_v)])
    return Graph(n, edges, np.ones(len(edges)), labels)


def generate_powerlaw_tree(n: int, exponent: float, seed: int) -> Graph:
    """Random tree grown by tilted preferential attachment.

    Each new vertex attaches to one existing vertex with probability
    proportional to degree**(1 / (exponent - 2)); exponent 3 is linear
    preferential attachment. The tilt is a heuristic mapping to the target
    degree-tail exponent, steeper tilt for smaller exponents. Each target is
    one rng.choice draw; an exponent whose weights overflow float range
    raises ValueError naming it.
    """
    if n < 2:
        raise ValueError("tree needs at least 2 vertices")
    if not exponent > 2:  # NaN fails too
        raise ValueError("exponent must exceed 2")
    tilt = 1.0 / (exponent - 2.0)
    rng = np.random.default_rng(seed)
    degree = np.zeros(n)
    targets = np.zeros(n - 1, dtype=np.int64)
    degree[0] = degree[1] = 1.0  # first edge 0-1
    with np.errstate(over="ignore"):  # a power past float range makes its sum inf
        for t in range(2, n):
            weight = degree[:t] ** tilt
            total = weight.sum()
            if total == np.inf:
                raise ValueError(f"exponent {exponent!r} overflows degree ** (1 / (exponent - 2))")
            target = int(rng.choice(t, p=weight / total))
            targets[t - 1] = target
            degree[t] = 1.0
            degree[target] += 1.0
    edges = np.column_stack([np.arange(1, n), targets])
    return Graph(n, edges, np.ones(n - 1))


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest component, vertices renumbered in order.

    Of components tied in size, the one holding the lowest vertex is kept.
    """
    root = graph.components()
    # a component's root is its lowest vertex, so argmax breaks ties that way
    keep = root == int(np.argmax(np.bincount(root, minlength=graph.n)))
    if keep.all():
        return graph
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


def load_edge_list(path: str) -> Graph:
    """Read a whitespace edge list ("u v" lines, '#' comments) as a
    unit-weight graph; a third column is accepted and not read.

    Vertex ids are compacted to 0..n-1 in order of first appearance.
    Self loops are dropped with a warning that reports the count. Duplicate
    edges, in either orientation, collapse to a single unit edge; Graph puts
    the set of pairs in canonical order. Raises
    ValueError naming the file: on a line of another token count (with its
    number), on no edges, or when the file is not UTF-8.
    """
    ids, pairs, loops = {}, set(), 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.split()
                if len(parts) not in (2, 3):
                    raise ValueError(f"{path}: line {lineno}: expected 'u v' or 'u v w'")
                u, v = [ids.setdefault(token, len(ids)) for token in parts[:2]]
                if u == v:
                    loops += 1
                    continue
                pairs.add((u, v) if u < v else (v, u))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if loops:
        warnings.warn(f"{path}: dropped {loops} self-loop line(s)")
    if not pairs:
        raise ValueError(f"{path}: no edges found")
    return Graph(len(ids), np.array(list(pairs), dtype=np.int64), np.ones(len(pairs)))
