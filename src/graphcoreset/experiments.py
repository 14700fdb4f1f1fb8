"""Experiment harness: the comparison studies behind the library.

Each study is a frozen config dataclass and a runner that supplies only its
instance for a seed: the graph, its vertex costs, and the vertex function
whose mean its methods estimate. One loop runs the study's method table over
that instance for every K and seed, scores each coreset with error_metric and
returns median-aggregated ExperimentResult rows. A baseline method is its
entry of baselines.BASELINES with k_max = max(k_grid), seeded at K with
seed * stride + K (_SEED_STRIDES). Runners are deterministic given their
config: every random draw flows through seeds derived from the config's seed
list, so a rerun reproduces the same rows bit for bit. The CLI feeds configs
from JSON files; tests call the runners directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import BASELINES, BaselineInputs
from .evaluate import ExperimentResult, betweenness_and_distances, error_metric, results_to_csv
from .graphs import (
    CostVector,
    Graph,
    PointCloud,
    build_knn_kernel_graph,
    generate_gaussian_mixture,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    load_edge_list,
    sample_costs_uniform,
)
from .selection import select_coreset_grid
from .spectral import GraphFunction, lazy_walk_matrix, normalized_columns
from ._util import atomic_write_text, check_fields


# ---------------------------------------------------------------------------
# the one experiment loop over a method table: greedy method names map to
# their kappa, baseline names (keys of baselines.BASELINES) to None

# a baseline's seed at K is seed * stride + K; betweenness draws nothing
_SEED_STRIDES = {"random": 1000, "kmeans": 131, "spectral": 55, "betweenness": 0}


@dataclass
class _Instance:
    """One graph of a study with what its methods share across K and seeds.

    costs holds the placement cost of every vertex and function the vertex
    function whose mean the coresets estimate. grids holds each greedy
    method's budget grid and baselines what the baseline methods read, with
    k_max the largest K of the grid.
    """

    costs: np.ndarray
    function: GraphFunction
    grids: dict
    baselines: BaselineInputs


def _instance(config, methods: dict, graph: Graph, costs: CostVector, function: GraphFunction,
              cloud: PointCloud | None = None,
              betweenness: np.ndarray | None = None) -> _Instance:
    walk = lazy_walk_matrix(graph)
    columns = normalized_columns(walk, config.ell)
    grids = {method: select_coreset_grid(columns, costs, kappa, config.k_grid)
             for method, kappa in methods.items() if kappa is not None}
    baselines = BaselineInputs(graph, max(config.k_grid), cloud=cloud, walk=walk,
                               scores=betweenness)
    return _Instance(costs.costs, function, grids, baselines)


def _run(config, methods: dict, instance_for) -> list[ExperimentResult]:
    """Median error and placement cost of every method at every K over the seeds.

    err is the median of the per-seed squared errors and abs_err its square
    root. With an odd seed count that is the median absolute error; with an
    even one (10 seeds is the default of most studies) it is the root mean
    square of the two middle absolute errors, which is at least their mean.
    """
    if not config.seeds:
        raise ValueError("seeds must not be empty")
    cells = [(method, K) for method in methods for K in config.k_grid]

    per_seed = []  # (error, cost) of every cell, one list per seed
    for seed in config.seeds:
        inst = instance_for(seed)
        if max(config.k_grid) > len(inst.costs):  # n is known once the seed's graph is built
            raise ValueError(f"k_grid entry {max(config.k_grid)} is above n = "
                             f"{len(inst.costs)}, the vertex count of the seed-{seed} graph")
        out = []
        for method, K in cells:
            if method in inst.grids:
                coreset = inst.grids[method][K]
            else:
                coreset = BASELINES[method](inst.baselines, K, seed * _SEED_STRIDES[method] + K)
            # priced as the greedy finish prices its own support
            idx = np.array(coreset.indices, dtype=np.int64)
            out.append((error_metric(inst.function, coreset)[0], float(inst.costs[idx].sum())))
        per_seed.append(out)
    medians = np.median(np.array(per_seed), axis=0)
    return [ExperimentResult(method=method, K=K, err=float(err), abs_err=float(np.sqrt(err)),
                             coreset_cost=float(cost))
            for (method, K), (err, cost) in zip(cells, medians)]


def _indicator(labels, label: int, key: str) -> GraphFunction:
    """1 on the vertices carrying label, 0 elsewhere. A label no vertex carries
    is a ValueError naming key: its indicator, and every estimate of its
    mean, would be 0."""
    values = np.asarray(labels) == label
    if not values.any():
        raise ValueError(f"{key} {label} is carried by no vertex")
    return GraphFunction(values.astype(float))


# ---------------------------------------------------------------------------
# cluster-indicator: Gaussian mixture, kNN kernel graph, indicator mean


@dataclass(frozen=True)
class ClusterIndicatorConfig:
    n: int = 10000
    component_means: tuple = ((1.0, -3.0), (-3.0, 2.0), (3.0, 0.0))
    component_fractions: tuple = (0.2, 0.3, 0.5)
    covariance_scale: float = 1.0
    k_neighbors: int = 10
    bandwidth: float = 1.0
    kappa: float = 0.8
    ell: int = 1
    indicator_component: int = 0
    k_grid: tuple = (2, 4, 6, 8, 10, 12, 14)
    seeds: tuple = tuple(range(10))
    cost_seed_offset: int = 500


def run_cluster_indicator(config: ClusterIndicatorConfig) -> list[ExperimentResult]:
    """Indicator-mean estimation on the mixture's kNN graph.

    scgiga runs cost-free at kappa=1; scgiga-cost reruns the same selection
    with kappa<1 against uniform random costs. kmeans clusters the raw
    point cloud; spectral and random work on the graph.
    """
    methods = {"scgiga": 1.0, "scgiga-cost": config.kappa,
               "random": None, "kmeans": None, "spectral": None}

    def instance_for(seed: int) -> _Instance:
        cloud = generate_gaussian_mixture(
            config.component_means, config.component_fractions,
            config.covariance_scale, config.n, seed=seed)
        function = _indicator(cloud.labels, config.indicator_component, "indicator_component")
        graph = build_knn_kernel_graph(cloud, config.k_neighbors, config.bandwidth)
        costs = sample_costs_uniform(config.n, seed=seed + config.cost_seed_offset)
        return _instance(config, methods, graph, costs, function, cloud=cloud)

    return _run(config, methods, instance_for)


# ---------------------------------------------------------------------------
# sbm-indicator: planted three-block graph, small-block indicator


@dataclass(frozen=True)
class SbmIndicatorConfig:
    n: int = 1000
    block_fractions: tuple = (0.1, 0.5, 0.4)
    p_in: float = 0.15
    p_out: float = 0.045
    ell: int = 12
    kappa: float = 1.0
    indicator_block: int = 0
    k_grid: tuple = (4, 8, 12, 16, 20, 24, 28)
    seeds: tuple = tuple(range(10))

    def block_sizes(self) -> list[int]:
        fractions = np.asarray(self.block_fractions, dtype=np.float64)
        if not (np.all(fractions > 0) and abs(fractions.sum() - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("block_fractions must be positive and sum to 1")
        if not self.n < 2**63:
            raise ValueError("sbm n must fit in int64")
        sizes = [int(round(f * self.n)) for f in self.block_fractions[:-1]]
        sizes.append(self.n - sum(sizes))
        if min(sizes) < 1:
            raise ValueError(f"block_fractions {list(self.block_fractions)} leave a block "
                             f"empty at n = {self.n}: raise n or the smallest fraction")
        return sizes


def _sbm_rows(config: SbmIndicatorConfig, methods: dict) -> list[ExperimentResult]:
    def instance_for(seed: int) -> _Instance:
        graph = generate_sbm(config.block_sizes(), config.p_in, config.p_out, seed=seed)
        function = _indicator(graph.labels, config.indicator_block, "indicator_block")
        return _instance(config, methods, graph, CostVector.zeros(config.n), function)

    return _run(config, methods, instance_for)


def run_sbm_indicator(config: SbmIndicatorConfig) -> list[ExperimentResult]:
    """Small-block indicator mean on the SBM, against all three baselines.

    Cluster baselines on a bare graph go through the walk's spectral
    embedding; kmeans clusters the same top-K eigenvector coordinates the
    spectral baseline uses, they differ only in their seeding draws.
    """
    methods = {"scgiga": config.kappa, "random": None, "kmeans": None, "spectral": None}
    return _sbm_rows(config, methods)


# ---------------------------------------------------------------------------
# shortest-path: average-distance estimation from k reference vertices


@dataclass(frozen=True)
class ShortestPathConfig:
    family: str = "powerlaw-tree"  # or "random-graph"
    n: int = 300
    tree_exponent: float = 3.0
    edge_probability: float = 0.03
    ell: int = 32
    kappa: float = 1.0
    k_grid: tuple = (5, 10, 20)
    seeds: tuple = tuple(range(10))


def _shortest_path_graph(config: ShortestPathConfig, seed: int) -> Graph:
    if config.family == "powerlaw-tree":
        return generate_powerlaw_tree(config.n, config.tree_exponent, seed=seed)
    if config.family == "random-graph":
        return generate_random_graph(config.n, config.edge_probability, seed=seed)
    raise ValueError(f"unknown shortest-path family: {config.family!r}")


def run_shortest_path(config: ShortestPathConfig) -> list[ExperimentResult]:
    """Average-distance estimates from k sources vs the n-source truth; the
    truth and the betweenness baseline come from one Brandes sweep."""
    methods = {"scgiga": config.kappa, "random": None, "betweenness": None}

    def instance_for(seed: int) -> _Instance:
        graph = _shortest_path_graph(config, seed)
        scores, distances = betweenness_and_distances(graph)
        return _instance(config, methods, graph, CostVector.zeros(graph.n),
                         GraphFunction(distances), betweenness=scores)

    return _run(config, methods, instance_for)


# ---------------------------------------------------------------------------
# ego-centrality: edge-list network, average-distance comparison


@dataclass(frozen=True)
class EgoCentralityConfig:
    data_path: str = "data/facebook_combined.txt"
    ell: int = 2
    kappa: float = 0.8
    cost_seed: int = 77
    k_grid: tuple = (5, 10, 15, 20, 25, 30)
    seeds: tuple = (0, 1, 2)


def run_ego_centrality(config: EgoCentralityConfig) -> list[ExperimentResult]:
    """Average-distance estimation on a real social network.

    Requires the SNAP facebook_combined edge list on disk (the library ships
    no datasets); raises FileNotFoundError when it is missing. The graph,
    its distances and the selections are built once; the seeds only vary
    the random baseline.
    """
    if not os.path.exists(config.data_path):
        raise FileNotFoundError(
            f"ego-centrality needs the facebook_combined edge list at {config.data_path} "
            "(set the config's data_path)")
    graph = load_edge_list(config.data_path)
    methods = {"scgiga": 1.0, "scgiga-cost": config.kappa, "random": None, "betweenness": None}
    costs = sample_costs_uniform(graph.n, seed=config.cost_seed)
    scores, distances = betweenness_and_distances(graph)
    shared = _instance(config, methods, graph, costs, GraphFunction(distances),
                       betweenness=scores)
    return _run(config, methods, lambda seed: shared)


# ---------------------------------------------------------------------------
# ell-sweep: walk-power sensitivity on the SBM setup


@dataclass(frozen=True)
class EllSweepConfig(SbmIndicatorConfig):
    """The SBM setup run once per walk power in ells, each in place of ell."""

    ells: tuple = (1, 2, 3, 4)


def run_ell_sweep(config: EllSweepConfig) -> list[ExperimentResult]:
    """Error curves of the greedy selection across walk powers."""
    rows = []
    for ell in config.ells:
        sub = replace(config, ell=ell)
        sub_rows = _sbm_rows(sub, {"scgiga": sub.kappa})
        rows.extend(replace(r, method=f"scgiga-ell{ell}") for r in sub_rows)
    return rows


# ---------------------------------------------------------------------------
# registry and output writing


EXPERIMENTS = {
    "cluster-indicator": (ClusterIndicatorConfig, run_cluster_indicator),
    "sbm-indicator": (SbmIndicatorConfig, run_sbm_indicator),
    "shortest-path": (ShortestPathConfig, run_shortest_path),
    "ego-centrality": (EgoCentralityConfig, run_ego_centrality),
    "ell-sweep": (EllSweepConfig, run_ell_sweep),
}


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def config_from_mapping(name: str, overrides: dict):
    """Build an experiment config from a flat key-value mapping.

    Unknown keys are rejected, and so are a value of another type than its
    field's default (see _kind), an empty list, a k_grid or ells that
    repeats an entry (its rows would be written twice) or holds one below 1,
    and seeds that repeat one (it would weigh twice in the median); list
    values are frozen to tuples so configs stay hashable.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}, expected one of {experiment_names()}")
    config_cls = EXPERIMENTS[name][0]
    kinds = {f.name: _kind(f.default) for f in fields(config_cls)}
    unknown = set(overrides) - set(kinds)
    if unknown:
        raise ValueError(f"unknown config keys for {name}: {sorted(unknown)}")
    if name == "ell-sweep" and "ell" in overrides:
        # run_ell_sweep replaces ell with each entry of ells
        raise ValueError("ell-sweep runs every walk power in ells; set ells, not ell")
    check_fields(overrides, kinds, f"{name} config", optional=kinds)
    for key, value in overrides.items():
        if isinstance(value, (list, tuple)) and not value:
            raise ValueError(f"{name} config {key} must not be empty")
        if key in ("k_grid", "ells", "seeds") and len(set(value)) < len(value):
            raise ValueError(f"{name} config {key} must not repeat an entry")
        if key in ("k_grid", "ells") and min(value) < 1:
            raise ValueError(f"{name} config {key} entries must be at least 1")
    return config_cls(**{k: _freeze(v) for k, v in overrides.items()})


def _kind(default):
    """The type has_type checks a config value against: list[item] for a
    tuple, item from its first entry; otherwise the default's own type."""
    if isinstance(default, tuple):
        return list[_kind(default[0])]
    return type(default)


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def cost_report(rows: list[ExperimentResult]) -> tuple[float, float] | None:
    """(C_CSO, C_COS): the placement cost of scgiga-cost and of scgiga at the
    largest K of the rows, or None unless the rows hold both methods there."""
    k_max = max((r.K for r in rows), default=None)
    cost = {r.method: r.coreset_cost for r in rows if r.K == k_max}
    if "scgiga-cost" not in cost or "scgiga" not in cost:
        return None
    return cost["scgiga-cost"], cost["scgiga"]


def write_experiment_outputs(out_dir: str, rows: list[ExperimentResult]) -> list[str]:
    """Emit per-method CSVs, the combined comparison CSV, and cost_report.csv
    when the rows hold both scgiga and scgiga-cost (see cost_report).

    Returns the written paths (relative to out_dir joins already applied),
    deterministic order.
    """
    os.makedirs(out_dir, exist_ok=True)
    ordered = sorted(rows, key=lambda r: (r.method, r.K))
    written = []
    combined = os.path.join(out_dir, "comparison.csv")
    results_to_csv(ordered, combined)
    written.append(combined)
    for method in sorted({r.method for r in ordered}):
        path = os.path.join(out_dir, f"method_{method}.csv")
        results_to_csv([r for r in ordered if r.method == method], path)
        written.append(path)
    report = cost_report(rows)
    if report is not None:
        path = os.path.join(out_dir, "cost_report.csv")
        atomic_write_text(path, "c_cso,c_cos\n%.17g,%.17g\n" % report)
        written.append(path)
    return written
