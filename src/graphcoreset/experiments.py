"""Experiment harness: the comparison studies behind the library.

Each study is a frozen config dataclass and a runner that supplies only its
instance for a seed: the graph, its vertex costs, and the squared error of
a coreset's estimate. One loop runs the study's method table over that
instance for every K and seed and returns median-aggregated ExperimentResult
rows. Runners are deterministic given their config: every random draw flows
through seeds derived from the config's seed list, so a rerun reproduces the
same rows bit for bit. The CLI feeds configs from JSON files; tests call the
runners directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .baselines import (
    betweenness_coreset,
    kmeans_coreset,
    random_sampling,
    spectral_clustering_coreset,
)
from .evaluate import (
    CostReport,
    ExperimentResult,
    error_metric,
    results_to_csv,
    source_average_distances,
)
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
from .selection import Coreset, select_coreset_grid
from .spectral import GraphFunction, lazy_walk_matrix, normalized_columns, top_eigenvectors
from ._util import atomic_write_text, has_type


# ---------------------------------------------------------------------------
# the one experiment loop over a method table: greedy method names map to
# their kappa, baseline names (keys of _BASELINES) to None


@dataclass
class _Instance:
    """One graph of a study with what its methods share across K and seeds.

    error maps a coreset to the squared error of its estimate. grids holds
    each greedy method's budget grid, ranking the betweenness order, basis
    the walk's top eigenvectors, and cloud the points k-means clusters (None
    clusters the spectral embedding instead).
    """

    graph: Graph
    error: Callable
    grids: dict
    ranking: list | None
    basis: np.ndarray | None
    cloud: PointCloud | None


def _instance(config, methods: dict, graph: Graph, costs: CostVector, error: Callable,
              cloud: PointCloud | None = None) -> _Instance:
    walk = lazy_walk_matrix(graph)
    k_max = max(config.k_grid)
    columns = normalized_columns(walk, config.ell)
    grids = {method: select_coreset_grid(columns, costs, kappa, config.k_grid)
             for method, kappa in methods.items() if kappa is not None}
    ranking = betweenness_coreset(graph, k_max).indices if "betweenness" in methods else None
    clusters = "spectral" in methods or ("kmeans" in methods and cloud is None)
    basis = top_eigenvectors(walk, k_max) if clusters else None
    return _Instance(graph, error, grids, ranking, basis, cloud)


def _kmeans(inst: _Instance, K: int, seed: int) -> Coreset:
    points = inst.cloud
    if points is None:
        points = PointCloud(np.ascontiguousarray(inst.basis[:, :K]))
    return kmeans_coreset(points, K, seed * 131 + K)


_BASELINES = {
    "random": lambda inst, K, seed: random_sampling(inst.graph.n, K, seed * 1000 + K),
    "kmeans": _kmeans,
    "spectral": lambda inst, K, seed: spectral_clustering_coreset(
        inst.graph, K, seed * 55 + K, basis=inst.basis),
    "betweenness": lambda inst, K, seed: Coreset(
        inst.ranking[:K], np.full(K, 1.0 / K), method="betweenness"),
}


def _run(config, methods: dict, instance_for) -> list[ExperimentResult]:
    """Median error and placement cost of every method at every K over the seeds."""
    if not config.seeds:
        raise ValueError("seeds must not be empty")
    cells = [(method, K) for method in methods for K in config.k_grid]

    per_seed = []  # (error, cost) of every cell, one list per seed
    for seed in config.seeds:
        inst = instance_for(seed)
        out = []
        for method, K in cells:
            if method in inst.grids:
                coreset = inst.grids[method][K]
            else:
                coreset = _BASELINES[method](inst, K, seed)
            out.append((inst.error(coreset), coreset.total_cost))
        per_seed.append(out)
    medians = np.median(np.array(per_seed), axis=0)
    return [ExperimentResult(method=method, K=K, err=float(err), abs_err=float(np.sqrt(err)),
                             coreset_cost=float(cost))
            for (method, K), (err, cost) in zip(cells, medians)]


def _cost_report(rows: list[ExperimentResult], config) -> CostReport:
    """Cost-aware against cost-free placement cost at the largest budget."""
    cost = {r.method: r.coreset_cost for r in rows if r.K == max(config.k_grid)}
    return CostReport(c_cso=cost["scgiga-cost"], c_cos=cost["scgiga"])


def _indicator_error(values: np.ndarray) -> Callable:
    f = GraphFunction(values)
    return lambda coreset: error_metric(f, coreset)[0]


def _distance_error(graph: Graph) -> Callable:
    """Squared error of a coreset's estimate of the mean average distance."""
    distances = source_average_distances(graph, np.arange(graph.n))
    truth = float(distances.mean())

    def error(coreset) -> float:
        idx = np.asarray(coreset.indices, dtype=np.int64)
        return (float(np.asarray(coreset.weights) @ distances[idx]) - truth) ** 2

    return error


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


def run_cluster_indicator(config: ClusterIndicatorConfig) -> tuple[list[ExperimentResult], CostReport]:
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
        graph = build_knn_kernel_graph(cloud, config.k_neighbors, config.bandwidth)
        costs = sample_costs_uniform(config.n, seed=seed + config.cost_seed_offset)
        values = (np.asarray(cloud.labels) == config.indicator_component).astype(float)
        return _instance(config, methods, graph, costs, _indicator_error(values), cloud=cloud)

    rows = _run(config, methods, instance_for)
    return rows, _cost_report(rows, config)


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
        sizes = [int(round(f * self.n)) for f in self.block_fractions[:-1]]
        sizes.append(self.n - sum(sizes))
        return sizes


def _sbm_rows(config: SbmIndicatorConfig, methods: dict) -> list[ExperimentResult]:
    def instance_for(seed: int) -> _Instance:
        graph = generate_sbm(config.block_sizes(), config.p_in, config.p_out, seed=seed)
        values = (np.asarray(graph.labels) == config.indicator_block).astype(float)
        return _instance(config, methods, graph, CostVector.zeros(config.n),
                         _indicator_error(values))

    return _run(config, methods, instance_for)


def run_sbm_indicator(config: SbmIndicatorConfig) -> tuple[list[ExperimentResult], None]:
    """Small-block indicator mean on the SBM, against all three baselines.

    Cluster baselines on a bare graph go through the walk's spectral
    embedding; kmeans clusters the same top-K eigenvector coordinates the
    spectral baseline uses, they differ only in their seeding draws.
    """
    methods = {"scgiga": config.kappa, "random": None, "kmeans": None, "spectral": None}
    return _sbm_rows(config, methods), None


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


def run_shortest_path(config: ShortestPathConfig) -> tuple[list[ExperimentResult], None]:
    """Average-distance estimates from k sources vs the n-source truth."""
    methods = {"scgiga": config.kappa, "random": None, "betweenness": None}

    def instance_for(seed: int) -> _Instance:
        graph = _shortest_path_graph(config, seed)
        return _instance(config, methods, graph, CostVector.zeros(graph.n), _distance_error(graph))

    return _run(config, methods, instance_for), None


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


def run_ego_centrality(config: EgoCentralityConfig) -> tuple[list[ExperimentResult], CostReport]:
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
    shared = _instance(config, methods, graph, costs, _distance_error(graph))
    rows = _run(config, methods, lambda seed: shared)
    return rows, _cost_report(rows, config)


# ---------------------------------------------------------------------------
# ell-sweep: walk-power sensitivity on the SBM setup


@dataclass(frozen=True)
class EllSweepConfig(SbmIndicatorConfig):
    """The SBM setup run once per walk power in ells, each in place of ell."""

    ells: tuple = (1, 2, 3, 4)


def run_ell_sweep(config: EllSweepConfig) -> tuple[list[ExperimentResult], None]:
    """Error curves of the greedy selection across walk powers."""
    rows = []
    for ell in config.ells:
        sub = replace(config, ell=ell)
        sub_rows = _sbm_rows(sub, {"scgiga": sub.kappa})
        rows.extend(replace(r, method=f"scgiga-ell{ell}") for r in sub_rows)
    return rows, None


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

    Unknown keys are rejected, and so is a value not shaped like its
    field's default (see _fits); list values are frozen to tuples so configs
    stay hashable.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}, expected one of {experiment_names()}")
    config_cls = EXPERIMENTS[name][0]
    defaults = {f.name: f.default for f in fields(config_cls)}
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys for {name}: {sorted(unknown)}")
    if name == "ell-sweep" and "ell" in overrides:
        # run_ell_sweep replaces ell with each entry of ells
        raise ValueError("ell-sweep runs every walk power in ells; set ells, not ell")
    for key, value in overrides.items():
        if not _fits(value, defaults[key]):
            raise ValueError(f"config key {key!r} of {name} needs a value shaped like "
                             f"its default {defaults[key]!r}, got {value!r}")
    return config_cls(**{k: _freeze(v) for k, v in overrides.items()})


def _fits(value, default) -> bool:
    """Whether value is shaped like default: a list or tuple for a tuple, each
    item shaped like the default's first; otherwise of the default's type, as
    has_type reads it (a bool is no int, an int is also a float)."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    return has_type(value, type(default))


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def write_experiment_outputs(out_dir: str, rows: list[ExperimentResult],
                             report: CostReport | None) -> list[str]:
    """Emit per-method CSVs, the combined comparison CSV, and the cost line.

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
    if report is not None:
        path = os.path.join(out_dir, "cost_report.csv")
        atomic_write_text(path, "c_cso,c_cos\n%.17g,%.17g\n" % (report.c_cso, report.c_cos))
        written.append(path)
    return written
