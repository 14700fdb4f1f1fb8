"""Experiment harness: configs, runners, and output files."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from graphcoreset import generate_random_graph, results_from_csv, save_edge_list
from graphcoreset.evaluate import CostReport
from graphcoreset.experiments import (
    ClusterIndicatorConfig,
    EgoCentralityConfig,
    EllSweepConfig,
    SbmIndicatorConfig,
    ShortestPathConfig,
    config_from_mapping,
    experiment_names,
    run_cluster_indicator,
    run_ego_centrality,
    run_sbm_indicator,
    run_shortest_path,
    write_experiment_outputs,
)

TINY_SBM = SbmIndicatorConfig(n=60, block_fractions=(0.2, 0.4, 0.4), ell=3,
                              k_grid=(4, 8), seeds=(0, 1))


def test_experiment_names_registry():
    assert experiment_names() == [
        "cluster-indicator", "ego-centrality", "ell-sweep", "sbm-indicator",
        "shortest-path",
    ]


def test_config_from_mapping_overrides_and_freezing():
    cfg = config_from_mapping("sbm-indicator", {"n": 80, "k_grid": [2, 4]})
    assert cfg.n == 80
    assert cfg.k_grid == (2, 4)  # lists become tuples so configs stay hashable
    assert cfg.p_in == SbmIndicatorConfig().p_in
    with pytest.raises(ValueError):
        config_from_mapping("sbm-indicator", {"not_a_field": 1})
    with pytest.raises(ValueError):
        config_from_mapping("no-such-experiment", {})


def test_config_from_mapping_ell_sweep_key_split():
    cfg = config_from_mapping("ell-sweep", {"ells": [1, 2], "n": 50, "seeds": [0]})
    assert cfg.ells == (1, 2)
    assert cfg.n == 50  # the sweep is the SBM config plus its ells
    assert cfg.seeds == (0,)
    assert cfg.p_in == SbmIndicatorConfig().p_in
    with pytest.raises(ValueError):
        config_from_mapping("ell-sweep", {"bogus": 3})


def test_sbm_block_sizes_rounding():
    assert SbmIndicatorConfig(n=1000).block_sizes() == [100, 500, 400]
    assert SbmIndicatorConfig(n=7, block_fractions=(0.3, 0.3, 0.4)).block_sizes() == [2, 2, 3]


def test_run_sbm_indicator_shape_and_determinism():
    rows, report = run_sbm_indicator(TINY_SBM)
    assert report is None
    methods = {r.method for r in rows}
    assert methods == {"scgiga", "random", "kmeans", "spectral"}
    assert len(rows) == 4 * len(TINY_SBM.k_grid)
    assert all(r.err >= 0 and r.abs_err >= 0 for r in rows)
    again, _ = run_sbm_indicator(TINY_SBM)
    assert [(r.method, r.K, r.err) for r in rows] == [(r.method, r.K, r.err) for r in again]


def test_run_cluster_indicator_tiny():
    cfg = ClusterIndicatorConfig(n=100, k_neighbors=5, k_grid=(2, 4), seeds=(0, 1))
    rows, report = run_cluster_indicator(cfg)
    methods = {r.method for r in rows}
    assert methods == {"scgiga", "scgiga-cost", "random", "kmeans", "spectral"}
    assert len(rows) == 5 * 2
    assert report.c_cso >= 0.0 and report.c_cos >= 0.0
    # the cost-aware rows carry the median coreset cost
    cost_rows = [r for r in rows if r.method == "scgiga-cost"]
    assert all(r.coreset_cost > 0.0 for r in cost_rows)


def test_run_shortest_path_tiny():
    cfg = ShortestPathConfig(family="random-graph", n=40, ell=4, k_grid=(3,),
                             seeds=(0, 1))
    rows, report = run_shortest_path(cfg)
    assert report is None
    assert {r.method for r in rows} == {"scgiga", "random", "betweenness"}
    with pytest.raises(ValueError):
        run_shortest_path(dataclasses.replace(cfg, family="never-heard-of-it"))
    with pytest.raises(ValueError):
        run_shortest_path(dataclasses.replace(cfg, seeds=()))


def test_run_ego_centrality_missing_data(tmp_path):
    cfg = EgoCentralityConfig(data_path=str(tmp_path / "absent.txt"))
    with pytest.raises(FileNotFoundError):
        run_ego_centrality(cfg)


def test_run_ego_centrality_rows(tmp_path):
    path = str(tmp_path / "edges.txt")
    save_edge_list(generate_random_graph(150, 0.04, seed=3), path)
    cfg = EgoCentralityConfig(data_path=path, k_grid=(4, 8), seeds=(0, 1, 2))
    rows, report = run_ego_centrality(cfg)
    methods = ("scgiga", "scgiga-cost", "random", "betweenness")
    assert sorted((r.method, r.K) for r in rows) == sorted(
        (m, K) for m in methods for K in cfg.k_grid)
    assert isinstance(report, CostReport)
    cost = {(r.method, r.K): r.coreset_cost for r in rows}
    assert report.c_cso == cost[("scgiga-cost", 8)] and report.c_cos == cost[("scgiga", 8)]
    assert all(r.err >= 0 and np.isfinite(r.err) for r in rows)


def test_ell_sweep_tags_rows():
    from graphcoreset.experiments import run_ell_sweep

    cfg = EllSweepConfig(ells=(1, 2), **dataclasses.asdict(TINY_SBM))
    rows, report = run_ell_sweep(cfg)
    assert report is None
    assert {r.method for r in rows} == {"scgiga-ell1", "scgiga-ell2"}
    assert len(rows) == 2 * len(TINY_SBM.k_grid)


def test_write_experiment_outputs(tmp_path):
    rows, _ = run_sbm_indicator(TINY_SBM)
    out = tmp_path / "exp"
    written = write_experiment_outputs(str(out), rows, None)
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["comparison.csv", "method_kmeans.csv", "method_random.csv",
                     "method_scgiga.csv", "method_spectral.csv"]
    combined = results_from_csv(str(out / "comparison.csv"))
    assert len(combined) == len(rows)
    solo = results_from_csv(str(out / "method_scgiga.csv"))
    assert all(r.method == "scgiga" for r in solo)
    assert len(solo) == len(TINY_SBM.k_grid)


def test_write_experiment_outputs_cost_report(tmp_path):
    rows, _ = run_sbm_indicator(TINY_SBM)
    written = write_experiment_outputs(str(tmp_path / "exp"), rows,
                                       CostReport(c_cso=1.5, c_cos=4.0))
    report_path = [p for p in written if p.endswith("cost_report.csv")]
    assert len(report_path) == 1
    lines = Path(report_path[0]).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "c_cso,c_cos"
    assert [float(x) for x in lines[1].split(",")] == [1.5, 4.0]


def test_write_outputs_deterministic_bytes(tmp_path):
    rows, _ = run_sbm_indicator(TINY_SBM)
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_experiment_outputs(str(a), rows, None)
    write_experiment_outputs(str(b), rows, None)
    assert (a / "comparison.csv").read_bytes() == (b / "comparison.csv").read_bytes()
