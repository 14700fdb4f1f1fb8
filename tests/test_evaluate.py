"""Estimates, error metrics, the certified bound, and result CSV files."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from graphcoreset import (
    CostVector,
    ExperimentResult,
    Graph,
    GraphFunction,
    bound_check,
    error_metric,
    estimate_mean,
    generate_powerlaw_tree,
    generate_random_graph,
    lazy_walk_matrix,
    normalized_columns,
    results_to_csv,
    source_average_distances,
    synthesize_smooth_function,
)
from graphcoreset.baselines import _hop_sums
from graphcoreset.selection import SelectionConfig, select_coreset


class FakeCoreset:
    def __init__(self, indices, weights):
        self.indices = indices
        self.weights = weights


def complete_graph(n: int) -> Graph:
    iu, iv = np.triu_indices(n, k=1)
    return Graph(n, np.column_stack([iu, iv]), np.ones(len(iu)))


# ---------------------------------------------------------------------------
# estimates


def test_estimate_mean_dot_oracle():
    f = GraphFunction(np.array([2.0, -1.0, 4.0, 0.5]))
    cs = FakeCoreset([2, 0], [0.25, 0.5])
    assert estimate_mean(f, cs) == 0.25 * 4.0 + 0.5 * 2.0
    assert estimate_mean(f, FakeCoreset([], [])) == 0.0
    with pytest.raises(ValueError):
        estimate_mean(f, FakeCoreset([0, 1], [1.0]))


def test_estimators_reject_out_of_range_indices(path3):
    f = GraphFunction(np.array([1.0, 2.0, 3.0]), np.array([1.0]))
    cols = normalized_columns(lazy_walk_matrix(path3), 1)
    for bad in ([0, 3], [-1]):
        cs = FakeCoreset(bad, np.full(len(bad), 1.0 / len(bad)))
        with pytest.raises(ValueError):
            estimate_mean(f, cs)
        with pytest.raises(ValueError):
            bound_check(f, 0.5, cs, cols)
        with pytest.raises(ValueError, match="source index out of range for 3 vertices"):
            source_average_distances(path3, bad)


def test_estimate_mean_full_support_recovers_mean():
    values = np.random.default_rng(0).standard_normal(16)
    f = GraphFunction(values)
    cs = FakeCoreset(list(range(16)), np.full(16, 1.0 / 16.0))
    assert estimate_mean(f, cs) == pytest.approx(f.mean(), abs=1e-14)


def test_error_metric_and_order_invariance():
    f = GraphFunction(np.arange(8, dtype=float))
    a = FakeCoreset([1, 5, 6], [0.2, 0.3, 0.5])
    b = FakeCoreset([6, 1, 5], [0.5, 0.2, 0.3])
    err_a, abs_a = error_metric(f, a)
    err_b, abs_b = error_metric(f, b)
    assert abs(abs_a - abs_b) < 1e-12
    assert err_a == pytest.approx(abs_a ** 2, abs=1e-15)
    assert abs_a == pytest.approx(abs(f.mean() - estimate_mean(f, a)), abs=1e-15)


# ---------------------------------------------------------------------------
# shortest-path statistics


def test_avg_distance_path3(path3):
    # per-vertex averages (1, 2/3, 1); global mean 8/9
    avgs = source_average_distances(path3, np.arange(3))
    assert np.allclose(avgs, [1.0, 2.0 / 3.0, 1.0], atol=1e-15)
    assert avgs.mean() == pytest.approx(8.0 / 9.0, abs=1e-14)


def test_avg_distance_complete_graph():
    g = complete_graph(7)
    mean = source_average_distances(g, np.arange(g.n)).mean()
    assert mean == pytest.approx(6.0 / 7.0, abs=1e-14)


def test_source_average_distances_floyd_warshall_oracle():
    """Weights are affinities: distances count hops, as on the unit-weight copy."""
    g = generate_random_graph(50, 0.08, seed=3)
    weights = np.random.default_rng(2).choice([0.5, 1.0, 2.0], size=g.m)
    wg = Graph(g.n, g.edges, weights)
    n = wg.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in wg.edges:
        dist[u, v] = dist[v, u] = 1.0
    for m in range(n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    assert np.array_equal(source_average_distances(wg, np.arange(n)), dist.mean(axis=1))


def test_tree_average_distances_match_the_sweep():
    """On a tree the sums come from subtree sizes (baselines._tree_statistics),
    bit-equal to the batched sweep's, at every source and at a subset that
    repeats one."""
    for n, seed in ((2, 0), (300, 2), (1000, 1)):
        tree = generate_powerlaw_tree(n, 2.5, seed=seed)
        subset = np.random.default_rng(seed).integers(0, n, 7)
        for sources in (np.arange(n), np.append(subset, subset[0])):
            want = _hop_sums(tree.hop_adjacency(), sources) / n
            assert np.array_equal(source_average_distances(tree, sources), want)


def test_disconnected_pair_is_reported():
    g = Graph(4, np.array([[0, 1], [2, 3]]), np.ones(2))
    with pytest.raises(ValueError, match="no path between"):
        source_average_distances(g, np.arange(4))


# ---------------------------------------------------------------------------
# certified bound and slack diagnostic


def test_bound_zero_function(two_triangles):
    walk = lazy_walk_matrix(two_triangles)
    cols = normalized_columns(walk, 1)
    f = GraphFunction(np.zeros(walk.shape[0]), np.zeros(3))
    lhs, rhs, holds = bound_check(f, 0.3, FakeCoreset([0], [1.0]), cols)
    assert lhs == 0.0 and rhs == 0.0 and holds
    # 0.5**1074 is denormal, so the residual over it overflows to inf; the
    # zero smoothness still makes the certificate 0, not nan
    cols = normalized_columns(walk, 1074)
    assert bound_check(f, 0.5, FakeCoreset([0], [1.0]), cols) == (0.0, 0.0, True)


def test_bound_formula_and_validation(two_triangles):
    walk = lazy_walk_matrix(two_triangles)
    f = synthesize_smooth_function(walk, 0.4, seed=1)
    # budget 3 converges (rhs ~ 1e-16); budget 1 leaves a residual, so the
    # certificate's power, read from the columns, shows in rhs
    for ell, budget in ((2, 3), (2, 1), (3, 1)):
        cols = normalized_columns(walk, ell)
        out = select_coreset(cols, CostVector.zeros(6), SelectionConfig(budget=budget))
        lhs, rhs, holds = bound_check(f, 0.4, out, cols)
        # recompute the certificate by hand
        row = np.zeros(6)
        row[np.array(out.indices)] = out.weights
        mixed = cols.apply(row)
        norm = float(np.linalg.norm(f.coefficients))
        expect = norm / 0.4 ** ell * float(np.linalg.norm(mixed - 1.0 / 6.0))
        assert rhs == pytest.approx(expect, abs=1e-12)
        assert lhs == pytest.approx(abs(f.mean() - estimate_mean(f, out)), abs=1e-15)
    with pytest.raises(ValueError):
        bound_check(f, 1.0, out, cols)


@pytest.mark.parametrize("threshold, ell", [(0.5, 5000), (0.001, 110), (0.5, 10**400)],
                         ids=["ell-5000", "threshold-0.001", "ell-past-float-range"])
def test_bound_is_vacuous_where_the_power_underflows(threshold, ell):
    """threshold**ell rounds to 0.0, or ell converts to no float: the certificate
    is +inf and holds, where it used to raise."""
    # d_max = 1 leaves no lazy diagonal: P = [[0, 1], [1, 0]] squares to I, so
    # every power of it is exact
    walk = lazy_walk_matrix(Graph(2, np.array([[0, 1]]), np.ones(1)))
    f = synthesize_smooth_function(walk, threshold, seed=1)
    cs = FakeCoreset([0], [1.0])
    lhs, rhs, holds = bound_check(f, threshold, cs, normalized_columns(walk, ell))
    assert (lhs, rhs, holds) == (abs(f.mean() - estimate_mean(f, cs)), math.inf, True)


@pytest.mark.parametrize("ell", [1000, 1073, 1074])
def test_bound_of_an_exact_coreset_is_zero_where_the_power_is_denormal(ell):
    """Weights 1/2 on both vertices of the 2-vertex walk mix to the uniform
    vector exactly, so the residual is 0 and so is the certificate, also
    where threshold**ell is denormal (ell 1073 and 1074 at 0.5) and
    smoothness / threshold**ell alone overflows to inf: inf * 0 must not make
    it nan."""
    walk = lazy_walk_matrix(Graph(2, np.array([[0, 1]]), np.ones(1)))
    f = synthesize_smooth_function(walk, 0.5, seed=1)
    cs = FakeCoreset([0, 1], [0.5, 0.5])
    assert bound_check(f, 0.5, cs, normalized_columns(walk, ell)) == (0.0, 0.0, True)


def test_bound_holds_for_real_selections():
    for seed in range(5):
        g = generate_random_graph(60, 0.1, seed=seed)
        walk = lazy_walk_matrix(g)
        cols = normalized_columns(walk, 2)
        f = synthesize_smooth_function(walk, 0.5, seed=seed + 10)
        out = select_coreset(cols, CostVector.zeros(g.n),
                             SelectionConfig(budget=8))
        lhs, rhs, holds = bound_check(f, 0.5, out, cols)
        assert holds and lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# result CSV


def test_results_csv_round_trip(tmp_path):
    rows = [
        ExperimentResult("scgiga", 5, 1.25e-3, 0.03536, 2.5, bound_rhs=0.125),
        ExperimentResult("random", 5, 4e-2, 0.2, 0.0, bound_rhs=None),
    ]
    path = str(tmp_path / "r.csv")
    results_to_csv(rows, path)
    text = Path(path).read_text(encoding="utf-8").splitlines()
    assert text[0] == "method,K,err,abs_err,cost,bound_rhs,runtime_ms"
    assert text[1].endswith(",0.125,")  # the runtime column is blank on every row
    assert text[2].endswith(",,")  # blank bound and runtime for the random row
    cells = list(csv.DictReader(text))
    assert [c["method"] for c in cells] == ["scgiga", "random"]
    assert [c["K"] for c in cells] == ["5", "5"]
    assert float(cells[0]["err"]) == rows[0].err
    assert float(cells[0]["abs_err"]) == rows[0].abs_err
    assert float(cells[0]["cost"]) == rows[0].coreset_cost
    assert float(cells[0]["bound_rhs"]) == 0.125
    assert cells[1]["bound_rhs"] == ""
