"""Greedy geodesic selection: closed forms, invariants, and oracles."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize_scalar

from graphcoreset import (
    Coreset,
    CostVector,
    Graph,
    SelectionConfig,
    beta_star,
    cost_penalty_bound,
    generate_random_graph,
    generate_sbm,
    lazy_walk_matrix,
    normalized_columns,
    random_sampling,
    residual,
    sample_costs_uniform,
    select_coreset,
    select_coreset_grid,
)
from graphcoreset.spectral import NormalizedColumns


def columns_for(graph: Graph, ell: int = 1) -> NormalizedColumns:
    return normalized_columns(lazy_walk_matrix(graph), ell)


@pytest.fixture
def edge2() -> NormalizedColumns:
    """Single edge: P swaps the vertices, so the columns are e1 and e0."""
    return columns_for(Graph(2, np.array([[0, 1]]), np.ones(1)))


# ---------------------------------------------------------------------------
# closed forms on the two-vertex graph


def test_two_vertex_budget_one(edge2):
    out = select_coreset(edge2, CostVector.zeros(2), SelectionConfig(budget=1))
    assert out.indices == [0]  # tie on alignment, lowest index wins
    assert out.weights.tolist() == pytest.approx([0.5], abs=1e-15)
    assert out.status == "ok"  # second round wants vertex 1, budget blocks it
    assert abs(out.trajectory[-1].residual - 0.5) < 1e-15
    assert out.trajectory[0].delta == 1.0


def test_two_vertex_budget_two_converges(edge2):
    out = select_coreset(edge2, CostVector.zeros(2), SelectionConfig(budget=2))
    assert out.indices == [0, 1]
    assert np.allclose(out.weights, [0.5, 0.5], atol=1e-15)
    assert out.status == "converged"
    assert out.trajectory[-1].residual < 1e-15
    assert abs(out.trajectory[1].delta - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# scale factor and residual helpers


def test_beta_star_closed_forms():
    assert beta_star(1.0, 0.6, 4) == pytest.approx(0.3, abs=1e-15)
    assert beta_star(1.0, -0.2, 4) == 0.0  # clipped at zero
    assert beta_star(2.0, 0.6, 4) == pytest.approx(0.15, abs=1e-15)
    with pytest.raises(ValueError):
        beta_star(0.0, 0.5, 4)
    with pytest.raises(ValueError):
        beta_star(1.0, 0.5, 0)


def test_residual_matches_definition(two_triangles):
    cols = columns_for(two_triangles, 2)
    coeffs = np.zeros(6)
    coeffs[2] = 1.0
    expect = 1.0 - float(cols.column(2) @ cols.target) ** 2
    assert residual(cols, coeffs) == pytest.approx(expect, abs=1e-14)
    with pytest.raises(ValueError):
        residual(cols, 2.0 * coeffs)


# ---------------------------------------------------------------------------
# invariants on real runs


def run_cases():
    cases = []
    for seed in range(4):
        g = generate_random_graph(40 + 10 * seed, 0.15, seed=seed)
        cases.append((g, 1 + seed % 3, 1.0 if seed % 2 else 0.7, 5 + seed))
    g = generate_sbm([15, 15, 20], 0.3, 0.03, seed=9)
    cases.append((g, 2, 0.8, 8))
    return cases


def test_residual_monotone_and_identity():
    """J never increases, and (1/n) J equals the squared distance between the
    rescaled iterate and the uniform vector."""
    for g, ell, kappa, budget in run_cases():
        cols = columns_for(g, ell)
        costs = sample_costs_uniform(g.n, seed=g.n)
        out = select_coreset(cols, costs, SelectionConfig(budget=budget, kappa=kappa))
        js = [rec.residual for rec in out.trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
        combo = cols.combine(out.coefficients)
        uniform = np.full(g.n, 1.0 / g.n)
        dist2 = float(np.sum((out.beta * combo - uniform) ** 2))
        assert abs(js[-1] / g.n - dist2) < 1e-10


def test_weights_follow_from_coefficients():
    g = generate_sbm([10, 12], 0.4, 0.05, seed=2)
    cols = columns_for(g, 2)
    out = select_coreset(cols, CostVector.zeros(g.n), SelectionConfig(budget=6))
    idx = np.array(out.indices)
    expect = out.beta * out.coefficients[idx] / cols.column_norms[idx]
    assert np.array_equal(out.weights, expect)


def test_support_and_cost_accounting():
    for g, ell, kappa, budget in run_cases():
        cols = columns_for(g, ell)
        costs = sample_costs_uniform(g.n, seed=1)
        out = select_coreset(cols, costs, SelectionConfig(budget=budget, kappa=kappa))
        assert len(out.indices) == len(set(out.indices)) <= budget
        assert out.total_cost == pytest.approx(
            float(costs.costs[np.array(out.indices)].sum()), abs=1e-12)
        # every distinct trajectory vertex is in the support
        assert set(r.vertex for r in out.trajectory) == set(out.indices)


def test_first_step_is_best_aligned_column():
    for seed in range(6):
        g = generate_random_graph(12, 0.3, seed=seed)
        cols = columns_for(g, 1)
        aligns = cols.alignments(cols.target)
        out = select_coreset(cols, CostVector.zeros(g.n), SelectionConfig(budget=3))
        assert out.indices[0] == int(np.argmax(aligns))


def test_first_step_tie_takes_lowest_index(edge2):
    aligns = edge2.alignments(edge2.target)
    assert aligns[0] == aligns[1]
    out = select_coreset(edge2, CostVector.zeros(2), SelectionConfig(budget=1))
    assert out.indices[0] == 0


def test_step_size_minimizes_residual():
    """Each blend coefficient beats a numeric line search on the same segment."""
    g = generate_sbm([12, 12], 0.35, 0.04, seed=6)
    cols = columns_for(g, 2)
    snapshots = []
    select_coreset(cols, CostVector.zeros(g.n), SelectionConfig(budget=6),
                   observer=snapshots.append)

    def resid_at(prev, vertex, d):
        blend = (1.0 - d) * prev + d * cols.column(vertex)
        blend = blend / np.linalg.norm(blend)
        return 1.0 - float(blend @ cols.target) ** 2

    for before, after in zip(snapshots, snapshots[1:]):
        iterate = cols.combine(before.coefficients)
        step = after.trajectory[-1]
        probe = minimize_scalar(lambda d: resid_at(iterate, step.vertex, d),
                                bounds=(0.0, 1.0), method="bounded")
        chosen = resid_at(iterate, step.vertex, step.delta)
        assert chosen <= probe.fun + 1e-12


def test_kappa_one_ignores_costs():
    for seed in range(5):
        g = generate_random_graph(30, 0.2, seed=seed)
        cols = columns_for(g, 1)
        config = SelectionConfig(budget=6, kappa=1.0)
        free = select_coreset(cols, CostVector.zeros(g.n), config)
        priced = select_coreset(cols, sample_costs_uniform(g.n, seed=seed + 50), config)
        assert free.indices == priced.indices
        assert np.array_equal(free.weights, priced.weights)


def geodesic_scores(cols: NormalizedColumns, iterate) -> np.ndarray:
    """Cosine between the geodesic directions from the iterate toward each
    column and toward the target; the first round scores plain alignment."""
    base = cols.alignments(cols.target)
    if iterate is None:
        return base
    align = float(iterate @ cols.target)
    proj = np.clip(cols.alignments(iterate), -1.0, 1.0)
    denom = math.sqrt(max(1.0 - align * align, 0.0)) * np.sqrt(np.maximum(1.0 - proj * proj, 0.0))
    scores = np.full(cols.n, -np.inf)
    usable = denom > 1e-14
    scores[usable] = (base[usable] - align * proj[usable]) / denom[usable]
    return scores


def test_slack_set_membership_and_cheapest_pick():
    g = generate_sbm([20, 20], 0.3, 0.05, seed=4)
    cols = columns_for(g, 1)
    costs = sample_costs_uniform(g.n, seed=3)
    kappa, tol = 0.6, 1e-9
    snapshots = []
    select_coreset(cols, costs, SelectionConfig(budget=8, kappa=kappa),
                   observer=snapshots.append)
    assert snapshots
    iterate = None
    for snap in snapshots:
        step = snap.trajectory[-1]
        scores = geodesic_scores(cols, iterate)
        best = scores.max()
        assert step.alignment == pytest.approx(scores[step.vertex], abs=tol)
        assert step.alignment >= kappa * best - tol  # the pick is in the slack set
        surely_in = np.flatnonzero(scores >= kappa * best + tol)
        maybe_in = np.flatnonzero(scores >= kappa * best - tol)
        assert len(surely_in) <= step.slack_set_size <= len(maybe_in)
        assert costs.costs[step.vertex] <= costs.costs[surely_in].min()  # and its cheapest
        iterate = cols.combine(snap.coefficients)


def test_cost_scale_invariance():
    g = generate_sbm([15, 15], 0.3, 0.05, seed=8)
    cols = columns_for(g, 1)
    base = sample_costs_uniform(g.n, seed=2)
    scaled = CostVector(10.0 * base.costs)
    config = SelectionConfig(budget=6, kappa=0.7)
    a = select_coreset(cols, base, config)
    b = select_coreset(cols, scaled, config)
    assert a.indices == b.indices
    assert np.array_equal(a.weights, b.weights)


def test_stalled_on_columns_opposing_the_target():
    """Columns pointing away from the target leave no positive direction."""
    matrix = sp.csc_matrix(-np.eye(3))
    cols = NormalizedColumns(1, matrix, np.ones(3))
    out = select_coreset(cols, CostVector.zeros(3), SelectionConfig(budget=2))
    assert out.status == "stalled"
    assert out.indices == []
    assert out.beta == 0.0 and len(out.weights) == 0


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(budget=0)
    with pytest.raises(ValueError):
        SelectionConfig(budget=3, kappa=0.0)
    with pytest.raises(ValueError):
        SelectionConfig(budget=3, kappa=1.2)


def test_select_rejects_mismatched_costs(edge2):
    with pytest.raises(ValueError):
        select_coreset(edge2, CostVector.zeros(5), SelectionConfig(budget=1))


# ---------------------------------------------------------------------------
# cost penalty bound


def test_cost_penalty_bound_closed_forms():
    ones = CostVector(np.ones(4))
    got = cost_penalty_bound(ones, k=3, kappa=0.5, min_column_norm=1.0, n=4)
    assert got == pytest.approx(1.0 / 12.0, abs=1e-15)  # 0.5 / (3 * 1 * 2)
    assert cost_penalty_bound(ones, k=3, kappa=1.0, min_column_norm=1.0, n=4) == 0.0
    with pytest.warns(UserWarning):
        assert cost_penalty_bound(CostVector.zeros(4), 2, 0.5, 1.0, 4) == math.inf
    with pytest.raises(ValueError):
        cost_penalty_bound(ones, k=0, kappa=0.5, min_column_norm=1.0, n=4)
    with pytest.raises(ValueError):
        cost_penalty_bound(ones, k=2, kappa=0.5, min_column_norm=0.0, n=4)


# ---------------------------------------------------------------------------
# budget grid


def test_grid_matches_independent_runs():
    g = generate_sbm([15, 15, 10], 0.3, 0.04, seed=12)
    cols = columns_for(g, 2)
    costs = sample_costs_uniform(g.n, seed=7)
    budgets = [1, 2, 3, 5, 8]
    for kappa in (1.0, 0.7):
        grid = select_coreset_grid(cols, costs, kappa, budgets)
        assert sorted(grid) == budgets
        for b in budgets:
            solo = select_coreset(cols, costs,
                                  SelectionConfig(budget=b, kappa=kappa))
            assert grid[b].indices == solo.indices
            assert np.array_equal(grid[b].weights, solo.weights)
            assert grid[b].status == solo.status
            assert grid[b].total_cost == solo.total_cost
            assert len(grid[b].trajectory) == len(solo.trajectory)


def test_grid_validation(edge2):
    with pytest.raises(ValueError):
        select_coreset_grid(edge2, CostVector.zeros(2), 1.0, [0, 1])
    with pytest.raises(ValueError):
        select_coreset_grid(edge2, CostVector.zeros(2), 0.0, [1, 2])


# ---------------------------------------------------------------------------
# serialization


def test_coreset_json_round_trip(tmp_path, edge2):
    greedy = select_coreset(edge2, CostVector.zeros(2), SelectionConfig(budget=2))
    baseline = dataclasses.replace(random_sampling(12, 3, seed=4), total_cost=3.0)
    for name, out in (("greedy", greedy), ("baseline", baseline)):
        path = str(tmp_path / f"{name}.json")
        out.save_json(path)
        back = Coreset.load_json(path)
        assert back.indices == out.indices
        assert np.array_equal(back.weights, out.weights)
        assert back.beta == out.beta
        assert back.total_cost == out.total_cost
        assert back.status == out.status
        assert back.method == out.method
        assert [r.to_dict() for r in back.trajectory] == [r.to_dict() for r in out.trajectory]
        assert back.coefficients is None  # not serialized
    assert greedy.trajectory and back.method == "random" and back.total_cost == 3.0
    # indices and weights alone are a complete coreset file
    bare = Coreset.from_dict({"indices": [2, 0], "weights": [0.25, 0.75]})
    assert bare.beta == 1.0 and bare.total_cost == 0.0
    assert bare.trajectory == [] and bare.status == "ok"
