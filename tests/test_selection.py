"""Greedy geodesic selection: closed forms, invariants, and oracles."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize_scalar, nnls

from graphcoreset import (
    Coreset,
    CostVector,
    Graph,
    PointCloud,
    SelectionConfig,
    build_knn_kernel_graph,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    lazy_walk_matrix,
    normalized_columns,
    random_sampling,
    sample_costs_uniform,
    select_coreset,
    select_coreset_grid,
)
from graphcoreset import spectral
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
# invariants on real runs


def run_cases():
    cases = []
    for seed in range(4):
        g = generate_random_graph(40 + 10 * seed, 0.15, seed=seed)
        cases.append((g, 1 + seed % 3, 1.0 if seed % 2 else 0.7, 5 + seed))
    g = generate_sbm([15, 15, 20], 0.3, 0.03, seed=9)
    cases.append((g, 2, 0.8, 8))
    return cases


def test_residual_monotone_and_identity(replay_trajectory):
    """J never increases, and (1/n) J equals the squared distance between the
    rescaled iterate and the uniform vector."""
    for g, ell, kappa, budget in run_cases():
        cols = columns_for(g, ell)
        costs = sample_costs_uniform(g.n, seed=g.n)
        out = select_coreset(cols, costs, SelectionConfig(budget=budget, kappa=kappa))
        js = [rec.residual for rec in out.trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
        iterate = replay_trajectory(cols, out.trajectory)[-1].iterate
        uniform = np.full(g.n, 1.0 / g.n)
        dist2 = float(np.sum((out.beta * iterate - uniform) ** 2))
        assert abs(js[-1] / g.n - dist2) < 1e-10


def test_weights_follow_from_coefficients(tmp_path, replay_trajectory):
    """The written trajectory is a complete record of the run: replaying its
    (vertex, delta) pairs in coefficient space gives back beta and the weights
    bit for bit."""
    g = generate_sbm([10, 12], 0.4, 0.05, seed=2)
    cols = columns_for(g, 2)
    out = select_coreset(cols, CostVector.zeros(g.n), SelectionConfig(budget=6))
    out.save_json(str(tmp_path / "cs.json"))
    back = Coreset.load_json(str(tmp_path / "cs.json"))
    state = replay_trajectory(cols, back.trajectory)[-1]
    coeffs = state.coeffs
    assert out.beta == (1.0 / math.sqrt(g.n)) * max(0.0, state.align)
    idx = np.array(out.indices)
    assert np.array_equal(np.flatnonzero(coeffs), np.sort(idx))
    assert np.array_equal(out.weights, out.beta * coeffs[idx] / cols.column_norms[idx])


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


def test_step_size_minimizes_residual(replay_trajectory):
    """Each blend coefficient beats a numeric line search on the same segment."""
    g = generate_sbm([12, 12], 0.35, 0.04, seed=6)
    cols = columns_for(g, 2)
    out = select_coreset(cols, CostVector.zeros(g.n), SelectionConfig(budget=6))
    states = replay_trajectory(cols, out.trajectory)

    def resid_at(prev, vertex, d):
        blend = (1.0 - d) * prev + d * cols.column(vertex)
        blend = blend / np.linalg.norm(blend)
        return 1.0 - float(blend @ cols.target) ** 2

    for state, step in zip(states, out.trajectory[1:]):
        probe = minimize_scalar(lambda d: resid_at(state.iterate, step.vertex, d),
                                bounds=(0.0, 1.0), method="bounded")
        chosen = resid_at(state.iterate, step.vertex, step.delta)
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


def geodesic_scores(cols: NormalizedColumns, align, inner, residual) -> np.ndarray:
    """Cosine between the geodesic directions from the iterate toward each
    column and toward the target, by the masked textbook formula; align is the
    iterate's alignment with the target, inner holds the columns' alignments
    with the iterate and residual the iterate's J, 1 at the zero start, where
    the scores are the plain alignments."""
    base = cols.alignments(cols.target)
    proj = np.clip(inner, -1.0, 1.0)
    denom = math.sqrt(residual) * np.sqrt(np.maximum(1.0 - proj * proj, 0.0))
    scores = np.full(cols.n, -np.inf)
    usable = denom > 1e-14
    scores[usable] = (base[usable] - align * proj[usable]) / denom[usable]
    return scores


@pytest.mark.parametrize("kappa", [1.0, 0.6])
def test_first_round_scores_are_the_plain_alignments(kappa):
    """From the zero iterate the geodesic score formula gives each column's alignment
    with the target exactly, and the first step moves all the way onto its column."""
    g = generate_sbm([20, 20], 0.3, 0.05, seed=4)
    cols = columns_for(g, 2)
    costs = sample_costs_uniform(g.n, seed=3)
    out = select_coreset(cols, costs, SelectionConfig(budget=1, kappa=kappa))
    assert len(out.trajectory) == 1  # re-selecting the first column is no direction
    first = out.trajectory[0]
    base = cols.alignments(cols.target)
    slack = np.flatnonzero(base >= kappa * base.max())
    assert first.slack_set_size == len(slack)
    assert first.vertex == (int(np.argmax(base)) if kappa == 1.0
                            else int(slack[np.argmin(costs.costs[slack])]))
    assert first.alignment == base[first.vertex]
    assert first.delta == 1.0
    # the coefficient of the first column is exactly 1
    assert np.array_equal(out.weights, [out.beta / cols.column_norms[first.vertex]])


@pytest.fixture(scope="module")
def knn_walk():
    """Walk on 2100 kNN points: past the dense cutoff, so every power is sparse."""
    cloud = PointCloud(np.random.default_rng(11).standard_normal((2100, 2)))
    walk = lazy_walk_matrix(build_knn_kernel_graph(cloud, 10, 1.0))
    assert walk.shape[0] > spectral._DENSE_POWER_MAX_N
    return walk


@pytest.mark.parametrize("instance, ell, kappa, budget", [
    pytest.param("knn", 3, 0.8, 25, id="knn-ell3-kappa0.8"),
    pytest.param("knn", 1, 0.8, 25, id="knn-ell1-kappa0.8"),
    pytest.param("sbm", 12, 1.0, 12, id="sbm-ell12-kappa1"),
    pytest.param("sbm", 12, 0.7, 12, id="sbm-ell12-kappa0.7"),
    pytest.param("small-sbm", 1, 0.6, 8, id="small-sbm-ell1-kappa0.6"),
])
def test_slack_set_membership_and_cheapest_pick(request, replay_trajectory, instance, ell,
                                                kappa, budget):
    """Every round, rebuilt from the replayed state (its alignments carried by
    the loop's own rule) and the previous record's J, the masked score formula
    gives the recorded alignment and slack set size exactly, and the pick is
    the slack set's cheapest vertex (the argmax at kappa = 1). The pick scores
    at least kappa times the round's best score s*, so the round shrinks J at
    least as far as J_k <= J_(k-1) * (1 - kappa^2 * s*^2)."""
    if instance == "knn":
        walk = request.getfixturevalue("knn_walk")
    elif instance == "sbm":  # n <= 2048 at ell >= 2: the dense power path
        walk = lazy_walk_matrix(generate_sbm([60, 60], 0.2, 0.02, seed=4))
    else:
        walk = lazy_walk_matrix(generate_sbm([20, 20], 0.3, 0.05, seed=4))
    cols = normalized_columns(walk, ell)
    costs = sample_costs_uniform(cols.n, seed=3)
    out = select_coreset(cols, costs, SelectionConfig(budget=budget, kappa=kappa))
    assert len(out.trajectory) > 1
    align, inner, residual = 0.0, np.zeros(cols.n), 1.0
    for step, after in zip(out.trajectory, replay_trajectory(cols, out.trajectory)):
        scores = geodesic_scores(cols, align, inner, residual)
        slack = np.flatnonzero(scores >= kappa * scores.max())
        assert step.alignment == scores[step.vertex]
        assert step.slack_set_size == len(slack)
        if kappa == 1.0:
            assert step.vertex == int(np.argmax(scores))
        else:
            assert step.vertex == int(slack[np.argmin(costs.costs[slack])])
        assert step.residual <= residual * (1.0 - (kappa * scores.max()) ** 2) + 1e-12
        align, inner, residual = after.align, after.inner, step.residual


# ---------------------------------------------------------------------------
# alignments carried from round to round


@pytest.mark.parametrize("instance, ell", [
    ("knn", 1), ("knn", 3), ("sbm", 1), ("sbm", 2), ("sbm", 12),
])
def test_gram_column_is_the_alignments_of_a_column(request, instance, ell):
    """gram(i) is alignments(column(i)): the same call on a full power, a
    gather that agrees to rounding on a stored sparse one."""
    walk = (request.getfixturevalue("knn_walk") if instance == "knn"
            else lazy_walk_matrix(generate_sbm([60, 60], 0.2, 0.02, seed=4)))
    cols = normalized_columns(walk, ell)
    full = isinstance(cols.power, np.ndarray)
    assert full == (ell == 12)
    for i in np.random.default_rng(ell).choice(cols.n, 40, replace=False):
        got, want = cols.gram(i), cols.alignments(cols.column(i))
        if full:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("instance, ell, budget", [
    pytest.param("knn", 1, 1000, id="1-1000"),
    pytest.param("knn", 3, 800, id="3-800"),
    pytest.param("sbm", 12, 120, id="sbm-12-120"),
])
def test_carried_alignments_stay_on_the_matvec(request, replay_trajectory, instance, ell,
                                               budget):
    """On a long run the alignments blended from Gram columns stay within 1e-13
    of a fresh matvec with the iterate y = sum_i coeffs_i q_i, rebuilt from the
    coefficients, every round: on stored sparse powers and on a full one (the
    largest gaps measured were 9.4e-16 and 6.7e-15)."""
    walk = (request.getfixturevalue("knn_walk") if instance == "knn"
            else lazy_walk_matrix(generate_sbm([100, 100, 100], 0.1, 0.01, seed=4)))
    cols = normalized_columns(walk, ell)
    assert isinstance(cols.power, np.ndarray) == (instance == "sbm")
    costs = sample_costs_uniform(cols.n, seed=5)
    out = select_coreset(cols, costs, SelectionConfig(budget=budget, kappa=0.8))
    assert len(out.trajectory) > 1000
    for state in replay_trajectory(cols, out.trajectory):
        assert np.max(np.abs(state.inner - cols.alignments(state.iterate))) <= 1e-13


def _matvec_select(cols: NormalizedColumns, cost, kappa: float, budget: int) -> tuple:
    """Frozen copy of the greedy loop that scores every round from a fresh
    matvec with the iterate, for one budget: (indices, weights, each round's
    (pick, scores))."""
    n = cols.n
    base = cols.alignments(cols.target)
    coeffs, iterate, align, res_after = np.zeros(n), np.zeros(n), 0.0, 1.0
    support, rounds = [], []
    for k in range(64 * min(budget, n) + 64):
        proj = np.clip(cols.alignments(iterate), -1.0, 1.0)
        denom = math.sqrt(res_after) * np.sqrt(np.maximum(1.0 - proj * proj, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denom <= 1e-14, -np.inf, (base - proj * align) / denom)
        v = int(np.argmax(scores))
        if not np.isfinite(scores[v]) or scores[v] <= 0.0:
            break
        slack = np.flatnonzero(scores >= kappa * scores[v])
        if kappa < 1.0:
            v = int(slack[np.argmin(cost[slack])])
        if v not in support and len(support) == budget:
            break
        column = cols.column(v)
        if k == 0:
            delta, norm, iterate = 1.0, 1.0, column
        else:
            gain, anchor = base[v] - align * proj[v], align - base[v] * proj[v]
            if abs(gain + anchor) < 1e-14:
                break
            delta = min(max(gain / (gain + anchor), 0.0), 1.0)
            blended = (1.0 - delta) * iterate + delta * column
            norm = float(np.linalg.norm(blended))
            if norm < 1e-14:
                break
            iterate = blended / norm
        align = float(np.clip(iterate @ cols.target, -1.0, 1.0))
        if v not in support:
            support.append(v)
        coeffs *= 1.0 - delta
        coeffs[v] += delta
        coeffs /= norm
        rounds.append((v, scores))
        res_before, res_after = res_after, max(1.0 - align * align, 0.0)
        if res_after <= 1e-12 or res_before - res_after <= 1e-12 * res_before:
            break
    beta = (1.0 / math.sqrt(n)) * max(0.0, align)
    return support, beta * coeffs[support] / cols.column_norms[support], rounds


def _tie_decides(scores: np.ndarray, kappa: float) -> bool:
    """Whether a round's pick rests on scores within 1e-12 relative of its
    slack boundary kappa * best: a second best at kappa = 1, any score below."""
    best = scores.max()
    near = np.abs(scores - kappa * best) <= 1e-12 * best
    return int(near.sum()) > (1 if kappa == 1.0 else 0)


def test_carried_alignments_pick_what_the_matvec_picks():
    """Seeded kNN, SBM and random graphs at ell 1 and 3, sparse or full: the
    same picks as the frozen matvec loop, round by round, and weights within
    1e-12 relative. Only a tie within 1e-12 may send the runs apart, as
    rounding may (SelectionConfig); unit-weight graphs hold exact ties, such as
    two columns equal up to a permutation of the vertices."""
    cloud = PointCloud(np.random.default_rng(2).standard_normal((600, 2)))
    graphs = [build_knn_kernel_graph(cloud, 10, 1.0),
              generate_sbm([100, 100, 100], 0.04, 0.002, seed=5),
              generate_random_graph(400, 0.01, seed=6)]
    tie_free = 0
    for graph, ell in itertools.product(graphs, (1, 3)):
        cols = columns_for(graph, ell)
        costs = sample_costs_uniform(cols.n, seed=ell)
        for kappa in (1.0, 0.8):
            out = select_coreset(cols, costs, SelectionConfig(budget=40, kappa=kappa))
            indices, weights, rounds = _matvec_select(cols, costs.costs, kappa, 40)
            for record, (pick, scores) in zip(out.trajectory, rounds):
                if record.vertex != pick:
                    assert _tie_decides(scores, kappa)
                    break
            else:
                assert len(out.trajectory) == len(rounds)
                assert out.indices == indices
                assert np.allclose(out.weights, weights, rtol=1e-12, atol=0.0)
                tie_free += 1
    assert tie_free >= 10


@pytest.mark.parametrize("instance", ["knn", "sbm"])
def test_matvecs_per_run(request, monkeypatch, instance):
    """Sparse or full, a run takes one matvec (the alignments with the target)
    and one Gram column per placed round, round 0 included. A full power's
    Gram column is itself a matvec, counted as the Gram column only."""
    if instance == "knn":  # P^3, fill 0.03
        cols = normalized_columns(request.getfixturevalue("knn_walk"), 3)
    else:  # P^12, full
        cols = normalized_columns(lazy_walk_matrix(generate_sbm([60, 60], 0.2, 0.02, seed=4)), 12)
    calls, depth = [], [0]

    def counted(name):
        method = getattr(NormalizedColumns, name)

        def call(self, x):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return method(self, x)
            finally:
                depth[0] -= 1
        return call

    for name in ("alignments", "gram"):
        monkeypatch.setattr(NormalizedColumns, name, counted(name))
    out = select_coreset(cols, sample_costs_uniform(cols.n, seed=3), SelectionConfig(budget=10))
    assert out.status == "ok"  # every round placed or reweighted, then one more round
    assert (calls.count("alignments"), calls.count("gram")) == (1, len(out.trajectory))


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
# budget grid


def test_grid_matches_independent_runs():
    """Budgets 39 and 40 run into the round cap (support 37 at kappa 1, 39 at
    kappa 0.7), and 39's cap comes 64 rounds before 40's, so the grid must
    stop budget 39 at its own cap. Budgets end in ascending order, so a grid
    given them unsorted and repeated sorts and deduplicates them first."""
    g = generate_sbm([15, 15, 10], 0.3, 0.04, seed=12)
    cols = columns_for(g, 2)
    costs = sample_costs_uniform(g.n, seed=7)
    for kappa, budgets in itertools.product(
            (1.0, 0.7), ([1, 2, 3, 5, 8, 39, 40], [40, 3, 8, 3, 1, 39, 5, 2])):
        grid = select_coreset_grid(cols, costs, kappa, budgets)
        assert list(grid) == sorted(set(budgets))
        for b in grid:
            solo = select_coreset(cols, costs,
                                  SelectionConfig(budget=b, kappa=kappa))
            assert grid[b].indices == solo.indices
            assert np.array_equal(grid[b].weights, solo.weights)
            assert grid[b].beta == solo.beta
            assert grid[b].status == solo.status
            assert grid[b].total_cost == solo.total_cost
            assert ([r.to_dict() for r in grid[b].trajectory]
                    == [r.to_dict() for r in solo.trajectory])


def test_grid_keeps_a_budget_that_its_round_cap_ended():
    """Budget 28 reaches its round cap with 27 vertices placed. The run goes on
    for budget 40, places a 28th vertex and asks for a 29th; that must not end
    budget 28 a second time, so the grid's budget-28 coreset stays its solo run."""
    g = generate_sbm([12, 12, 8], 0.35, 0.05, seed=9)
    cols = columns_for(g, 3)
    costs = sample_costs_uniform(g.n, seed=9)
    grid = select_coreset_grid(cols, costs, 1.0, [28, 40])
    solo = select_coreset(cols, costs, SelectionConfig(budget=28))
    assert solo.status == "capped" and len(solo.indices) == 27
    assert grid[28].to_dict() == solo.to_dict()
    assert len(grid[40].indices) == 29


def test_grid_matches_independent_runs_past_n():
    """Budgets from n up end at the same round cap, so the grid still matches
    an independent run at each of them."""
    g = generate_sbm([8, 8], 0.5, 0.1, seed=3)
    cols = columns_for(g, 1)
    costs = CostVector.zeros(g.n)
    budgets = [g.n, g.n + 4]
    grid = select_coreset_grid(cols, costs, 1.0, budgets)
    for b in budgets:
        solo = select_coreset(cols, costs, SelectionConfig(budget=b))
        assert solo.status == grid[b].status == "capped"
        assert len(grid[b].trajectory) == len(solo.trajectory) == 64 * g.n + 64
        assert np.array_equal(grid[b].weights, solo.weights)


def _best_residual(columns: NormalizedColumns, k: int) -> float:
    """The least J over every k-subset of columns: 1 - align^2 of the best unit
    vector in a subset's cone is the squared distance from the target to the
    cone, the residual of non-negative least squares on its normalized columns."""
    unit = np.column_stack([columns.column(i) for i in range(columns.n)])
    target = columns.target
    return min(nnls(unit[:, list(subset)], target)[1] ** 2
               for subset in itertools.combinations(range(columns.n), k))


# the tree's and the random graph's powers have no zero entry (a Gram column is a
# BLAS gemv), the SBM's has (a Gram column is a gather over the CSC arrays)
@pytest.mark.parametrize("graph, ell", [
    pytest.param(generate_powerlaw_tree(40, 3.0, seed=0), 8, id="tree-n40-ell8"),
    pytest.param(generate_random_graph(40, 0.15, seed=1), 4, id="random-n40-ell4"),
    pytest.param(generate_sbm([8, 16, 16], 0.4, 0.05, seed=0), 2, id="sbm-n40-ell2"),
])
def test_greedy_residual_is_no_better_than_the_brute_force_optimum(graph, ell):
    """No greedy run beats the best K-subset of its own objective: J_greedy at
    budget K is at least the brute-force least J over all K-subsets, for K <= 3.
    A violation means the J bookkeeping or the oracle is wrong."""
    columns = columns_for(graph, ell)
    grid = select_coreset_grid(columns, CostVector.zeros(graph.n), 1.0, [2, 3])
    for k, coreset in grid.items():
        j_greedy = coreset.trajectory[-1].residual
        assert j_greedy >= _best_residual(columns, k) - 1e-12


def test_grid_validation(edge2):
    with pytest.raises(ValueError):
        select_coreset_grid(edge2, CostVector.zeros(2), 1.0, [0, 1])
    with pytest.raises(ValueError):
        select_coreset_grid(edge2, CostVector.zeros(2), 0.0, [1, 2])
    with pytest.raises(ValueError):
        select_coreset_grid(edge2, CostVector.zeros(2), 1.0, [])


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
    assert greedy.trajectory and back.method == "random" and back.total_cost == 3.0
    # indices and weights alone are a complete coreset file
    bare = Coreset.from_dict({"indices": [2, 0], "weights": [0.25, 0.75]})
    assert bare.beta == 1.0 and bare.total_cost == 0.0
    assert bare.trajectory == [] and bare.status == "ok"
