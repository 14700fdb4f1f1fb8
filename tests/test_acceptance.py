"""Acceptance gate: one test per shipping criterion.

Each test prints a single "ACCEPTANCE <n>: PASS|FAIL ..." line (visible under
pytest -s, or in the failure report) and then asserts. Criterion 8 has two
clauses; its estimation-quality clause fails, and the failure is real, not a
bug in the harness: see test_criterion_8_estimation_comparison for why the
method cannot win that comparison. test_certificate_identities checks two
exact identities of every greedy coreset on the instances of criteria 1-7,
and test_per_round_residual_identity the residual's exact per-round factor
on every round of their trajectories.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import graphcoreset.baselines as baselines_mod
import graphcoreset.experiments as experiments_mod
from graphcoreset import (
    CostVector,
    Graph,
    SelectionConfig,
    betweenness_and_distances,
    bound_check,
    build_knn_kernel_graph,
    eigendecomposition,
    generate_gaussian_mixture,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    lazy_walk_matrix,
    load_edge_list,
    normalized_columns,
    sample_costs_uniform,
    select_coreset,
    select_coreset_grid,
    source_average_distances,
    synthesize_smooth_function,
)
from graphcoreset.cli import main as cli_main
from graphcoreset.experiments import (
    ClusterIndicatorConfig,
    SbmIndicatorConfig,
    ShortestPathConfig,
    cost_report,
    run_cluster_indicator,
    run_sbm_indicator,
    run_shortest_path,
)

FACEBOOK_PATH = os.environ.get("GRAPHCORESET_FACEBOOK", "data/facebook_combined.txt")


def report(num, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")


def sweep_graph(i: int) -> Graph:
    kind = i % 4
    if kind == 0:
        return generate_random_graph(40 + 5 * i, 0.12, seed=i)
    if kind == 1:
        return generate_sbm([15 + i, 20, 10], 0.3, 0.03, seed=i)
    if kind == 2:
        return generate_powerlaw_tree(60 + 2 * i, 2.6 + 0.02 * i, seed=i)
    cloud = generate_gaussian_mixture([[0.0, 0.0], [4.0, 4.0]], [0.5, 0.5], 1.0,
                                      50 + i, seed=i)
    return build_knn_kernel_graph(cloud, 6, 1.5)


@pytest.fixture(scope="module")
def selection_sweep():
    """50 varied selection runs shared by criteria 1 and 2."""
    runs = []
    start = time.monotonic()
    for i in range(50):
        g = sweep_graph(i)
        ell = 1 + i % 3
        kappa = (0.6, 0.8, 1.0)[i % 3]
        budget = 3 + i % 15
        cols = normalized_columns(lazy_walk_matrix(g), ell)
        costs = sample_costs_uniform(g.n, seed=i) if i % 2 else CostVector.zeros(g.n)
        out = select_coreset(cols, costs,
                             SelectionConfig(budget=budget, kappa=kappa))
        runs.append((g.n, cols, out, costs, kappa))
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def study_runs():
    """The studies of criteria 6 and 7, each run once: its rows, its wall time,
    and the certificate gaps (see _certificate_gaps) and trajectories of every
    greedy grid it built."""
    real = experiments_mod.select_coreset_grid
    runs = {}
    for criterion, runner, config in (
            (6, run_cluster_indicator, ClusterIndicatorConfig(n=2000, k_grid=(14,))),
            (7, run_sbm_indicator, SbmIndicatorConfig())):
        gaps, trajectories = [], []

        def keeping_gaps(columns, costs, kappa, budgets):
            grid = real(columns, costs, kappa, budgets)
            gaps.extend(_certificate_gaps(columns, grid))
            trajectories.extend(coreset.trajectory for coreset in grid.values())
            return grid

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments_mod, "select_coreset_grid", keeping_gaps)
            start = time.monotonic()
            rows = runner(config)
            runs[criterion] = (rows, time.monotonic() - start, gaps, trajectories)
    return runs


@pytest.fixture(scope="module")
def criteria_grids(selection_sweep):
    """The certificate gaps (see _certificate_gaps) and trajectories of a greedy
    budget grid on every instance of criteria 1-5: every budget up to each
    run's support on the criteria 1 and 2 sweep, and the criteria's own
    budgets on the others."""
    gaps, trajectories = [], []

    def keep(cols, grid):
        gaps.extend(_certificate_gaps(cols, grid))
        trajectories.extend(coreset.trajectory for coreset in grid.values())

    for _, cols, out, costs, kappa in selection_sweep[0]:  # criteria 1 and 2
        keep(cols, select_coreset_grid(cols, costs, kappa, range(1, len(out.indices) + 1)))
    for trial in range(30):  # criterion 3
        g = generate_random_graph(60 + (trial * 37) % 440, 0.05, seed=trial)
        cols = normalized_columns(lazy_walk_matrix(g), 1 + trial % 3)
        keep(cols, select_coreset_grid(cols, CostVector.zeros(g.n), 1.0, range(1, 4 + trial % 18)))
    for trial in range(20):  # criterion 4
        n = 6 + trial % 7
        if trial % 3 == 0:
            g = generate_sbm([n // 2, n - n // 2], 0.7, 0.2, seed=trial)
        else:
            g = generate_random_graph(n, 0.45, seed=trial)
        cols = normalized_columns(lazy_walk_matrix(g), 1 + trial % 2)
        keep(cols, select_coreset_grid(cols, CostVector.zeros(g.n), 1.0, [1, 2]))
    for seed in range(20):  # criterion 5
        g = generate_random_graph(50, 0.12, seed=seed)
        cols = normalized_columns(lazy_walk_matrix(g), 1)
        for costs in (CostVector.zeros(g.n), sample_costs_uniform(g.n, seed=seed + 100)):
            keep(cols, select_coreset_grid(cols, costs, 1.0, range(1, 9)))
    return gaps, trajectories


def test_criterion_1_residual_monotone(selection_sweep):
    """The selection objective never increases along any trajectory."""
    runs, elapsed = selection_sweep
    worst = 0.0
    for _, _, out, *_ in runs:
        js = [rec.residual for rec in out.trajectory]
        for a, b in zip(js, js[1:]):
            worst = max(worst, b - a)
    ok = worst <= 1e-12 and elapsed < 120.0
    report(1, ok, f"50 runs, worst residual increase {worst:.3g}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_residual_identity(selection_sweep, replay_trajectory):
    """(1/n) J equals the squared distance of the rescaled iterate from uniform;
    the iterate y is rebuilt from the trajectory."""
    runs, _ = selection_sweep
    worst = 0.0
    for n, cols, out, *_ in runs:
        j = out.trajectory[-1].residual
        iterate = replay_trajectory(cols, out.trajectory)[-1].iterate
        dist2 = float(np.sum((out.beta * iterate - np.full(n, 1.0 / n)) ** 2))
        worst = max(worst, abs(j / n - dist2))
    ok = worst <= 1e-10
    report(2, ok, f"max identity gap {worst:.3g} (tolerance 1e-10)")
    assert ok


def test_criterion_3_certified_bound():
    """30/30 random instances satisfy the smoothness error certificate."""
    held = 0
    worst_ratio = 0.0
    for trial in range(30):
        n = 60 + (trial * 37) % 440  # spread through [60, 500)
        threshold = 0.3 if trial % 2 == 0 else 0.5
        ell = 1 + trial % 3
        budget = 3 + trial % 18
        g = generate_random_graph(n, 0.05, seed=trial)
        walk = lazy_walk_matrix(g)
        cols = normalized_columns(walk, ell)
        f = synthesize_smooth_function(walk, threshold, seed=trial + 100)
        out = select_coreset(cols, CostVector.zeros(g.n),
                             SelectionConfig(budget=budget, kappa=1.0))
        lhs, rhs, holds = bound_check(f, threshold, out, cols)
        held += bool(holds)
        if rhs > 0:
            worst_ratio = max(worst_ratio, lhs / rhs)
    ok = held == 30
    report(3, ok, f"{held}/30 bounds hold, worst lhs/rhs {worst_ratio:.3f}")
    assert ok


def test_criterion_4_first_pick_maximizes_alignment():
    """On 20 small graphs the first pick attains the best column alignment,
    recomputed column by column, and ties resolve to the lowest index.

    Symmetric vertices produce exact mathematical ties that land one ulp apart
    under a different summation order, so the independent check allows 1e-12
    while the tie rule is checked exactly on the selector's own score vector.
    """
    failures = []
    for trial in range(20):
        n = 6 + trial % 7  # up to 12
        if trial % 3 == 0:
            g = generate_sbm([n // 2, n - n // 2], 0.7, 0.2, seed=trial)
        else:
            g = generate_random_graph(n, 0.45, seed=trial)
        ell = 1 + trial % 2
        cols = normalized_columns(lazy_walk_matrix(g), ell)
        aligns = np.array([cols.column(v) @ cols.target for v in range(g.n)])
        out = select_coreset(cols, CostVector.zeros(g.n),
                             SelectionConfig(budget=2))
        pick = out.indices[0]
        attains_max = aligns[pick] >= aligns.max() - 1e-12
        scores = cols.alignments(cols.target)
        lowest_tie = pick == int(np.argmax(scores))
        if not (attains_max and lowest_tie):
            failures.append(trial)
    ok = not failures
    report(4, ok, f"20 graphs, mismatches {failures or 'none'}")
    assert ok


def test_criterion_5_kappa_one_cost_blind():
    """kappa = 1 output is bitwise identical for any cost vector."""
    mismatches = 0
    for seed in range(20):
        g = generate_random_graph(50, 0.12, seed=seed)
        cols = normalized_columns(lazy_walk_matrix(g), 1)
        config = SelectionConfig(budget=8, kappa=1.0)
        free = select_coreset(cols, CostVector.zeros(g.n), config)
        priced = select_coreset(cols, sample_costs_uniform(g.n, seed=seed + 100), config)
        same = free.indices == priced.indices and np.array_equal(free.weights,
                                                                 priced.weights)
        mismatches += not same
    ok = mismatches == 0
    report(5, ok, f"20 seeds, {mismatches} mismatches")
    assert ok


def test_criterion_6_cost_aware_selection_is_cheaper(study_runs):
    """Mixture graph, n = 2000, kappa 0.8, K = 14: the cost-aware run pays at
    most half the cost-blind median."""
    rows, elapsed = study_runs[6][:2]
    c_cso, c_cos = cost_report(rows)
    ok = c_cso <= 0.5 * c_cos
    report(6, ok, f"median costs {c_cso:.3f} vs {c_cos:.3f} "
                  f"(ratio {c_cso / c_cos:.3f}, bar 0.5), {elapsed:.0f}s")
    assert ok


def test_criterion_7_sbm_indicator_comparison(study_runs):
    """Small-block indicator on the three-block model: beats random sampling at
    every budget and the clustering baselines from K = 8 up."""
    rows, elapsed = study_runs[7][:2]
    med = {(r.method, r.K): r.err for r in rows}
    k_grid = SbmIndicatorConfig().k_grid
    vs_random = all(med[("scgiga", k)] <= med[("random", k)] for k in k_grid)
    vs_cluster = all(med[("scgiga", k)] <= med[(m, k)]
                     for k in k_grid if k >= 8 for m in ("kmeans", "spectral"))
    ok = vs_random and vs_cluster and elapsed < 300.0
    margins = min(med[("random", k)] / med[("scgiga", k)] for k in k_grid)
    report(7, ok, f"vs random {'all K' if vs_random else 'FAILED'}, "
                  f"vs clustering K>=8 {'holds' if vs_cluster else 'FAILED'}, "
                  f"min random/scgiga ratio {margins:.2f}, {elapsed:.0f}s")
    assert ok


def _certificate_gaps(columns, grid: dict) -> list:
    """(|sum(w) - (1 - J)| / (1 - J), |n * r^2 - J|) for each budget's coreset in
    grid, where J is the coreset's final residual and r = ||P^ell w - 1/n|| the
    function-free factor of the paper's error bound."""
    gaps = []
    for coreset in grid.values():
        j = coreset.trajectory[-1].residual
        w = np.zeros(columns.n)
        w[coreset.indices] = coreset.weights
        r = float(np.linalg.norm(columns.apply(w) - 1.0 / columns.n))
        gaps.append((abs(w.sum() - (1.0 - j)) / (1.0 - j), abs(columns.n * r * r - j)))
    return gaps


def test_certificate_identities(criteria_grids, study_runs):
    """Every greedy coreset has sum(w) = 1 - J and r = sqrt(J / n), because P^ell
    is doubly stochastic and P^ell w = beta * y. Checked on every budget of the
    instances of criteria 1-7: sum(w) to 1e-12 relative, and r through n * r^2,
    to J within 1e-13. J = 1 - align^2 carries rounding of a few ulps of 1, so
    near the convergence floor r = sqrt(J / n) holds only to that absolute
    precision, not relatively."""
    gaps = list(criteria_grids[0])
    for criterion in (6, 7):
        gaps += study_runs[criterion][2]
    worst_sum, worst_r = np.max(gaps, axis=0)
    ok = worst_sum <= 1e-12 and worst_r <= 1e-13
    report("certificate", ok, f"{len(gaps)} coresets, worst sum(w) gap {worst_sum:.2g} "
                              f"(relative), worst n*r^2 - J gap {worst_r:.2g}")
    assert ok


def test_per_round_residual_identity(criteria_grids, study_runs):
    """Each greedy round multiplies the residual by 1 - s^2, where s is the
    picked vertex's score (the trajectory's alignment): J_k = J_{k-1} (1 - s_k^2),
    from J = 1 before round 0. This exact per-round identity, not eta (a
    round-0 quantity), is what bounds each round's progress. Checked on every
    round of every trajectory on the instances of criteria 1-7, to 1e-12
    absolute in J."""
    trajectories = list(criteria_grids[1])
    for criterion in (6, 7):
        trajectories += study_runs[criterion][3]
    worst, rounds = 0.0, 0
    for trajectory in trajectories:
        before = 1.0
        for record in trajectory:
            worst = max(worst, abs(record.residual - before * (1.0 - record.alignment ** 2)))
            before = record.residual
            rounds += 1
    ok = worst <= 1e-12
    report("residual", ok, f"{len(trajectories)} trajectories, {rounds} rounds, "
                           f"worst |J_k - J_(k-1) (1 - s_k^2)| {worst:.2g}")
    assert ok


def test_criterion_8_dijkstra_counts(monkeypatch, two_triangles):
    """Estimating the average-distance statistic runs one single-source search
    per selected vertex. On this 60-vertex random graph (p = 0.1, seed 1),
    which has cycles, the exact value needs one per vertex, whether alone
    (source_average_distances, as eval computes it) or beside betweenness
    (betweenness_and_distances, as the studies do); a tree would need one
    search beside betweenness (test_trees_search_from_one_source). Each call
    of the breadth-first sweep (baselines._levels) searches from a block of
    sources at once, so the searches are counted as the sources it is given."""
    calls = []
    real = baselines_mod._levels

    def counting(adjacency, sources, sigma=None):
        calls.append(len(sources))
        return real(adjacency, sources, sigma)

    monkeypatch.setattr(baselines_mod, "_levels", counting)
    g = generate_random_graph(60, 0.1, seed=1)
    cols = normalized_columns(lazy_walk_matrix(g), 2)
    out = select_coreset(cols, CostVector.zeros(g.n), SelectionConfig(budget=5))
    k = len(out.indices)
    counts = []
    for compute in (lambda: out.weights @ source_average_distances(g, out.indices),
                    lambda: source_average_distances(g, np.arange(g.n)).mean(),
                    lambda: betweenness_and_distances(g)):
        calls.clear()
        compute()
        counts.append(sum(calls))
    ok = counts == [k, g.n, g.n]
    report("8a", ok, f"estimate searched from {counts[0]} sources for K={k}, exact from "
                     f"{counts[1]} alone and {counts[2]} beside betweenness for n={g.n}")
    assert ok


def test_criterion_8_estimation_comparison():
    """Average-distance estimation on trees and sparse random graphs: the
    greedy selection must match random sampling's median error at every K.

    This clause fails, and the failure is structural. The per-vertex average
    distance is itself a centrality statistic, and the greedy selection is a
    centrality ranking: it concentrates on exactly the vertices whose distance
    profile is least typical, so the selection bias correlates with the
    integrand. The weights minimize the walk-power residual, which controls a
    mode of the function only up to the inverse of its eigenvalue power;
    the slowly-mixing modes that carry the distance profile's variance are
    nearly invisible to the objective, so no weighting fixes the bias. Random
    sampling has no such correlation and wins. Numbers stay printed here
    rather than hidden: honest red over a gamed green.
    """
    start = time.monotonic()
    lines = []
    all_ok = True
    for family in ("powerlaw-tree", "random-graph"):
        rows = run_shortest_path(ShortestPathConfig(family=family))
        med = {(r.method, r.K): r.abs_err for r in rows}
        for k in ShortestPathConfig().k_grid:
            scg = med[("scgiga", k)]
            rnd = med[("random", k)]
            good = scg <= rnd
            all_ok &= good
            lines.append(f"{family} K={k}: scgiga {scg:.4f} vs random {rnd:.4f}"
                         f" {'ok' if good else 'WORSE'}")
    elapsed = time.monotonic() - start
    report("8b", all_ok, f"{'; '.join(lines)} ({elapsed:.0f}s)")
    assert all_ok


def test_criterion_9_walk_matrix_contract():
    """Row sums exact to 1e-12, spectrum inside [-1, 1] + 1e-9, and powers up
    to 8 fix the all-ones vector to 1e-10."""
    graphs = [
        generate_sbm([40, 40], 0.3, 0.05, seed=0),
        generate_powerlaw_tree(100, 3.0, seed=1),
        generate_random_graph(80, 0.08, seed=2),
        build_knn_kernel_graph(
            generate_gaussian_mixture([[0.0, 0.0], [5.0, 5.0]], [0.5, 0.5], 1.0,
                                      60, seed=3), 5, 1.0),
    ]
    worst_row, worst_eig, worst_fix = 0.0, 0.0, 0.0
    for g in graphs:
        walk = lazy_walk_matrix(g)
        rows = np.asarray(walk.sum(axis=1)).ravel()
        worst_row = max(worst_row, float(np.max(np.abs(rows - 1.0))))
        values, _ = eigendecomposition(walk)
        worst_eig = max(worst_eig, float(values[0] - 1.0), float(-1.0 - values[-1]))
        vec = np.ones(g.n)
        for _ in range(8):
            vec = walk @ vec
            worst_fix = max(worst_fix, float(np.max(np.abs(vec - 1.0))))
    ok = worst_row <= 1e-12 and worst_eig <= 1e-9 and worst_fix <= 1e-10
    report(9, ok, f"row-sum gap {worst_row:.2g}, spectrum overshoot {worst_eig:.2g}, "
                  f"ones drift {worst_fix:.2g}")
    assert ok


@pytest.mark.skipif(not os.path.exists(FACEBOOK_PATH),
                    reason="ego network file not present")
def test_criterion_10_ego_network_run(replay_trajectory):
    """Full run on the bundled ego network, K up to 30, under ten minutes,
    with the criterion 1/2 invariants checked on the trajectory."""
    start = time.monotonic()
    g = load_edge_list(FACEBOOK_PATH)
    cols = normalized_columns(lazy_walk_matrix(g), 2)
    costs = sample_costs_uniform(g.n, seed=77)
    out = select_coreset(cols, costs,
                         SelectionConfig(budget=30, kappa=0.8))
    elapsed = time.monotonic() - start
    js = [rec.residual for rec in out.trajectory]
    monotone = all(b <= a + 1e-12 for a, b in zip(js, js[1:]))
    iterate = replay_trajectory(cols, out.trajectory)[-1].iterate
    gap = abs(js[-1] / g.n - float(np.sum(
        (out.beta * iterate - np.full(g.n, 1.0 / g.n)) ** 2)))
    ok = monotone and gap <= 1e-10 and len(out.indices) <= 30 and elapsed < 600.0
    report(10, ok, f"n={g.n}, support {len(out.indices)}, final J {js[-1]:.3g}, "
                   f"identity gap {gap:.2g}, {elapsed:.0f}s")
    assert ok


def test_criterion_11_manifest_replay(tmp_path, monkeypatch):
    """A recorded manifest re-executes to byte-identical outputs."""
    monkeypatch.chdir(tmp_path)
    assert cli_main(["generate", "--model", "sbm", "--sizes", "30,30",
                     "--p-in", "0.3", "--p-out", "0.03", "--seed", "4",
                     "-o", "g.json"]) == 0
    assert cli_main(["select", "--graph", "g.json", "--uniform-costs", "6",
                     "--kappa", "0.8", "--k", "6", "-o", "cs.json"]) == 0
    before = Path("cs.json").read_bytes()
    code = cli_main(["replay", "cs.json.manifest.json", "--verify"])
    after = Path("cs.json").read_bytes()
    ok = code == 0 and before == after
    report(11, ok, f"replay exit {code}, bytes {'identical' if before == after else 'DIFFER'}")
    assert ok
