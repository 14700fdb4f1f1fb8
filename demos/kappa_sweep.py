"""How the slack parameter trades residual for cost.

One graph, one budget, kappa swept from strict (1.0) to loose (0.5). Lower
kappa admits cheaper vertices into each greedy round, so total cost falls
while the residual J rises. Each round shrinks J by the exact factor
1 - s_k^2, with s_k the picked vertex's score (its trajectory alignment).
The pick scores at least kappa times the round's best score s*_k, so a
round never does worse than J_k <= J_(k-1) * (1 - kappa^2 * s*_k^2)
(tests/test_acceptance.py checks the identity, tests/test_selection.py the
bound).
"""

from graphcoreset import (
    SelectionConfig,
    generate_sbm,
    lazy_walk_matrix,
    normalized_columns,
    sample_costs_uniform,
    select_coreset,
)


def main():
    graph = generate_sbm([80, 120, 100], 0.2, 0.02, seed=1)
    columns = normalized_columns(lazy_walk_matrix(graph), ell=2)
    costs = sample_costs_uniform(graph.n, seed=42)

    print(f"three-block graph: n={graph.n}, m={graph.m}, budget 12, ell 2")
    print(f"{'kappa':>6} {'total cost':>11} {'final J':>11} {'status':>10}")
    for kappa in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
        out = select_coreset(columns, costs,
                             SelectionConfig(budget=12, kappa=kappa))
        print(f"{kappa:>6.1f} {out.total_cost:>11.3f} "
              f"{out.trajectory[-1].residual:>11.3e} {out.status:>10}")
    print()
    print("Each round's exact factor is 1 - s^2, s the pick's recorded")
    print("alignment; a lower kappa lets the pick score less than the round's")
    print("best. J rises slowly as kappa falls while the cost drops steadily.")


if __name__ == "__main__":
    main()
