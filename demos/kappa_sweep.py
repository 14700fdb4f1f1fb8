"""How the slack parameter trades residual for cost.

One graph, one budget, kappa swept from strict (1.0) to loose (0.5). Lower
kappa admits cheaper vertices into each greedy round, so total cost falls;
the residual J rises only as much as the slack allows, and the worst-case
per-round contraction factor (eta) quantifies that ceiling in advance.
"""

from graphcoreset import (
    SelectionConfig,
    eta_diagnostic,
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
    print(f"{'kappa':>6} {'eta':>7} {'total cost':>11} {'final J':>11} {'status':>10}")
    for kappa in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
        out = select_coreset(columns, costs,
                             SelectionConfig(budget=12, kappa=kappa))
        eta = eta_diagnostic(columns, kappa)
        print(f"{kappa:>6.1f} {eta:>7.4f} {out.total_cost:>11.3f} "
              f"{out.trajectory[-1].residual:>11.3e} {out.status:>10}")
    print()
    print("eta is the guaranteed per-round shrink factor at that kappa: closer")
    print("to 1 means weaker guaranteed progress. The observed J degrades far")
    print("more slowly than the worst case while the cost drops steadily.")


if __name__ == "__main__":
    main()
