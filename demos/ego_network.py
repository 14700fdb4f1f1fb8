"""Cost-aware selection on a real social ego network.

Needs the SNAP ego-network edge list at data/facebook_combined.txt (or the
path in GRAPHCORESET_FACEBOOK). The demo prices vertices at random, runs the
cost-blind and cost-aware selections at the same budget, and reports what the
slack saves on a graph with heavy hubs.
"""

import os
import sys

from graphcoreset import (
    SelectionConfig,
    lazy_walk_matrix,
    load_edge_list,
    normalized_columns,
    sample_costs_uniform,
    select_coreset,
)

DATA = os.environ.get("GRAPHCORESET_FACEBOOK", "data/facebook_combined.txt")


def main():
    if not os.path.exists(DATA):
        print(f"ego network file not found at {DATA}")
        print("download the SNAP facebook_combined edge list and place it there,")
        print("or point GRAPHCORESET_FACEBOOK at it, then rerun this demo.")
        return 0
    graph = load_edge_list(DATA)
    print(f"loaded ego network: n={graph.n}, m={graph.m}")
    columns = normalized_columns(lazy_walk_matrix(graph), ell=2)
    costs = sample_costs_uniform(graph.n, seed=77)
    for kappa in (1.0, 0.8):
        out = select_coreset(columns, costs,
                             SelectionConfig(budget=30, kappa=kappa))
        print(f"kappa {kappa:.1f}: support {len(out.indices)}, "
              f"total cost {out.total_cost:.3f}, "
              f"final J {out.trajectory[-1].residual:.3e}, status {out.status}")
    print()
    print("Hubs dominate the strict selection; with slack the run keeps the")
    print("hubs it cannot replace and swaps the rest for cheap neighbors.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
