"""The walk power's effect on selection quality.

Higher powers smooth the columns toward the uniform vector, so fewer vertices
suffice to align the iterate with the target, but each column also becomes
less distinctive. The sweep prints the final residual and an indicator
estimate at each power on the same graph and budget.
"""

from graphcoreset import (
    CostVector,
    GraphFunction,
    SelectionConfig,
    estimate_mean,
    generate_sbm,
    lazy_walk_matrix,
    normalized_columns,
    select_coreset,
)


def main():
    graph = generate_sbm([50, 250, 200], 0.15, 0.045, seed=3)
    walk = lazy_walk_matrix(graph)
    f = GraphFunction((graph.labels == 0).astype(float))
    truth = f.mean()

    print(f"n={graph.n}, budget 12, estimating a block fraction ({truth:.3f})")
    print(f"{'ell':>5} {'support':>8} {'final J':>11} {'estimate':>9} {'abs err':>9}")
    for ell in (1, 2, 4, 8, 16):
        columns = normalized_columns(walk, ell)
        out = select_coreset(columns, CostVector.zeros(graph.n),
                             SelectionConfig(budget=12))
        est = estimate_mean(f, out)
        print(f"{ell:>5d} {len(out.indices):>8d} {out.trajectory[-1].residual:>11.3e} "
              f"{est:>9.4f} {abs(est - truth):>9.4f}")
    print()
    print("J collapses as the power grows because smoothed columns all point")
    print("near the target already. The estimate is best at intermediate")
    print("powers: enough smoothing for fast alignment, enough contrast left")
    print("for the weights to track where mass actually sits.")


if __name__ == "__main__":
    main()
