"""Estimating a small block's size against the standard baselines.

Three-block stochastic block model where the target function is the indicator
of the smallest block (10% of vertices). The comparison runs the greedy
selection against random sampling and two clustering baselines over a budget
grid; the numbers are medians of squared estimation error across seeds.
"""

from graphcoreset.experiments import SbmIndicatorConfig, run_sbm_indicator


def main():
    config = SbmIndicatorConfig(n=400, k_grid=(4, 8, 12, 16), seeds=tuple(range(5)))
    print(f"blocks {config.block_sizes()}, p_in {config.p_in}, p_out {config.p_out}, "
          f"walk power {config.ell}, {len(config.seeds)} seeds")
    rows = run_sbm_indicator(config)
    med = {(r.method, r.K): r.err for r in rows}
    methods = ("scgiga", "random", "kmeans", "spectral")
    print(f"{'K':>4} " + " ".join(f"{m:>10}" for m in methods))
    for k in config.k_grid:
        print(f"{k:>4d} " + " ".join(f"{med[(m, k)]:>10.2e}" for m in methods))
    print()
    print("The greedy selection aims its weighted vertex mix at the uniform")
    print("distribution through the walk power, so block proportions are")
    print("exactly the kind of smooth statistic it estimates well, without")
    print("ever being told the blocks exist.")


if __name__ == "__main__":
    main()
