"""Benchmark workloads: seeded inputs, the CLI calls of one pass, output checks.

Each workload writes a pool of input files from the benchmark seed; pass i
uses pool entry i mod pool size, so a run covers several seeded instances
and the program only ever sees the generated files. A pass is a list of
`graphcoreset.cli.main` argument lists; its outputs are checked afterwards,
outside the timed region, and a failed check raises CheckFailed.

Run as a script it is the set-up step: a fresh interpreter that imports
graphcoreset and writes one workload's inputs.

    python3 bench/workloads.py WORKLOAD SEED INPUT_DIR
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIXTURE_MEANS = np.array([[1.0, -3.0], [-3.0, 2.0], [3.0, 0.0]])
MIXTURE_FRACTIONS = (0.2, 0.3, 0.5)


class CheckFailed(Exception):
    """An output of a pass is wrong."""


def load_package():
    """Import graphcoreset from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "graphcoreset" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphcoreset sources under {src}")
    sys.path.insert(0, str(src))
    import graphcoreset
    import graphcoreset.cli

    if Path(graphcoreset.__file__).resolve().parent != (src / "graphcoreset").resolve():
        raise SystemExit(f"error: graphcoreset was imported from {graphcoreset.__file__}")
    return graphcoreset


def instance_seed(seed: int, index: int) -> int:
    """Seed of pool entry index under the benchmark seed."""
    return seed * 1000 + index


def write_mixture_csv(path: Path, n: int, seed: int) -> None:
    """Three-component 2-d Gaussian mixture with labels, PointCloud CSV layout."""
    rng = np.random.default_rng(seed)
    counts = [int(f * n) for f in MIXTURE_FRACTIONS[:-1]]
    counts.append(n - sum(counts))
    lines = ["x0,x1,label"]
    for label, (mean, count) in enumerate(zip(MIXTURE_MEANS, counts)):
        for x, y in mean + rng.standard_normal((count, 2)):
            lines.append("%.17g,%.17g,%d" % (x, y, label))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


# -- output checks -----------------------------------------------------------


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def stdout_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            return float(parts[1])
    raise CheckFailed(f"no {key!r} line in the command output")


def check_coreset(path: Path, n: int, budget: int) -> dict:
    """Indices distinct, in range and within budget; weights finite; J not increasing."""
    data = json.loads(path.read_text(encoding="utf-8"))
    indices, weights = data["indices"], data["weights"]
    require(len(indices) == len(set(indices)), f"{path.name}: repeated indices")
    require(all(0 <= i < n for i in indices), f"{path.name}: index out of range")
    require(0 < len(indices) <= budget, f"{path.name}: {len(indices)} vertices for budget {budget}")
    require(len(weights) == len(indices), f"{path.name}: weights and indices differ in length")
    require(all(math.isfinite(w) for w in weights), f"{path.name}: weight not finite")
    trajectory = [r["J"] for r in data.get("trajectory", [])]
    require(all(b <= a for a, b in zip(trajectory, trajectory[1:])),
            f"{path.name}: residual J increases")
    return data


def check_table(path: Path, methods, ks) -> dict:
    """One finite row per (method, K), nothing else; rows keyed by (method, K)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    keyed = {(r["method"], int(r["K"])): r for r in rows}
    expected = {(m, k) for m in methods for k in ks}
    require(len(rows) == len(keyed) and set(keyed) == expected,
            f"{path.name}: rows do not match methods x K")
    for row in rows:
        require(all(math.isfinite(float(row[c])) for c in ("err", "abs_err", "cost")),
                f"{path.name}: non-finite value in row {row['method']},{row['K']}")
    return keyed


# -- workloads ---------------------------------------------------------------


class KnnCli:
    """CLI select on a kNN graph file: generate, select, eval, replay."""

    name = "knn-cli"

    def __init__(self, n: int = 2500, budget: int = 200, pool: int = 16):
        self.n, self.budget, self.pool = n, budget, pool

    def write_inputs(self, inputs: Path, seed: int) -> None:
        for j in range(self.pool):
            write_mixture_csv(inputs / f"points_{j}.csv", self.n, instance_seed(seed, j))

    def commands(self, inputs: Path, out: Path, seed: int, i: int) -> list[list[str]]:
        j = i % self.pool
        graph, coreset = str(out / "graph.json"), str(out / "coreset.json")
        return [
            ["generate", "--model", "knn-kernel", "--cloud", str(inputs / f"points_{j}.csv"),
             "--k-neighbors", "10", "--bandwidth", "1", "-o", graph],
            ["select", "--graph", graph, "--uniform-costs", str(instance_seed(seed, j)),
             "--kappa", "0.8", "--k", str(self.budget), "--ell", "3", "-o", coreset],
            ["eval", "--graph", graph, "--coreset", coreset, "--function", "indicator",
             "--label", "0", "-o", str(out / "eval.csv")],
            ["replay", coreset + ".manifest.json", "--verify"],
        ]

    def check(self, out: Path, stdouts: list[str], package) -> tuple[float, float]:
        require("verified" in stdouts[3], "replay did not report verified outputs")
        graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
        coreset = check_coreset(out / "coreset.json", graph["n"], self.budget)
        indicator = (np.asarray(graph["labels"]) == 0).astype(float)
        loaded = SimpleNamespace(indices=coreset["indices"], weights=coreset["weights"])
        expected = package.estimate_mean(package.GraphFunction(indicator), loaded)
        estimate = stdout_value(stdouts[2], "estimate")
        require(math.isclose(estimate, expected, rel_tol=1e-12, abs_tol=1e-15),
                f"eval estimate {estimate!r} != estimate_mean {expected!r}")
        abs_err = stdout_value(stdouts[2], "abs_err")
        require(math.isclose(abs_err, abs(estimate - indicator.mean()), rel_tol=1e-9,
                             abs_tol=1e-15), "eval abs_err disagrees with its estimate")
        return abs_err, float(coreset["total_cost"])


class Runner:
    """One seed of an experiment runner per pass, through `experiment --config`."""

    def __init__(self, name: str, experiment: str, configs, methods, ks, quality_method: str,
                 pool: int = 32):
        self.name, self.experiment = name, experiment
        self.configs = configs  # {output subdir: config overrides}
        self.methods, self.ks, self.quality_method = methods, ks, quality_method
        self.pool = pool

    def write_inputs(self, inputs: Path, seed: int) -> None:
        for j in range(self.pool):
            for tag, overrides in self.configs.items():
                write_json(inputs / f"{tag}_{j}.json",
                           dict(overrides, seeds=[instance_seed(seed, j)]))

    def commands(self, inputs: Path, out: Path, seed: int, i: int) -> list[list[str]]:
        j = i % self.pool
        return [["experiment", "--name", self.experiment, "--config",
                 str(inputs / f"{tag}_{j}.json"), "--out-dir", str(out / tag)]
                for tag in self.configs]

    def check(self, out: Path, stdouts: list[str], package) -> tuple[float, float]:
        errs, costs = [], []
        for tag in self.configs:
            table = check_table(out / tag / "comparison.csv", self.methods, self.ks)
            row = table[(self.quality_method, max(self.ks))]
            errs.append(float(row["abs_err"]))
            costs.append(float(row["cost"]))
        return float(np.mean(errs)), float(np.mean(costs))


class Centrality(Runner):
    """Shortest-path runners plus weighted betweenness and average distance."""

    def __init__(self, n: int = 200, budget: int = 10, pool: int = 16):
        super().__init__(
            "centrality", "shortest-path",
            {"tree": {"family": "powerlaw-tree"}, "random": {"family": "random-graph"}},
            ("scgiga", "random", "betweenness"), (5, 10, 20), "scgiga", pool)
        self.n, self.budget = n, budget

    def write_inputs(self, inputs: Path, seed: int) -> None:
        super().write_inputs(inputs, seed)
        from graphcoreset import PointCloud, build_knn_kernel_graph
        from scipy.sparse.csgraph import connected_components

        for j in range(self.pool):
            rng = np.random.default_rng(instance_seed(seed, j))
            graph = build_knn_kernel_graph(PointCloud(rng.standard_normal((self.n, 2))), 10, 1.0)
            if connected_components(graph.adjacency(), directed=False)[0] != 1:
                raise SystemExit(f"error: weighted kNN graph {j} is not connected")
            graph.save_json(str(inputs / f"weighted_{j}.json"))

    def commands(self, inputs: Path, out: Path, seed: int, i: int) -> list[list[str]]:
        graph = str(inputs / f"weighted_{i % self.pool}.json")
        coreset = str(out / "betweenness.json")
        return super().commands(inputs, out, seed, i) + [
            ["baseline", "--method", "betweenness", "--graph", graph, "--k", str(self.budget),
             "-o", coreset],
            ["eval", "--graph", graph, "--coreset", coreset, "--function", "average-distance",
             "-o", str(out / "distance.csv")],
        ]

    def check(self, out: Path, stdouts: list[str], package) -> tuple[float, float]:
        check_coreset(out / "betweenness.json", self.n, self.budget)
        printed = stdouts[-1]
        estimate, exact = stdout_value(printed, "estimate"), stdout_value(printed, "exact_mean")
        require(math.isfinite(estimate) and math.isfinite(exact), "average distance not finite")
        require(math.isclose(stdout_value(printed, "abs_err"), abs(estimate - exact),
                             rel_tol=1e-9, abs_tol=1e-15),
                "eval abs_err disagrees with its estimate")
        return super().check(out, stdouts, package)


WORKLOADS = {w.name: w for w in (
    KnnCli(),
    Runner("cluster-runner", "cluster-indicator", {"cluster": {"n": 2000}},
           ("scgiga", "scgiga-cost", "random", "kmeans", "spectral"), (2, 4, 6, 8, 10, 12, 14),
           "scgiga-cost"),
    Runner("sbm-runner", "sbm-indicator", {"sbm": {}},
           ("scgiga", "random", "kmeans", "spectral"), (4, 8, 12, 16, 20, 24, 28), "scgiga"),
    Centrality(),
)}


def main(argv: list[str]) -> int:
    name, seed, inputs = argv
    load_package()
    inputs = Path(inputs)
    inputs.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].write_inputs(inputs, int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
