"""Command-line surface: reproducible generation, selection, and experiments.

Every command resolves its flags into a flat parameter mapping, executes, and
writes a manifest recording the command, parameters, seed, input-file hashes,
and output paths. `replay` re-executes a manifest; because all randomness is
seeded and all writes are atomic and wall-clock free, a replay reproduces the
recorded outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import experiments
from ._util import dump_json, fmt_float, has_type, sha256_file
from .baselines import (
    betweenness_coreset,
    kmeans_coreset,
    random_sampling,
    spectral_clustering_coreset,
)
from .evaluate import (
    ExperimentResult,
    avg_shortest_path_estimate,
    avg_shortest_path_true,
    bound_check,
    error_metric,
    estimate_mean,
    eta_diagnostic,
    results_to_csv,
)
from .graphs import (
    CostVector,
    Graph,
    PointCloud,
    build_knn_kernel_graph,
    generate_gaussian_mixture,
    generate_powerlaw_tree,
    generate_random_graph,
    generate_sbm,
    sample_costs_uniform,
)
from .selection import Coreset, SelectionConfig, select_coreset
from .spectral import (
    GraphFunction,
    lazy_walk_matrix,
    normalized_columns,
    synthesize_smooth_function,
)


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _parse_means(text: str) -> list[list[float]]:
    """Semicolon-separated mean vectors: "1,-3;-3,2;3,0"."""
    means = [_parse_floats(group) for group in text.split(";") if group.strip() != ""]
    if not means:
        raise ValueError("at least one mean vector is required")
    return means


# ---------------------------------------------------------------------------
# the parameters each command records, in recording order, with the type the
# parser gives each (None only where the flag has no default and is not
# required); generate records model, seed and out and then the keys of its model

_PARAMETERS = {
    "generate": {
        "sbm": {"sizes": list, "p_in": float, "p_out": float},
        "powerlaw-tree": {"n": int, "exponent": float},
        "random": {"n": int, "edge_probability": float},
        "gaussian-mixture": {"means": list, "fractions": list, "covariance_scale": float,
                             "n": int},
        "knn-kernel": {"cloud": str, "k_neighbors": int, "bandwidth": float},
    },
    "select": {"graph": str, "costs": str | None, "uniform_costs": int | None, "kappa": float,
               "k": int, "ell": int, "out": str},
    "baseline": {"method": str, "graph": str | None, "cloud": str | None, "n": int | None,
                 "k": int, "seed": int, "out": str},
    "experiment": {"name": str, "config": str | None, "overrides": dict, "out_dir": str},
    "eval": {"graph": str, "coreset": str, "function": str, "label": int, "threshold": float,
             "ell": int, "function_seed": int, "out": str},
    "replay": {"manifest": str, "verify": bool},
}
# generate flags given as text and parsed into lists
_GENERATE_PARSERS = {"sizes": _parse_ints, "means": _parse_means, "fractions": _parse_floats}


def _parameter_types(command: str, model=None) -> dict:
    """Parameter types of a command; ValueError for a generate model it does not know."""
    types = _PARAMETERS[command]
    if command != "generate":
        return types
    if not isinstance(model, str) or model not in types:
        raise ValueError(f"unknown model {model!r}")
    return {"model": str, "seed": int, "out": str, **types[model]}


# ---------------------------------------------------------------------------
# command execution; each returns (input_paths, output_paths, printed lines)


def _execute_generate(params: dict):
    model = params["model"]
    seed = params["seed"]
    out = params["out"]
    inputs = []
    if model == "gaussian-mixture":
        cloud = generate_gaussian_mixture(params["means"], params["fractions"],
                                          params["covariance_scale"], params["n"], seed=seed)
        cloud.save_csv(out)
        return inputs, [out], []
    if model == "sbm":
        graph = generate_sbm(params["sizes"], params["p_in"], params["p_out"], seed=seed)
    elif model == "powerlaw-tree":
        graph = generate_powerlaw_tree(params["n"], params["exponent"], seed=seed)
    elif model == "random":
        graph = generate_random_graph(params["n"], params["edge_probability"], seed=seed)
    else:  # knn-kernel
        inputs = [params["cloud"]]
        cloud = PointCloud.load_csv(params["cloud"])
        graph = build_knn_kernel_graph(cloud, params["k_neighbors"], params["bandwidth"])
    graph.save_json(out)
    return inputs, [out], []


def _costs_for(params: dict, n: int) -> CostVector:
    if params.get("costs"):
        return CostVector.load_json(params["costs"])
    if params.get("uniform_costs") is not None:
        return sample_costs_uniform(n, seed=params["uniform_costs"])
    return CostVector.zeros(n)


def _execute_select(params: dict):
    inputs = [params["graph"]]
    if params.get("costs"):
        inputs.append(params["costs"])
    graph = Graph.load_json(params["graph"])
    costs = _costs_for(params, graph.n)
    config = SelectionConfig(budget=params["k"], kappa=params["kappa"])
    columns = normalized_columns(lazy_walk_matrix(graph), params["ell"])
    coreset = select_coreset(columns, costs, config)
    coreset.save_json(params["out"])
    final_j = coreset.trajectory[-1].residual if coreset.trajectory else 1.0
    lines = [
        "final_J " + fmt_float(final_j),
        "total_cost " + fmt_float(coreset.total_cost),
        "eta " + fmt_float(eta_diagnostic(columns, config.kappa)),
        "status " + coreset.status,
    ]
    return inputs, [params["out"]], lines


def _execute_baseline(params: dict):
    method = params["method"]
    k = params["k"]
    seed = params["seed"]
    inputs = []
    if method == "random":
        if params.get("graph"):
            inputs = [params["graph"]]
            n = Graph.load_json(params["graph"]).n
        elif params.get("n"):
            n = params["n"]
        else:
            raise ValueError("random baseline needs --graph or --n")
        coreset = random_sampling(n, k, seed)
    elif method == "kmeans":
        if not params.get("cloud"):
            raise ValueError("kmeans baseline needs --cloud")
        inputs = [params["cloud"]]
        coreset = kmeans_coreset(PointCloud.load_csv(params["cloud"]), k, seed)
    elif method == "spectral":
        if not params.get("graph"):
            raise ValueError("spectral baseline needs --graph")
        inputs = [params["graph"]]
        coreset = spectral_clustering_coreset(Graph.load_json(params["graph"]), k, seed)
    elif method == "betweenness":
        if not params.get("graph"):
            raise ValueError("betweenness baseline needs --graph")
        inputs = [params["graph"]]
        coreset = betweenness_coreset(Graph.load_json(params["graph"]), k)
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    coreset.save_json(params["out"])
    return inputs, [params["out"]], []


def _execute_experiment(params: dict):
    name = params["name"]
    overrides = params["overrides"]
    inputs = []
    if params.get("config"):
        inputs.append(params["config"])
        with open(params["config"], "r", encoding="utf-8") as handle:
            file_conf = json.load(handle)
        if not isinstance(file_conf, dict):
            raise ValueError("experiment config must be a JSON object")
        merged = dict(file_conf)
        merged.update(overrides)
        overrides = merged
    config = experiments.config_from_mapping(name, overrides)
    if name == "ego-centrality":
        inputs.append(config.data_path)
    runner = experiments.EXPERIMENTS[name][1]
    rows, report = runner(config)
    written = experiments.write_experiment_outputs(params["out_dir"], rows, report)
    lines = [f"wrote {len(written)} files to {params['out_dir']}"]
    if report is not None:
        lines.append("C_CSO " + fmt_float(report.c_cso) + " C_COS " + fmt_float(report.c_cos))
    return inputs, written, lines


def _execute_eval(params: dict):
    inputs = [params["graph"], params["coreset"]]
    graph = Graph.load_json(params["graph"])
    coreset = Coreset.load_json(params["coreset"])
    kind = params["function"]
    bound_rhs = None
    if kind == "indicator":
        if graph.labels is None:
            raise ValueError("indicator evaluation needs a labeled graph")
        f = GraphFunction((np.asarray(graph.labels) == params["label"]).astype(float))
        estimate = estimate_mean(f, coreset)
        truth = f.mean()
        err, abs_err = error_metric(f, coreset)
    elif kind == "average-distance":
        estimate = avg_shortest_path_estimate(graph, coreset)
        truth = avg_shortest_path_true(graph)
        abs_err = abs(estimate - truth)
        err = abs_err ** 2
    elif kind == "smooth":
        walk = lazy_walk_matrix(graph)
        f = synthesize_smooth_function(walk, params["threshold"], seed=params["function_seed"])
        estimate = estimate_mean(f, coreset)
        truth = f.mean()
        err, abs_err = error_metric(f, coreset)
        columns = normalized_columns(walk, params["ell"])
        _, bound_rhs, holds = bound_check(f, params["threshold"], coreset, columns)
        if not holds:
            raise FloatingPointError("smoothness bound violated; selection output is corrupt")
    else:
        raise ValueError(f"unknown function kind {kind!r}")
    row = ExperimentResult(method=kind, K=len(coreset.indices), err=err, abs_err=abs_err,
                           coreset_cost=0.0, bound_rhs=bound_rhs)
    results_to_csv([row], params["out"])
    lines = ["estimate " + fmt_float(estimate), "exact_mean " + fmt_float(truth),
             "abs_err " + fmt_float(abs_err)]
    if bound_rhs is not None:
        lines.append("bound_rhs " + fmt_float(bound_rhs))
    return inputs, [params["out"]], lines


_EXECUTORS = {
    "generate": _execute_generate,
    "select": _execute_select,
    "baseline": _execute_baseline,
    "experiment": _execute_experiment,
    "eval": _execute_eval,
}


def _manifest_path(command: str, params: dict) -> str:
    if command == "experiment":
        return os.path.join(params["out_dir"], "manifest.json")
    return params["out"] + ".manifest.json"


def _run_and_record(command: str, params: dict) -> list[str]:
    inputs, outputs, lines = _EXECUTORS[command](params)
    manifest = {
        "command": command,
        "parameters": params,
        "seed": params.get("seed", 0),
        "input_hashes": {path: sha256_file(path) for path in inputs},
        "output_paths": outputs,
    }
    dump_json(manifest, _manifest_path(command, params))
    return lines


def _load_manifest(path: str) -> dict:
    """Read a manifest; raises ValueError unless each field has the type it is written with
    and the parameters hold every key their command records, each of its type."""
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    command = manifest.get("command")
    if not isinstance(command, str):
        raise ValueError("manifest needs a command name")
    if command not in _EXECUTORS:
        raise ValueError(f"manifest names unknown command {command!r}")
    params = manifest.get("parameters")
    if not isinstance(params, dict):
        raise ValueError("manifest parameters must be an object")
    types = _parameter_types(command, params.get("model"))
    missing = [key for key in types if key not in params]
    if missing:
        raise ValueError(f"manifest parameters lack {', '.join(missing)}")
    for key, kind in types.items():
        if not has_type(params[key], kind):
            raise ValueError(f"manifest parameter {key} must be "
                             f"{getattr(kind, '__name__', kind)}, got {params[key]!r}")
    outputs = manifest.get("output_paths")
    if not isinstance(outputs, list) or not all(isinstance(p, str) for p in outputs):
        raise ValueError("manifest output_paths must be a list of paths")
    if not isinstance(manifest.get("input_hashes"), dict):
        raise ValueError("manifest input_hashes must be an object")
    return manifest


def _execute_replay(params: dict):
    manifest = _load_manifest(params["manifest"])
    command = manifest["command"]
    for path, digest in manifest["input_hashes"].items():
        if not os.path.exists(path):
            raise ValueError(f"replay input {path} is missing")
        current = sha256_file(path)
        if current != digest:
            raise ValueError(f"replay input {path} changed since the manifest was written")
    before = {}
    if params.get("verify"):
        for path in manifest["output_paths"]:
            with open(path, "rb") as handle:
                before[path] = handle.read()
    lines = _run_and_record(command, manifest["parameters"])
    if params.get("verify"):
        for path in manifest["output_paths"]:
            with open(path, "rb") as handle:
                after = handle.read()
            if after != before[path]:
                raise ValueError(f"replay produced different bytes for {path}")
        lines = lines + [f"verified {len(before)} outputs byte-identical"]
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcoreset",
        description="Cost-aware greedy coreset selection on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph or point cloud")
    gen.add_argument("--model", required=True, choices=list(_PARAMETERS["generate"]))
    gen.add_argument("--sizes", help="comma-separated block sizes (sbm)")
    gen.add_argument("--p-in", type=float, help="intra-block edge probability (sbm)")
    gen.add_argument("--p-out", type=float, help="inter-block edge probability (sbm)")
    gen.add_argument("--n", type=int, help="vertex or point count")
    gen.add_argument("--exponent", type=float, default=3.0, help="tail exponent (powerlaw-tree)")
    gen.add_argument("--edge-probability", type=float, help="edge probability (random)")
    gen.add_argument("--means", help="semicolon-separated mean vectors (gaussian-mixture)")
    gen.add_argument("--fractions", help="comma-separated component fractions (gaussian-mixture)")
    gen.add_argument("--covariance-scale", type=float, default=1.0)
    gen.add_argument("--cloud", help="point-cloud CSV input (knn-kernel)")
    gen.add_argument("--k-neighbors", type=int, default=10)
    gen.add_argument("--bandwidth", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out", required=True)

    sel = sub.add_parser("select", help="run the greedy coreset selection")
    sel.add_argument("--graph", required=True)
    sel.add_argument("--costs", help="cost vector JSON")
    sel.add_argument("--uniform-costs", type=int, metavar="SEED",
                     help="draw uniform [0,1) costs from this seed")
    sel.add_argument("--kappa", type=float, default=1.0)
    sel.add_argument("--k", type=int, required=True)
    sel.add_argument("--ell", type=int, default=1)
    sel.add_argument("-o", "--out", required=True)

    base = sub.add_parser("baseline", help="run a reference selection scheme")
    base.add_argument("--method", required=True,
                      choices=["random", "kmeans", "spectral", "betweenness"])
    base.add_argument("--graph")
    base.add_argument("--cloud")
    base.add_argument("--n", type=int, help="vertex count for --method random without a graph")
    base.add_argument("--k", type=int, required=True)
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("-o", "--out", required=True)

    exp = sub.add_parser("experiment", help="run a named comparison study")
    exp.add_argument("--name", required=True, choices=experiments.experiment_names())
    exp.add_argument("--config", help="JSON config file")
    exp.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key (JSON value)")
    exp.add_argument("--out-dir", required=True)

    ev = sub.add_parser("eval", help="evaluate a coreset against an exact mean")
    ev.add_argument("--graph", required=True)
    ev.add_argument("--coreset", required=True)
    ev.add_argument("--function", required=True,
                    choices=["indicator", "average-distance", "smooth"])
    ev.add_argument("--label", type=int, default=0, help="target label (indicator)")
    ev.add_argument("--threshold", type=float, default=0.5,
                    help="eigenvalue magnitude cutoff (smooth)")
    ev.add_argument("--ell", type=int, default=1, help="walk power for the bound (smooth)")
    ev.add_argument("--function-seed", type=int, default=0)
    ev.add_argument("-o", "--out", required=True)

    rep = sub.add_parser("replay", help="re-execute a recorded manifest")
    rep.add_argument("manifest")
    rep.add_argument("--verify", action="store_true",
                     help="fail unless the replay matches current outputs byte for byte")
    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    keys = _parameter_types(args.command, getattr(args, "model", None))
    params = {key: getattr(args, key) for key in keys}
    if args.command == "generate":
        # every model flag without a default is required
        missing = ["--" + key.replace("_", "-") for key in keys if params[key] is None]
        if missing:
            raise ValueError(f"model {args.model} requires {', '.join(missing)}")
        for key in keys:
            if key in _GENERATE_PARSERS:
                params[key] = _GENERATE_PARSERS[key](params[key])
    elif args.command == "select":
        if args.costs and args.uniform_costs is not None:
            raise ValueError("--costs and --uniform-costs are mutually exclusive")
    elif args.command == "experiment":
        overrides = {}
        for item in args.overrides:
            if "=" not in item:
                raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
            key, raw = item.split("=", 1)
            try:
                overrides[key] = json.loads(raw)
            except json.JSONDecodeError:
                overrides[key] = raw
        params["overrides"] = overrides
    return params


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    params = _params_from_args(args)
    if args.command == "replay":
        lines = _execute_replay(params)
    else:
        lines = _run_and_record(args.command, params)
    for line in lines:
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
