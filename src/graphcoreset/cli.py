"""Command-line surface: reproducible generation, selection, and experiments.

Every command resolves its flags into a flat parameter mapping, executes, and
writes a manifest recording the command, parameters, input-file hashes, and
output paths; a command's seed is one of its parameters. `replay` re-executes
a manifest; because all randomness is seeded and all writes are atomic and
wall-clock free, a replay reproduces the recorded outputs byte for byte. A
manifest records each relative file path relative to its own directory, and
replay resolves it against that directory, so a manifest replays from any
working directory; absolute paths are recorded and read as they are.

`run` parses with one parser per process, built by `build_parser` on the first
call, so repeated in-process calls skip its construction; a single command in
a fresh process builds it once, as before. `build_parser` itself returns a
new parser on every call.

Exit codes: 0 success, 2 validation error (an input too large for memory
among them), 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import experiments
from ._util import check_fields, dump_json, fmt_float, has_type, read_json, sha256_file
from .baselines import BASELINES, BaselineInputs
from .evaluate import (
    ExperimentResult,
    bound_check,
    error_metric,
    estimate_mean,
    results_to_csv,
    source_average_distances,
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
# required)

_PARAMETERS = {
    "select": {"graph": str, "costs": str | None, "uniform_costs": int | None, "kappa": float,
               "k": int, "ell": int, "out": str},
    "experiment": {"name": str, "config": str | None, "overrides": dict, "out_dir": str},
    "replay": {"manifest": str, "verify": bool},
}
# the same for each command with variants: the parameter naming the variant,
# the parameters every variant records, and each variant's own, recorded after
# those. A variant records no other flag, and each of its flags without a
# default is required (model sbm requires --sizes, method spectral --graph)
_VARIANTS = {
    "generate": ("model", {"model": str, "seed": int, "out": str}, {
        "sbm": {"sizes": list[int], "p_in": float, "p_out": float},
        "powerlaw-tree": {"n": int, "exponent": float},
        "random": {"n": int, "edge_probability": float},
        "gaussian-mixture": {"means": list[list[float]], "fractions": list[float],
                             "covariance_scale": float, "n": int},
        "knn-kernel": {"cloud": str, "k_neighbors": int, "bandwidth": float},
    }),
    "baseline": ("method", {"method": str, "k": int, "seed": int, "out": str}, {
        "random": {"graph": str}, "kmeans": {"cloud": str}, "spectral": {"graph": str},
        "betweenness": {"graph": str}}),
    "eval": ("function", {"graph": str, "coreset": str, "function": str, "out": str}, {
        "indicator": {"label": int}, "average-distance": {},
        "smooth": {"threshold": float, "ell": int, "function_seed": int}}),
}
# the parameters that name files, and the experiment override that does
_PATH_PARAMETERS = frozenset({"graph", "costs", "cloud", "coreset", "config", "out", "out_dir",
                              "data_path"})
# the type of each manifest field; replay reads no other
_MANIFEST_FIELDS = {"command": str, "parameters": dict, "input_hashes": dict,
                    "output_paths": list[str]}
# generate flags given as text and parsed into lists
_GENERATE_PARSERS = {"sizes": _parse_ints, "means": _parse_means, "fractions": _parse_floats}


def _parameter_types(command: str, values: dict) -> dict:
    """Parameter types of a command, for the variant values names if it has variants;
    ValueError for a variant it does not have."""
    if command not in _VARIANTS:
        return _PARAMETERS[command]
    flag, common, variants = _VARIANTS[command]
    variant = values.get(flag)
    if not isinstance(variant, str) or variant not in variants:
        raise ValueError(f"unknown {flag} {variant!r}")
    return {**common, **variants[variant]}


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
        "certificate_r " + fmt_float(math.sqrt(final_j / graph.n)),
        "total_cost " + fmt_float(coreset.total_cost),
        "status " + coreset.status,
    ]
    return inputs, [params["out"]], lines


def _execute_baseline(params: dict):
    """The method's entry of BASELINES, with k_max = --k."""
    k, kmeans = params["k"], params["method"] == "kmeans"
    path = params["cloud" if kmeans else "graph"]
    inputs = (BaselineInputs(None, k, cloud=PointCloud.load_csv(path)) if kmeans
              else BaselineInputs(Graph.load_json(path), k))
    coreset = BASELINES[params["method"]](inputs, k, params["seed"])
    coreset.save_json(params["out"])
    return [path], [params["out"]], []


def _execute_experiment(params: dict):
    name = params["name"]
    overrides = params["overrides"]
    inputs = []
    if params.get("config"):
        inputs.append(params["config"])
        merged = dict(check_fields(read_json(params["config"]), {}, "experiment config"))
        merged.update(overrides)
        overrides = merged
    config = experiments.config_from_mapping(name, overrides)
    if name == "ego-centrality":
        inputs.append(config.data_path)
    runner = experiments.EXPERIMENTS[name][1]
    rows = runner(config)
    written = experiments.write_experiment_outputs(params["out_dir"], rows)
    lines = [f"wrote {len(written)} files to {params['out_dir']}"]
    report = experiments.cost_report(rows)
    if report is not None:
        lines.append("C_CSO " + fmt_float(report[0]) + " C_COS " + fmt_float(report[1]))
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
        f = experiments._indicator(graph.labels, params["label"], "--label")
    elif kind == "average-distance":
        f = GraphFunction(source_average_distances(graph, np.arange(graph.n)))
    else:  # smooth
        walk = lazy_walk_matrix(graph)
        f = synthesize_smooth_function(walk, params["threshold"], seed=params["function_seed"])
    estimate, truth = estimate_mean(f, coreset), f.mean()
    err, abs_err = error_metric(f, coreset)
    if not math.isfinite(err):  # finite weights whose sum, or its error, overflows
        raise ValueError(f"coreset estimate {fmt_float(estimate)} of the mean "
                         f"{fmt_float(truth)}: its squared error is past float range")
    if kind == "smooth":
        columns = normalized_columns(walk, params["ell"])
        _, bound_rhs, holds = bound_check(f, params["threshold"], coreset, columns)
        if not holds:
            raise FloatingPointError("smoothness bound violated; selection output is corrupt")
    row = ExperimentResult(method=kind, K=len(coreset.indices), err=err, abs_err=abs_err,
                           coreset_cost=coreset.total_cost, bound_rhs=bound_rhs)
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


def _rebase_paths(params: dict, inputs: dict, outputs: list, rebase) -> tuple:
    """params, inputs and outputs with rebase applied to every relative file path,
    an experiment's overrides included."""
    def move(path):
        return rebase(path) if path and not os.path.isabs(path) else path

    def moved(mapping):
        return {key: move(value) if key in _PATH_PARAMETERS and isinstance(value, str)
                else moved(value) if key == "overrides" else value
                for key, value in mapping.items()}
    inputs = {move(path): value for path, value in inputs.items()}
    return moved(params), inputs, [move(path) for path in outputs]


def _run_and_record(command: str, params: dict) -> list[str]:
    inputs, outputs, lines = _EXECUTORS[command](params)
    manifest_path = _manifest_path(command, params)
    home = os.path.dirname(manifest_path) or os.curdir
    params, hashes, outputs = _rebase_paths(
        params, {path: sha256_file(path) for path in inputs}, outputs,
        lambda relative: os.path.relpath(relative, home))
    manifest = {
        "command": command,
        "parameters": params,
        "input_hashes": hashes,
        "output_paths": outputs,
    }
    dump_json(manifest, manifest_path)
    return lines


def _load_manifest(path: str) -> dict:
    """Read a manifest; raises ValueError unless each field has the type it is written with
    and the parameters hold every key their command records, each of its type."""
    manifest = check_fields(read_json(path), _MANIFEST_FIELDS, "manifest")
    command, params = manifest["command"], manifest["parameters"]
    if command not in _EXECUTORS:
        raise ValueError(f"manifest names unknown command {command!r}")
    types = _parameter_types(command, params)
    check_fields(params, types, "manifest parameter")
    # a replay records what the command records now, not keys an older version wrote
    manifest["parameters"] = {key: params[key] for key in types}
    return manifest


def _execute_replay(params: dict):
    manifest = _load_manifest(params["manifest"])
    command = manifest["command"]
    home = os.path.dirname(params["manifest"])
    parameters, hashes, outputs = _rebase_paths(
        manifest["parameters"], manifest["input_hashes"], manifest["output_paths"],
        lambda relative: os.path.normpath(os.path.join(home, relative)))
    for path, digest in hashes.items():
        if not os.path.exists(path):
            raise ValueError(f"replay input {path} is missing")
        current = sha256_file(path)
        if current != digest:
            raise ValueError(f"replay input {path} changed since the manifest was written")
    before = {}
    if params.get("verify"):
        for path in outputs:
            with open(path, "rb") as handle:
                before[path] = handle.read()
    lines = _run_and_record(command, parameters)
    if params.get("verify"):
        changed = []
        for path, recorded in before.items():
            with open(path, "rb") as handle:
                if handle.read() != recorded:
                    changed.append(path)
        if changed:
            # a failed verify leaves the outputs it checked as it found them
            for path in changed:
                with open(path, "wb") as handle:
                    handle.write(before[path])
            raise ValueError(f"replay produced different bytes for {changed[0]}")
        lines = lines + [f"verified {len(before)} outputs byte-identical"]
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcoreset",
        description="Cost-aware greedy coreset selection on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph or point cloud")
    gen.add_argument("--model", required=True, choices=list(_VARIANTS["generate"][2]))
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
    base.add_argument("--method", required=True, choices=list(_VARIANTS["baseline"][2]))
    base.add_argument("--graph", help="graph JSON input (random, spectral, betweenness)")
    base.add_argument("--cloud", help="point-cloud CSV input (kmeans)")
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
    ev.add_argument("--function", required=True, choices=list(_VARIANTS["eval"][2]))
    ev.add_argument("--label", type=int, default=0, help="target label (indicator)")
    ev.add_argument("--threshold", type=float, default=0.5,
                    help="eigenvalue magnitude cutoff (smooth)")
    ev.add_argument("--ell", type=int, default=1, help="walk power for the bound (smooth)")
    ev.add_argument("--function-seed", type=int, default=0, help="synthesis seed (smooth)")
    ev.add_argument("-o", "--out", required=True)

    rep = sub.add_parser("replay", help="re-execute a recorded manifest")
    rep.add_argument("manifest")
    rep.add_argument("--verify", action="store_true",
                     help="fail unless the replay matches current outputs byte for byte")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser run uses, built by build_parser on the first call.
    Parsing does not change a parser, so every call can share it."""
    return build_parser()


def _params_from_args(args: argparse.Namespace) -> dict:
    types = _parameter_types(args.command, vars(args))
    params = {key: getattr(args, key) for key in types}
    # a flag left unset whose parameter takes no None is a variant flag without a default
    missing = ["--" + key.replace("_", "-") for key, kind in types.items()
               if params[key] is None and not has_type(None, kind)]
    if missing:
        flag = _VARIANTS[args.command][0]
        raise ValueError(f"{flag} {params[flag]} requires {', '.join(missing)}")
    for key in types:
        if key in _GENERATE_PARSERS:
            try:
                params[key] = _GENERATE_PARSERS[key](params[key])
            except ValueError as exc:  # name the flag, as argparse does for scalar flags
                raise ValueError(f"argument --{key}: {exc}") from None
    if args.command == "select":
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
    args = _parser().parse_args(argv)
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
    except MemoryError as exc:
        print(f"error: input too large for memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
