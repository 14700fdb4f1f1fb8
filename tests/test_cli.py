"""Command-line interface: round trips, validation, manifests, replay."""

import argparse
import ast
import csv
import importlib
import inspect
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphcoreset
from graphcoreset import (
    Coreset,
    CostVector,
    Graph,
    GraphFunction,
    PointCloud,
    SelectionConfig,
    estimate_mean,
    generate_random_graph,
    lazy_walk_matrix,
    normalized_columns,
    select_coreset,
    source_average_distances,
)
from graphcoreset import cli, experiments
from graphcoreset.baselines import BASELINES
from graphcoreset.cli import main
from graphcoreset.experiments import config_from_mapping


def run_cli(*argv) -> int:
    return main(list(argv))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path, obj) -> None:
    Path(path).write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def sbm_file(workdir):
    assert run_cli("generate", "--model", "sbm", "--sizes", "20,20",
                   "--p-in", "0.4", "--p-out", "0.05", "--seed", "3",
                   "-o", "g.json") == 0
    return "g.json"


def test_generate_models(workdir):
    assert run_cli("generate", "--model", "powerlaw-tree", "--n", "30",
                   "--seed", "1", "-o", "tree.json") == 0
    assert Graph.load_json("tree.json").m == 29
    assert run_cli("generate", "--model", "random", "--n", "25",
                   "--edge-probability", "0.2", "--seed", "1", "-o", "rg.json") == 0
    assert Graph.load_json("rg.json").n > 1
    assert run_cli("generate", "--model", "gaussian-mixture",
                   "--means", "0,0;8,8", "--fractions", "0.5,0.5", "--n", "40",
                   "--seed", "2", "-o", "cloud.csv") == 0
    cloud = PointCloud.load_csv("cloud.csv")
    assert cloud.n == 40 and cloud.dim == 2
    assert run_cli("generate", "--model", "knn-kernel", "--cloud", "cloud.csv",
                   "--k-neighbors", "4", "-o", "knn.json") == 0
    assert Graph.load_json("knn.json").n == 40


def test_generate_validation_exit_codes(workdir):
    # missing required model parameters
    assert run_cli("generate", "--model", "sbm", "-o", "g.json") == 2
    assert run_cli("generate", "--model", "random", "--n", "10", "-o", "g.json") == 2
    # bad numeric domain surfaces from the library as exit 2
    assert run_cli("generate", "--model", "sbm", "--sizes", "10,10",
                   "--p-in", "1.7", "--p-out", "0.1", "-o", "g.json") == 2


@pytest.mark.parametrize("argv, named", [
    (["generate", "--model", "powerlaw-tree", "--n", "6", "--exponent", "nan"], "exponent"),
    (["experiment", "--name", "shortest-path", "--set", "tree_exponent=NaN", "--set", "n=20",
      "--set", "seeds=[0]", "--set", "k_grid=[2]"], "exponent"),
    (["generate", "--model", "knn-kernel", "--cloud", "c.csv", "--k-neighbors", "3",
      "--bandwidth", "1e-300"], "bandwidth"),
    (["generate", "--model", "knn-kernel", "--cloud", "c.csv", "--k-neighbors", "3",
      "--bandwidth", "nan"], "bandwidth"),
    (["generate", "--model", "knn-kernel", "--cloud", "c.csv", "--k-neighbors", "3",
      "--bandwidth", "1e-160"], "edge weights"),
    (["generate", "--model", "powerlaw-tree", "--n", "6", "--exponent", "2.0000000000000004"],
     "exponent 2.0000000000000004"),
    (["experiment", "--name", "shortest-path", "--set", "tree_exponent=2.0000000000000004",
      "--set", "n=20", "--set", "seeds=[0]", "--set", "k_grid=[2]"], "exponent 2.0000000000000004"),
    (["generate", "--model", "gaussian-mixture", "--means", "0,0", "--fractions", "1", "--n", "6",
      "--covariance-scale", "nan"], "covariance_scale"),
    (["generate", "--model", "gaussian-mixture", "--means", "0,0", "--fractions", "1", "--n", "6",
      "--covariance-scale", "inf"], "covariance_scale"),
    (["experiment", "--name", "cluster-indicator", "--set", "covariance_scale=NaN", "--set",
      "n=20", "--set", "seeds=[0]", "--set", "k_grid=[2]"], "covariance_scale"),
    (["generate", "--model", "gaussian-mixture", "--means", "1,2;3", "--fractions", "0.5,0.5",
      "--n", "6"], "means must be (c, d)"),
    (["experiment", "--name", "cluster-indicator", "--set", "component_means=[[1,2],[3]]",
      "--set", "component_fractions=[0.5,0.5]", "--set", "n=20", "--set", "seeds=[0]",
      "--set", "k_grid=[2]"], "means must be (c, d)"),
], ids=["nan-exponent", "nan-tree-exponent", "underflowing-bandwidth", "nan-bandwidth",
        "overflowing-distance", "overflowing-exponent", "overflowing-tree-exponent",
        "nan-covariance-scale", "inf-covariance-scale", "nan-study-covariance-scale",
        "ragged-means", "ragged-study-means"])
def test_generator_parameter_out_of_domain_exits_two(workdir, capsys, argv, named):
    """A NaN tree exponent or one so close to 2 that degree ** (1 / (exponent
    - 2)) overflows, a bandwidth whose square is 0 or NaN, distances over a
    bandwidth so small that every weight comes out 0, a NaN or infinite
    covariance scale and mean vectors of different lengths are exit 2 with an
    error naming the cause, and no numpy warning (the suite makes warnings
    errors)."""
    assert run_cli("generate", "--model", "gaussian-mixture", "--means", "0,0;4,4",
                   "--fractions", "0.5,0.5", "--n", "12", "--seed", "1", "-o", "c.csv") == 0
    out = ["--out-dir", "exp"] if argv[0] == "experiment" else ["-o", "g.json"]
    capsys.readouterr()
    code = run_cli(*argv, *out)
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) == (2, "error")
    assert named in err
    assert not os.path.exists("g.json") and not os.path.exists("exp/comparison.csv")


def test_generate_deterministic_bytes(workdir):
    for name in ("a.json", "b.json"):
        run_cli("generate", "--model", "sbm", "--sizes", "15,15", "--p-in", "0.3",
                "--p-out", "0.05", "--seed", "9", "-o", name)
    assert Path("a.json").read_bytes() == Path("b.json").read_bytes()


def test_select_matches_library_and_prints(sbm_file, capsys):
    assert run_cli("select", "--graph", sbm_file, "--k", "5", "--ell", "2",
                   "-o", "cs.json") == 0
    printed = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["final_J", "certificate_r", "total_cost", "status"]  # no eta
    got = Coreset.load_json("cs.json")
    cols = normalized_columns(lazy_walk_matrix(Graph.load_json(sbm_file)), 2)
    want = select_coreset(cols, CostVector.zeros(40),
                          SelectionConfig(budget=5))
    assert got.indices == want.indices
    assert np.array_equal(got.weights, np.asarray(want.weights))


@pytest.mark.parametrize("ell", [1, 3])
def test_select_prints_certificate_r(sbm_file, capsys, ell):
    """select, and so its replay, prints certificate_r = sqrt(J / n): the
    function-free factor r = ||P^ell w - 1/n|| of the paper's location-and-weights
    bound, with no matvec. The written coreset gives the same r through P^ell w,
    compared as n * r^2 to the 1e-13 of test_certificate_identities."""
    assert run_cli("select", "--graph", sbm_file, "--k", "6", "--ell", str(ell),
                   "--uniform-costs", "3", "--kappa", "0.8", "-o", "cs.json") == 0
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    cols = normalized_columns(lazy_walk_matrix(Graph.load_json(sbm_file)), ell)
    coreset = Coreset.load_json("cs.json")
    w = np.zeros(cols.n)
    w[coreset.indices] = coreset.weights
    r = float(np.linalg.norm(cols.apply(w) - 1.0 / cols.n))
    r_printed = float(printed["certificate_r"])
    assert printed["certificate_r"] == "%.17g" % math.sqrt(float(printed["final_J"]) / cols.n)
    assert abs(cols.n * r_printed**2 - cols.n * r**2) <= 1e-13
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 0
    replayed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert replayed["certificate_r"] == printed["certificate_r"]


def test_select_with_cost_file(sbm_file):
    CostVector(np.linspace(0.1, 1.0, 40)).save_json("costs.json")
    assert run_cli("select", "--graph", sbm_file, "--costs", "costs.json",
                   "--kappa", "0.7", "--k", "5", "-o", "cs.json") == 0
    manifest = read_json("cs.json.manifest.json")
    assert set(manifest["input_hashes"]) == {sbm_file, "costs.json"}
    assert manifest["output_paths"] == ["cs.json"]
    assert manifest["command"] == "select"
    # mutually exclusive cost sources
    assert run_cli("select", "--graph", sbm_file, "--costs", "costs.json",
                   "--uniform-costs", "3", "--k", "5", "-o", "cs.json") == 2


def test_select_validation_and_io(sbm_file):
    assert run_cli("select", "--graph", sbm_file, "--k", "0", "-o", "x.json") == 2
    assert run_cli("select", "--graph", sbm_file, "--kappa", "1.5", "--k", "3",
                   "-o", "x.json") == 2
    assert run_cli("select", "--graph", "nope.json", "--k", "3", "-o", "x.json") == 3


EDGE = {"n": 2, "u": [0], "v": [1], "w": [1.0]}


@pytest.mark.parametrize("content, names", [
    ({"u": [0], "v": [1], "w": [1.0]}, "graph has no n"),
    ({"n": 2, "u": [0], "v": [1]}, "graph has no w"),
    ({"n": 2, "edges": [[0, 1, 1.0]]}, "graph has no u, v, w"),
    ({**EDGE, "u": 5}, "graph u must be list"),
    ([1, 2], "graph must be a JSON object"),
    ({**EDGE, "n": 2.7}, "graph n must be int"),
    ({**EDGE, "u": [0.5]}, "graph u must hold integer endpoints"),
    ("", "bad.json: Expecting value"),
    ('{"n": 2, "u": [0], "v": [1], "w": [', "bad.json: Expecting value"),
    ({**EDGE, "n": True}, "graph n must be int"),
    ({"n": 3, "u": [0, 1, 0], "v": [1, 2, 2], "w": [1.0, 1.0]}, "graph u, v and w must have equal"),
    ({**EDGE, "w": [1.0, 2.0]}, "graph u, v and w must have equal"),
    ({**EDGE, "v": [[1]]}, "graph v must hold numbers"),
    ({**EDGE, "w": [{"w": 1}]}, "graph w must hold numbers"),
    ({**EDGE, "u": [None]}, "graph u must hold numbers"),
    ({**EDGE, "v": [10**400]}, "graph v must fit in float64"),
    ({**EDGE, "w": [10**400]}, "graph w must fit in float64"),
    ({**EDGE, "v": [2]}, "graph v holds an endpoint out of range"),
    ({**EDGE, "u": [-1]}, "graph u holds an endpoint out of range"),
    ({"n": 2**40, "u": [0], "v": [3_037_000_499], "w": [1.0]}, "above 3037000498"),
    ({**EDGE, "w": [-1.0]}, "edge weights must be positive and finite"),
    ('{"n": 2, "u": [0], "v": [1], "w": [NaN]}', "edge weights must be positive and finite"),
    ({**EDGE, "u": [1]}, "self loops"),
    ({"n": 2, "u": [0, 1], "v": [1, 0], "w": [1.0, 1.0]}, "duplicate edges"),
    ({**EDGE, "labels": None}, "graph labels must be list"),
    ({**EDGE, "labels": [0, 1.5]}, "graph labels must hold integers"),
    ({**EDGE, "labels": [0, "a"]}, "graph labels must hold integers"),
    ({**EDGE, "labels": [[0], 1]}, "graph labels must hold integers"),
    ({**EDGE, "labels": [0, 2**63]}, "graph labels must fit in int64"),
    ({**EDGE, "labels": [0]}, "labels length must equal n"),
    ({**EDGE, "v": ["1"], "w": ["0.5"]}, "graph v must hold numbers"),
    ({**EDGE, "v": [True]}, "graph v must hold numbers"),
    ({**EDGE, "w": [True]}, "graph w must hold numbers"),
    ({**EDGE, "labels": [0, True]}, "graph labels must hold integers"),
    ({"n": 3, "u": [0, 1], "v": [1, 2], "w": [1e308, 1e308]}, "walk matrix rows"),
    (None, "Is a directory"),
], ids=["no-n", "edge-without-weight", "row-layout", "edges-not-a-list", "not-an-object",
        "fractional-n", "fractional-endpoint", "empty-file", "truncated", "boolean-n",
        "pairs-not-triples", "four-entries", "nested-endpoint", "object-weight", "null-endpoint",
        "huge-endpoint", "huge-weight", "endpoint-past-n", "negative-endpoint",
        "endpoint-past-key-bound", "negative-weight",
        "nan-weight", "self-loop", "duplicate-edge", "null-labels", "fractional-label",
        "string-label", "nested-label", "huge-label", "short-labels", "string-entries",
        "boolean-endpoint", "boolean-weight", "boolean-label", "overflowing-degree", "directory"])
def test_select_rejects_malformed_graph(workdir, capsys, content, names):
    """Graph.from_dict raises ValueError (exit 2) with a message that names the
    field or rule at fault; only I/O failures exit 3."""
    if content is None:
        os.mkdir("bad.json")
    else:
        write_json("bad.json", content)
    capsys.readouterr()
    code = run_cli("select", "--graph", "bad.json", "--k", "1", "-o", "cs.json")
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) == ((3, "io error") if content is None else (2, "error"))
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [
    [1, 2],
    {},
    {"costs": None},
    {"costs": 5},
    {"costs": {"0": 1.0}},
    {"costs": ["1.0"] * 40},
    {"costs": [True] * 40},
    {"costs": [None] * 40},
    {"costs": [[1.0]] * 40},
    {"costs": [10**400] * 40},
    {"costs": [-1.0] * 40},
    {"costs": [1.0] * 39},
    "",
    '{"costs": [1.0, ',
], ids=["not-an-object", "no-costs", "null-costs", "number-costs", "object-costs",
        "string-entry", "boolean-entry", "null-entry", "nested-entry", "huge-entry",
        "negative-entry", "short", "empty-file", "truncated"])
def test_select_rejects_malformed_costs(sbm_file, capsys, content):
    """CostVector.load_json raises ValueError (exit 2), never a traceback."""
    write_json("costs.json", content)
    capsys.readouterr()
    code = run_cli("select", "--graph", sbm_file, "--costs", "costs.json", "--k", "3",
                   "-o", "cs.json")
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) == (2, "error")
    assert "Traceback" not in err


def test_baseline_methods(sbm_file, workdir):
    assert run_cli("baseline", "--method", "random", "--graph", sbm_file, "--k", "4",
                   "--seed", "2", "-o", "r.json") == 0
    assert run_cli("baseline", "--method", "spectral", "--graph", sbm_file,
                   "--k", "2", "-o", "s.json") == 0
    assert run_cli("baseline", "--method", "betweenness", "--graph", sbm_file,
                   "--k", "3", "-o", "bw.json") == 0
    run_cli("generate", "--model", "gaussian-mixture", "--means", "0,0;9,9",
            "--fractions", "0.5,0.5", "--n", "30", "--seed", "4", "-o", "c.csv")
    assert run_cli("baseline", "--method", "kmeans", "--cloud", "c.csv",
                   "--k", "2", "-o", "km.json") == 0
    for path in ("r.json", "s.json", "bw.json", "km.json"):
        data = read_json(path)
        assert abs(sum(data["weights"]) - 1.0) < 1e-9


def test_baseline_table_serves_the_cli_and_every_study(tmp_path):
    """The CLI's baseline variants are the methods of baselines.BASELINES, and
    every baseline method a study runs is one of them, with a seed stride."""
    assert set(cli._VARIANTS["baseline"][2]) == set(BASELINES)
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    studied = set()

    def record(config, methods, instance_for):
        studied.update(method for method, kappa in methods.items() if kappa is None)
        return []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_run", record)
        for name, (config_cls, runner) in experiments.EXPERIMENTS.items():
            runner(config_cls(data_path=str(edges)) if name == "ego-centrality" else config_cls())
    assert studied == set(BASELINES) == set(experiments._SEED_STRIDES)


@pytest.mark.parametrize("n, k_grid, checked", [
    (300, (2, 5, 7), (2, 5, 7)),
    (700, (4, 9), (9,)),
], ids=["every-k", "lanczos-k-max"])
def test_spectral_baseline_writes_the_study_coreset(workdir, n, k_grid, checked):
    """baseline --method spectral --k K --seed seed * 55 + K on the graph file
    of an sbm-indicator seed writes the coreset the study scores at K. Only
    K = k_max is guaranteed, on every graph size: there the study's Lanczos
    solve for k_max eigenvectors is the CLI's for K. At a smaller K the two
    solves can round apart; the 300-vertex case still checks every K of its
    grid, and matches."""
    config = experiments.SbmIndicatorConfig(n=n, k_grid=k_grid, seeds=(0, 1))
    spectral, picked = BASELINES["spectral"], {}

    def record(inputs, K, seed):
        picked[K, seed] = spectral(inputs, K, seed)
        return picked[K, seed]

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(BASELINES, "spectral", record)
        experiments.run_sbm_indicator(config)
    sizes = ",".join(str(size) for size in config.block_sizes())
    for seed in config.seeds:
        assert run_cli("generate", "--model", "sbm", "--sizes", sizes, "--p-in", str(config.p_in),
                       "--p-out", str(config.p_out), "--seed", str(seed), "-o", "g.json") == 0
        for K in checked:
            assert run_cli("baseline", "--method", "spectral", "--graph", "g.json", "--k", str(K),
                           "--seed", str(seed * 55 + K), "-o", "s.json") == 0
            written, study = Coreset.load_json("s.json"), picked[K, seed * 55 + K]
            assert written.indices == study.indices
            assert np.array_equal(written.weights, study.weights)


def test_spectral_baseline_replays_across_blas_threads(workdir):
    """A spectral baseline recorded under one BLAS thread replays byte for byte
    under two: the embedding is a Lanczos solve on every graph size. One child
    at OPENBLAS_NUM_THREADS=1 generates three 300-vertex SBMs and runs the
    baseline at K 12 and 20 on each; a second at 2 threads verifies the six
    manifests."""
    record, replays = [], []
    for seed in range(3):
        record.append(["generate", "--model", "sbm", "--sizes", "100,100,100", "--p-in", "0.3",
                       "--p-out", "0.05", "--seed", str(seed), "-o", f"g{seed}.json"])
        for K in (12, 20):
            record.append(["baseline", "--method", "spectral", "--graph", f"g{seed}.json",
                           "--k", str(K), "--seed", "7", "-o", f"s{seed}_{K}.json"])
            replays.append(["replay", f"s{seed}_{K}.json.manifest.json", "--verify"])
    code = ("import contextlib, io, json, sys\n"
            "from graphcoreset.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(codes))\n")
    src = str(Path(graphcoreset.__file__).resolve().parents[1])
    for threads, phase in (("1", record), ("2", replays)):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", code, json.dumps(phase)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0] * len(phase), done.stderr


@pytest.mark.parametrize("argv, message", [
    (["generate", "--model", "sbm"], "model sbm requires --sizes, --p-in, --p-out"),
    (["generate", "--model", "knn-kernel"], "model knn-kernel requires --cloud"),
    (["baseline", "--method", "random", "--k", "2"], "method random requires --graph"),
    (["baseline", "--method", "kmeans", "--k", "2"], "method kmeans requires --cloud"),
    (["baseline", "--method", "spectral", "--k", "2"], "method spectral requires --graph"),
    (["baseline", "--method", "betweenness", "--k", "2"], "method betweenness requires --graph"),
], ids=["sbm", "knn-kernel", "random", "kmeans", "spectral", "betweenness"])
def test_variant_flags_without_default_are_required(workdir, capsys, argv, message):
    """One rule for every command with variants: a variant's flag that has no
    default must be given, and the error names the variant and the flags."""
    assert run_cli(*argv, "-o", "x.json") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists("x.json")


@pytest.mark.parametrize("argv, flag", [
    (["--model", "sbm", "--sizes", "3,x", "--p-in", "0.5", "--p-out", "0.1"], "--sizes"),
    (["--model", "gaussian-mixture", "--means", "0,0;1,q", "--fractions", "0.5,0.5", "--n", "6"],
     "--means"),
    (["--model", "gaussian-mixture", "--means", "0,0;1,1", "--fractions", "0.5,z", "--n", "6"],
     "--fractions"),
], ids=["sizes", "means", "fractions"])
def test_list_flag_errors_name_the_flag(workdir, capsys, argv, flag):
    """A list flag holding a field that is no number names the flag, as argparse
    does for a scalar flag."""
    assert run_cli("generate", *argv, "-o", "x.json") == 2
    assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")
    assert not os.path.exists("x.json")


def test_parameter_tables_match_the_parser():
    """Every key a command records for any of its variants is a flag of that
    command, every flag is recorded by some variant, and the variant flag's
    choices are the table's variants."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli._PARAMETERS) | set(cli._VARIANTS)
    for command, parser in subparsers.choices.items():
        actions = {action.dest: action for action in parser._actions if action.dest != "help"}
        if command in cli._VARIANTS:
            flag, common, variants = cli._VARIANTS[command]
            assert actions[flag].choices == list(variants)
            recorded = [{**common, **own} for own in variants.values()]
        else:
            recorded = [cli._PARAMETERS[command]]
        for keys in recorded:
            assert set(keys) <= set(actions), command
        assert set().union(*recorded) == set(actions), command


def test_baseline_validation(sbm_file):
    assert run_cli("baseline", "--method", "kmeans", "--k", "2", "-o", "x.json") == 2
    assert run_cli("baseline", "--method", "random", "--k", "2", "-o", "x.json") == 2
    assert run_cli("baseline", "--method", "spectral", "--k", "2", "-o", "x.json") == 2


@pytest.mark.parametrize("text", [
    "",
    "x0,x1,label\n",
    "x0,x1,label\n0,0,0\n1,1\n2,2,1\n",
    "x0,x1,label\n0,0,0\n1,one,1\n2,2,1\n",
    "x0,x1,label\n0,0,0\n1,1,0.0\n2,2,1\n",
    "x0,x1,label\n0,0,0\n1,1,2.5\n2,2,1\n",
    "x0,x1,label\n0,0,0\n1,nan,1\n2,2,1\n",
    "x0,x1,label\n0,0,0\n1,inf,1\n2,2,1\n",
    "label\n0\n1\n0\n",
], ids=["empty", "header-only", "ragged-row", "non-numeric", "float-label",
        "fractional-label", "nan", "inf", "label-only"])
@pytest.mark.parametrize("command", [
    ["generate", "--model", "knn-kernel", "--cloud", "bad.csv", "--k-neighbors", "1",
     "-o", "g.json"],
    ["baseline", "--method", "kmeans", "--cloud", "bad.csv", "--k", "2", "-o", "km.json"],
], ids=["knn-kernel", "kmeans"])
def test_point_cloud_commands_reject_malformed_csv(workdir, capsys, text, command):
    """Every malformed point-cloud file is a ValueError (exit 2), never a traceback."""
    Path("bad.csv").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text, line", [
    ("x0,x1,label\n0,0,0\n1_0,1,1\n2,2,1\n", 3),
    ("x0,x1,label\n0,0,0\n\n1,1\n2,2,1\n", 4),
], ids=["bad-field", "short-row-after-blank-line"])
def test_point_cloud_errors_name_the_file_line(workdir, capsys, text, line):
    """The error names the 1-based line of the file, not numpy's row count."""
    Path("bad.csv").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run_cli("baseline", "--method", "kmeans", "--cloud", "bad.csv", "--k", "2",
                   "-o", "km.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad.csv: line {line}: ") and "row" not in err


@pytest.mark.parametrize("path, data, argv", [
    ("bad.csv", b"x0,x1\n0,0\n\xff,1\n",
     ["baseline", "--method", "kmeans", "--cloud", "bad.csv", "--k", "2", "-o", "km.json"]),
    ("bad.txt", b"0 1\n1 \xff\n",
     ["experiment", "--name", "ego-centrality", "--set", "data_path=bad.txt", "--out-dir", "out"]),
], ids=["point-cloud", "edge-list"])
def test_readers_name_a_file_that_is_not_utf8(workdir, capsys, path, data, argv):
    Path(path).write_bytes(data)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_eval_reports_the_coreset_cost(sbm_file):
    run_cli("select", "--graph", sbm_file, "--uniform-costs", "8", "--kappa", "0.8",
            "--k", "4", "-o", "cs.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "cs.json",
                   "--function", "indicator", "-o", "ev.csv") == 0
    total_cost = Coreset.load_json("cs.json").total_cost
    assert total_cost > 0.0
    row = next(csv.DictReader(Path("ev.csv").read_text(encoding="utf-8").splitlines()))
    assert float(row["cost"]) == total_cost


def test_eval_indicator_row(sbm_file):
    run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "cs.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "cs.json",
                   "--function", "indicator", "--label", "0", "-o", "ev.csv") == 0
    row = next(csv.DictReader(Path("ev.csv").read_text(encoding="utf-8").splitlines()))
    assert row["method"] == "indicator"
    assert int(row["K"]) == len(Coreset.load_json("cs.json").indices)
    assert float(row["err"]) == pytest.approx(float(row["abs_err"]) ** 2, rel=1e-12)


def test_eval_smooth_emits_bound(sbm_file):
    run_cli("select", "--graph", sbm_file, "--k", "6", "--ell", "2", "-o", "cs.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "cs.json",
                   "--function", "smooth", "--threshold", "0.4", "--ell", "2",
                   "--function-seed", "5", "-o", "ev.csv") == 0
    row = next(csv.DictReader(Path("ev.csv").read_text(encoding="utf-8").splitlines()))
    assert row["bound_rhs"] != ""
    assert float(row["abs_err"]) <= float(row["bound_rhs"]) + 1e-9


def test_eval_smooth_bound_is_vacuous_at_large_ell(sbm_file, capsys):
    """A walk power whose threshold**ell underflows prints an infinite bound and
    exits 0, with no traceback."""
    run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "cs.json")
    capsys.readouterr()
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "cs.json",
                   "--function", "smooth", "--ell", "5000", "-o", "ev.csv") == 0
    out, err = capsys.readouterr()
    assert "bound_rhs inf" in out.splitlines() and "Traceback" not in err
    row = next(csv.DictReader(Path("ev.csv").read_text(encoding="utf-8").splitlines()))
    assert float(row["bound_rhs"]) == math.inf


@pytest.mark.parametrize("ell", [1073, 1074])
def test_eval_smooth_exact_coreset_holds_where_the_power_is_denormal(workdir, capsys, ell):
    """An exact coreset of the 2-vertex graph has a zero bound and exits 0
    where 0.5**ell is denormal, not "smoothness bound violated"."""
    write_json("g.json", {"n": 2, "u": [0], "v": [1], "w": [1.0]})
    write_json("cs.json", {"indices": [0, 1], "weights": [0.5, 0.5]})
    assert run_cli("eval", "--graph", "g.json", "--coreset", "cs.json", "--function", "smooth",
                   "--threshold", "0.5", "--ell", str(ell), "-o", "ev.csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "abs_err 0" in lines and "bound_rhs 0" in lines


def test_eval_average_distance(sbm_file):
    run_cli("baseline", "--method", "random", "--graph", sbm_file, "--k", "5",
            "-o", "r.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "r.json",
                   "--function", "average-distance", "-o", "ev.csv") == 0
    row = next(csv.DictReader(Path("ev.csv").read_text(encoding="utf-8").splitlines()))
    assert float(row["abs_err"]) >= 0.0


def test_paths_count_hops_on_kernel_graphs(workdir, capsys):
    """Betweenness and average distance read no edge weights: a kNN kernel graph
    and its copy with unit weights give the same bytes and printed lines."""
    PointCloud(np.random.default_rng(5).standard_normal((60, 2))).save_csv("c.csv")
    assert run_cli("generate", "--model", "knn-kernel", "--cloud", "c.csv",
                   "--k-neighbors", "6", "-o", "kernel.json") == 0
    kernel = Graph.load_json("kernel.json")
    assert len(np.unique(kernel.weights)) > 1
    Graph(kernel.n, kernel.edges, np.ones(kernel.m)).save_json("unit.json")
    printed = {}
    for name in ("kernel", "unit"):
        capsys.readouterr()
        assert run_cli("baseline", "--method", "betweenness", "--graph", f"{name}.json",
                       "--k", "6", "-o", f"{name}-top.json") == 0
        assert run_cli("eval", "--graph", f"{name}.json", "--coreset", f"{name}-top.json",
                       "--function", "average-distance", "-o", f"{name}-distance.csv") == 0
        printed[name] = capsys.readouterr().out
    assert printed["kernel"] == printed["unit"]
    for suffix in ("top.json", "distance.csv"):
        assert Path(f"kernel-{suffix}").read_bytes() == Path(f"unit-{suffix}").read_bytes()


def test_eval_average_distance_prints_the_exact_mean(workdir, capsys):
    """The truth is the mean of the n per-vertex averages; the estimate is the
    K-source estimator's value, both printed at 17 significant digits. On this
    graph a 1/n-weighted dot product of the averages differs from their mean
    in the last bits."""
    PointCloud(np.random.default_rng(0).standard_normal((60, 2))).save_csv("c.csv")
    assert run_cli("generate", "--model", "knn-kernel", "--cloud", "c.csv",
                   "--k-neighbors", "6", "-o", "g.json") == 0
    assert run_cli("baseline", "--method", "random", "--graph", "g.json", "--k", "5",
                   "-o", "r.json") == 0
    capsys.readouterr()
    assert run_cli("eval", "--graph", "g.json", "--coreset", "r.json",
                   "--function", "average-distance", "-o", "ev.csv") == 0
    printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    graph = Graph.load_json("g.json")
    truth = source_average_distances(graph, np.arange(graph.n)).mean()
    assert printed["exact_mean"] == "%.17g" % truth
    # the K-source estimate: a sweep from the selected vertices alone
    coreset = Coreset.load_json("r.json")
    sources = GraphFunction(source_average_distances(graph, coreset.indices))
    on_sources = Coreset(list(range(len(coreset.indices))), coreset.weights)
    assert printed["estimate"] == "%.17g" % estimate_mean(sources, on_sources)


def test_out_of_memory_exits_two(workdir):
    """A graph whose n fits int64 but whose n-long arrays do not fit memory
    exits 2 with an error line. The child caps its address space first:
    uncapped, an 8 TiB request may be granted lazily and end in the OOM killer."""
    write_json("huge.json", {"n": 2**40, "u": [0], "v": [1], "w": [1.0]})
    limit = 4 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {hard}))\n"
            "from graphcoreset.cli import main\n"
            "sys.exit(main(['select', '--graph', 'huge.json', '--k', '2', '-o', 'cs.json']))\n")
    src = str(Path(graphcoreset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: input too large for memory")
    assert "Traceback" not in done.stderr
    assert not os.path.exists("cs.json")


# scipy submodules the package imports only inside the functions that call them
_DEFERRED_MODULES = ("scipy.spatial", "scipy.sparse.linalg", "scipy.linalg")


def test_cold_commands_load_only_what_they_run(workdir):
    """Importing the package loads no scipy module at all, and neither do the
    commands that build no sparse matrix: generating an SBM, a random graph
    (its largest component is found in numpy) or a mixture, a random baseline,
    an indicator eval of it and that eval's replay. Selection, a smooth eval,
    an average-distance eval (breadth-first sweeps over the sparse hop
    adjacency) and a select replay load scipy.sparse but none of the deferred
    submodules. The commands that need those still run from that cold state:
    a kNN build and a spectral baseline (a Lanczos solve on any graph size)
    load their modules at first use. No command loads
    scipy.sparse.csgraph. One child interpreter runs the phases in order and
    reports, after each, the exit codes and which scipy modules are loaded."""
    phases = [
        [],  # the import alone
        [["generate", "--model", "sbm", "--sizes", "30,30", "--p-in", "0.3",
          "--p-out", "0.05", "--seed", "1", "-o", "g.json"],
         ["generate", "--model", "random", "--n", "40", "--edge-probability", "0.1",
          "--seed", "1", "-o", "rg.json"],
         ["generate", "--model", "gaussian-mixture", "--means", "0,0", "--fractions", "1",
          "--n", "60", "--seed", "2", "-o", "c.csv"],
         ["baseline", "--method", "random", "--graph", "g.json", "--k", "5", "-o", "r.json"],
         ["eval", "--graph", "g.json", "--coreset", "r.json", "--function", "indicator",
          "-o", "ind.csv"],
         ["replay", "ind.csv.manifest.json", "--verify"]],
        [["select", "--graph", "g.json", "--k", "5", "--ell", "2", "--uniform-costs", "3",
          "--kappa", "0.8", "-o", "cs.json"],
         ["eval", "--graph", "g.json", "--coreset", "cs.json", "--function", "smooth",
          "-o", "smooth.csv"],
         ["eval", "--graph", "g.json", "--coreset", "cs.json", "--function",
          "average-distance", "-o", "dist.csv"],
         ["replay", "cs.json.manifest.json", "--verify"]],
        [["generate", "--model", "knn-kernel", "--cloud", "c.csv", "--k-neighbors", "6",
          "-o", "knn.json"],
         ["baseline", "--method", "spectral", "--graph", "g.json", "--k", "3",
          "-o", "spectral.json"]],
    ]
    code = ("import contextlib, io, json, sys\n"
            "import graphcoreset, graphcoreset.cli\n"
            "report = []\n"
            "for phase in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes = [graphcoreset.cli.main(argv) for argv in phase]\n"
            "    report.append([codes, sorted(m for m in sys.modules\n"
            "                                 if m == 'scipy' or m.startswith('scipy.'))])\n"
            "print(json.dumps(report))\n")
    src = str(Path(graphcoreset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(phases)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    (_, imported), (free_codes, free), (sparse_codes, sparse), (deferred_codes, deferred) = (
        json.loads(done.stdout))
    assert imported == [] and free == []
    assert "scipy.sparse" in sparse
    assert [m for m in _DEFERRED_MODULES if m in sparse] == []
    assert free_codes == [0] * len(phases[1]) and sparse_codes == [0] * len(phases[2])
    assert deferred_codes == [0] * len(phases[3])
    assert set(deferred) >= {"scipy.spatial", "scipy.sparse.linalg"}
    # the modules of a phase stay loaded in the next, so the last phase holds them all
    assert not [m for m in deferred if m.startswith("scipy.sparse.csgraph")]
    assert Graph.load_json("rg.json").n > 1


@pytest.mark.parametrize("coreset, function", [
    ({"indices": [3, 999], "weights": [0.5, 0.5]}, "indicator"),
    ({"indices": [-1], "weights": [1.0]}, "average-distance"),
    ({"indices": [0, 1]}, "indicator"),
    ({"indices": [0, 1], "weights": [1.0]}, "smooth"),
    ({"indices": 3, "weights": [1.0]}, "indicator"),
    ([0, 1], "indicator"),
    ({"indices": [0], "weights": [1.0], "trajectory": [{}]}, "indicator"),
    ({"indices": [0], "weights": [1.0], "trajectory": 5}, "indicator"),
    ({"indices": [[0]], "weights": [1.0]}, "indicator"),
    ({"indices": [0], "weights": [1.0], "beta": [1]}, "indicator"),
    ({"indices": [0], "weights": [[1.0]]}, "indicator"),
    ({"indices": [0.5], "weights": [1.0]}, "indicator"),
    ({"indices": [True], "weights": [1.0]}, "indicator"),
    ({"indices": [0], "weights": [10**400]}, "indicator"),
    ({"indices": [0, 1], "weights": [float("nan"), 1.0]}, "indicator"),
    ({"indices": [0, 1], "weights": [float("inf"), 1.0]}, "indicator"),
    ({"indices": [0], "weights": [1.0], "beta": float("nan")}, "indicator"),
    ({"indices": [0, 0], "weights": [0.5, 0.5]}, "indicator"),
    ({"indices": [10**29], "weights": [1.0]}, "indicator"),
], ids=["index-past-n", "negative-index", "no-weights", "length-mismatch", "indices-not-a-list",
        "not-an-object", "empty-record", "number-trajectory", "nested-index", "list-beta",
        "nested-weight", "fractional-index", "boolean-index", "huge-weight", "nan-weight",
        "infinite-weight", "nan-beta", "duplicate-index", "huge-index"])
def test_eval_rejects_malformed_coreset(sbm_file, capsys, coreset, function):
    write_json("bad.json", coreset)
    capsys.readouterr()
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "bad.json",
                   "--function", function, "-o", "ev.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_eval_indicator_needs_labels(workdir, capsys):
    """An indicator needs a labeled graph and a label some vertex carries."""
    run_cli("generate", "--model", "random", "--n", "20",
            "--edge-probability", "0.3", "--seed", "0", "-o", "rg.json")
    run_cli("generate", "--model", "sbm", "--sizes", "10,10", "--p-in", "0.5",
            "--p-out", "0.1", "--seed", "0", "-o", "sbm.json")
    for graph, label, named in [("rg.json", "0", "labeled graph"),
                                ("sbm.json", "99", "--label 99"),
                                ("sbm.json", "-1", "--label -1")]:
        run_cli("select", "--graph", graph, "--k", "3", "-o", "cs.json")
        capsys.readouterr()
        assert run_cli("eval", "--graph", graph, "--coreset", "cs.json", "--function",
                       "indicator", "--label", label, "-o", "ev.csv") == 2
        assert named in capsys.readouterr().err
        assert not os.path.exists("ev.csv")


def test_replay_reproduces_bytes(sbm_file):
    run_cli("select", "--graph", sbm_file, "--uniform-costs", "8",
            "--kappa", "0.8", "--k", "5", "-o", "cs.json")
    before = Path("cs.json").read_bytes()
    os.remove("cs.json")
    assert run_cli("replay", "cs.json.manifest.json") == 0
    assert Path("cs.json").read_bytes() == before
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 0


def test_failed_verify_changes_no_output(sbm_file):
    """A verify that finds different bytes exits 2 and leaves the outputs it
    checked as it found them, so a second verify fails the same way."""
    run_cli("select", "--graph", sbm_file, "--uniform-costs", "8",
            "--kappa", "0.8", "--k", "6", "-o", "cs.json")
    coreset = read_json("cs.json")
    coreset["weights"][0] += 0.25
    write_json("cs.json", coreset)
    tampered = Path("cs.json").read_bytes()
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 2
    assert Path("cs.json").read_bytes() == tampered
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 2
    assert Path("cs.json").read_bytes() == tampered


def test_replay_accepts_unread_parameter_keys(sbm_file):
    """Keys no longer recorded, such as select's old tol and the old top-level
    seed, still replay."""
    run_cli("select", "--graph", sbm_file, "--k", "5", "-o", "cs.json")
    manifest = read_json("cs.json.manifest.json")
    assert "tol" not in manifest["parameters"] and "seed" not in manifest
    manifest["parameters"]["tol"] = 1e-12
    manifest["seed"] = 0
    write_json("cs.json.manifest.json", manifest)
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 0


def test_replay_rejects_changed_inputs(sbm_file):
    run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "cs.json")
    graph = read_json(sbm_file)
    for key in "uvw":
        graph[key] = graph[key][:-1]
    write_json(sbm_file, graph)
    assert run_cli("replay", "cs.json.manifest.json") == 2


def test_replay_resolves_paths_against_the_manifest(sbm_file, monkeypatch):
    """Relative paths are recorded relative to the manifest's directory, so a
    manifest replays from any working directory, its outputs in a subdirectory
    or not."""
    os.mkdir("res")
    assert run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "cs.json") == 0
    assert run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "res/cs.json") == 0
    nested = read_json("res/cs.json.manifest.json")
    assert (nested["parameters"]["graph"], nested["parameters"]["out"]) == ("../g.json", "cs.json")
    assert set(nested["input_hashes"]) == {"../g.json"} and nested["output_paths"] == ["cs.json"]
    recorded = {path: Path(path).read_bytes()
                for path in ("cs.json.manifest.json", "res/cs.json.manifest.json")}
    assert run_cli("replay", "res/cs.json.manifest.json", "--verify") == 0
    os.mkdir("sub")
    monkeypatch.chdir("sub")
    assert run_cli("replay", "../cs.json.manifest.json", "--verify") == 0
    assert run_cli("replay", "../res/cs.json.manifest.json", "--verify") == 0
    assert not os.listdir(".")  # nothing lands in the working directory
    for path, data in recorded.items():
        assert Path("..", path).read_bytes() == data


def test_replay_keeps_absolute_paths(sbm_file, workdir, monkeypatch):
    """A manifest written with absolute paths records and replays them as they are."""
    graph, out = str(workdir / sbm_file), str(workdir / "cs.json")
    assert run_cli("select", "--graph", graph, "--k", "4", "-o", out) == 0
    manifest = read_json(out + ".manifest.json")
    assert (manifest["parameters"]["graph"], manifest["parameters"]["out"]) == (graph, out)
    assert set(manifest["input_hashes"]) == {graph} and manifest["output_paths"] == [out]
    recorded = Path(out + ".manifest.json").read_bytes()
    os.mkdir("sub")
    monkeypatch.chdir("sub")
    assert run_cli("replay", out + ".manifest.json", "--verify") == 0
    assert Path(out + ".manifest.json").read_bytes() == recorded


def test_replay_reads_the_data_path_it_hashed(workdir, monkeypatch):
    """A relative --set data_path is recorded relative to the manifest, so a
    replay from another directory reads the edge list it verified, not a
    same-named file in the working directory."""
    graph = generate_random_graph(150, 0.04, seed=3)
    Path("edges.txt").write_text("".join("%d %d\n" % (u, v) for u, v in graph.edges),
                                 encoding="utf-8")
    assert run_cli("experiment", "--name", "ego-centrality", "--set", "data_path=edges.txt",
                   "--set", "k_grid=[4]", "--set", "seeds=[0]", "--out-dir", "out") == 0
    recorded = read_json("out/manifest.json")
    assert recorded["parameters"]["overrides"]["data_path"] == "../edges.txt"
    assert set(recorded["input_hashes"]) == {"../edges.txt"}
    os.mkdir("sub")
    monkeypatch.chdir("sub")
    assert run_cli("replay", "../out/manifest.json", "--verify") == 0
    Path("edges.txt").write_text("0 1\n1 2\n", encoding="utf-8")
    assert run_cli("replay", "../out/manifest.json", "--verify") == 0
    assert read_json("../out/manifest.json") == recorded


def test_replay_missing_manifest(workdir):
    assert run_cli("replay", "ghost.manifest.json") == 3


@pytest.mark.parametrize("change", [
    lambda m: [m],
    lambda m: {"command": "select"},
    lambda m: {k: v for k, v in m.items() if k != "command"},
    lambda m: dict(m, command=["select"]),
    lambda m: dict(m, command="nonsense"),
    lambda m: {k: v for k, v in m.items() if k != "parameters"},
    lambda m: dict(m, parameters=["--k", "3"]),
    lambda m: {k: v for k, v in m.items() if k != "output_paths"},
    lambda m: dict(m, output_paths="cs.json"),
    lambda m: dict(m, output_paths=[1]),
    lambda m: {k: v for k, v in m.items() if k != "input_hashes"},
    lambda m: dict(m, input_hashes=["g.json"]),
    lambda m: dict(m, parameters={}),
    lambda m: dict(m, command="generate", parameters={
        "model": "sbm", "seed": 3, "out": "g2.json", "p_in": 0.4, "p_out": 0.05}),
    lambda m: dict(m, command="generate", parameters={"model": "lattice", "seed": 3, "out": "g2.json"}),
    lambda m: dict(m, command="generate", parameters={"model": ["sbm"], "seed": 3, "out": "g2.json"}),
    lambda m: dict(m, command="experiment", parameters={
        "name": "sbm-indicator", "config": None, "overrides": {}}),
    lambda m: dict(m, parameters=dict(m["parameters"], k=[3])),
    lambda m: dict(m, parameters=dict(m["parameters"], k="3")),
    lambda m: dict(m, parameters=dict(m["parameters"], graph=999999)),  # read as a file descriptor
    lambda m: dict(m, command="generate", parameters={
        "model": "sbm", "seed": 3, "out": "g2.json", "sizes": "99", "p_in": 0.4,
        "p_out": 0.05}),
    lambda m: dict(m, command="experiment", parameters={
        "name": "sbm-indicator", "config": None, "out_dir": "exp",
        "overrides": [["n", 60], ["seeds", [0]], ["k_grid", [2]]]}),
    lambda m: dict(m, command="generate", parameters={
        "model": "sbm", "seed": 3, "out": "g2.json", "sizes": [[20], [20]], "p_in": 0.4,
        "p_out": 0.05}),
    lambda m: dict(m, command="generate", parameters={
        "model": "sbm", "seed": 3, "out": "g2.json", "sizes": [20.7, 20], "p_in": 0.4,
        "p_out": 0.05}),
    lambda m: dict(m, command="generate", parameters={
        "model": "sbm", "seed": 3, "out": "g2.json", "sizes": [True, 20], "p_in": 0.4,
        "p_out": 0.05}),
    lambda m: dict(m, command="generate", parameters={
        "model": "gaussian-mixture", "seed": 3, "out": "c.csv", "means": [[0.0], [5.0]],
        "fractions": ["0.5", "0.5"], "covariance_scale": 1.0, "n": 10}),
], ids=["not-an-object", "command-only", "no-command", "list-command", "unknown-command",
        "no-parameters", "list-parameters", "no-output-paths", "string-output-paths",
        "number-output-path", "no-input-hashes", "list-input-hashes", "select-empty-parameters",
        "generate-sbm-no-sizes", "generate-unknown-model", "generate-list-model",
        "experiment-no-out-dir", "list-k", "string-k", "number-graph", "generate-string-sizes",
        "experiment-list-overrides", "generate-nested-sizes", "generate-fractional-size",
        "generate-boolean-size", "generate-string-fraction"])
def test_replay_rejects_malformed_manifest(sbm_file, capsys, change):
    """A manifest field of the wrong type, or parameters missing a key the command
    records or holding a value of another type, is a ValueError (exit 2), never a
    traceback."""
    run_cli("select", "--graph", sbm_file, "--k", "3", "-o", "cs.json")
    write_json("bad.manifest.json", change(read_json("cs.json.manifest.json")))
    capsys.readouterr()
    code = run_cli("replay", "bad.manifest.json", "--verify")
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) == (2, "error")
    assert "Traceback" not in err


def test_experiment_command_and_replay(workdir):
    args = ("experiment", "--name", "sbm-indicator", "--set", "n=60",
            "--set", "k_grid=[4]", "--set", "seeds=[0,1]", "--set", "ell=3",
            "--out-dir", "exp")
    assert run_cli(*args) == 0
    assert os.path.exists("exp/comparison.csv")
    assert os.path.exists("exp/manifest.json")
    assert run_cli("replay", "exp/manifest.json", "--verify") == 0


def test_experiment_config_file(workdir):
    write_json("cfg.json", {"n": 60, "k_grid": [4], "seeds": [0], "ell": 2})
    assert run_cli("experiment", "--name", "sbm-indicator", "--config", "cfg.json",
                   "--set", "seeds=[0,1]", "--out-dir", "exp") == 0
    manifest = read_json("exp/manifest.json")
    assert manifest["parameters"]["overrides"]["seeds"] == [0, 1]  # --set wins
    assert "../cfg.json" in manifest["input_hashes"]  # relative to the manifest's directory
    assert run_cli("experiment", "--name", "sbm-indicator", "--set", "bogus=1",
                   "--out-dir", "exp2") == 2


@pytest.mark.parametrize("name, overrides, named", [
    ("sbm-indicator", ["k_grid=5"], "k_grid"),
    ("sbm-indicator", ["seeds=3"], "seeds"),
    ("sbm-indicator", ["seeds=[0.5]"], "seeds"),
    ("sbm-indicator", ["ell=true"], "ell"),
    ("sbm-indicator", ["n=60.0"], "n"),
    ("sbm-indicator", ["p_in=high"], "p_in"),
    ("cluster-indicator", ["component_means=[1,2]"], "component_means"),
    ("shortest-path", ["family=3"], "family"),
    ("ell-sweep", ["base=1"], "base"),
    ("ell-sweep", ["ells=2"], "ells"),
    ("ell-sweep", ["ell=7"], "ells"),
    ("sbm-indicator", ["k_grid=[4,4]"], "k_grid"),
    ("ell-sweep", ["ells=[2,2]"], "ells"),
    ("sbm-indicator", ["seeds=[0,0]", "k_grid=[4]"], "seeds"),
    ("cluster-indicator", ["indicator_component=7"], "indicator_component"),
    ("cluster-indicator", ["indicator_component=-1"], "indicator_component"),
    ("sbm-indicator", ["indicator_block=9"], "indicator_block"),
    ("sbm-indicator", ["block_fractions=[0.1,0.1,0.1]"], "block_fractions"),
    ("sbm-indicator", ["block_fractions=[0.5,0.6]"], "block_fractions"),
    ("sbm-indicator", ["block_fractions=[1.5,-0.5]"], "block_fractions"),
    ("sbm-indicator", ["block_fractions=[0.001,0.999]"], "block_fractions"),
    ("sbm-indicator", ["k_grid=[0]"], "k_grid"),
    ("ell-sweep", ["ells=[0]"], "ells"),
    ("sbm-indicator", ["n=30", "k_grid=[40]"], "k_grid"),
    ("shortest-path", ["family=random-graph", "n=40", "k_grid=[30]"], "k_grid"),
], ids=["int-grid", "int-seeds", "float-seed", "bool-ell", "float-n", "text-p-in",
        "flat-means", "number-family", "sweep-base", "int-ells", "sweep-ell", "repeated-k",
        "repeated-ell", "repeated-seed", "absent-component", "negative-component",
        "absent-block", "fractions-under-1", "fractions-over-1", "negative-fraction",
        "empty-block", "zero-k", "zero-ell", "k-above-n", "k-above-component"])
def test_experiment_rejects_wrong_typed_override(workdir, capsys, name, overrides, named):
    """An override not shaped like its field's default, a k_grid, ells or seeds
    that repeats an entry (its rows would be written twice, or a seed weigh
    twice in the median), one the runner would replace, an indicator label no
    vertex carries (every estimate of its mean would be 0), block fractions
    that are not positive, do not sum to 1 or round to an empty block at n,
    a k_grid or ells entry below 1 and a K above the vertex count of a
    seed's graph (a random graph keeps only its largest component) are exit
    2 with an error naming the key to set, never a traceback."""
    argv = ["experiment", "--name", name, "--out-dir", "exp"]
    for item in ["n=60", "seeds=[0]", "k_grid=[2]"] + overrides:  # a later --set wins
        argv += ["--set", item]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) == (2, "error")
    assert named in err
    assert "Traceback" not in err
    assert not os.path.exists("exp")


def test_experiment_accepts_override_shapes():
    """Ints stand in for floats, lists for tuples at any depth; the config freezes them."""
    cfg = config_from_mapping("cluster-indicator", {
        "bandwidth": 2, "component_means": [[0, 1.5], [2, 2]], "component_fractions": [0.5, 0.5],
        "k_grid": (2, 4), "seeds": [1]})
    assert cfg.bandwidth == 2 and cfg.component_means == ((0, 1.5), (2, 2))
    assert cfg.k_grid == (2, 4) and cfg.seeds == (1,)


def test_cli_usage_error_exits_two(workdir):
    with pytest.raises(SystemExit) as info:
        main(["select", "--k", "3"])  # argparse: missing --graph/-o
    assert info.value.code == 2


def test_parser_is_built_once_and_build_parser_is_fresh():
    assert cli._parser() is cli._parser()
    fresh = cli.build_parser()
    assert fresh is not cli.build_parser() and fresh is not cli._parser()
    for argv in (["select", "--graph", "g.json", "--k", "3", "-o", "c.json"],
                 ["experiment", "--name", "sbm-indicator", "--set", "n=60", "--out-dir", "a"],
                 ["experiment", "--name", "sbm-indicator", "--out-dir", "b"],
                 ["replay", "m.json"]):
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_experiment_overrides_do_not_carry_into_the_next_call(workdir):
    """The shared parser's --set list starts empty on every call."""
    assert run_cli("experiment", "--name", "sbm-indicator", "--set", "n=60", "--set",
                   "k_grid=[4]", "--set", "seeds=[0]", "--set", "ell=2", "--out-dir", "a") == 0
    write_json("cfg.json", {"n": 60, "k_grid": [4], "seeds": [0], "ell": 2})
    assert run_cli("experiment", "--name", "sbm-indicator", "--config", "cfg.json",
                   "--out-dir", "b") == 0
    assert run_cli("experiment", "--name", "sbm-indicator", "--config", "cfg.json",
                   "--set", "seeds=[1]", "--out-dir", "c") == 0
    assert read_json("a/manifest.json")["parameters"]["overrides"] == {
        "n": 60, "k_grid": [4], "seeds": [0], "ell": 2}
    assert read_json("b/manifest.json")["parameters"]["overrides"] == {}
    assert read_json("c/manifest.json")["parameters"]["overrides"] == {"seeds": [1]}
    # the same study, set by flags or by the file, writes the same table
    assert Path("a/comparison.csv").read_bytes() == Path("b/comparison.csv").read_bytes()


def test_valid_call_after_a_usage_error_succeeds(sbm_file, capsys):
    assert run_cli("select", "--graph", "g.json", "--k", "3", "-o", "want.json") == 0
    want = capsys.readouterr().out
    for bad in (["select", "--k", "3"], ["generate", "--model", "bogus", "-o", "x.json"],
                ["select", "--graph", "g.json", "--k", "three", "-o", "x.json"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
    capsys.readouterr()
    assert run_cli("select", "--graph", "g.json", "--k", "3", "-o", "got.json") == 0
    assert capsys.readouterr().out == want
    assert Path("got.json").read_bytes() == Path("want.json").read_bytes()
    assert not os.path.exists("x.json")


def test_package_exports_every_public_name():
    """__all__ names exactly the public functions and classes of the library
    modules, so a deleted or added one cannot leave the export list stale, and
    each has a caller: code in a library module, a demo or the acceptance gate
    names it. The files are parsed, so docstrings and imports do not count."""
    defined = set()
    for name in ("baselines", "evaluate", "graphs", "selection", "spectral"):
        module = importlib.import_module(f"graphcoreset.{name}")
        defined.update(attr for attr, obj in vars(module).items()
                       if not attr.startswith("_")
                       and (inspect.isfunction(obj) or inspect.isclass(obj))
                       and obj.__module__ == module.__name__)
    assert set(graphcoreset.__all__) - {"__version__"} == defined
    assert all(hasattr(graphcoreset, name) for name in graphcoreset.__all__)
    root = Path(__file__).resolve().parents[1]
    sources = [path for path in Path(graphcoreset.__file__).parent.glob("*.py")
               if path.name != "__init__.py"]
    sources += [*root.glob("demos/*.py"), root / "tests" / "test_acceptance.py"]
    called = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
    assert sorted(defined - called) == []
