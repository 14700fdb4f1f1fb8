"""Command-line interface: round trips, validation, manifests, replay."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from graphcoreset import (
    Coreset,
    CostVector,
    Graph,
    PointCloud,
    SelectionConfig,
    lazy_walk_matrix,
    normalized_columns,
    results_from_csv,
    select_coreset,
)
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


def test_generate_deterministic_bytes(workdir):
    for name in ("a.json", "b.json"):
        run_cli("generate", "--model", "sbm", "--sizes", "15,15", "--p-in", "0.3",
                "--p-out", "0.05", "--seed", "9", "-o", name)
    assert Path("a.json").read_bytes() == Path("b.json").read_bytes()


def test_select_matches_library_and_prints(sbm_file, capsys):
    assert run_cli("select", "--graph", sbm_file, "--k", "5", "--ell", "2",
                   "-o", "cs.json") == 0
    printed = capsys.readouterr().out
    assert "final_J " in printed and "eta " in printed and "status " in printed
    got = Coreset.load_json("cs.json")
    cols = normalized_columns(lazy_walk_matrix(Graph.load_json(sbm_file)), 2)
    want = select_coreset(cols, CostVector.zeros(40),
                          SelectionConfig(budget=5))
    assert got.indices == want.indices
    assert np.array_equal(got.weights, np.asarray(want.weights))


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


@pytest.mark.parametrize("content", [
    {"edges": [[0, 1, 1.0]]},
    {"n": 2, "edges": [[0, 1]]},
    {"n": 2, "edges": 5},
    [1, 2],
    {"n": 2.7, "edges": [[0, 1, 1.0]]},
    {"n": 2, "edges": [[0.5, 1, 1.0]]},
    "",
    '{"n": 2, "edges": [[0, 1, ',
    {"n": True, "edges": [[0, 1, 1.0]]},
    {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
    {"n": 2, "edges": [[0, 1, 1.0, 2.0]]},
    {"n": 2, "edges": [[0, [1], 1.0]]},
    {"n": 2, "edges": [[0, 1, {"w": 1}]]},
    {"n": 2, "edges": [[None, 1, 1.0]]},
    {"n": 2, "edges": [[0, 10**400, 1.0]]},
    {"n": 2, "edges": [[0, 2, 1.0]]},
    {"n": 2, "edges": [[0, 1, -1.0]]},
    {"n": 2, "edges": [[0, 1, 1.0]], "labels": None},
    {"n": 2, "edges": [[0, 1, 1.0]], "labels": [0, 1.5]},
    {"n": 2, "edges": [[0, 1, 1.0]], "labels": [0, "a"]},
    {"n": 2, "edges": [[0, 1, 1.0]], "labels": [[0], 1]},
    {"n": 2, "edges": [[0, 1, 1.0]], "labels": [0]},
    None,
], ids=["no-n", "edge-without-weight", "edges-not-a-list", "not-an-object", "fractional-n",
        "fractional-endpoint", "empty-file", "truncated", "boolean-n", "pairs-not-triples",
        "four-entries", "nested-endpoint", "object-weight", "null-endpoint", "huge-endpoint",
        "endpoint-past-n", "negative-weight", "null-labels", "fractional-label", "string-label",
        "nested-label", "short-labels", "directory"])
def test_select_rejects_malformed_graph(workdir, capsys, content):
    """Graph.from_dict raises ValueError (exit 2); only I/O failures exit 3."""
    if content is None:
        os.mkdir("bad.json")
    else:
        write_json("bad.json", content)
    capsys.readouterr()
    code = run_cli("select", "--graph", "bad.json", "--k", "1", "-o", "cs.json")
    err = capsys.readouterr().err
    assert (code, err.split(":")[0]) == ((3, "io error") if content is None else (2, "error"))
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
    assert run_cli("baseline", "--method", "random", "--n", "30", "--k", "4",
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


def test_baseline_validation(sbm_file):
    assert run_cli("baseline", "--method", "kmeans", "--k", "2", "-o", "x.json") == 2
    assert run_cli("baseline", "--method", "random", "--k", "2", "-o", "x.json") == 2
    assert run_cli("baseline", "--method", "spectral", "--k", "2", "-o", "x.json") == 2


def test_eval_indicator_row(sbm_file):
    run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "cs.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "cs.json",
                   "--function", "indicator", "--label", "0", "-o", "ev.csv") == 0
    row = results_from_csv("ev.csv")[0]
    assert row.method == "indicator"
    assert row.K == len(Coreset.load_json("cs.json").indices)
    assert row.err == pytest.approx(row.abs_err ** 2, rel=1e-12)


def test_eval_smooth_emits_bound(sbm_file):
    run_cli("select", "--graph", sbm_file, "--k", "6", "--ell", "2", "-o", "cs.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "cs.json",
                   "--function", "smooth", "--threshold", "0.4", "--ell", "2",
                   "--function-seed", "5", "-o", "ev.csv") == 0
    row = results_from_csv("ev.csv")[0]
    assert row.bound_rhs is not None
    assert row.abs_err <= row.bound_rhs + 1e-9


def test_eval_average_distance(sbm_file):
    run_cli("baseline", "--method", "random", "--graph", sbm_file, "--k", "5",
            "-o", "r.json")
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "r.json",
                   "--function", "average-distance", "-o", "ev.csv") == 0
    row = results_from_csv("ev.csv")[0]
    assert row.abs_err >= 0.0


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
], ids=["index-past-n", "negative-index", "no-weights", "length-mismatch", "indices-not-a-list",
        "not-an-object", "empty-record", "number-trajectory", "nested-index", "list-beta",
        "nested-weight", "fractional-index", "boolean-index", "huge-weight"])
def test_eval_rejects_malformed_coreset(sbm_file, capsys, coreset, function):
    write_json("bad.json", coreset)
    capsys.readouterr()
    assert run_cli("eval", "--graph", sbm_file, "--coreset", "bad.json",
                   "--function", function, "-o", "ev.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_eval_indicator_needs_labels(workdir):
    run_cli("generate", "--model", "random", "--n", "20",
            "--edge-probability", "0.3", "--seed", "0", "-o", "rg.json")
    run_cli("select", "--graph", "rg.json", "--k", "3", "-o", "cs.json")
    assert run_cli("eval", "--graph", "rg.json", "--coreset", "cs.json",
                   "--function", "indicator", "-o", "ev.csv") == 2


def test_replay_reproduces_bytes(sbm_file):
    run_cli("select", "--graph", sbm_file, "--uniform-costs", "8",
            "--kappa", "0.8", "--k", "5", "-o", "cs.json")
    before = Path("cs.json").read_bytes()
    os.remove("cs.json")
    assert run_cli("replay", "cs.json.manifest.json") == 0
    assert Path("cs.json").read_bytes() == before
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 0


def test_replay_accepts_unread_parameter_keys(sbm_file):
    """Keys a command no longer records, such as select's old tol, still replay."""
    run_cli("select", "--graph", sbm_file, "--k", "5", "-o", "cs.json")
    manifest = read_json("cs.json.manifest.json")
    assert "tol" not in manifest["parameters"]
    manifest["parameters"]["tol"] = 1e-12
    write_json("cs.json.manifest.json", manifest)
    assert run_cli("replay", "cs.json.manifest.json", "--verify") == 0


def test_replay_rejects_changed_inputs(sbm_file):
    run_cli("select", "--graph", sbm_file, "--k", "4", "-o", "cs.json")
    graph = read_json(sbm_file)
    graph["edges"] = graph["edges"][:-1]
    write_json(sbm_file, graph)
    assert run_cli("replay", "cs.json.manifest.json") == 2


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
], ids=["not-an-object", "command-only", "no-command", "list-command", "unknown-command",
        "no-parameters", "list-parameters", "no-output-paths", "string-output-paths",
        "number-output-path", "no-input-hashes", "list-input-hashes", "select-empty-parameters",
        "generate-sbm-no-sizes", "generate-unknown-model", "generate-list-model",
        "experiment-no-out-dir", "list-k", "string-k", "number-graph", "generate-string-sizes",
        "experiment-list-overrides"])
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
    assert "cfg.json" in manifest["input_hashes"]
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
], ids=["int-grid", "int-seeds", "float-seed", "bool-ell", "float-n", "text-p-in",
        "flat-means", "number-family", "sweep-base", "int-ells", "sweep-ell"])
def test_experiment_rejects_wrong_typed_override(workdir, capsys, name, overrides, named):
    """An override not shaped like its field's default, or one the runner would
    replace, is exit 2 with an error naming the key to set, never a traceback."""
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
