"""Every JSON file the CLI reads, broken in any one place, ends in exit 0, 2 or 3.

The inputs are the graph and the costs of `select`, the coreset of `eval`,
the manifest of `replay` (of `select`, of `generate` for every model, of
`baseline` for every method and of `eval` for every function) and the config
of `experiment` (for every study that needs no data file). Each
case runs `main` in process, so an exception that escapes it fails the test.
"""

import json
import math
import os
from pathlib import Path

import pytest

from graphcoreset import (
    Coreset,
    Graph,
    bound_check,
    lazy_walk_matrix,
    normalized_columns,
    synthesize_smooth_function,
)
from graphcoreset.cli import main

INPUT = "input.json"
# the command that reads each kind of input from INPUT
COMMANDS = {
    "graph": ["select", "--graph", INPUT, "--k", "2", "-o", "cs.json"],
    "costs": ["select", "--graph", "g.json", "--costs", INPUT, "--k", "2", "-o", "cs.json"],
    "coreset": ["eval", "--graph", "g.json", "--coreset", INPUT, "--function", "indicator",
                "-o", "ev.csv"],
    "manifest": ["replay", INPUT, "--verify"],
    "config": ["experiment", "--name", "sbm-indicator", "--config", INPUT, "--out-dir", "exp"],
}
# the replacement values of a field; DELETE drops the field instead, and SHORT
# drops the last entry of a list field
DELETE, SHORT = object(), object()
VALUES = [DELETE, None, True, -1, 0.5, 2**63, 10**400, float("nan"), float("inf"),
          float("-inf"), "", "1", [], {}, [[0, [1.5]]]]
BASELINE_METHODS = ["random", "kmeans", "spectral", "betweenness"]
EVAL_FUNCTIONS = ["indicator", "average-distance", "smooth"]


@pytest.fixture
def valid(tmp_path, monkeypatch):
    """A working directory holding g.json and one valid file of each kind, by name.

    A kind is the input it names, then optionally a dash and what it holds:
    the model of a generate manifest (manifest-generate is gaussian-mixture),
    the command and variant of a baseline or eval manifest
    (manifest-baseline-random, manifest-eval-smooth), or the study of a config
    (config alone is sbm-indicator)."""
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--model", "sbm", "--sizes", "8,8", "--p-in", "0.5",
                 "--p-out", "0.1", "--seed", "3", "-o", "g.json"]) == 0
    assert main(["select", "--graph", "g.json", "--k", "3", "-o", "cs.json"]) == 0
    assert main(["generate", "--model", "gaussian-mixture", "--means", "0,0;4,4",
                 "--fractions", "0.5,0.5", "--n", "12", "--seed", "1", "-o", "c.csv"]) == 0
    assert main(["generate", "--model", "powerlaw-tree", "--n", "12", "--seed", "2",
                 "-o", "tree.json"]) == 0
    assert main(["generate", "--model", "random", "--n", "12", "--edge-probability", "0.3",
                 "--seed", "2", "-o", "random.json"]) == 0
    assert main(["generate", "--model", "knn-kernel", "--cloud", "c.csv", "--k-neighbors", "3",
                 "-o", "knn.json"]) == 0
    for method in BASELINE_METHODS:
        source = ["--cloud", "c.csv"] if method == "kmeans" else ["--graph", "g.json"]
        assert main(["baseline", "--method", method, *source, "--k", "2",
                     "-o", f"base-{method}.json"]) == 0
    for function in EVAL_FUNCTIONS:
        assert main(["eval", "--graph", "g.json", "--coreset", "cs.json", "--function", function,
                     "-o", f"eval-{function}.csv"]) == 0

    def load(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))

    return {
        "graph": load("g.json"),
        "costs": {"costs": [0.5] * 16},
        "coreset": load("cs.json"),
        "manifest": load("cs.json.manifest.json"),
        "manifest-generate": load("c.csv.manifest.json"),
        "manifest-powerlaw-tree": load("tree.json.manifest.json"),
        "manifest-random": load("random.json.manifest.json"),
        "manifest-knn-kernel": load("knn.json.manifest.json"),
        **{f"manifest-baseline-{method}": load(f"base-{method}.json.manifest.json")
           for method in BASELINE_METHODS},
        **{f"manifest-eval-{function}": load(f"eval-{function}.csv.manifest.json")
           for function in EVAL_FUNCTIONS},
        "config": {"n": 24, "block_fractions": [0.5, 0.5], "ell": 2, "k_grid": [2],
                   "seeds": [0]},
        "config-shortest-path": {"family": "random-graph", "n": 30, "edge_probability": 0.2,
                                 "tree_exponent": 3.0, "ell": 2, "kappa": 0.9, "k_grid": [2],
                                 "seeds": [0]},
        "config-cluster-indicator": {"n": 40, "component_means": [[1.0, -3.0], [-3.0, 2.0]],
                                     "component_fractions": [0.5, 0.5],
                                     "covariance_scale": 1.0, "k_neighbors": 5,
                                     "bandwidth": 1.0, "kappa": 0.8, "ell": 1,
                                     "indicator_component": 0, "k_grid": [2], "seeds": [0],
                                     "cost_seed_offset": 5},
        "config-ell-sweep": {"n": 24, "block_fractions": [0.5, 0.5], "p_in": 0.5,
                             "p_out": 0.1, "ells": [1, 2], "k_grid": [2], "seeds": [0]},
    }


def command(kind: str) -> list[str]:
    """The command that reads INPUT as this kind of input."""
    head, _, study = kind.partition("-")
    if head == "config" and study:
        return ["experiment", "--name", study, "--config", INPUT, "--out-dir", "exp"]
    return COMMANDS[head]


def run(kind: str, text: str | None) -> int:
    """main on INPUT holding text (None: no file); the exit must be 0, 2 or 3."""
    if text is not None:
        Path(INPUT).write_text(text, encoding="utf-8")
    elif os.path.isfile(INPUT):
        os.remove(INPUT)
    code = main(command(kind))
    assert code in (0, 2, 3)
    return code


@pytest.mark.parametrize("kind", list(COMMANDS))
@pytest.mark.parametrize("case, want", [
    ("valid", 0), ("empty", 2), ("truncated", 2), ("null", 2), ("list", 2), ("deep", 2),
    ("missing", 3), ("directory", 3),
])
def test_broken_json_input(valid, capsys, kind, case, want):
    text = json.dumps(valid[kind])
    if case == "directory":
        os.mkdir(INPUT)
    texts = {"valid": text, "empty": "", "truncated": text[:len(text) // 2], "null": "null",
             "list": "[]", "deep": "[" * 100000, "missing": None, "directory": None}
    capsys.readouterr()
    assert run(kind, texts[case]) == want
    err = capsys.readouterr().err
    assert err.startswith({0: "", 2: "error: ", 3: "io error: "}[want])


@pytest.mark.parametrize("kind, path, value", [
    ("graph", ("n",), 10**400),
    ("graph", ("u",), SHORT),
    ("graph", ("w",), SHORT),
    ("graph", ("labels",), SHORT),
    ("manifest-generate", ("parameters", "n"), 10**400),
    ("manifest-generate", ("parameters", "means", 0, 0), 10**400),
    ("manifest-generate", ("parameters", "fractions", 0), float("nan")),
    ("config", ("n",), 10**400),
    ("config", ("block_fractions", 0), float("inf")),
    ("config", ("ell",), 10**400),
    ("config", ("block_fractions",), []),
    ("manifest-eval-indicator", ("parameters", "function"), "bogus"),
    ("manifest-baseline-random", ("parameters", "graph"), None),
], ids=["graph-huge-n", "graph-short-u", "graph-short-w", "graph-short-labels", "generate-huge-n",
        "generate-huge-mean", "generate-nan-fraction", "config-huge-n", "config-infinite-fraction",
        "config-huge-ell", "config-empty-fractions", "eval-unknown-function",
        "random-baseline-null-graph"])
def test_broken_field(valid, capsys, kind, path, value):
    """Single fields that once escaped main as an OverflowError or a RuntimeWarning,
    or ran on an empty list, a graph column one entry short, and a manifest's
    variant or variant parameter, which replay checks before it runs anything."""
    capsys.readouterr()
    assert run(kind, json.dumps(_changed(valid[kind], path, value))) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _paths(doc, prefix=()):
    """The path (keys and list positions) of every value below the root."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _changed(doc, path, value):
    """A copy of doc with the value at path replaced, dropped for DELETE, or
    shortened by its last entry for SHORT."""
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    elif value is SHORT:
        parent[path[-1]] = parent[path[-1]][:-1]
    else:
        parent[path[-1]] = value
    return copy


def test_mutated_inputs_keep_the_exit_contract(valid, capsys):
    """Every kind of input, cut anywhere or with one or two fields at any depth
    deleted or replaced, ends in exit 0, 2 or 3 without raising past main, and
    a non-zero exit prints one line: "error: ..." for exit 2, "io error: ..."
    for exit 3. The rejection rows above pin the messages; this pins the
    contract.

    A config key deleted at the top level falls back to its default, which is
    a valid but full-size study, so the config's top-level keys are only
    replaced."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(sorted(valid)))
        doc = valid[kind]
        text = json.dumps(doc)
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        else:
            for _ in range(data.draw(st.integers(1, 2))):
                paths = list(_paths(doc))
                if not paths:
                    break
                path = data.draw(st.sampled_from(paths))
                value = data.draw(st.sampled_from(VALUES))
                if kind.startswith("config") and len(path) == 1 and value is DELETE:
                    value = None
                doc = _changed(doc, path, value)
            text = json.dumps(doc)
        capsys.readouterr()
        code = run(kind, text)
        if code:
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith({2: "error: ", 3: "io error: "}[code]), lines

    check()


def _huge_weights(coreset: dict) -> dict:
    """The coreset with every weight at 1e308: finite, but their sums overflow."""
    return dict(coreset, weights=[1e308] * len(coreset["weights"]))


@pytest.mark.parametrize("function", EVAL_FUNCTIONS)
def test_eval_rejects_an_estimate_past_float_range(valid, capsys, function):
    """An overflowing weighted sum exits 2 with one error line, before any table
    is written and with no numpy warning (the suite turns warnings into errors)."""
    Path("huge.json").write_text(json.dumps(_huge_weights(valid["coreset"])), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--graph", "g.json", "--coreset", "huge.json", "--function", function,
                 "--label", "1", "-o", "huge.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: coreset estimate ")
    assert not os.path.exists("huge.csv")


def test_bound_check_reads_an_overflowing_residual_as_vacuous(valid):
    """A weighted column mix whose norm overflows gives rhs = inf, with no warning."""
    walk = lazy_walk_matrix(Graph.load_json("g.json"))
    f = synthesize_smooth_function(walk, 0.5, seed=0)
    coreset = Coreset.from_dict(_huge_weights(valid["coreset"]))
    _, rhs, _ = bound_check(f, 0.5, coreset, normalized_columns(walk, 1))
    assert rhs == math.inf
