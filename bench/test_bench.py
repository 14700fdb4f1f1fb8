"""Tests of the benchmark itself: span bookkeeping, wrapper lifetime, failure counting.

    python3 -m pytest bench/test_bench.py
"""

import json

import pytest

import run
import spans
from spans import Span, Tracer
from workloads import KnnCli, load_package

package = load_package()


def traced_objects():
    """Every tracer wrapper currently bound anywhere the tracer patches."""
    found = []
    for module in [package, *(getattr(package, layer) for layer in spans.LAYERS)]:
        for attr, obj in vars(module).items():
            if spans.is_traced(obj):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(obj, dict):
                found += [f"{module.__name__}.{attr}[{k}]" for k, v in obj.items()
                          if isinstance(v, tuple) and any(map(spans.is_traced, v))]
    for module_name, class_name, method in spans.IO_METHODS:
        cls = getattr(getattr(package, module_name), class_name)
        if spans.is_traced(vars(cls)[method]):
            found.append(f"{class_name}.{method}")
    return found


def test_self_time_and_coverage_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tree = [Span("cli.main:select", "cli", 0.0, 10.0, -1, 0),
            Span("graphs.Graph.load_json", "graphs", 1.0, 4.0, 0, 0),
            Span("selection.select_coreset", "selection", 5.0, 9.0, 0, 0),
            Span("selection.beta_star", "selection", 6.0, 7.0, 2, 0)]
    assert spans.self_times(tree) == [3.0, 3.0, 3.0, 1.0]
    metrics = spans.pass_metrics(tree, {"selection.rounds": 4}, pass_time=12.5)
    assert metrics["trace.coverage"] == pytest.approx(10.0 / 12.5)
    assert metrics["cli.select_s"] == 10.0
    assert metrics["cli.self_s"] == 3.0
    assert metrics["graphs.load_s"] == 3.0
    assert metrics["selection.select_s"] == 4.0
    assert metrics["selection.round_ms"] == pytest.approx(1e3)


def test_overlapping_children_count_once():
    tree = [Span("x.root", "x", 0.0, 10.0, -1, 0), Span("x.a", "x", 1.0, 4.0, 0, 0),
            Span("x.b", "x", 3.0, 6.0, 0, 0)]
    assert spans.self_times(tree)[0] == 5.0


def test_nested_calls_of_one_metric_are_not_counted_twice():
    tree = [Span("selection.select_coreset_grid", "selection", 0.0, 5.0, -1, 0),
            Span("selection.select_coreset", "selection", 1.0, 4.0, 0, 0)]
    assert spans.pass_metrics(tree, {}, pass_time=5.0)["selection.select_s"] == 5.0


def test_wrappers_link_parents_and_count_escaping_errors():
    tracer = Tracer()
    tracer.pass_id = 7

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return traced_inner(x) + 1

    traced_inner = tracer.wrap(inner, "evaluate.inner")
    traced_outer = tracer.wrap(outer, "cli.outer")
    assert traced_outer(1) == 2
    with pytest.raises(ValueError):
        traced_outer(-1)
    assert list(tracer.spans) == [7]
    assert [(s.name, s.parent, s.error) for s in tracer.spans[7]] == [
        ("cli.outer", -1, False), ("evaluate.inner", 0, False),
        ("cli.outer", -1, True), ("evaluate.inner", 2, True)]
    metrics = spans.pass_metrics(tracer.spans[7], {}, pass_time=1.0)
    assert metrics["evaluate.errors"] == 1.0  # escaped into the cli layer
    assert metrics["cli.errors"] == 1.0  # escaped out of the pass


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original_main = package.cli.main
    tracer = Tracer()
    tracer.install(package)
    try:
        found = set(traced_objects())
        for name in ("graphcoreset.cli.main", "graphcoreset.cli.build_knn_kernel_graph",
                     "graphcoreset.experiments.EXPERIMENTS[sbm-indicator]",
                     "graphcoreset.baselines.top_eigenvectors", "graphcoreset.cli.sha256_file",
                     "Graph.load_json", "PointCloud.save_csv"):
            assert name in found
    finally:
        tracer.uninstall()
    assert traced_objects() == []
    assert package.cli.main is original_main


@pytest.fixture
def tiny(tmp_path):
    workload = KnnCli(n=300, budget=20, pool=2)
    inputs, out = tmp_path / "inputs", tmp_path / "pass"
    inputs.mkdir()
    out.mkdir()
    workload.write_inputs(inputs, seed=3)
    return workload, inputs, out


def test_untraced_run_installs_no_wrappers(tiny):
    workload, inputs, out = tiny

    class Watched(KnnCli):
        def check(self, out, stdouts, package):
            assert traced_objects() == []
            return super().check(out, stdouts, package)

    watched = Watched(n=workload.n, budget=workload.budget, pool=workload.pool)
    record = run.measure(watched, package, inputs, out, 3, seconds=0.01, tracer=None)
    assert record["attempted"] >= 1
    assert record["failures"] == []


def test_traced_run_reports_every_layer_metric(tiny):
    workload, inputs, out = tiny
    tracer = Tracer()
    record = run.measure(workload, package, inputs, out, 3, seconds=1.0, tracer=tracer)
    assert record["failures"] == [] and record["traced"]
    metrics = run.per_layer(record, tracer)
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["selection.rounds"] > 0 and metrics["graphs.edges"] > 0
    assert traced_objects() == []


def test_corrupted_output_counts_as_failure_without_crashing(tiny):
    workload, inputs, out = tiny

    class Corrupting(KnnCli):
        def check(self, out, stdouts, package):
            path = out / "coreset.json"
            data = json.loads(path.read_text())
            data["indices"][1] = data["indices"][0]
            path.write_text(json.dumps(data))
            return super().check(out, stdouts, package)

    class Truncating(KnnCli):
        def check(self, out, stdouts, package):
            (out / "graph.json").write_text("{")
            return super().check(out, stdouts, package)

    class Failing(KnnCli):
        def commands(self, inputs, out, seed, i):
            return [["select", "--graph", str(out / "missing.json"), "--k", "3", "-o",
                     str(out / "never.json")]]

    for broken, reason in ((Corrupting, "check: coreset.json: repeated indices"),
                           (Truncating, "check raised"), (Failing, "select exited 3")):
        subject = broken(n=workload.n, budget=workload.budget, pool=workload.pool)
        record = run.measure(subject, package, inputs, out, 3, seconds=0.01, tracer=None)
        assert record["attempted"] >= 1
        assert len(record["failures"]) == record["attempted"]
        assert record["failures"][0]["reason"].startswith(reason)
        assert record["passes"] == []


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == 75.0
