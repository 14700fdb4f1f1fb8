"""Outside-in tracing for the benchmark: spans around the package's layers.

A Tracer wraps the public functions of each graphcoreset module, the
container I/O methods, and every name the modules import from one another,
so a call into a layer records one span: name, start, end, parent span and
pass id. Spans stay in memory until the run writes them out. Counters are
read from the values a wrapped call returns or the files it names, after its
span has closed. Nothing in the package itself is changed: uninstall puts
every original binding back.

Layer metrics are derived per pass. A timed metric sums the inclusive time
of the outermost spans of its function set, so a call nested inside another
call of the same set is not counted twice. Self time is a span's duration
minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("graphs", "spectral", "selection", "baselines", "evaluate", "experiments", "cli",
          "_util")
ERROR_LAYERS = LAYERS[:-1]

# container I/O methods: (module, class, method)
IO_METHODS = (
    ("graphs", "Graph", "save_json"), ("graphs", "Graph", "load_json"),
    ("graphs", "PointCloud", "save_csv"), ("graphs", "PointCloud", "load_csv"),
    ("graphs", "CostVector", "save_json"), ("graphs", "CostVector", "load_json"),
    ("selection", "Coreset", "save_json"), ("selection", "Coreset", "load_json"),
    ("baselines", "BaselineCoreset", "save_json"), ("baselines", "BaselineCoreset", "load_json"),
)

CLI_COMMANDS = ("generate", "select", "eval", "replay", "experiment", "baseline")

# timed layer metric -> span names whose outermost inclusive time it sums
TIMED = {
    "graphs.build_s": {"graphs.build_knn_kernel_graph"},
    "graphs.generate_s": {"graphs.generate_sbm", "graphs.generate_powerlaw_tree",
                          "graphs.generate_random_graph", "graphs.generate_gaussian_mixture",
                          "graphs.sample_costs_uniform", "graphs.largest_connected_component"},
    "graphs.save_s": {"graphs.Graph.save_json", "graphs.PointCloud.save_csv",
                      "graphs.CostVector.save_json", "graphs.save_edge_list"},
    "graphs.load_s": {"graphs.Graph.load_json", "graphs.PointCloud.load_csv",
                      "graphs.CostVector.load_json", "graphs.load_edge_list"},
    "spectral.walk_s": {"spectral.lazy_walk_matrix"},
    "spectral.power_s": {"spectral.normalized_columns"},
    "spectral.eig_s": {"spectral.top_eigenvectors", "spectral.eigendecomposition"},
    "selection.select_s": {"selection.select_coreset", "selection.select_coreset_grid"},
    "baselines.kmeans_s": {"baselines.kmeans_coreset"},
    "baselines.spectral_s": {"baselines.spectral_clustering_coreset"},
    "baselines.random_s": {"baselines.random_sampling"},
    "baselines.betweenness_s": {"baselines.betweenness_coreset", "baselines.betweenness_scores"},
    "evaluate.dijkstra_s": {"evaluate.source_average_distances", "evaluate.avg_shortest_path_true",
                            "evaluate.avg_shortest_path_estimate"},
    "evaluate.estimate_s": {"evaluate.estimate_mean", "evaluate.error_metric",
                            "evaluate.bound_check", "evaluate.eta_diagnostic",
                            "evaluate.cost_report"},
    "evaluate.csv_s": {"evaluate.results_to_csv", "evaluate.results_from_csv"},
    "experiments.write_s": {"experiments.write_experiment_outputs"},
}
TIMED.update({f"cli.{c}_s": {f"cli.main:{c}"} for c in CLI_COMMANDS})

# counters that keep the largest value seen in a pass; all others add up
MAX_COUNTERS = {"spectral.power_nnz", "spectral.power_density", "spectral.power_mb"}


def _path_arg(position):
    def count(args, kwargs, result):
        path = kwargs.get("path", args[position] if len(args) > position else None)
        return {"graphs.io_bytes": os.path.getsize(path)}
    return count


def _power(args, kwargs, result):
    matrix = result.matrix
    n = matrix.shape[0]
    nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return {"spectral.power_nnz": matrix.nnz, "spectral.power_density": matrix.nnz / (n * n),
            "spectral.power_mb": nbytes / 1e6}


def _selection(args, kwargs, result):
    rounds = len(result.trajectory)
    placements = len(result.indices)
    return {"selection.rounds": rounds, "selection.placements": placements,
            "selection.reweights": rounds - placements,
            "selection.slack_total": sum(r.slack_set_size for r in result.trajectory)}


# span name -> counter hook(args, kwargs, result) -> {counter: value}
COUNTERS = {
    "graphs.build_knn_kernel_graph": lambda a, k, r: {"graphs.edges": r.m},
    "graphs.Graph.save_json": _path_arg(1), "graphs.Graph.load_json": _path_arg(1),
    "graphs.PointCloud.save_csv": _path_arg(1), "graphs.PointCloud.load_csv": _path_arg(1),
    "graphs.CostVector.save_json": _path_arg(1), "graphs.CostVector.load_json": _path_arg(1),
    "graphs.save_edge_list": _path_arg(1), "graphs.load_edge_list": _path_arg(0),
    "spectral.normalized_columns": _power,
    "selection.select_coreset": _selection,
    "evaluate.source_average_distances": lambda a, k, r: {"evaluate.dijkstra_sources": len(r)},
    "_util.sha256_file": lambda a, k, r: {"cli.hashed_bytes": os.path.getsize(a[0])},
}


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into the same pass's span list, -1 for a top-level span
    pass_id: int
    error: bool = False


def _span_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"


class Tracer:
    """Records spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: dict[int, list[Span]] = defaultdict(list)  # by pass id
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, func, name: str | None = None):
        """Return func wrapped so each call records a span under name."""
        name = name or _span_name(func)
        layer = name.split(".", 1)[0]
        hook = COUNTERS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.main:{argv[0] if argv else '?'}"
            spans = tracer.spans[tracer.pass_id]
            span = Span(label, layer, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else -1, tracer.pass_id)
            tracer._stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                tracer.count(hook(args, kwargs, result))
            return result

        traced.bench_traced = True
        return traced

    def count(self, values: dict) -> None:
        totals = self.counters[self.pass_id]
        for key, value in values.items():
            if key in MAX_COUNTERS:
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the package's modules where it is bound."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self.wrap(obj)
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    # registries such as experiments.EXPERIMENTS hold runners in tuples
                    for key, entry in list(obj.items()):
                        if isinstance(entry, tuple) and any(id(x) in wrappers for x in entry):
                            self._patch(obj, key, tuple(wrappers.get(id(x), x) for x in entry))
        for module_name, class_name, method in IO_METHODS:
            cls = getattr(importlib.import_module(f"{package.__name__}.{module_name}"),
                          class_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if raw is None:
                continue  # a later version may merge or drop a container
            if isinstance(raw, classmethod):
                self._patch(cls, method, classmethod(self.wrap(raw.__func__)))
            else:
                self._patch(cls, method, self.wrap(raw))

    def _patch(self, owner, key, value) -> None:
        """Rebind a module or class attribute, or a registry dict entry."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def records(self) -> list[dict]:
        """Spans as plain dicts, with their self time, for writing out."""
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "pass": s.pass_id, "error": s.error, "self": t}
                for spans in self.spans.values() for s, t in zip(spans, self_times(spans))]


def is_traced(obj) -> bool:
    """True when obj, or the function under a classmethod, is a tracer wrapper."""
    return getattr(getattr(obj, "__func__", obj), "bench_traced", False)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def pass_metrics(spans: list[Span], counters: dict, pass_time: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    selfs = self_times(spans)
    out = {}
    for metric, names in TIMED.items():
        total = 0.0
        for s in spans:
            if s.name in names and not _has_ancestor_in(spans, s, names):
                total += s.end - s.start
        out[metric] = total
    out["experiments.runner_self_s"] = sum(
        t for s, t in zip(spans, selfs) if s.name.startswith("experiments.run_"))
    out["cli.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == "cli")
    for key in ("graphs.edges", "graphs.io_bytes", "spectral.power_nnz", "spectral.power_density",
                "spectral.power_mb", "selection.rounds", "selection.placements",
                "selection.reweights", "evaluate.dijkstra_sources", "cli.hashed_bytes"):
        out[key] = float(counters.get(key, 0.0))
    rounds = out["selection.rounds"] or float("inf")  # no rounds: both ratios read 0
    out["selection.round_ms"] = 1e3 * out["selection.select_s"] / rounds
    out["selection.slack_mean"] = counters.get("selection.slack_total", 0.0) / rounds
    for layer in ERROR_LAYERS:
        out[f"{layer}.errors"] = float(sum(
            1 for s in spans if s.error and s.layer == layer
            and (s.parent < 0 or spans[s.parent].layer != layer)))
    out["trace.coverage"] = sum(selfs) / pass_time
    return out


def _has_ancestor_in(spans: list[Span], span: Span, names: set) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False
