"""graphcoreset benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload knn-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One closed-loop client in this process calls `graphcoreset.cli.main` pass
after pass, each pass starting when the previous one and its output checks
are done. Set-up (a fresh interpreter importing graphcoreset and writing the
workload's inputs) runs three times in child processes and is reported as a
median. `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics, the trace
coverage and the tracing overhead. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. A full record of the run
(environment, raw and calibrated times, failures, spans) goes to bench/work/.

Times are calibrated: each pass is bracketed by a fixed CPU kernel and its
wall time is scaled by REFERENCE_KERNEL_S over the kernel's mean time around
it; each set-up is scaled by REFERENCE_IMPORT_S over the time of a reference
child run just before it. On a shared machine whose speed drifts, this
reports seconds at one reference speed; raw wall times stay in the record.
"""

import os

# single-threaded BLAS baseline, pinned before numpy is imported here or in
# any child; the package's own thread knob stays unset
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRAPHCORESET_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import ROOT, WORKLOADS, CheckFailed, load_package  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
SETUPS = 3
# median times, on a shared 2-vCPU x86-64 VM, of the calibration kernel between
# passes and of a fresh interpreter importing numpy and scipy.sparse
REFERENCE_KERNEL_S = 0.010
REFERENCE_IMPORT_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "pass_s_p50": "s", "pass_s_tail": "s", "passes_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "fraction"}

_rng = np.random.default_rng(0)
_KERNEL_MATRIX = _rng.standard_normal((200, 200))
_KERNEL_KEYS = [int(x) for x in _rng.integers(0, 1 << 30, 20000)]


def kernel_seconds() -> float:
    """Time of a fixed mix of dict, sort, heap and BLAS work: the machine's speed now."""
    start = time.perf_counter()
    counts = {}
    for key in _KERNEL_KEYS:
        counts[key] = counts.get(key, 0) + 1
    heap = []
    for key in sorted(_KERNEL_KEYS)[:5000]:
        heapq.heappush(heap, -key)
    _KERNEL_MATRIX @ _KERNEL_MATRIX @ _KERNEL_MATRIX
    return time.perf_counter() - start


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric in [*spans.TIMED, "experiments.runner_self_s", "cli.self_s"]:
        units[metric] = "s"
    for metric in ("graphs.edges", "spectral.power_nnz", "selection.rounds",
                   "selection.placements", "selection.reweights", "evaluate.dijkstra_sources",
                   *(f"{layer}.errors" for layer in spans.ERROR_LAYERS)):
        units[metric] = "count"
    units.update({"graphs.io_bytes": "bytes", "cli.hashed_bytes": "bytes",
                  "spectral.power_density": "fraction", "spectral.power_mb": "MB",
                  "selection.round_ms": "ms", "selection.slack_mean": "count",
                  "selection.abs_err_p50": "1", "selection.coreset_cost_p50": "cost",
                  "trace.coverage": "fraction", "trace.overhead": "fraction"})
    return units


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "GRAPHCORESET_THREADS": os.environ.get("GRAPHCORESET_THREADS"),
    }


def child_seconds(argv: list[str]) -> float:
    """Wall seconds of a child process that must succeed."""
    start = time.perf_counter()
    # no timeout: waiting with one polls the child every 50 ms, which would
    # round the measured time up to that grid
    done = subprocess.run(argv, cwd=ROOT)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited with {done.returncode}")
    return elapsed


def set_up(name: str, seed: int, inputs: Path) -> list[tuple[float, float]]:
    """(raw, calibrated) seconds of SETUPS fresh-interpreter set-ups writing the inputs.

    Each set-up is calibrated by a child run just before it that only imports
    numpy and scipy.sparse: a child may land on either CPU, so the in-process
    kernel does not track it.
    """
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(inputs, ignore_errors=True)
        reference = child_seconds([sys.executable, "-c", "import numpy, scipy.sparse"])
        raw = child_seconds([sys.executable, str(BENCH / "workloads.py"), name, str(seed),
                             str(inputs)])
        times.append((raw, raw * REFERENCE_IMPORT_S / reference))
    return times


def run_pass(workload, package, inputs: Path, out: Path, seed: int, i: int):
    """One pass: its CLI calls (timed, calibrated), then its checks (not timed).

    Returns (raw s, calibrated s, failure or None, (abs_err, cost) or None).
    Nothing a pass does, however broken, escapes as an exception.
    """
    stdouts, codes = [], []
    try:
        argvs = workload.commands(inputs, out, seed, i)
        before = kernel_seconds()
        start = time.perf_counter()
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()) as captured:
                codes.append(package.cli.main(argv))
            stdouts.append(captured.getvalue())
        raw = time.perf_counter() - start
        scaled = raw * REFERENCE_KERNEL_S / (0.5 * (before + kernel_seconds()))
    except Exception:
        return None, None, "exception: " + traceback.format_exc(limit=-3), None
    bad = [f"{argv[0]} exited {code}" for argv, code in zip(argvs, codes) if code != 0]
    if bad:
        return raw, scaled, "; ".join(bad), None
    try:
        return raw, scaled, None, workload.check(out, stdouts, package)
    except CheckFailed as exc:
        return raw, scaled, f"check: {exc}", None
    except Exception:
        return raw, scaled, "check raised: " + traceback.format_exc(limit=-3), None


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 samples above it, and its percentile.

    With 10 samples or fewer no such statistic exists and the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, package, inputs: Path, out: Path, seed: int, seconds: float,
            tracer: spans.Tracer | None) -> dict:
    """Run passes for `seconds`; with a tracer, every second pass is traced.

    Completed passes land in "passes" or "traced" as (pass, raw s, calibrated s).
    """
    record = {"passes": [], "traced": [], "failures": [], "quality": [], "attempted": 0}
    run_pass(workload, package, inputs, out, seed, 0)  # warm-up, not counted
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.pass_id = i
            tracer.install(package)
        try:
            raw, scaled, failure, quality = run_pass(workload, package, inputs, out, seed, i)
        finally:
            if traced:
                tracer.uninstall()
        record["attempted"] += 1
        if failure is not None:
            record["failures"].append({"pass": i, "reason": failure})
            if len(record["failures"]) <= 3:
                print(f"pass {i} failed: {failure}", file=sys.stderr)
        else:
            record["traced" if traced else "passes"].append((i, raw, scaled))
            record["quality"].append(quality)
        i += 1
    return record


def end_to_end(record: dict, setups: list) -> dict:
    times = [scaled for _, _, scaled in record["passes"]]
    tail_value, tail_pct = tail(times)
    record["samples"] = {"passes": len(times), "pass_s_tail_percentile": tail_pct,
                         "setups": len(setups)}
    return {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "pass_s_p50": statistics.median(times),
        "pass_s_tail": tail_value,
        "passes_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(times) / record["attempted"],
    }


def per_layer(record: dict, tracer: spans.Tracer) -> dict:
    """Medians over traced passes of each pass's layer metrics (errors: totals)."""
    rows = [spans.pass_metrics(tracer.spans.get(i, []), tracer.counters.get(i, {}), raw)
            for i, raw, _ in record["traced"]]
    metrics = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        metrics[key] = sum(values) if key.endswith(".errors") else statistics.median(values)
    untraced = statistics.median(scaled for _, _, scaled in record["passes"])
    traced = statistics.median(scaled for _, _, scaled in record["traced"])
    metrics["trace.overhead"] = traced / untraced - 1.0
    abs_errs, costs = zip(*record["quality"])
    metrics["selection.abs_err_p50"] = statistics.median(abs_errs)
    metrics["selection.coreset_cost_p50"] = statistics.median(costs)
    record["samples"] = {"untraced_passes": len(record["passes"]),
                         "traced_passes": len(record["traced"])}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    inputs, out = run_dir / "inputs", run_dir / "pass"
    setups = set_up(name, seed, inputs)
    package = load_package()
    out.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    record = measure(workload, package, inputs, out, seed, seconds, tracer)
    ok = bool(record["passes"]) and (not trace or bool(record["traced"]))
    metrics, units = {}, {}
    if ok:
        if trace:
            metrics, units = per_layer(record, tracer), per_layer_units()
        else:
            metrics, units = end_to_end(record, setups), END_TO_END_UNITS
    result = {
        "correct": ok and not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                environment=environment(), samples=record.get("samples"),
                setups_raw_calibrated=setups, passes_raw_calibrated=record["passes"],
                traced_raw_calibrated=record["traced"], failures=record["failures"])
    (run_dir / "result.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        with open(run_dir / "spans.jsonl", "w") as handle:
            for span in tracer.records():
                handle.write(json.dumps(span) + "\n")
    for key, metric in result["metrics"].items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{name} samples {record.get('samples')} failed {result['failed']}/"
          f"{result['attempted']}", file=sys.stderr)
    if not ok:
        raise SystemExit(f"error: {name} completed no pass")
    return result


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        if done.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
            print(f"{name:15s} {key:28s} {metric['value']:12.6g} {metric['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
