"""Benchmark of anelor: three seeded, closed-loop, single-caller workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N   # every workload, one table
    python3 perfbench/run.py --baseline      # the ROADMAP Baseline table

The package is imported from `src/` beside this directory, never from an
installed copy; without it the run exits with code 2. Workloads
(`workloads.py`):

    onset_scan    in-process coefficients, reduced and N-mode onset
    trajectories  in-process closed-form map and RK45 runs, then one
                  Lyapunov estimate after the timed loop
    cli_batch     `python -m anelor.cli` subprocesses of five command kinds

With `--trace 0` the run measures the end-to-end metrics with no tracer
installed: `setup_s` (median spawn-to-ready time of fresh processes that set
the workload up), `tasks_per_s`, `task_p50_ms`, `task_tail_ms` (the
workload's fixed percentile), `pass_ratio` (tasks that completed and passed
their check, over tasks attempted) and `peak_rss_mb` (this process for the
in-process workloads, the largest child for `cli_batch`). With `--trace 1` it
runs a fixed number of the same tasks (`Workload.traced_tasks`, about
`--seconds` long) under the span tracer (`tracer.py`), so a seed always traces
the same work and the counts repeat exactly; replays them untraced for
`trace.overhead_ratio`; measures the Baseline rows (`baseline.py`) under the
tracer too; and reports the per-layer metrics over all of those spans.

The last line of stdout is the result object. The line before it is a report
with the inputs digest, sample counts, the tail percentile and machine info;
the report and the spans are also written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("onset_scan", "trajectories", "cli_batch")
END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
                    "task_tail_ms": "ms", "pass_ratio": "ratio", "peak_rss_mb": "MB"}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import anelor from ROOT/src and refuse any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "anelor", "__init__.py")):
        fail(f"no package source at {src}; run from a full checkout")
    sys.path.insert(0, src)
    import anelor

    if os.path.dirname(os.path.dirname(os.path.abspath(anelor.__file__))) != src:
        fail(f"imported anelor from {anelor.__file__}, not from {src}")


class TaskContext:
    """What a task needs besides its input: where traced children write."""

    def __init__(self, trace_dir=None):
        self.trace_dir = trace_dir
        self.task = None
        self.children = {"leaves": {}, "spans": []}

    def collect_child_trace(self, path: str) -> None:
        from tracer import merge

        with open(path) as handle:
            merge(self.children, json.load(handle))
        os.remove(path)


@contextlib.contextmanager
def child_trace_dir():
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="children-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def closed_loop(workload, items, ctx, tracer=None, seconds=None, first=0):
    """Run tasks one after another; with `seconds`, stop after the first task
    that ends past the deadline. Returns ([item, output, error, latency], wall)."""
    records = []
    start = time.perf_counter()
    for index, item in enumerate(items, start=first):
        ctx.task = index
        if tracer is not None:
            tracer.task = index
        begin = time.perf_counter()
        try:
            output, error = workload.run(item, ctx), None
        except Exception as exc:  # a failed task is counted and the loop goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        records.append([item, output, error, end - begin])
        if seconds is not None and end - start >= seconds:
            break
    return records, time.perf_counter() - start


def check_all(workload, records) -> list:
    """Failure reasons, one per failed task."""
    failures = []
    for item, output, error, _ in records:
        if error is None:
            try:
                error = workload.check(item, output)
            except Exception as exc:  # a malformed output fails its task
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(error)
    return failures


def setup_seconds(workload_name: str, seed: int) -> float:
    """Spawn-to-ready time of one fresh process that sets the workload up."""
    from workloads import cli_env

    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload_name, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, env=cli_env(ROOT), stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        fail(f"set-up of {workload_name} failed (exit code {child.returncode})")
    return ready


def blas_threads():
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with contextlib.suppress(OSError, StopIteration), open("/proc/cpuinfo") as handle:
        model = next(line.split(":", 1)[1].strip() for line in handle
                     if line.startswith("model name"))
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def end_to_end(workload, seed, seconds, report):
    from workloads import make_inputs

    setups = [setup_seconds(workload.name, seed) for _ in range(SETUP_REPEATS)]
    stream, final, report["inputs_digest"] = make_inputs(workload, seed)
    ctx = TaskContext()
    window, wall = closed_loop(workload, stream, ctx, seconds=seconds)
    after, after_wall = closed_loop(workload, final, ctx, first=len(window))
    records = window + after
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    failures = check_all(workload, records)
    latencies = [record[3] for record in records]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    tail = cuts[workload.tail_percentile - 1]
    report.update(setup_samples_s=setups, tasks=len(records), window_tasks=len(window),
                  wall_s=wall + after_wall, tail_beyond=sum(x > tail for x in latencies),
                  latency_ms={f"p{q}": 1e3 * cuts[q - 1] for q in (50, 90, 95, 98, 99)},
                  failures=failures[:5])
    return len(records), failures, {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(records) / (wall + after_wall),
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * tail,
        "pass_ratio": (len(records) - len(failures)) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def measure_baseline(tracer, ctx, have_lyapunov: bool):
    """Baseline rows: (timed rows, [(cli kind, wall)], CLI rows run, failures)."""
    import baseline

    tracer.install()
    try:
        rows = baseline.run_in_process(tracer, have_lyapunov)
    finally:
        tracer.uninstall()
    cli_rows, cli_walls, cli_results = baseline.run_cli_rows(ROOT, ctx)
    rows.update(cli_rows)
    rows.update(baseline.import_times(ROOT))
    failures = [f"baseline row {argv}: exit code {code}" for argv, code in cli_results if code]
    return rows, cli_walls, len(cli_results), failures


def per_layer(workload, seed, seconds, report):
    from tracer import SpanStats, Tracer, merge
    from workloads import make_inputs

    stream, final, report["inputs_digest"] = make_inputs(workload, seed)
    tracer = Tracer()
    with child_trace_dir() as trace_dir:
        ctx = TaskContext(trace_dir)
        tracer.install()
        try:
            traced = itertools.islice(stream, workload.traced_tasks(seconds))
            window, traced_wall = closed_loop(workload, traced, ctx, tracer)
            after, _ = closed_loop(workload, final, ctx, tracer, first=len(window))
        finally:
            tracer.uninstall()
        replay, plain_wall = closed_loop(workload, [r[0] for r in window], TaskContext())
        have_lyapunov = any(s[3] == "dynamics.largest_lyapunov" for s in tracer.spans)
        rows, cli_walls, cli_rows_run, failures = measure_baseline(tracer, ctx, have_lyapunov)

    records = window + after
    failures += check_all(workload, records) + check_all(workload, replay)
    dump = tracer.dump()
    merge(dump, ctx.children)
    spans_path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.json")
    with open(spans_path, "w") as handle:
        json.dump(dump, handle, separators=(",", ":"))
    if not workload.in_process:
        cli_walls += [(record[0]["kind"], record[3]) for record in window]
    report.update(tasks=len(records), window_tasks=len(window), replayed=len(replay),
                  spans=len(dump["spans"]), spans_file=os.path.relpath(spans_path, ROOT),
                  failures=failures[:5])
    metrics = layer_metrics(SpanStats(dump), rows, cli_walls)
    metrics["trace.overhead_ratio"] = plain_wall / traced_wall
    return len(records) + len(replay) + cli_rows_run, failures, metrics


def layer_metrics(stats, rows: dict, cli_walls: list) -> dict:
    """Per-layer metrics from the span statistics and the directly timed rows."""
    from workloads import CLI_KINDS

    m = {}
    for name in ("projection.oracle_coefficients", "projection.closed_form_coefficients",
                 "basis.ModeGrid.partial", "basis.QuadratureRule",
                 "spectral.leading_growth_rate", "lorenz.critical_rayleigh",
                 "lorenz.minimize_over_length", "lorenz.scale_to_lorenz"):
        m[f"{name}.calls"] = stats.calls.get(name, 0)
    for name in ("projection.oracle_coefficients", "projection.closed_form_coefficients",
                 "projection.discrepancy_report", "basis.ModeGrid.partial",
                 "lorenz.critical_rayleigh", "lorenz.minimize_over_length",
                 "dynamics.integrate_lorenz", "dynamics.integrate_reduced",
                 "dynamics.largest_lyapunov", "dynamics.map_trajectory"):
        m[f"{name}.busy_s"] = stats.busy.get(name, 0.0)
    for name in ("projection.oracle_coefficients", "spectral.critical_rayleigh_spectral",
                 "cli.main"):
        m[f"{name}.self_s"] = stats.self_time.get(name, 0.0)
    nfev = sum(stats.count.get(name, 0)
               for name in ("dynamics.integrate_lorenz", "dynamics.integrate_reduced"))
    m["dynamics.nfev"] = nfev
    integrate_s = m["dynamics.integrate_lorenz.busy_s"] + m["dynamics.integrate_reduced.busy_s"]
    m["dynamics.rhs_us_per_eval"] = 1e6 * integrate_s / nfev if nfev else 0.0
    m["projection.closed_form_coefficients.p50_ms"] = stats.p50_ms(
        "projection.closed_form_coefficients")
    for tag in ("plain", "check"):
        m[f"projection.oracle_coefficients.{tag}.p50_ms"] = stats.p50_ms(
            "projection.oracle_coefficients", tag)
    for tag in ("closed_form", "oracle"):
        m[f"lorenz.critical_rayleigh.{tag}.p50_ms"] = stats.p50_ms("lorenz.critical_rayleigh", tag)
    for n in (1, 4, 8, 16):
        m[f"spectral.assemble_pencil.n{n}.p50_ms"] = stats.p50_ms("spectral.assemble_pencil",
                                                                  f"n{n}")
    for n in (8, 16):
        m[f"spectral.critical_rayleigh_spectral.n{n}.p50_ms"] = stats.p50_ms(
            "spectral.critical_rayleigh_spectral", f"n{n}")
    m["dynamics.largest_lyapunov.p50_s"] = 1e-3 * stats.p50_ms("dynamics.largest_lyapunov")
    for kind in CLI_KINDS:
        m[f"cli.{kind}.p50_ms"] = 1e3 * statistics.median(
            wall for k, wall in cli_walls if k == kind)
    m.update(rows)
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in ((".calls", "count"), ("nfev", "count"), ("_ms", "ms"), ("_s", "s"),
                         ("_us_per_eval", "us"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name}")


def print_baseline() -> int:
    """Run only the Baseline rows, traced, and print them as a Markdown table."""
    import baseline
    from tracer import SpanStats, Tracer, merge

    tracer = Tracer()
    with child_trace_dir() as trace_dir:
        ctx = TaskContext(trace_dir)
        rows, cli_walls, _, failures = measure_baseline(tracer, ctx, have_lyapunov=False)
    dump = tracer.dump()
    merge(dump, ctx.children)
    print(baseline.table(layer_metrics(SpanStats(dump), rows, cli_walls)))
    for failure in failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; one Markdown table of every metric."""
    status = 0
    print("| workload | metric | value | unit |\n|---|---|---|---|")
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        if completed.returncode != 0:
            print(f"perfbench: {name} exited {completed.returncode}: {completed.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(completed.stdout.splitlines()[-1])
        status = status or int(not result["correct"])
        for metric, value in result["metrics"].items():
            print(f"| {name} | {metric} | {value['value']:.6g} | {value['unit']} |")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"),
                        help="'all' runs each workload in its own process and prints a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP Baseline table and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.baseline:
        parser.error("--workload or --baseline is required")

    import_package()
    if args.baseline:
        return print_baseline()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT)
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "repeated_work": workload.repeated_work,
              "tail_percentile": workload.tail_percentile, "machine": machine_info()}
    measure = per_layer if args.trace else end_to_end
    attempted, failures, values = measure(workload, args.seed, args.seconds, report)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    os.makedirs(OUT, exist_ok=True)
    report_path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as handle:
        json.dump({"report": report, "metrics": metrics}, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
