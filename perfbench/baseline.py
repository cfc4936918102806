"""The ROADMAP "Baseline" rows, measured at the end of every traced run.

Each row of that table maps to named per-layer metrics (`ROWS`). The
in-process rows run under the tracer, so their spans also feed the per-layer
totals; the CLI rows run as subprocesses, traced through
`perfbench/traced_cli.py` except the two long sweeps and the `--workers 2`
row, which run plain (the tracer assumes one thread). The Tier-1 test time
row is not a layer and is not measured here.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from workloads import cli_env, run_cli

# (table row, metric names)
ROWS = (
    ("`closed_form_coefficients`", ("projection.closed_form_coefficients.p50_ms",)),
    ("`oracle_coefficients` (order 64) / with convergence check",
     ("projection.oracle_coefficients.plain.p50_ms",
      "projection.oracle_coefficients.check.p50_ms")),
    ("`critical_rayleigh` closed form / oracle",
     ("lorenz.critical_rayleigh.closed_form.p50_ms", "lorenz.critical_rayleigh.oracle.p50_ms")),
    ("`assemble_pencil` N = 1 / 4 / 8 / 16",
     tuple(f"spectral.assemble_pencil.n{n}.p50_ms" for n in (1, 4, 8, 16))),
    ("`critical_rayleigh_spectral` N = 8 / 16",
     ("spectral.critical_rayleigh_spectral.n8.p50_ms",
      "spectral.critical_rayleigh_spectral.n16.p50_ms")),
    ("`integrate_lorenz` chaotic (10, 8/3, 28), s = 100, and its RHS calls",
     ("dynamics.integrate_lorenz.chaotic.busy_s", "dynamics.integrate_lorenz.chaotic.nfev")),
    ("`largest_lyapunov` default", ("dynamics.largest_lyapunov.p50_s",)),
    ("`import anelor.cli` / its `scipy` share", ("cli.import_s", "cli.import.scipy_s")),
    ("`anelor coeffs` / `simulate` / `validate` (N up to 16), wall",
     ("cli.coeffs.p50_ms", "cli.simulate.p50_ms", "cli.validate.p50_ms")),
    ("`anelor critical`, 451-point sweep, oracle, `--workers 1` / `2`",
     ("cli.critical.sweep451_w1_s", "cli.critical.sweep451_w2_s")),
    ("`anelor critical --beta-sweep 0 1 21 --optimize-l`",
     ("cli.critical_optimize_l.oracle21_s",)),
)

# traced CLI rows: (kind, argv); their walls join the cli.<kind>.p50_ms samples
TRACED_CLI = (
    ("coeffs", ["coeffs", "--beta", "0.5", "--ra", "100"]),
    ("critical", ["critical", "--beta-sweep", "0", "1", "21"]),
    ("critical_optimize_l", ["critical", "--beta-sweep", "0", "1", "21", "--optimize-l",
                             "--source", "closed_form"]),
    ("simulate", ["simulate", "--ra", "1500", "--beta", "0.2", "--coords", "both"]),
    ("validate", ["validate", "--beta", "0.3", "--n-modes", "1", "2", "4", "8", "16"]),
)

# plain CLI rows: metric -> argv
PLAIN_CLI = (
    ("cli.critical.sweep451_w1_s", ["critical", "--beta-sweep", "0", "1", "451"]),
    ("cli.critical.sweep451_w2_s", ["critical", "--beta-sweep", "0", "1", "451",
                                    "--workers", "2"]),
    ("cli.critical_optimize_l.oracle21_s", ["critical", "--beta-sweep", "0", "1", "21",
                                            "--optimize-l"]),
)
CLI_OUTPUT = ["--format", "json", "--quiet"]
IMPORT_REPEATS = 3


def run_in_process(tracer, have_lyapunov: bool) -> dict:
    """Layer rows called directly; returns the rows timed here, not by spans."""
    from anelor import dynamics, lorenz, params, projection, spectral

    p = params.PhysicalParams(beta=0.3, rayleigh=1000.0)
    rows = {}

    def task(name, function, repeats=1):
        tracer.task = f"baseline:{name}"
        for _ in range(repeats):
            result = function()
        return result

    task("closed_form_coefficients", lambda: projection.closed_form_coefficients(p), 20)
    task("oracle_coefficients", lambda: projection.oracle_coefficients(p), 5)
    task("oracle_coefficients_check",
         lambda: projection.oracle_coefficients(p, check_convergence=True), 3)
    task("critical_rayleigh_closed_form", lambda: lorenz.critical_rayleigh(p, "closed_form"), 20)
    task("critical_rayleigh_oracle", lambda: lorenz.critical_rayleigh(p, "oracle"), 5)
    for n_modes in (1, 4, 8, 16):
        task(f"assemble_pencil_n{n_modes}",
             lambda: spectral.assemble_pencil(p, n_modes=n_modes), 3)
    for n_modes in (8, 16):
        task(f"critical_rayleigh_spectral_n{n_modes}",
             lambda: spectral.critical_rayleigh_spectral(p, n_modes=n_modes), 2)
    chaotic = lorenz.LorenzParams(10.0, 8.0 / 3.0, 28.0)
    start = time.perf_counter()
    trajectory = task("integrate_lorenz_chaotic",
                      lambda: dynamics.integrate_lorenz(chaotic, [1.0, 1.0, 1.0], 100.0))
    rows["dynamics.integrate_lorenz.chaotic.busy_s"] = time.perf_counter() - start
    rows["dynamics.integrate_lorenz.chaotic.nfev"] = trajectory.nfev
    if not have_lyapunov:
        task("largest_lyapunov", lambda: dynamics.largest_lyapunov(chaotic))
    tracer.task = None
    return rows


def run_cli_rows(root: str, ctx) -> tuple[dict, list, list]:
    """CLI rows; returns (plain-row walls, [(kind, wall)], [(argv, exit code)])."""
    walls, results = [], []
    for kind, argv in TRACED_CLI:
        ctx.task = f"baseline:cli_{kind}"
        start = time.perf_counter()
        returncode, _ = run_cli(root, argv + CLI_OUTPUT, ctx)
        walls.append((kind, time.perf_counter() - start))
        results.append((argv, returncode))
    rows = {}
    for metric, argv in PLAIN_CLI:
        start = time.perf_counter()
        returncode, _ = run_cli(root, argv + CLI_OUTPUT)
        rows[metric] = time.perf_counter() - start
        results.append((argv, returncode))
    return rows, walls, results


def import_times(root: str) -> dict:
    """Fresh `import anelor.cli` and the scipy share of it, medians of a few."""
    code = ("import time; t = time.perf_counter(); import anelor.cli; "
            "print(time.perf_counter() - t)")
    imports, scipy_shares = [], []
    for _ in range(IMPORT_REPEATS):
        completed = subprocess.run([sys.executable, "-c", code], cwd=root, env=cli_env(root),
                                   capture_output=True, text=True, check=True, timeout=60)
        imports.append(float(completed.stdout))
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import anelor.cli"],
            cwd=root, env=cli_env(root), capture_output=True, text=True, check=True, timeout=60)
        scipy_shares.append(scipy_import_s(completed.stderr))
    return {"cli.import_s": statistics.median(imports),
            "cli.import.scipy_s": statistics.median(scipy_shares)}


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of every scipy import not nested in another scipy import.

    `-X importtime` prints a module after its own imports, indented two spaces
    per nesting level, so reading the log backwards visits parents first.
    """
    total_us, ancestors = 0, []
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        module = name.strip()
        del ancestors[depth:]
        if module.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            total_us += int(cumulative)
        ancestors.append(module)
    return total_us * 1e-6


def table(metrics: dict) -> str:
    """The Baseline table as Markdown, one row per ROADMAP row."""
    lines = ["| layer / command | metric | value |", "|---|---|---|"]
    for row, names in ROWS:
        for name in names:
            lines.append(f"| {row} | `{name}` | {metrics[name]:.6g} |")
    return "\n".join(lines)
