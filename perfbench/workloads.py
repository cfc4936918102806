"""Seeded inputs, tasks and correctness checks of the benchmark workloads.

Every workload is closed loop with one caller: the next task starts only after
the previous one returned. Inputs come from `random.Random(seed)` alone, so the
same seed gives the same task stream on every machine; the program receives
only the generated parameters. Draws are stratified in small blocks (each
block of `onset_scan` holds every truncation size once, each block of
`trajectories` one r per tenth of its range, each block of `cli_batch` every
command kind once) so the work mix of a run does not drift with the seed.

Correctness is checked after the timed loop, with tolerances rather than
golden bytes: a later, equally correct change of integrator or solver passes.
The coefficient and route gates are read from the package itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile

# criterion 7 of tests/test_acceptance.py: mapped vs direct trajectories
EQUIVALENCE_TOL = 1e-6
# criterion 10: largest Lyapunov exponent of (10, 8/3, 28)
LYAPUNOV_BAND = (0.906, 0.05)
# CLI `critical` rows against the same quantity computed in-process
CRITICAL_TOL = 1e-6
ONSET_MODES = (1, 2, 4, 8, 16)
DIGEST_ITEMS = 1000  # the digest covers this many leading inputs of the stream


class Workload:
    """Inputs, task runner and checks of one workload."""

    name = ""
    in_process = True
    tail_percentile = 50  # fixed per workload, so runs compare like with like
    repeated_work = ""  # share of the inputs that repeat work, for the run report
    block = 1  # stream items per stratified block
    traced_rate = 1.0  # stream tasks per second a traced run is sized by

    def __init__(self, root: str):
        self.root = root

    def traced_tasks(self, seconds: float) -> int:
        """Fixed task count of a traced run: whole blocks, about `seconds` long
        on a 2-core Xeon, so a seed always traces the same work."""
        return self.block * max(1, round(seconds * self.traced_rate / self.block))

    def stream(self, rng):
        """Endless, seeded task inputs; a run consumes a prefix."""
        raise NotImplementedError

    def final(self, rng) -> list:
        """Tasks run once after the timed loop of every run."""
        return []

    def run(self, item, ctx):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        """None when the output is correct, otherwise the reason."""
        raise NotImplementedError


def _relative(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _max_coeff_deviation(oracle, closed) -> float:
    """Largest relative oracle/closed-form gap over e1..e7, with the CLI's
    floor so a coefficient that is exactly zero does not divide by noise."""
    floor = 1e-8 * max(1.0, max(abs(v) for v in oracle))
    return max(abs(c - o) / max(abs(c), abs(o), floor) for o, c in zip(oracle, closed))


class OnsetScan(Workload):
    """Quadrature and pencil path, in process.

    A task draws (beta, l, Pr, gamma) from the box where the coefficient and
    route gates hold, and N from {1, 2, 4, 8, 16}; it runs the oracle and
    closed-form coefficients, the oracle onset and the N-mode spectral onset.
    Small N sets the median, N = 16 the tail. No two tasks share parameters,
    so a memo or cache should show no change here. The tail is p95 (about 29
    of 580 tasks beyond it): p98, the highest with ten beyond, spread 12%
    between runs on a 2-core box.
    """

    name = "onset_scan"
    tail_percentile = 95
    repeated_work = "0% of tasks repeat parameters (continuous draws)"
    block = len(ONSET_MODES)
    traced_rate = 25.0

    def stream(self, rng):
        while True:
            modes = list(ONSET_MODES)
            rng.shuffle(modes)
            for n_modes in modes:
                yield {
                    "beta": rng.uniform(0.0, 6.0),
                    "length": rng.uniform(1.0, 8.0),
                    "prandtl": rng.uniform(0.5, 50.0),
                    "gamma": rng.uniform(1.0 / 3.0, 3.0),
                    "n_modes": n_modes,
                }

    def run(self, item, ctx):
        from anelor import lorenz, params, projection, spectral

        p = params.PhysicalParams(beta=item["beta"], prandtl=item["prandtl"],
                                  rayleigh=1.0, gamma=item["gamma"], length=item["length"])
        oracle = projection.oracle_coefficients(p)
        closed = projection.closed_form_coefficients(p)
        ra_reduced = lorenz.critical_rayleigh(p, "oracle")
        ra_spectral = spectral.critical_rayleigh_spectral(p, 1, item["n_modes"])
        return (list(oracle.as_array()), list(closed.as_array()), ra_reduced, ra_spectral)

    def check(self, item, output):
        from anelor.cli import COEFF_GATE, ROUTE_GATE

        oracle, closed, ra_reduced, ra_spectral = output
        deviation = _max_coeff_deviation(oracle, closed)
        if not deviation <= COEFF_GATE:
            return f"oracle/closed-form deviation {deviation:.3e} > {COEFF_GATE:g}"
        if not (math.isfinite(ra_spectral) and ra_spectral > 0.0 and ra_reduced > 0.0):
            return f"onset not positive and finite: {ra_reduced}, {ra_spectral}"
        if item["n_modes"] == 1 and not _relative(ra_spectral, ra_reduced) <= ROUTE_GATE:
            return f"N=1 spectral {ra_spectral!r} vs reduced {ra_reduced!r} > {ROUTE_GATE:g}"
        return None


class Trajectories(Workload):
    """Dynamics path, in process.

    A task draws the criterion-7 box with a target r in (0.05, 5), below the
    chaotic range so the mapped/direct check stays meaningful, and runs the
    closed-form map, reduced and Lorenz RK45 runs on one s-grid, and the
    mapping. After the timed loop each run holds one `largest_lyapunov` at
    (10, 8/3, 28) seeded from the run's seed; it dominates `tasks_per_s` and
    the run's wall time. The tail is p95, about 10 of 205 tasks beyond it.
    """

    name = "trajectories"
    tail_percentile = 95
    repeated_work = "0% of tasks repeat parameters; Lyapunov runs once per run"
    block = 10  # strata of r
    traced_rate = 10.0

    def stream(self, rng):
        while True:
            order = list(range(self.block))
            rng.shuffle(order)
            for k in order:
                yield {
                    "beta": rng.uniform(0.0, 1.0),
                    "prandtl": rng.uniform(0.7, 20.0),
                    "gamma": rng.uniform(1.0 / 3.0, 2.0),
                    "length": rng.uniform(2.0, 4.0),
                    "r": 0.05 + (k + rng.random()) * (5.0 - 0.05) / self.block,
                    "initial": [rng.gauss(0.0, 0.5) for _ in range(3)],
                }

    def final(self, rng):
        return [{"lyapunov_seed": rng.randrange(2**32)}]

    def run(self, item, ctx):
        import numpy as np

        from anelor import dynamics, lorenz, params, projection

        if "lyapunov_seed" in item:
            lp = lorenz.LorenzParams(10.0, 8.0 / 3.0, 28.0)
            return dynamics.largest_lyapunov(lp, seed=item["lyapunov_seed"])
        p = params.PhysicalParams(beta=item["beta"], prandtl=item["prandtl"],
                                  rayleigh=0.0, gamma=item["gamma"], length=item["length"])
        rayleigh = item["r"] * lorenz.critical_rayleigh(p, "closed_form")
        coeffs = projection.closed_form_coefficients(p.with_rayleigh(rayleigh))
        lp, scaling = lorenz.scale_to_lorenz(coeffs)
        initial = np.asarray(item["initial"])
        s_grid = np.linspace(0.0, 20.0, 801)
        reduced = dynamics.integrate_reduced(coeffs, initial, 20.0 / scaling.d,
                                             rtol=1e-10, atol=1e-10, t_eval=s_grid / scaling.d)
        direct = dynamics.integrate_lorenz(lp, scaling.apply(initial), 20.0,
                                           rtol=1e-10, atol=1e-10, t_eval=s_grid)
        mapped = dynamics.map_trajectory(reduced, scaling)
        return float(np.max(np.abs(mapped.states - direct.states)))

    def check(self, item, output):
        if "lyapunov_seed" in item:
            centre, width = LYAPUNOV_BAND
            if not abs(output - centre) <= width:
                return f"Lyapunov exponent {output:.4f} outside {centre} +/- {width}"
            return None
        if not output <= EQUIVALENCE_TOL:
            return f"mapped vs direct trajectory deviation {output:.3e} > {EQUIVALENCE_TOL:g}"
        return None


CLI_KINDS = ("coeffs", "critical", "critical_optimize_l", "simulate", "validate")


def _flag(value: float) -> str:
    return repr(float(value))


class CliBatch(Workload):
    """The CLI as users invoke it: one `python -m anelor.cli` per task.

    Each block holds one of each command kind in seeded order. Interpreter
    start and import are most of every task. A run makes about 15 tasks, too
    few for a percentile with ten beyond it; the tail is p90 (one or two
    beyond), which the stratified mix keeps steady.
    """

    name = "cli_batch"
    in_process = False
    tail_percentile = 90
    repeated_work = ("50% of critical_rayleigh calls in a beta sweep are the beta = 0 "
                     "reference; --optimize-l repeats the beta = 0 minimization per point")
    block = len(CLI_KINDS)
    traced_rate = 0.75

    def stream(self, rng):
        while True:
            kinds = list(CLI_KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                yield {"kind": kind, "argv": self._argv(kind, rng)}

    @staticmethod
    def _argv(kind, rng):
        common = ["--format", "json", "--quiet"]
        if kind == "simulate":
            return ["simulate", "--coords", "both",
                    "--beta", _flag(rng.uniform(0.0, 1.0)),
                    "--ra", _flag(rng.uniform(100.0, 3000.0)),
                    "--pr", _flag(rng.uniform(0.7, 20.0)),
                    "--gamma", _flag(rng.uniform(1.0 / 3.0, 2.0)),
                    "--l", _flag(rng.uniform(2.0, 4.0)), *common]
        physics = ["--pr", _flag(rng.uniform(0.5, 50.0)),
                   "--gamma", _flag(rng.uniform(1.0 / 3.0, 3.0))]
        if kind == "critical":
            return ["critical", "--beta-sweep", "0", _flag(rng.uniform(0.5, 6.0)), "21",
                    *physics, "--l", _flag(rng.uniform(1.0, 8.0)), *common]
        if kind == "critical_optimize_l":
            return ["critical", "--beta-sweep", "0", _flag(rng.uniform(0.5, 6.0)),
                    str(rng.randint(5, 21)), "--optimize-l", "--source", "closed_form",
                    *physics, *common]
        physics += ["--beta", _flag(rng.uniform(0.0, 6.0)), "--l", _flag(rng.uniform(1.0, 8.0))]
        if kind == "coeffs":
            return ["coeffs", "--ra", _flag(rng.uniform(1.0, 1e4)), *physics, *common]
        return ["validate", "--n-modes", "1", "2", "4", "8", "16", *physics, *common]

    def run(self, item, ctx):
        return run_cli(self.root, item["argv"], ctx)

    def check(self, item, output):
        from anelor import lorenz, params

        returncode, document = output
        if returncode != 0:
            return f"exit code {returncode}"
        if document is None:
            return "no JSON document on stdout"
        kind = item["kind"]
        if kind == "coeffs" and document["gate"]["passed"] is not True:
            return f"coefficient gate failed: {document['gate']}"
        if kind == "validate" and document["route_consistency"]["passed"] is not True:
            return f"route consistency failed: {document['route_consistency']}"
        if kind == "simulate" and not document["equivalence_deviation"] <= EQUIVALENCE_TOL:
            return f"equivalence deviation {document['equivalence_deviation']:.3e}"
        if kind.startswith("critical"):
            argv = item["argv"]
            prandtl = float(argv[argv.index("--pr") + 1])
            gamma = float(argv[argv.index("--gamma") + 1])
            for beta, length, ra, _, _ in document["rows"]:
                if kind == "critical":
                    p = params.PhysicalParams(beta=beta, prandtl=prandtl, gamma=gamma,
                                              length=length)
                    expected = lorenz.critical_rayleigh(p, "oracle")
                else:
                    expected = lorenz.minimize_over_length(
                        beta=beta, prandtl=prandtl, gamma=gamma, source="closed_form"
                    ).rayleigh
                if not _relative(ra, expected) <= CRITICAL_TOL:
                    return f"critical row beta={beta}: {ra!r} vs in-process {expected!r}"
        return None


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: str, argv, ctx=None):
    """One CLI subprocess, traced through perfbench/traced_cli.py when `ctx`
    has a trace directory. Returns (exit code, parsed JSON document or None).
    """
    if ctx is None or ctx.trace_dir is None:
        command = [sys.executable, "-m", "anelor.cli", *argv]
        spans_path = None
    else:
        handle, spans_path = tempfile.mkstemp(suffix=".json", dir=ctx.trace_dir)
        os.close(handle)
        command = [sys.executable, os.path.join(root, "perfbench", "traced_cli.py"),
                   spans_path, json.dumps(ctx.task), *argv]
    completed = subprocess.run(command, cwd=root, env=cli_env(root), capture_output=True,
                               text=True, timeout=170)
    if spans_path is not None:
        ctx.collect_child_trace(spans_path)
    try:
        document = json.loads(completed.stdout)
    except json.JSONDecodeError:
        document = None
    return completed.returncode, document


WORKLOADS = {cls.name: cls for cls in (OnsetScan, Trajectories, CliBatch)}


def make_inputs(workload: Workload, seed: int):
    """(task stream, final tasks, digest of the stream's first DIGEST_ITEMS
    inputs and the final tasks); a run consumes a prefix of the stream."""

    def stream():
        return workload.stream(random.Random(f"{workload.name}:{seed}"))

    final = workload.final(random.Random(f"{workload.name}:{seed}:final"))
    head = [item for item, _ in zip(stream(), range(DIGEST_ITEMS))]
    text = json.dumps({"head": head, "final": final}, sort_keys=True, separators=(",", ":"))
    return stream(), final, hashlib.sha256(text.encode()).hexdigest()
