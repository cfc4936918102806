"""Command-line surface: coefficient reports, onset curves, trajectories,
and truncation validation.

Subcommands

    coeffs      e1..e7 from the quadrature oracle and the closed forms, with
                per-term deviations; nonzero exit if the two routes disagree
                beyond 1e-6
    critical    critical Rayleigh number tables over beta and domain-width
                sweeps, optionally minimizing over the width
    simulate    reduced and/or Lorenz trajectories, with the scaling
                equivalence deviation when both are requested
    validate    N-mode spectral onset versus the reduced route, plus the
                coefficient discrepancy report

Settings resolve with precedence: command line over ANELOR_* environment
variables over a config file (flat key=value lines or JSON) over defaults.
Tables are CSV (header row, comma separator, LF endings, 17 significant
digits) or JSON; either stream to stdout or to --output. Summary lines go to
stderr so payloads stay clean, and --quiet drops them. Exit codes: 0 success,
1 numeric failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import QuadratureRule
from .dynamics import integrate_lorenz, integrate_reduced, map_trajectory
from .lorenz import critical_rayleigh, minimize_over_length, scale_to_lorenz
from .params import PhysicalParams
from .projection import coefficients, discrepancy_report
from .spectral import critical_rayleigh_spectral

__all__ = ["ConfigError", "RunConfig", "main", "entry"]

COEFF_GATE = 1e-6
ROUTE_GATE = 1e-8
ENV_PREFIX = "ANELOR_"


class ConfigError(ValueError):
    """Bad configuration; reported as a usage error (exit code 2)."""


def _as_float(value):
    return float(value)


def _as_int(value):
    number = float(value)
    if number != int(number):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _as_bool(value):
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _as_str(value):
    return str(value)


def _listify(value):
    if isinstance(value, (list, tuple)):
        return list(value)
    return [piece for piece in str(value).replace(",", " ").split() if piece]


def _as_sweep(value):
    parts = _listify(value)
    if len(parts) != 3:
        raise ValueError(f"sweep needs start stop count, got {value!r}")
    return (float(parts[0]), float(parts[1]), _as_int(parts[2]))


def _as_int_list(value):
    parts = _listify(value)
    if not parts:
        raise ValueError("need at least one entry")
    return tuple(_as_int(piece) for piece in parts)


def _as_triple(value):
    parts = _listify(value)
    if len(parts) != 3:
        raise ValueError(f"expected three numbers, got {value!r}")
    return tuple(float(piece) for piece in parts)


# field name -> (coercion, default)
_REGISTRY = {
    "beta": (_as_float, 0.0),
    "prandtl": (_as_float, 10.0),
    "rayleigh": (_as_float, 0.0),
    "gamma": (_as_float, 4.0 / 3.0),
    "length": (_as_float, 2.0 * math.sqrt(2.0)),
    "beta_sweep": (_as_sweep, None),
    "l_sweep": (_as_sweep, None),
    "optimize_l": (_as_bool, False),
    "n_modes": (_as_int_list, (1, 2, 4, 8)),
    "m": (_as_int, 1),
    "order": (_as_int, 64),
    "rtol": (_as_float, 1e-10),
    "atol": (_as_float, 1e-12),
    "coords": (_as_str, "both"),
    "t_end": (_as_float, 20.0),
    "samples": (_as_int, 801),
    "initial": (_as_triple, (1e-3, 1e-3, 1e-3)),
    "source": (_as_str, "oracle"),
    "format": (_as_str, "csv"),
    "output": (_as_str, None),
    "report": (_as_str, None),
    "quiet": (_as_bool, False),
    "workers": (_as_int, 1),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one invocation."""

    subcommand: str
    beta: float
    prandtl: float
    rayleigh: float
    gamma: float
    length: float
    beta_sweep: tuple | None
    l_sweep: tuple | None
    optimize_l: bool
    n_modes: tuple
    m: int
    order: int
    rtol: float
    atol: float
    coords: str
    t_end: float
    samples: int
    initial: tuple
    source: str
    format: str
    output: str | None
    report: str | None
    quiet: bool
    workers: int

    def __post_init__(self):
        try:
            self.physical()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.source not in ("oracle", "closed_form", "published"):
            raise ConfigError(f"unknown coefficient source {self.source!r}")
        if self.coords not in ("abc", "xyz", "both"):
            raise ConfigError(f"coords must be abc, xyz or both, got {self.coords!r}")
        if self.order < 2:
            raise ConfigError("quadrature order must be at least 2")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if not self.t_end > 0.0:
            raise ConfigError("t_end must be positive")
        for name in ("rtol", "atol"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        for name in ("beta_sweep", "l_sweep"):
            sweep = getattr(self, name)
            if sweep is None:
                continue
            start, stop, count = sweep
            if count < 1:
                raise ConfigError(f"{name} count must be at least 1")
            if count > 1 and not stop > start:
                raise ConfigError(f"{name} must be increasing, got {sweep}")
        if self.m < 1 or not self.n_modes or min(self.n_modes) < 1:
            raise ConfigError("m and every n_modes entry must be at least 1")
        if not all(math.isfinite(v) for v in self.initial):
            raise ConfigError("initial state must be finite")
        if self.subcommand == "critical" and self.l_sweep and self.optimize_l:
            raise ConfigError("--l-sweep and --optimize-l are mutually exclusive")
        if self.subcommand == "simulate" and self.coords != "abc" and self.rayleigh <= 0.0:
            raise ConfigError("simulate in xyz/both coordinates needs --ra > 0")

    def physical(self) -> PhysicalParams:
        return PhysicalParams(
            beta=self.beta, prandtl=self.prandtl, rayleigh=self.rayleigh,
            gamma=self.gamma, length=self.length,
        )


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return data
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _coerce_known(source: str, data: dict) -> dict:
    out = {}
    for key, value in data.items():
        if key not in _REGISTRY:
            raise ConfigError(f"{source}: unknown field {key!r}")
        coerce, _ = _REGISTRY[key]
        try:
            out[key] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: field {key!r}: {exc}") from exc
    return out


def _environment_overrides() -> dict:
    found = {}
    for name in _REGISTRY:
        value = os.environ.get(ENV_PREFIX + name.upper())
        if value is not None:
            found[name] = value
    return _coerce_known("environment", found)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment, and flags, in that order."""
    merged = {name: default for name, (_, default) in _REGISTRY.items()}
    if args.config:
        merged.update(_coerce_known(args.config, _load_config_file(args.config)))
    merged.update(_environment_overrides())
    cli_given = {
        key: value
        for key, value in vars(args).items()
        if key in _REGISTRY and value is not None
    }
    merged.update(_coerce_known("command line", cli_given))
    return RunConfig(subcommand=args.command, **merged)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--beta", type=float, help="background stratification rate")
    shared.add_argument("--pr", dest="prandtl", type=float, help="Prandtl number")
    shared.add_argument("--ra", dest="rayleigh", type=float, help="Rayleigh number")
    shared.add_argument("--gamma", type=float, help="adiabatic exponent")
    shared.add_argument("--l", "--length", dest="length", type=float,
                        help="domain width")
    shared.add_argument("--order", type=int, help="quadrature order per axis")
    shared.add_argument("--source", choices=("oracle", "closed_form", "published"),
                        help="coefficient route")
    shared.add_argument("--format", choices=("csv", "json"), help="table format")
    shared.add_argument("--output", help="write the table here instead of stdout")
    shared.add_argument("--quiet", action="store_const", const=True,
                        help="suppress summary lines")
    shared.add_argument("--config", help="config file (key=value lines or JSON)")
    shared.add_argument("--workers", type=int, help="thread pool size for sweeps")

    parser = argparse.ArgumentParser(
        prog="anelor",
        description="Lorenz-type reduction of anelastic convection",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "coeffs", parents=[shared],
        help="reduced-system coefficients from every route, with deviations",
    )

    critical = commands.add_parser(
        "critical", parents=[shared],
        help="critical Rayleigh numbers over parameter sweeps",
    )
    critical.add_argument("--beta-sweep", nargs=3, metavar=("START", "STOP", "COUNT"),
                          help="sweep the stratification rate")
    critical.add_argument("--l-sweep", nargs=3, metavar=("START", "STOP", "COUNT"),
                          help="sweep the domain width")
    critical.add_argument("--optimize-l", dest="optimize_l", action="store_const",
                          const=True, help="minimize over the domain width")

    simulate = commands.add_parser(
        "simulate", parents=[shared],
        help="integrate the reduced and/or Lorenz systems",
    )
    simulate.add_argument("--coords", choices=("abc", "xyz", "both"),
                          help="coordinate system(s) to integrate")
    simulate.add_argument("--t-end", dest="t_end", type=float,
                          help="integration span in the output coordinates")
    simulate.add_argument("--samples", type=int, help="number of output samples")
    simulate.add_argument("--rtol", type=float, help="relative tolerance")
    simulate.add_argument("--atol", type=float, help="absolute tolerance")
    simulate.add_argument("--initial", nargs=3, metavar=("A", "B", "C"),
                          help="initial reduced state")

    validate = commands.add_parser(
        "validate", parents=[shared],
        help="N-mode spectral onset versus the reduced route",
    )
    validate.add_argument("--n-modes", dest="n_modes", nargs="+", metavar="N",
                          help="vertical truncations to check")
    validate.add_argument("--m", type=int, help="horizontal mode number")
    validate.add_argument("--report", help="also write the coefficient "
                          "discrepancy table to this path")
    return parser


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(document) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def _deliver(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _note(config: RunConfig, message: str) -> None:
    if not config.quiet:
        print(message, file=sys.stderr)


def _params_dict(params: PhysicalParams) -> dict:
    return {
        "beta": params.beta, "prandtl": params.prandtl,
        "rayleigh": params.rayleigh, "gamma": params.gamma,
        "length": params.length,
    }


def _emit(config: RunConfig, columns, rows, extra: dict) -> None:
    if config.format == "csv":
        text = _render_csv(columns, rows)
    else:
        document = {"command": config.subcommand}
        document.update(extra)
        document["columns"] = list(columns)
        document["rows"] = [list(row) for row in rows]
        text = _render_json(document)
    _deliver(text, config.output)


def _sweep_values(sweep, fallback) -> list[float]:
    if sweep is None:
        return [fallback]
    start, stop, count = sweep
    return [float(v) for v in np.linspace(start, stop, count)]


def _pool_map(config: RunConfig, function, items) -> list:
    if config.workers == 1 or len(items) <= 1:
        return [function(item) for item in items]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(function, items))


def _cmd_coeffs(config: RunConfig) -> int:
    params = config.physical()
    rule = QuadratureRule(config.order, params.length)
    rows = [report.to_dict() for report in discrepancy_report(params, rule)]
    columns = ("term", "oracle", "closed_form", "published",
               "rel_dev", "rel_dev_closed_form", "rel_dev_published")
    table = [tuple(row[col] for col in columns) for row in rows]
    worst = float(max(
        row["rel_dev_closed_form"] for row in rows if row["term"].startswith("e")
    ))
    passed = worst <= COEFF_GATE
    _emit(config, columns, table, {
        "params": _params_dict(params),
        "gate": {"threshold": COEFF_GATE, "max_rel_dev": worst, "passed": passed},
    })
    _note(config, f"max oracle/closed-form coefficient deviation {worst:.3e} "
          f"(threshold {COEFF_GATE:g}): {'ok' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_critical(config: RunConfig) -> int:
    betas = _sweep_values(config.beta_sweep, config.beta)
    lengths = _sweep_values(config.l_sweep, config.length)
    points = [(beta, length) for beta in betas for length in lengths]
    if config.optimize_l:
        flat = minimize_over_length(
            beta=0.0, prandtl=config.prandtl, gamma=config.gamma,
            source=config.source,
        )

    def solve(point):
        beta, length = point
        if config.optimize_l:
            optimum = minimize_over_length(
                beta=beta, prandtl=config.prandtl, gamma=config.gamma,
                source=config.source,
            )
            length, ra, ra_flat = optimum.length, optimum.rayleigh, flat.rayleigh
        else:
            base = PhysicalParams(beta=beta, prandtl=config.prandtl, rayleigh=0.0,
                                  gamma=config.gamma, length=length)
            ra = critical_rayleigh(base, config.source)
            ra_flat = critical_rayleigh(base.with_beta(0.0), config.source)
        ratio = ra / ra_flat
        taylor = (ratio - 1.0) / beta if beta > 0.0 else None
        return (beta, length, ra, ratio, taylor)

    rows = _pool_map(config, solve, points)
    columns = ("beta", "length", "ra_critical", "ra_ratio", "taylor_ratio")
    _emit(config, columns, rows, {"params": _params_dict(config.physical())})
    _note(config, f"computed {len(rows)} onset point(s); "
          f"first Ra* = {rows[0][2]:.10g}")
    return 0


def _cmd_simulate(config: RunConfig) -> int:
    params = config.physical()
    initial = np.asarray(config.initial, dtype=float)
    extra = {"params": _params_dict(params)}
    deviation = None

    if config.coords == "abc":
        coeffs = coefficients(params, config.source,
                              QuadratureRule(config.order, params.length))
        grid = np.linspace(0.0, config.t_end, config.samples)
        trajectory = integrate_reduced(coeffs, initial, config.t_end,
                                       config.rtol, config.atol, t_eval=grid)
        columns = trajectory.labels
        rows = [tuple(sample) for sample in
                np.column_stack([trajectory.times, trajectory.states])]
        extra["nfev"] = trajectory.nfev
    else:
        coeffs = coefficients(params, config.source,
                              QuadratureRule(config.order, params.length))
        lorenz, scaling = scale_to_lorenz(coeffs)
        extra["lorenz"] = {"sigma": lorenz.sigma, "delta": lorenz.delta,
                           "r": lorenz.r}
        extra["scaling"] = {"a": scaling.a, "b": scaling.b, "c": scaling.c,
                            "d": scaling.d}
        s_grid = np.linspace(0.0, config.t_end, config.samples)
        direct = integrate_lorenz(lorenz, scaling.apply(initial), config.t_end,
                                  config.rtol, config.atol, t_eval=s_grid)
        if config.coords == "xyz":
            columns = direct.labels
            rows = [tuple(sample) for sample in
                    np.column_stack([direct.times, direct.states])]
            extra["nfev"] = direct.nfev
        else:
            reduced = integrate_reduced(
                coeffs, initial, float(s_grid[-1] / scaling.d),
                config.rtol, config.atol, t_eval=s_grid / scaling.d,
            )
            mapped = map_trajectory(reduced, scaling)
            deviation = float(np.max(np.abs(mapped.states - direct.states)))
            extra["equivalence_deviation"] = deviation
            extra["nfev"] = direct.nfev + reduced.nfev
            columns = ("s", "X", "Y", "Z", "X_from_abc", "Y_from_abc",
                       "Z_from_abc")
            rows = [tuple(sample) for sample in
                    np.column_stack([s_grid, direct.states, mapped.states])]

    _emit(config, columns, rows, extra)
    message = f"integrated {len(rows)} samples over [0, {config.t_end:g}]"
    if deviation is not None:
        message += f"; equivalence deviation {deviation:.3e}"
    _note(config, message)
    return 0


def _cmd_validate(config: RunConfig) -> int:
    params = config.physical().with_rayleigh(0.0)
    rule = QuadratureRule(config.order, params.length)
    reduced_value = critical_rayleigh(params, "oracle", rule)

    def solve(n_modes):
        spectral_value = critical_rayleigh_spectral(params, config.m, n_modes, rule)
        rel = float(abs(spectral_value - reduced_value) / reduced_value)
        return (params.beta, config.m, n_modes, spectral_value, reduced_value, rel)

    rows = _pool_map(config, solve, list(config.n_modes))
    columns = ("beta", "m", "n_modes", "ra_critical", "ra_reduced", "rel_dev")

    consistency = None
    for row in rows:
        if row[2] == 1:
            consistency = row[5]
    passed = consistency is None or consistency <= ROUTE_GATE

    report_rows = [item.to_dict() for item in discrepancy_report(params, rule)]
    report_columns = ("term", "oracle", "closed_form", "published",
                      "rel_dev", "rel_dev_closed_form", "rel_dev_published")
    if config.report:
        table = [tuple(row[col] for col in report_columns) for row in report_rows]
        if config.format == "csv":
            _deliver(_render_csv(report_columns, table), config.report)
        else:
            _deliver(_render_json({
                "command": "validate-report",
                "params": _params_dict(params),
                "columns": list(report_columns),
                "rows": [list(row) for row in table],
            }), config.report)

    extra = {"params": _params_dict(params),
             "route_consistency": {
                 "threshold": ROUTE_GATE,
                 "rel_dev": consistency,
                 "passed": passed,
             }}
    if config.format == "json":
        extra["discrepancy"] = report_rows
    _emit(config, columns, rows, extra)
    if consistency is None:
        _note(config, "route consistency not checked (no N=1 truncation requested)")
    else:
        _note(config, f"N=1 route consistency {consistency:.3e} "
              f"(threshold {ROUTE_GATE:g}): {'ok' if passed else 'FAIL'}")
    return 0 if passed else 1


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "critical": _cmd_critical,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except ConfigError as exc:
        print(f"anelor: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[config.subcommand](config)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"anelor: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
