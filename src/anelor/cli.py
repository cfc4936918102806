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
    validate    N-mode spectral onset versus the reduced route's onset, as
                `critical` computes it

Each setting is one row of the `_SETTINGS` table: its coercion, default,
owning subcommand, flags and argparse keywords. The parsers, the defaults
(the physical ones from `PhysicalParams()`), the `RunConfig` fields and the
choice checks all derive from that table. Settings resolve with precedence:
command line over ANELOR_<FIELD> environment variables over a config file
(flat field = value lines or JSON) over defaults. Environment variables and
config keys use the field names (`prandtl`, `t_end`, `n_modes`), not the
flags (`--pr`, `--t-end`, `--n-modes`). All three sources go through the
same coercion, so they accept the same values and reject unknown names.

Tables are CSV (header row, comma separator, LF endings, 17 significant
digits) or JSON; either stream to stdout or to --output. Summary lines go to
stderr so payloads stay clean, and --quiet drops them. Exit codes: 0 success,
1 numeric failure or no answer at these parameters, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, fields, make_dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import integrate_lorenz, integrate_reduced, map_trajectory
from .lorenz import critical_rayleigh, minimize_over_length, scale_to_lorenz
from .params import InadmissibleError, PhysicalParams
from .projection import PROVENANCES, ProjectionTermReport, coefficients, discrepancy_report
from .spectral import critical_rayleigh_spectral

__all__ = ["ConfigError", "RunConfig", "main", "entry", "render_csv"]

COEFF_GATE = 1e-6
ROUTE_GATE = 1e-8
ENV_PREFIX = "ANELOR_"


class ConfigError(ValueError):
    """Bad configuration; reported as a usage error (exit code 2)."""


def _as_int(value):
    number = float(value)
    if not number.is_integer():
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


def _as_path(value):
    return None if value is None else str(value)


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


class _Setting(NamedTuple):
    coerce: Callable
    default: object
    owner: str | None  # the subcommand that takes the flags; None: every one
    flags: tuple
    keywords: dict  # passed to add_argument, which never converts the value


def _row(coerce, default, owner, *flags, **keywords) -> _Setting:
    return _Setting(coerce, default, owner, flags, keywords)


_SWEEP = {"nargs": 3, "metavar": ("START", "STOP", "COUNT")}
_PHYSICAL = asdict(PhysicalParams())

# field name -> setting; rows of a subcommand keep their --help order, and the
# physical settings' defaults come from _PHYSICAL
_SETTINGS = {
    "beta": _row(float, None, None, "--beta", help="background stratification rate"),
    "prandtl": _row(float, None, None, "--pr", help="Prandtl number"),
    "rayleigh": _row(float, None, None, "--ra", help="Rayleigh number"),
    "gamma": _row(float, None, None, "--gamma",
                  help="viscosity ratio (bulk over shear plus one third)"),
    "length": _row(float, None, None, "--l", "--length", help="domain width"),
    "source": _row(str, "oracle", None, "--source", choices=PROVENANCES, help="coefficient route"),
    "format": _row(str, "csv", None, "--format", choices=("csv", "json"), help="table format"),
    "output": _row(_as_path, None, None, "--output",
                   help="write the table here instead of stdout"),
    "quiet": _row(_as_bool, False, None, "--quiet", action="store_const", const=True,
                  help="suppress summary lines"),
    "workers": _row(_as_int, 1, None, "--workers", help="thread pool size for sweeps"),
    "beta_sweep": _row(_as_sweep, None, "critical", "--beta-sweep", **_SWEEP,
                       help="sweep the stratification rate"),
    "l_sweep": _row(_as_sweep, None, "critical", "--l-sweep", **_SWEEP,
                    help="sweep the domain width"),
    "optimize_l": _row(_as_bool, False, "critical", "--optimize-l", action="store_const",
                       const=True, help="minimize over the domain width"),
    "coords": _row(str, "both", "simulate", "--coords", choices=("abc", "xyz", "both"),
                   help="coordinate system(s) to integrate"),
    "t_end": _row(float, 20.0, "simulate", "--t-end",
                  help="integration span in the output coordinates"),
    "samples": _row(_as_int, 801, "simulate", "--samples", help="number of output samples"),
    "rtol": _row(float, 1e-10, "simulate", "--rtol", help="relative tolerance"),
    "atol": _row(float, 1e-12, "simulate", "--atol", help="absolute tolerance"),
    "initial": _row(_as_triple, (1e-3, 1e-3, 1e-3), "simulate", "--initial", nargs=3,
                    metavar=("A", "B", "C"), help="initial reduced state"),
    "n_modes": _row(_as_int_list, (1, 2, 4, 8), "validate", "--n-modes", nargs="+",
                    metavar="N", help="vertical truncations to check, 1-512"),
    "m": _row(_as_int, 1, "validate", "--m", help="horizontal mode number"),
}


def _physical(config) -> PhysicalParams:
    return PhysicalParams(**{name: getattr(config, name) for name in _PHYSICAL})


def _check(config) -> None:
    try:
        params = config.physical()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name, setting in _SETTINGS.items():
        choices = setting.keywords.get("choices")
        if choices and getattr(config, name) not in choices:
            raise ConfigError(f"{name} must be one of {', '.join(choices)}, "
                              f"got {getattr(config, name)!r}")
    if config.workers < 1:
        raise ConfigError("workers must be at least 1")
    if config.samples < 2:
        raise ConfigError("samples must be at least 2")
    if not config.t_end > 0.0:
        raise ConfigError("t_end must be positive")
    for name in ("rtol", "atol"):
        if not 0.0 < getattr(config, name) < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1)")
    for name, field in (("beta_sweep", "beta"), ("l_sweep", "length")):
        sweep = getattr(config, name)
        if sweep is None:
            continue
        start, stop, count = sweep
        if count < 1:
            raise ConfigError(f"{name} count must be at least 1")
        if count > 1 and not stop > start:
            raise ConfigError(f"{name} must be increasing, got {sweep}")
        try:
            for point in (start, stop) if count > 1 else (start,):
                replace(params, **{field: point})
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    if config.m < 1 or not config.n_modes or not all(1 <= n <= 512 for n in config.n_modes):
        raise ConfigError("m must be at least 1 and every n_modes entry in [1, 512]")
    if not all(math.isfinite(v) for v in config.initial):
        raise ConfigError("initial state must be finite")
    if config.subcommand == "critical" and config.l_sweep and config.optimize_l:
        raise ConfigError("--l-sweep and --optimize-l are mutually exclusive")
    if config.subcommand == "critical" and config.optimize_l and config.source == "published":
        raise ConfigError("--optimize-l needs --source oracle or closed_form: the published "
                          "gamma term, 4*pi^2/l, has no closed-form width minimum")
    if config.subcommand == "simulate" and config.coords != "abc" and config.rayleigh <= 0.0:
        raise ConfigError("simulate in xyz/both coordinates needs --ra > 0")


RunConfig = make_dataclass(
    "RunConfig", [("subcommand", str)] + [(name, object) for name in _SETTINGS],
    frozen=True, namespace={
        "__doc__": "Fully resolved settings for one invocation, one field per setting.",
        "__module__": __name__, "__post_init__": _check, "physical": _physical,
    },
)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
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
        if key not in _SETTINGS:
            raise ConfigError(f"{source}: unknown field {key!r}")
        try:
            out[key] = _SETTINGS[key].coerce(value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"{source}: field {key!r}: {exc}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment, and flags, in that order."""
    merged = {name: setting.default for name, setting in _SETTINGS.items()} | _PHYSICAL
    if args.config:
        merged.update(_coerce_known(args.config, _load_config_file(args.config)))
    merged.update(_coerce_known("environment", {
        key[len(ENV_PREFIX):].lower(): value for key, value in os.environ.items()
        if key.startswith(ENV_PREFIX)}))
    merged.update(_coerce_known("command line", {
        name: value for name, value in vars(args).items()
        if name in _SETTINGS and value is not None}))
    return RunConfig(subcommand=args.command, **merged)


def _add_flags(parser: argparse.ArgumentParser, owner: str | None) -> None:
    for name, setting in _SETTINGS.items():
        if setting.owner == owner:
            parser.add_argument(*setting.flags, dest=name, **setting.keywords)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    _add_flags(shared, None)
    shared.add_argument("--config", help="config file (key=value lines or JSON)")

    parser = argparse.ArgumentParser(
        prog="anelor",
        description="Lorenz-type reduction of anelastic convection",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        _add_flags(commands.add_parser(command, parents=[shared], help=text), command)
    return parser


_REPORT_COLUMNS = tuple(field.name for field in fields(ProjectionTermReport))


def render_csv(columns, rows) -> str:
    """The CSV table: a header, then one comma-separated line per row with
    floats to 17 significant digits and None as an empty cell; LF line endings."""
    lines = [",".join(columns)] + [
        ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(config: RunConfig, columns, rows, extra: dict) -> None:
    """Write one table as CSV, or as a JSON document headed by the subcommand,
    to --output, else stdout."""
    if config.format == "csv":
        text = render_csv(columns, rows)
    else:
        document = {"command": config.subcommand, **extra,
                    "columns": list(columns), "rows": [list(row) for row in rows]}
        text = json.dumps(document, indent=2, allow_nan=False) + "\n"
    if config.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(config.output, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {config.output}: {exc.strerror or exc}") from exc


def _note(config: RunConfig, message: str) -> None:
    if not config.quiet:
        print(message, file=sys.stderr)


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
    reports = discrepancy_report(params)
    worst = float(max(
        report.rel_dev_closed_form for report in reports if report.term.startswith("e")
    ))
    passed = worst <= COEFF_GATE
    _emit(config, _REPORT_COLUMNS, [astuple(report) for report in reports], {
        "params": asdict(params),
        "gate": {"threshold": COEFF_GATE, "max_rel_dev": worst, "passed": passed},
    })
    _note(config, f"max oracle/closed-form coefficient deviation {worst:.3e} "
          f"(threshold {COEFF_GATE:g}): {'ok' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_critical(config: RunConfig) -> int:
    base = config.physical().with_rayleigh(0.0)
    lengths = _sweep_values(config.l_sweep, config.length)
    # each point as PhysicalParams, so a row reports beta as the params hold it
    points = [replace(base, beta=beta, length=length)
              for beta in _sweep_values(config.beta_sweep, config.beta) for length in lengths]

    def onset(point):
        """(width, Ra*) at the point's width, or at the optimal one under --optimize-l."""
        if config.optimize_l:
            best = minimize_over_length(beta=point.beta, prandtl=point.prandtl,
                                        gamma=point.gamma, source=config.source)
            return best.length, best.rayleigh
        return point.length, critical_rayleigh(point, config.source)

    # each distinct point once, the beta = 0 references first, so their errors come first
    distinct = list(dict.fromkeys([replace(point, beta=0.0) for point in points] + points))
    onsets = dict(zip(distinct, _pool_map(config, onset, distinct)))
    rows = []
    for point in points:
        length, ra = onsets[point]
        ratio = ra / onsets[replace(point, beta=0.0)][1]
        taylor = (ratio - 1.0) / point.beta if point.beta > 0.0 else None
        rows.append((point.beta, length, ra, ratio, taylor))
    columns = ("beta", "length", "ra_critical", "ra_ratio", "taylor_ratio")
    _emit(config, columns, rows, {"params": asdict(base)})
    _note(config, f"computed {len(rows)} onset point(s); "
          f"first Ra* = {rows[0][2]:.10g}")
    return 0


def _cmd_simulate(config: RunConfig) -> int:
    params = config.physical()
    initial = np.asarray(config.initial, dtype=float)
    extra = {"params": asdict(params)}
    coeffs = coefficients(params, config.source)
    grid = np.linspace(0.0, config.t_end, config.samples)
    tolerances = (config.rtol, config.atol)

    runs = []  # the requested runs on the output grid, the Lorenz one first
    if config.coords != "abc":
        lorenz, scaling = scale_to_lorenz(coeffs)
        extra |= {"lorenz": asdict(lorenz), "scaling": asdict(scaling)}
        runs.append(integrate_lorenz(lorenz, scaling.apply(initial), config.t_end,
                                     *tolerances, t_eval=grid))
    if config.coords != "xyz":
        # beside a Lorenz run the grid is in s = d*t, and the reduced run maps onto it
        times = grid / scaling.d if runs else grid
        reduced = integrate_reduced(coeffs, initial, float(times[-1]), *tolerances,
                                    t_eval=times)
        runs.append(map_trajectory(reduced, scaling) if runs else reduced)
    if len(runs) == 2:
        extra["equivalence_deviation"] = float(np.max(np.abs(runs[1].states - runs[0].states)))
    extra["nfev"] = sum(run.nfev for run in runs)

    columns = runs[0].labels + tuple(
        label + "_from_abc" for run in runs[1:] for label in run.labels[1:])
    rows = [tuple(sample) for sample in np.column_stack(
        [runs[0].times] + [run.states for run in runs])]
    _emit(config, columns, rows, extra)
    message = f"integrated {len(rows)} samples over [0, {config.t_end:g}]"
    if "equivalence_deviation" in extra:
        message += f"; equivalence deviation {extra['equivalence_deviation']:.3e}"
    _note(config, message)
    return 0


def _cmd_validate(config: RunConfig) -> int:
    params = config.physical().with_rayleigh(0.0)
    # the m-th harmonic pencil at width l is the first harmonic's at l/m, so the
    # reduced onset is `critical`'s at l/m; past its domain edge the table holds
    # the pencil's onsets alone
    unchecked = "no N=1 truncation requested"
    try:
        reduced_value = critical_rayleigh(replace(params, length=params.length / config.m),
                                          config.source)
    except InadmissibleError as exc:
        reduced_value, unchecked = None, f"reduced route: {exc}"

    def solve(n_modes):
        onset = critical_rayleigh_spectral(params, config.m, n_modes)
        rel = None if reduced_value is None else abs(onset - reduced_value) / reduced_value
        return (params.beta, config.m, n_modes, onset, reduced_value, rel)

    rows = _pool_map(config, solve, list(config.n_modes))
    columns = ("beta", "m", "n_modes", "ra_critical", "ra_reduced", "rel_dev")

    consistency = next((row[5] for row in rows if row[2] == 1), None)
    passed = None if consistency is None else consistency <= ROUTE_GATE  # None: unchecked

    _emit(config, columns, rows, {"params": asdict(params), "route_consistency": {
        "threshold": ROUTE_GATE, "rel_dev": consistency, "passed": passed}})
    if consistency is None:
        _note(config, f"route consistency not checked ({unchecked})")
    else:
        _note(config, f"N=1 route consistency {consistency:.3e} "
              f"(threshold {ROUTE_GATE:g}): {'ok' if passed else 'FAIL'}")
    return 1 if passed is False else 0


# subcommand -> (--help line, handler)
_COMMANDS = {
    "coeffs": ("reduced-system coefficients from every route, with deviations",
               _cmd_coeffs),
    "critical": ("critical Rayleigh numbers over parameter sweeps", _cmd_critical),
    "simulate": ("integrate the reduced and/or Lorenz systems", _cmd_simulate),
    "validate": ("N-mode spectral onset versus the reduced route", _cmd_validate),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[config.subcommand][1](config)
    except ConfigError as exc:
        print(f"anelor: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"anelor: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
