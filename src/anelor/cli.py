"""Command-line surface: coefficient reports (`coeffs`), onset curves
(`critical`), trajectories (`simulate`) and truncation validation
(`validate`); `_COMMANDS` holds each subcommand's help line and handler.

Each setting is one row of the `_SETTINGS` table: its conversion from text,
default, the subcommands that read it and take its flags, the flags and
argparse keywords; the parsers, the defaults (the physical ones from
`PhysicalParams()`) and the choice checks derive from that table. Settings
resolve with precedence: command line over ANELOR_<FIELD> environment variables
over a config file (flat field = value lines or JSON) over defaults; the latter
two use the field names (`prandtl`, `t_end`), not the flags (`--pr`,
`--t-end`). Every value reaches its conversion as text (a JSON list as its
items joined by spaces, a JSON null as no value). A subcommand converts and
checks only the settings it reads, which `RunConfig` holds; an unknown name
fails every subcommand. Handlers state the command line's policies before any
computation, and a rule the library owns, such as the integrator's on t_end,
fires when the handler calls its owner.

Tables are CSV (header row, comma separator, LF endings, 17 significant
digits) or JSON; either stream to stdout or to --output. Summary lines go to
stderr so payloads stay clean, and --quiet drops them. Exit codes: 0 success,
1 numeric failure or no answer at these parameters, 2 a usage or config error
(an `ArgumentError`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .basis import ModeIndex
from .dynamics import (_ATOL, _RTOL, _SAMPLES, _check_run, integrate_lorenz, integrate_reduced,
                       map_trajectory)
from .lorenz import critical_rayleigh, minimize_over_length, scale_to_lorenz
from .params import ArgumentError, InadmissibleError, PhysicalParams, _check_integer
from .projection import PROVENANCES, ProjectionTermReport, coefficients, discrepancy_report
from .spectral import critical_rayleigh_spectral

__all__ = ["RunConfig", "main", "entry", "render_csv"]

COEFF_GATE = 1e-6
ROUTE_GATE = 1e-8
ENV_PREFIX = "ANELOR_"


def _as_int(text):
    """Text by int(); like every number setting, a float must hold it."""
    number = int(text)
    float(number)  # OverflowError past the float range
    return number


def _as_bool(text):
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _listify(text):
    return text.replace(",", " ").split()


def _as_sweep(text):
    parts = _listify(text)
    if len(parts) != 3:
        raise ValueError(f"sweep needs start stop count, got {text!r}")
    return (float(parts[0]), float(parts[1]), _as_int(parts[2]))


def _as_int_list(text):
    parts = _listify(text)
    if not parts:
        raise ValueError("need at least one entry")
    return tuple(_as_int(piece) for piece in parts)


def _as_triple(text):
    parts = _listify(text)
    if len(parts) != 3:
        raise ValueError(f"expected three numbers, got {text!r}")
    return tuple(float(piece) for piece in parts)


class _Setting(NamedTuple):
    coerce: Callable  # takes the value as text
    default: object
    commands: frozenset  # the subcommands that read the setting and take its flags
    flags: tuple
    keywords: dict  # passed to add_argument, which never converts the value


def _row(coerce, default, commands, *flags, **keywords) -> _Setting:
    return _Setting(coerce, default, frozenset(commands), flags, keywords)


_SWEEP = {"nargs": 3, "metavar": ("START", "STOP", "COUNT")}
_PHYSICAL = asdict(PhysicalParams())

_ALL = {"coeffs", "critical", "simulate", "validate"}

# field name -> setting; a subcommand's --help lists its flags in row order
_SETTINGS = {
    "beta": _row(float, _PHYSICAL["beta"], _ALL, "--beta", help="background stratification rate"),
    "prandtl": _row(float, _PHYSICAL["prandtl"], _ALL, "--pr", help="Prandtl number"),
    "rayleigh": _row(float, _PHYSICAL["rayleigh"], {"coeffs", "simulate"}, "--ra",
                     help="Rayleigh number"),
    "gamma": _row(float, _PHYSICAL["gamma"], _ALL, "--gamma",
                  help="viscosity ratio (bulk over shear plus one third)"),
    "length": _row(float, _PHYSICAL["length"], _ALL, "--l", "--length", help="domain width"),
    "source": _row(str, "oracle", _ALL - {"coeffs"}, "--source", choices=PROVENANCES,
                   help="coefficient route"),
    "format": _row(str, "csv", _ALL, "--format", choices=("csv", "json"), help="table format"),
    "output": _row(str, None, _ALL, "--output", help="write the table here instead of stdout"),
    "quiet": _row(_as_bool, False, _ALL, "--quiet", action="store_const", const=True,
                  help="suppress summary lines"),
    "workers": _row(_as_int, 1, {"critical"}, "--workers", help="thread pool size for sweeps"),
    "beta_sweep": _row(_as_sweep, None, {"critical"}, "--beta-sweep", **_SWEEP,
                       help="sweep the stratification rate"),
    "l_sweep": _row(_as_sweep, None, {"critical"}, "--l-sweep", **_SWEEP,
                    help="sweep the domain width"),
    "optimize_l": _row(_as_bool, False, {"critical"}, "--optimize-l", action="store_const",
                       const=True, help="minimize over the domain width"),
    "coords": _row(str, "both", {"simulate"}, "--coords", choices=("abc", "xyz", "both"),
                   help="coordinate system(s) to integrate"),
    "t_end": _row(float, 20.0, {"simulate"}, "--t-end",
                  help="integration span in the output coordinates"),
    "samples": _row(_as_int, _SAMPLES, {"simulate"}, "--samples", help="number of output samples"),
    "rtol": _row(float, _RTOL, {"simulate"}, "--rtol", help="relative tolerance"),
    "atol": _row(float, _ATOL, {"simulate"}, "--atol", help="absolute tolerance"),
    "initial": _row(_as_triple, (1e-3, 1e-3, 1e-3), {"simulate"}, "--initial", nargs=3,
                    metavar=("A", "B", "C"), help="initial reduced state"),
    "n_modes": _row(_as_int_list, (1, 2, 4, 8), {"validate"}, "--n-modes", nargs="+",
                    metavar="N", help="vertical truncations to check, 1-512"),
    "m": _row(_as_int, 1, {"validate"}, "--m", help="horizontal mode number"),
}


class RunConfig(SimpleNamespace):
    """Resolved settings for one invocation: the subcommand and the settings it reads."""

    def physical(self) -> PhysicalParams:
        """The physical settings held; those the subcommand does not read keep their defaults."""
        return PhysicalParams(**{name: value for name, value in vars(self).items()
                                 if name in _PHYSICAL})


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ArgumentError(f"cannot read config file {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"{path}: invalid JSON: {exc}") from exc
        return data  # text that starts with "{" parses to an object or not at all
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _convert(source: str, data: dict, command: str) -> dict:
    """The settings among `data` that `command` reads, each converted from its text: a list's
    items joined by spaces, any other value by str(), and None leaves the setting unset."""
    out = {}
    for key, value in data.items():
        setting = _SETTINGS.get(key)
        if setting is None:
            raise ArgumentError(f"{source}: unknown field {key!r}")
        if value is None or command not in setting.commands:
            continue
        text = " ".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            out[key] = setting.coerce(text)
        except (ValueError, ArithmeticError) as exc:
            raise ArgumentError(f"{source}: field {key!r}: {exc}") from exc
        choices = setting.keywords.get("choices")
        if choices and out[key] not in choices:
            raise ArgumentError(f"{source}: field {key!r}: must be one of "
                                f"{', '.join(choices)}, got {text!r}")
    return out


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment, and flags, in that order."""
    merged = {name: setting.default for name, setting in _SETTINGS.items()
              if args.command in setting.commands}
    if args.config:
        merged.update(_convert(args.config, _load_config_file(args.config), args.command))
    merged.update(_convert("environment", {
        key[len(ENV_PREFIX):].lower(): value for key, value in os.environ.items()
        if key.startswith(ENV_PREFIX)}, args.command))
    merged.update(_convert("command line", {
        name: value for name, value in vars(args).items() if name in _SETTINGS}, args.command))
    return RunConfig(subcommand=args.command, **merged)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anelor",
        description="Lorenz-type reduction of anelastic convection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        subparser = subparsers.add_parser(command, help=text)
        for name, setting in _SETTINGS.items():
            if command in setting.commands:
                subparser.add_argument(*setting.flags, dest=name, **setting.keywords)
        subparser.add_argument("--config", help="config file (key=value lines or JSON)")
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
        raise ArgumentError(f"cannot write {config.output}: {exc.strerror or exc}") from exc


def _note(config: RunConfig, message: str) -> None:
    if not config.quiet:
        print(message, file=sys.stderr)


def _sweep_values(config, base, name, field) -> list[float]:
    """The values of the sweep setting `name` over `field`, else base's one value; an
    ArgumentError names the sweep unless it is increasing and base takes its ends."""
    sweep = getattr(config, name)
    if sweep is None:
        return [getattr(base, field)]
    start, stop, count = sweep
    if count > 1 and not stop > start:
        raise ArgumentError(f"{name} must be increasing, got {sweep}")
    try:
        _check_integer("count", count, 1)
        for point in (start, stop) if count > 1 else (start,):
            replace(base, **{field: point})
    except ArgumentError as exc:
        raise ArgumentError(f"{name}: {exc}") from exc
    return [float(v) for v in np.linspace(start, stop, count)]


def _pool_map(config: RunConfig, function, items) -> list:
    if config.workers == 1 or len(items) <= 1:
        return [function(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging, threading and queue
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
    _check_integer("workers", config.workers, 1)
    base = config.physical()  # at Ra = 0: critical reads no Ra
    betas = _sweep_values(config, base, "beta_sweep", "beta")
    lengths = _sweep_values(config, base, "l_sweep", "length")
    if config.l_sweep and config.optimize_l:
        raise ArgumentError("--l-sweep and --optimize-l are mutually exclusive")
    # each point as PhysicalParams, so a row reports beta as the params hold it
    points = [replace(base, beta=beta, length=length) for beta in betas for length in lengths]

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
    _check_integer("samples", config.samples, 2)
    params = config.physical()
    initial, t_end, *tolerances, grid = _check_run(config.initial, config.t_end, config.rtol,
                                                   config.atol, samples=config.samples)
    if config.coords != "abc" and params.rayleigh <= 0.0:
        raise ArgumentError("simulate in xyz/both coordinates needs --ra > 0")
    extra = {"params": asdict(params)}
    coeffs = coefficients(params, config.source)

    runs = []  # the requested runs on the output grid, the Lorenz one first
    if config.coords != "abc":
        lorenz, scaling = scale_to_lorenz(coeffs)
        extra |= {"lorenz": asdict(lorenz), "scaling": asdict(scaling)}
        runs.append(integrate_lorenz(lorenz, scaling.apply(initial), t_end, *tolerances,
                                     t_eval=grid))
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
    if max(config.n_modes) > 512:
        raise ArgumentError(f"n_modes must each be at most 512, got {max(config.n_modes)}")
    params = config.physical()  # at Ra = 0: validate reads no Ra
    for n_modes in config.n_modes:  # the pencil family psi[-1, m, n]
        ModeIndex(-1, config.m, n_modes)
    # the m-th harmonic pencil at width l is the first harmonic's at l/m, so the
    # reduced onset is `critical`'s at l/m; past its domain edge the table holds
    # the pencil's onsets alone
    unchecked = "no N=1 truncation requested"
    try:
        reduced_value = critical_rayleigh(replace(params, length=params.length / config.m),
                                          config.source)
    except InadmissibleError as exc:
        reduced_value, unchecked = None, f"reduced route: {exc}"

    rows = []
    for n_modes in config.n_modes:
        onset = critical_rayleigh_spectral(params, config.m, n_modes)
        rel = None if reduced_value is None else abs(onset - reduced_value) / reduced_value
        rows.append((params.beta, config.m, n_modes, onset, reduced_value, rel))
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
    except ArgumentError as exc:
        print(f"anelor: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"anelor: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
