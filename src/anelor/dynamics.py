"""Time integration of the reduced (A, B, C) and Lorenz (X, Y, Z) systems.

Both systems, and the Lorenz flow with its tangent for a Benettin estimate of
the largest Lyapunov exponent (Benettin et al. 1980), run through one in-repo
adaptive Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's
dense output and the step control of Hairer, Norsett & Wanner, Solving ODEs I,
Sec. II.4. Each system is written once, in `_SYSTEMS`. Its RHS function and
its step loop are generated from that entry: the loop pastes the RHS into
every stage, as a call and a tuple per stage cost as much as the arithmetic,
steers the step size without min/max calls, and walks the output times with a
cursor: only an accepted step that holds one packs its 7n + 2 doubles into the
bytearray `_dense_output` reads, so memory follows the grid, not the steps.
Also here: the decay/growth diagnostic of the trailing log amplitude.
"""

from __future__ import annotations

import bisect
import functools
import linecache
import math
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .lorenz import LorenzParams, ScalingMap
from .params import ArgumentError, _check_integer, _check_real
from .projection import GalerkinCoeffs

__all__ = [
    "IntegrationError", "Trajectory", "reduced_rhs", "lorenz_rhs",
    "integrate_reduced", "integrate_lorenz", "map_trajectory", "log_norm_slope",
    "amplitude_trend", "largest_lyapunov",
]


class IntegrationError(RuntimeError):
    """The adaptive integrator failed or produced a non-finite state."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with the integrator settings that produced it."""

    times: np.ndarray
    states: np.ndarray
    labels: tuple[str, ...]
    rtol: float
    atol: float
    nfev: int
    steps: int = 0
    rejected: int = 0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.size:
            raise ArgumentError("need times (n,) and states (n, k)")
        if np.any(np.diff(times) <= 0.0):
            raise ArgumentError("times must be strictly increasing")
        if len(self.labels) != 1 + states.shape[1]:
            raise ArgumentError("labels must cover the time column and every state")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)


class _System(NamedTuple):
    """An autonomous ODE system: `params` unpacks its parameters from the
    run's argument `p`, `state` names its components and `rhs` gives their
    derivatives as Python expressions; no name may be a step loop local
    (p, t, h, limit, y0, ay0, az0, k1_0, ...)."""

    name: str
    params: str
    state: str
    rhs: tuple[str, ...]


_REDUCED = _System("reduced", "e1, e2, e3, e4, e5, e6, e7 = p", "A, B, C", (
    "e1 * A + e2 * B", "e3 * A * C + e4 * B + e5 * A", "e6 * A * B + e7 * C"))
_LORENZ = _System("lorenz", "sigma, r, delta = p.sigma, p.r, p.delta", "X, Y, Z", (
    "sigma * (Y - X)", "r * X - Y - X * Z", "X * Y - delta * Z"))
# the Lorenz flow and its linearization acting on the tangent (u, v, w)
_TANGENT = _System("tangent", _LORENZ.params, _LORENZ.state + ", u, v, w", _LORENZ.rhs + (
    "sigma * (v - u)", "(r - Z) * u - v - X * w", "Y * u + X * v - delta * w"))
_SYSTEMS = (_REDUCED, _LORENZ, _TANGENT)
REDUCED_LABELS = ("t", *_REDUCED.state.split(", "))
LORENZ_LABELS = ("s", *_LORENZ.state.split(", "))


def _compile(source: str, filename: str, name: str, namespace: dict):
    """Run generated `source` in `namespace` and return its function `name`;
    the source goes to linecache so traceback, cProfile and pdb show it."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@functools.cache
def _rhs(system: _System):
    """The function (t, state, p) -> d(state)/dt as a tuple of floats."""
    source = (f"def {system.name}_rhs(t, state, p):\n"
              f'    """d({system.state})/dt as a tuple of floats."""\n'
              f"    {system.params}\n    {system.state} = state\n"
              f"    return ({', '.join(system.rhs)},)\n")
    return _compile(source, f"<rhs {system.name}>", f"{system.name}_rhs", {})


reduced_rhs, lorenz_rhs, _tangent_rhs = map(_rhs, _SYSTEMS)

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Table II.5.5): rows _A of
# stages 2-6, step weights _B, and _E = _B minus the 4th-order weights (+ FSAL).
# The systems are autonomous, so the nodes c_i are not needed.
_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# 4th-order dense output (Shampine 1986): over a step from (t, y) with stages
# K (6, n) = k1, k3, ..., k7, y(t + x h) = y + h K^T P (x, x^2, x^3, x^4); k2's
# row is zero, as are its weights in _B and _E, so no step records it.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_RTOL, _ATOL, _SAMPLES = 1e-10, 1e-12, 801  # run defaults, the command line's too


def _initial_step(fun, arg, y, t_end, rtol, atol):
    """First RHS value and starting step for a 4th-order error estimate (Sec.
    II.4): a trial Euler step gauges the second derivative; norms are RMS."""
    f, root_n = fun(0.0, y, arg), math.sqrt(len(y))
    scale = [atol + rtol * abs(a) for a in y]
    d0 = math.hypot(*[a / w for a, w in zip(y, scale)]) / root_n
    d1 = math.hypot(*[p / w for p, w in zip(f, scale)]) / root_n
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = fun(h0, [a + h0 * p for a, p in zip(y, f)], arg)
    d2 = math.hypot(*[(q - p) / w for p, q, w in zip(f, f1, scale)]) / root_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return f, min(100.0 * h0, h1, t_end)


_LOOP = """\
def dopri45(p, y, t_end, rtol, atol, t_eval):
    {params}
    ({k1}), h_abs = _initial_step(rhs, p, y, t_end, rtol, atol)
    {y} = y
    {abs_y} = {abs_y0}
    nfev, rejected, t, records = 2, 0, 0.0, bytearray()
    t_eval = [*t_eval, math.inf]
    t_out, ulp, hypot = t_eval[0], math.ulp, math.hypot
    while t < t_end:
        min_step = 10.0 * ulp(t)
        h_abs = min_step if min_step > h_abs else h_abs
        limit = {max_factor!r}
        while True:
            if not h_abs >= min_step:
                raise IntegrationError("step size %.3g fell below the float "
                                       "spacing at t = %.17g" % (h_abs, t))
            t_new = t_end if t_end < (t_new := t + h_abs) else t_new
            h = t_new - t
{stages}
            nfev += 6
            error = hypot({error}) / {sqrt_n!r}
            if error < 1.0:
                factor = limit if error == 0.0 else {safety!r} * error ** -0.2
                h_abs = h * (factor if factor < limit else limit)
                break
            factor = {safety!r} * error ** -0.2
            h_abs = h * (factor if factor > {min_factor!r} else {min_factor!r})
            limit = 1.0
            rejected += 1
        if t_out <= t_new:
            records += pack(t, t_new, {y} {k})
            t_out = t_eval[bisect_right(t_eval, t_new)]
        t = t_new
        {y} = {state}
        {abs_y} = {abs_z}
        {k1} = {k7}
    return ({y}), nfev, rejected, records
"""


@functools.cache
def _stepper(system: _System):
    """Compile _LOOP for `system`, tableau entries as literals, as namedtuple
    and dataclasses build code. Each stage writes its state into the state
    names and pastes the RHS expressions after it, so it costs no call and no
    tuple; the last stage's state is y_new, the z of the error norm. Each
    |z_i| is taken once and carried over as |y_i| of the next step."""
    z, n = system.state.split(", "), len(system.rhs)
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(n)) + ","
    def combo(i, weights):  # weights[j] * k{j+1}_i summed left to right
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in enumerate(weights, 1) if w)
    lines = []
    for s, row in enumerate(_A + (_B,), 2):
        lines += [f"{z[i]} = y{i} + h * ({combo(i, row)})" for i in range(n)]
        lines += [f"k{s}_{i} = {expr}" for i, expr in enumerate(system.rhs)]
    error = ", ".join(f"h * ({combo(i, _E)}) / (atol + rtol * "
                      f"(ay{i} if ay{i} > (az{i} := abs({z[i]})) else az{i}))"
                      for i in range(n))
    source = _LOOP.format(
        params=system.params, y=names("y"), k1=names("k1_"), k7=names("k7_"),
        k=" ".join(names(f"k{s}_") for s in (1, 3, 4, 5, 6, 7)), state=system.state,
        abs_y=names("ay"), abs_z=names("az"), abs_y0=", ".join(f"abs(y{i})" for i in range(n)),
        error=error, sqrt_n=math.sqrt(n), stages="\n".join(" " * 12 + x for x in lines),
        safety=_SAFETY, min_factor=_MIN_FACTOR, max_factor=_MAX_FACTOR)
    namespace = dict(globals(), rhs=_rhs(system), pack=struct.Struct(f"{7 * n + 2}d").pack,
                     bisect_right=bisect.bisect_right)
    return _compile(source, f"<dopri45 {system.name}>", "dopri45", namespace)


def _dopri45(system: _System, arg, y, t_end, rtol, atol, t_eval=()):
    """Integrate `system` with parameters `arg` from y (n floats) at t = 0 to
    t_end with `_stepper(system)`, which is generated on first use.

    A step is accepted when the RMS of the embedded error, scaled by atol +
    rtol * max(|y_old|, |y_new|), is below one; the next step is scaled by
    0.9 * err^(-1/5), clipped to [0.2, 10] and to at most 1 (`limit`) after a
    rejection. Returns (final y, RHS evaluations, rejected steps, records),
    where each accepted step (t, t_new] holding a time of the increasing
    `t_eval` packs t, t_new, y, k1, k3, ..., k7 (7n + 2 doubles) into the
    records bytearray for `_dense_output`. Overflow, non-finite states and
    steps below the float spacing raise IntegrationError."""
    try:
        y, nfev, rejected, records = _stepper(system)(arg, y, t_end, rtol, atol, t_eval)
    except (OverflowError, ZeroDivisionError) as exc:
        raise IntegrationError(f"floating-point failure: {exc}") from exc
    if not all(map(math.isfinite, y)):
        raise IntegrationError("integration produced non-finite state values")
    return y, nfev, rejected, records


def _dense_output(t_eval, records, n) -> np.ndarray:
    """States at t_eval from the interpolant of the kept step (t, t_new]
    holding each time; t = 0 falls in the first step. `records` is the
    bytearray of `_dopri45` for n states, 7n + 2 packed doubles per step."""
    table = np.frombuffer(records).reshape(-1, 7 * n + 2)
    index = np.searchsorted(table[:, 1], t_eval, side="left")
    t, h = table[index, 0], table[index, 1] - table[index, 0]
    y_old, stages = table[index, 2:n + 2], table[index, n + 2:].reshape(-1, 6, n)
    x = (t_eval - t) / h
    weights = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1) @ _P.T
    return y_old + h[:, None] * np.einsum("mkn,mk->mn", stages, weights)


def _check_run(initial, t_end, rtol, atol, t_eval=None, samples=_SAMPLES):
    """The run's arguments as floats, (initial state (3,), t_end, rtol, atol, output
    times), the times t_eval or else `samples` evenly spaced ones on [0, t_end], or an
    ArgumentError naming the first argument that no run takes."""
    end = _check_real("t_end", t_end, "> 0")
    rtol = _check_real("rtol", rtol, "in (0, 1)")
    atol = _check_real("atol", atol, "in (0, 1)")
    components = np.asarray(initial, dtype=object)
    if components.shape != (3,):
        raise ArgumentError("initial state must be three finite components")
    initial = np.array([_check_real(f"initial[{i}]", x) for i, x in enumerate(components)])
    if t_eval is None:
        times = np.linspace(0.0, end, samples)
    elif isinstance(t_eval, np.ndarray) and t_eval.dtype.kind in "iuf":
        times = np.asarray(t_eval, float)  # a numeric array holds only real numbers
    else:  # any other sequence is held to the real-argument rule item by item, as initial is
        items = np.asarray(t_eval, dtype=object)
        times = np.array([_check_real(f"t_eval[{i}]", x) for i, x in enumerate(items.flat)],
                         float).reshape(items.shape)
    if (times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0.0)
            or not np.all((times >= 0.0) & (times <= end))):
        raise ArgumentError("t_eval must be a non-empty, strictly increasing 1-d array of "
                            "times in [0, t_end]" if t_eval is not None else
                            f"t_end = {t_end} is too short for {samples} distinct output times")
    return initial, end, rtol, atol, times


def _integrate(system, arg, initial, t_end, rtol, atol, labels, t_eval):
    initial, t_end, rtol, atol, t_eval = _check_run(initial, t_end, rtol, atol, t_eval)
    _, nfev, rejected, records = _dopri45(system, arg, initial.tolist(), t_end, rtol, atol,
                                          t_eval.tolist())
    states = _dense_output(t_eval, records, initial.size)
    if not np.all(np.isfinite(states)):
        raise IntegrationError("integration produced non-finite state values")
    return Trajectory(times=t_eval, states=states, labels=labels, rtol=rtol, atol=atol,
                      nfev=nfev, steps=(nfev - 2) // 6 - rejected, rejected=rejected)


def integrate_reduced(coeffs: GalerkinCoeffs, initial, t_end, rtol=_RTOL, atol=_ATOL,
                      t_eval=None) -> Trajectory:
    """Integrate dA/dt = e1 A + e2 B, dB/dt = e3 A C + e4 B + e5 A,
    dC/dt = e6 A B + e7 C from t = 0 to t_end."""
    return _integrate(_REDUCED, coeffs.as_array().tolist(), initial, t_end,
                      rtol, atol, REDUCED_LABELS, t_eval)


def integrate_lorenz(lp: LorenzParams, initial, s_end, rtol=_RTOL, atol=_ATOL,
                     t_eval=None) -> Trajectory:
    return _integrate(_LORENZ, lp, initial, s_end, rtol, atol, LORENZ_LABELS, t_eval)


def map_trajectory(traj: Trajectory, scaling: ScalingMap) -> Trajectory:
    """Push a reduced-coordinate trajectory onto Lorenz coordinates.

    Times rescale by d and the state columns by (a, b, c); the integrator
    metadata is carried over unchanged.
    """
    if tuple(traj.labels) != REDUCED_LABELS:
        raise ArgumentError("expected a reduced (t, A, B, C) trajectory")
    return replace(traj, times=traj.times * scaling.d,
                   states=scaling.apply(traj.states), labels=LORENZ_LABELS)


def log_norm_slope(traj: Trajectory) -> float:
    """Least-squares growth rate of log ||state|| over the trailing half of the samples."""
    start = traj.times.size // 2
    times = traj.times[start:]
    norms = np.linalg.norm(traj.states[start:], axis=1)
    keep = norms > 0.0
    if np.count_nonzero(keep) < 2:
        raise ArgumentError("not enough nonzero samples in the tail to fit a slope")
    slope, _ = np.polyfit(times[keep], np.log(norms[keep]), 1)
    return float(slope)


def amplitude_trend(traj: Trajectory) -> str:
    """'decay', 'growth', or 'flat' from `log_norm_slope`, flat within 1e-3."""
    slope = log_norm_slope(traj)
    if slope < -1e-3:
        return "decay"
    if slope > 1e-3:
        return "growth"
    return "flat"


def largest_lyapunov(lp: LorenzParams, seed: int = 0) -> float:
    """Benettin estimate of the largest Lyapunov exponent.

    `seed` draws a start 0.1 * N(0, 1) per component from (1, 1, 1) and a unit
    tangent vector, which rides the trajectory through the linearized flow.
    It is renormalized after each of 500 unit time intervals (rtol 1e-9, atol
    1e-12), and the exponent is the mean log stretching over the last 450:
    the first 10 % are the discarded transient; seed must be an integer >= 0.
    """
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    initial = np.array([1.0, 1.0, 1.0]) + 0.1 * rng.standard_normal(3)
    tangent = rng.standard_normal(3)
    y = initial.tolist() + (tangent / np.linalg.norm(tangent)).tolist()
    stretches = np.empty(500)
    for k in range(500):
        y = _dopri45(_TANGENT, lp, y, 1.0, 1e-9, 1e-12)[0]
        size = math.hypot(*y[3:])
        stretches[k] = math.log(size)
        y = y[:3] + tuple(v / size for v in y[3:])
    keep = stretches[50:]
    return float(np.sum(keep) / keep.size)
