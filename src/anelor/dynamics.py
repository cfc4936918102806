"""Time integration of the reduced (A, B, C) and Lorenz (X, Y, Z) systems.

Both systems, and the Lorenz flow with its tangent for a Benettin estimate of
the largest Lyapunov exponent (Benettin et al. 1980), run through one in-repo
adaptive Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's
dense output, so a reduced trajectory pushed through the scaling map can be
compared pointwise against one integrated in Lorenz coordinates. Error
control, starting step and controller follow Hairer, Norsett & Wanner,
Solving ODEs I, Sec. II.4. The step loop is generated from the tableau once
per state dimension (3, or 6 with the tangent) as straight-line code on
floats in locals: per-component lists cost more than the arithmetic here.
Also here: the decay/growth diagnostic of the trailing log amplitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .lorenz import LorenzParams, ScalingMap
from .projection import GalerkinCoeffs

__all__ = [
    "IntegrationError",
    "Trajectory",
    "render_csv",
    "reduced_rhs",
    "lorenz_rhs",
    "integrate_reduced",
    "integrate_lorenz",
    "map_trajectory",
    "log_norm_slope",
    "amplitude_trend",
    "largest_lyapunov",
]

REDUCED_LABELS = ("t", "A", "B", "C")
LORENZ_LABELS = ("s", "X", "Y", "Z")


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
            raise ValueError("need times (n,) and states (n, k)")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if len(self.labels) != 1 + states.shape[1]:
            raise ValueError("labels must cover the time column and every state")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, target) -> None:
        """Write `render_csv` of `labels` and the (time, *state) rows to a
        path or a file-like target."""
        text = render_csv(self.labels, np.column_stack([self.times, self.states]))
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", newline="\n") as handle:
                handle.write(text)


def render_csv(columns, rows) -> str:
    """A header, then one comma-separated line per row with floats to 17
    significant digits and None as an empty cell; LF line endings."""
    lines = [",".join(columns)] + [
        ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def reduced_rhs(t, state, e):
    """dA/dt, dB/dt, dC/dt as a tuple of floats."""
    A, B, C = state
    return (e[0] * A + e[1] * B, e[2] * A * C + e[3] * B + e[4] * A,
            e[5] * A * B + e[6] * C)


def lorenz_rhs(s, state, lp: LorenzParams):
    """dX/ds, dY/ds, dZ/ds as a tuple of floats."""
    X, Y, Z = state
    return (lp.sigma * (Y - X), lp.r * X - Y - X * Z, X * Y - lp.delta * Z)


def _tangent_rhs(s, y, lp: LorenzParams):
    """The Lorenz flow of (X, Y, Z) and its linearization acting on (u, v, w)."""
    X, Y, Z, u, v, w = y
    return (lp.sigma * (Y - X), lp.r * X - Y - X * Z, X * Y - lp.delta * Z,
            lp.sigma * (v - u), (lp.r - Z) * u - v - X * w, Y * u + X * v - lp.delta * w)


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Table II.5.5): nodes _C, rows _A
# of stages 2-6, step weights _B, and _E = _B minus the 4th-order weights (+ FSAL).
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
# 4th-order dense output (Shampine 1986): over a step from (t, y) with stages
# K (7, n), y(t + x h) = y + h K^T P (x, x^2, x^3, x^4).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
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
def dopri45(fun, arg, y, t_end, rtol, atol):
    k1, h_abs = _initial_step(fun, arg, y, t_end, rtol, atol)
    nfev, t, bounds, records, y = 2, 0.0, [0.0], [], tuple(y)
    while t < t_end:
        {y} = y
        {k1} = k1
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise IntegrationError("step size %.3g fell below the float "
                                       "spacing at t = %.17g" % (h_abs, t))
            t_new = min(t + h_abs, t_end)
            h = t_new - t
{stages}
            nfev += 6
            error = math.hypot({error}) / {sqrt_n!r}
            if error < 1.0:
                factor = (_MAX_FACTOR if error == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * error ** -0.2))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** -0.2)
            rejected = True
        records.append((y, k1, k2, k3, k4, k5, k6, k7))
        bounds.append(t_new)
        t, y, k1 = t_new, y_new, k7
    return y, nfev, bounds, records
"""


@functools.cache
def _stepper(n: int):
    """Compile _LOOP for n floats: tableau entries as literals, each component's
    line spelled out, max(|y|, |z|) as well (the builtin call would cost most)."""
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(n)) + ","
    def combo(i, weights):  # weights[j] * k{j+1}_i summed left to right
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in enumerate(weights, 1) if w)
    def state(weights):
        return ", ".join(f"y{i} + h * ({combo(i, weights)})" for i in range(n)) + ","

    lines = []
    for s, (c, row) in enumerate(zip(_C, _A), 2):
        # the c = 1 stage runs at t_new itself, which t + h need not round to
        at = "t_new" if c == 1.0 else f"t + {c!r} * h"
        lines += [f"k{s} = fun({at}, ({state(row)}), arg)", f"{names(f'k{s}_')} = k{s}"]
    lines += [f"y_new = ({state(_B)})", f"{names('z')} = y_new",
              "k7 = fun(t_new, y_new, arg)", f"{names('k7_')} = k7"]
    error = ", ".join(f"h * ({combo(i, _E)}) / (atol + rtol * "
                      f"(abs(y{i}) if abs(y{i}) > abs(z{i}) else abs(z{i})))"
                      for i in range(n))
    source = _LOOP.format(y=names("y"), k1=names("k1_"), error=error,
                          sqrt_n=math.sqrt(n),
                          stages="\n".join(" " * 12 + line for line in lines))
    namespace = {}
    exec(compile(source, f"<dopri45, n = {n}>", "exec"), globals(), namespace)
    return namespace["dopri45"]


def _dopri45(fun, arg, y, t_end, rtol, atol):
    """Integrate y' = fun(t, y, arg), y of n floats, from t = 0 to t_end with
    `_stepper(n)`, built once per n as namedtuple and dataclasses build code.

    A step is accepted when the RMS of the embedded error, scaled by atol +
    rtol * max(|y_old|, |y_new|), is below one; the next step is scaled by
    0.9 * err^(-1/5), clipped to [0.2, 10] and to at most 1 after a
    rejection. Returns (final y, RHS evaluations, step bounds [0, ..., t_end],
    per step the (y, k1, ..., k7) `_dense_output` reads). Overflow, non-finite
    states and steps below the float spacing raise IntegrationError."""
    try:
        y, nfev, bounds, records = _stepper(len(y))(fun, arg, y, t_end, rtol, atol)
    except (OverflowError, ZeroDivisionError) as exc:
        raise IntegrationError(f"floating-point failure: {exc}") from exc
    if not all(map(math.isfinite, y)):
        raise IntegrationError("integration produced non-finite state values")
    return y, nfev, bounds, records


def _dense_output(t_eval, bounds, records) -> np.ndarray:
    """States at t_eval from the interpolant of the step (t_i, t_i+1] holding
    each time; t = 0 falls in the first step."""
    bounds = np.asarray(bounds)
    index = np.searchsorted(bounds[1:], t_eval, side="left")
    used, where = np.unique(index, return_inverse=True)
    table = np.array([records[i] for i in used], dtype=float)[where]
    y_old, stages = table[:, 0], table[:, 1:]
    h = bounds[index + 1] - bounds[index]
    x = (t_eval - bounds[index]) / h
    weights = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1) @ _P.T
    return y_old + h[:, None] * np.einsum("mkn,mk->mn", stages, weights)


def _integrate(fun, arg, initial, t_end, rtol, atol, labels, t_eval):
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0.0 < tol < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {tol}")
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (3,) or not np.all(np.isfinite(initial)):
        raise ValueError("initial state must be three finite components")
    t_end = float(t_end)
    if t_eval is None:
        t_eval = np.linspace(0.0, t_end, 801)
    t_eval = np.asarray(t_eval, dtype=float)
    if (t_eval.ndim != 1 or t_eval.size == 0 or np.any(t_eval < 0.0)
            or np.any(t_eval > t_end)):
        raise ValueError("t_eval must be a non-empty 1-d array of times in "
                         "[0, t_end]")
    _, nfev, bounds, records = _dopri45(fun, arg, initial.tolist(), t_end, rtol, atol)
    states = _dense_output(t_eval, bounds, records)
    if not np.all(np.isfinite(states)):
        raise IntegrationError("integration produced non-finite state values")
    steps = len(bounds) - 1
    return Trajectory(times=t_eval, states=states, labels=labels, rtol=rtol, atol=atol,
                      nfev=nfev, steps=steps, rejected=(nfev - 2) // 6 - steps)


def integrate_reduced(
    coeffs: GalerkinCoeffs, initial, t_end, rtol=1e-10, atol=1e-12, t_eval=None
) -> Trajectory:
    """Integrate dA/dt = e1 A + e2 B, dB/dt = e3 A C + e4 B + e5 A,
    dC/dt = e6 A B + e7 C from t = 0 to t_end."""
    return _integrate(reduced_rhs, coeffs.as_array().tolist(), initial, t_end,
                      rtol, atol, REDUCED_LABELS, t_eval)


def integrate_lorenz(
    lp: LorenzParams, initial, s_end, rtol=1e-10, atol=1e-12, t_eval=None
) -> Trajectory:
    return _integrate(lorenz_rhs, lp, initial, s_end, rtol, atol,
                      LORENZ_LABELS, t_eval)


def map_trajectory(traj: Trajectory, scaling: ScalingMap) -> Trajectory:
    """Push a reduced-coordinate trajectory onto Lorenz coordinates.

    Times rescale by d and the state columns by (a, b, c); the integrator
    metadata is carried over unchanged.
    """
    if tuple(traj.labels) != REDUCED_LABELS:
        raise ValueError("expected a reduced (t, A, B, C) trajectory")
    return replace(
        traj,
        times=scaling.time_to_lorenz(traj.times),
        states=scaling.apply(traj.states),
        labels=LORENZ_LABELS,
    )


def log_norm_slope(traj: Trajectory, tail_fraction: float = 0.5) -> float:
    """Least-squares growth rate of log ||state|| over the trailing samples."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = int(math.floor(traj.times.size * (1.0 - tail_fraction)))
    times = traj.times[start:]
    norms = np.linalg.norm(traj.states[start:], axis=1)
    keep = norms > 0.0
    if np.count_nonzero(keep) < 2:
        raise ValueError("not enough nonzero samples in the tail to fit a slope")
    slope, _ = np.polyfit(times[keep], np.log(norms[keep]), 1)
    return float(slope)


def amplitude_trend(
    traj: Trajectory, threshold: float = 1e-3, tail_fraction: float = 0.5
) -> str:
    """'decay', 'growth', or 'flat' from the trailing log-amplitude slope."""
    slope = log_norm_slope(traj, tail_fraction)
    if slope < -threshold:
        return "decay"
    if slope > threshold:
        return "growth"
    return "flat"


def largest_lyapunov(
    lp: LorenzParams,
    s_end: float = 500.0,
    initial=None,
    renorm_interval: float = 1.0,
    discard_fraction: float = 0.1,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    seed: int = 0,
) -> float:
    """Benettin estimate of the largest Lyapunov exponent.

    A unit tangent vector rides the trajectory through the linearized flow
    and is renormalized every `renorm_interval` time units; the exponent is
    the mean log stretching after discarding the leading transient. Requires
    s_end >= 500 so the average has settled.
    """
    if s_end < 500.0:
        raise ValueError(f"s_end must be at least 500, got {s_end}")
    if renorm_interval <= 0.0 or not 0.0 <= discard_fraction < 1.0:
        raise ValueError("bad renormalization settings")
    rng = np.random.default_rng(seed)
    if initial is None:
        initial = np.array([1.0, 1.0, 1.0]) + 0.1 * rng.standard_normal(3)
    tangent = rng.standard_normal(3)
    y = np.asarray(initial, dtype=float).tolist()
    y += (tangent / np.linalg.norm(tangent)).tolist()
    steps = int(round(s_end / renorm_interval))
    stretches = np.empty(steps)
    for k in range(steps):
        y = _dopri45(_tangent_rhs, lp, y, float(renorm_interval), rtol, atol)[0]
        size = math.hypot(*y[3:])
        stretches[k] = math.log(size)
        y = y[:3] + tuple(v / size for v in y[3:])
    keep = stretches[int(math.floor(steps * discard_fraction)):]
    return float(np.sum(keep) / (keep.size * renorm_interval))
