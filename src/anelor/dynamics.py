"""Time integration of the reduced (A, B, C) and Lorenz (X, Y, Z) systems.

Both systems are driven through one in-repo adaptive Dormand-Prince 5(4)
pair (Dormand & Prince 1980) with Shampine's 4th-order dense output, so a
trajectory computed in reduced coordinates and pushed through the scaling
map can be compared pointwise against one integrated directly in Lorenz
coordinates. The stepper works on plain Python floats; error control, the
starting step and the step-size controller follow Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, Sec. II.4. The module also
provides the decay/growth diagnostic used for onset checks (least-squares
slope of the log amplitude over the trailing part of a run) and a Benettin
estimate of the largest Lyapunov exponent (Benettin et al. 1980).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lorenz import LorenzParams, ScalingMap
from .projection import GalerkinCoeffs

__all__ = [
    "IntegrationError",
    "Trajectory",
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
        """Write `labels` as a header then one row per sample, 17 significant
        digits, comma separator, LF line endings."""
        lines = [",".join(self.labels)]
        for t, row in zip(self.times, self.states):
            lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
        text = "\n".join(lines) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", newline="\n") as handle:
                handle.write(text)


def reduced_rhs(t, state, e):
    """dA/dt, dB/dt, dC/dt as a tuple of floats."""
    A, B, C = state
    return (e[0] * A + e[1] * B, e[2] * A * C + e[3] * B + e[4] * A,
            e[5] * A * B + e[6] * C)


def lorenz_rhs(s, state, lp: LorenzParams):
    """dX/ds, dY/ds, dZ/ds as a tuple of floats."""
    X, Y, Z = state
    return (lp.sigma * (Y - X), lp.r * X - Y - X * Z, X * Y - lp.delta * Z)


# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Table II.5.5). The
# step advances with the 5th-order weights B; E holds B minus the embedded
# 4th-order weights, with a seventh entry for the first-same-as-last stage.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
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


def _rms(values) -> float:
    return math.hypot(*values) / math.sqrt(len(values))


def _initial_step(fun, y, f, t_end, rtol, atol) -> float:
    """Starting step for a 4th-order error estimate (Hairer, Norsett &
    Wanner, Sec. II.4): a trial Euler step gauges the second derivative."""
    scale = [atol + rtol * abs(a) for a in y]
    d0 = _rms([a / w for a, w in zip(y, scale)])
    d1 = _rms([p / w for p, w in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    f1 = fun(h0, [a + h0 * p for a, p in zip(y, f)])
    d2 = _rms([(q - p) / w for p, q, w in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_end)


def _dopri45(fun, y, t_end, rtol, atol):
    """Integrate y' = fun(t, y) from t = 0 to t_end; y is a list of floats.

    Each step is accepted when the RMS of the embedded error, scaled by
    atol + rtol * max(|y_old|, |y_new|), is below one; the next step is
    scaled by 0.9 * err^(-1/5), clipped to [0.2, 10] and to at most 1 right
    after a rejection. Returns (final state, RHS evaluations, step
    boundaries [0, t1, ..., t_end], and per step the tuple (y, k1, ..., k7)
    that `_dense_output` interpolates). Overflow, a non-finite state and a
    step below the float spacing raise IntegrationError.
    """
    try:
        f = fun(0.0, y)
        h_abs = _initial_step(fun, y, f, t_end, rtol, atol)
        nfev, t = 2, 0.0
        bounds, records = [t], []
        while t < t_end:
            min_step = 10.0 * math.ulp(t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if not h_abs >= min_step:
                    raise IntegrationError(
                        f"step size {h_abs:.3g} fell below the float spacing "
                        f"at t = {t:.17g}")
                t_new = min(t + h_abs, t_end)
                h = t_new - t
                k1 = f
                k2 = fun(t + _C2 * h, [a + h * (_A21 * p) for a, p in zip(y, k1)])
                k3 = fun(t + _C3 * h, [a + h * (_A31 * p + _A32 * q)
                                       for a, p, q in zip(y, k1, k2)])
                k4 = fun(t + _C4 * h, [a + h * (_A41 * p + _A42 * q + _A43 * r)
                                       for a, p, q, r in zip(y, k1, k2, k3)])
                k5 = fun(t + _C5 * h, [
                    a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * u)
                    for a, p, q, r, u in zip(y, k1, k2, k3, k4)])
                k6 = fun(t_new, [
                    a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * u + _A65 * v)
                    for a, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)])
                y_new = [a + h * (_B1 * p + _B3 * r + _B4 * u + _B5 * v + _B6 * w)
                         for a, p, r, u, v, w in zip(y, k1, k3, k4, k5, k6)]
                k7 = fun(t_new, y_new)
                nfev += 6
                # max(|a|, |b|) spelled out: the builtin call is the costliest
                # part of this hot line
                error = _rms([
                    h * (_E1 * p + _E3 * r + _E4 * u + _E5 * v + _E6 * w + _E7 * z)
                    / (atol + rtol * (abs(a) if abs(a) > abs(b) else abs(b)))
                    for a, b, p, r, u, v, w, z
                    in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
                if error < 1.0:
                    factor = (_MAX_FACTOR if error == 0.0 else
                              min(_MAX_FACTOR, _SAFETY * error ** -0.2))
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs = h * max(_MIN_FACTOR, _SAFETY * error ** -0.2)
                rejected = True
            records.append((y, k1, k2, k3, k4, k5, k6, k7))
            bounds.append(t_new)
            t, y, f = t_new, y_new, k7
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


def _integrate(fun, initial, t_end, rtol, atol, labels, t_eval):
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
    _, nfev, bounds, records = _dopri45(fun, initial.tolist(), t_end, rtol, atol)
    states = _dense_output(t_eval, bounds, records)
    if not np.all(np.isfinite(states)):
        raise IntegrationError("integration produced non-finite state values")
    return Trajectory(
        times=t_eval, states=states, labels=labels,
        rtol=rtol, atol=atol, nfev=nfev,
    )


def integrate_reduced(
    coeffs: GalerkinCoeffs, initial, t_end, rtol=1e-10, atol=1e-12, t_eval=None
) -> Trajectory:
    """Integrate dA/dt = e1 A + e2 B, dB/dt = e3 A C + e4 B + e5 A,
    dC/dt = e6 A B + e7 C from t = 0 to t_end."""
    e = coeffs.as_array().tolist()
    return _integrate(
        lambda t, y: reduced_rhs(t, y, e), initial, t_end, rtol, atol,
        REDUCED_LABELS, t_eval,
    )


def integrate_lorenz(
    lp: LorenzParams, initial, s_end, rtol=1e-10, atol=1e-12, t_eval=None
) -> Trajectory:
    return _integrate(
        lambda s, y: lorenz_rhs(s, y, lp), initial, s_end, rtol, atol,
        LORENZ_LABELS, t_eval,
    )


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

    def rhs(s, y):
        X, Y, Z, u, v, w = y
        return lorenz_rhs(s, (X, Y, Z), lp) + (
            lp.sigma * (v - u), (lp.r - Z) * u - v - X * w,
            Y * u + X * v - lp.delta * w)

    steps = int(round(s_end / renorm_interval))
    stretches = np.empty(steps)
    for k in range(steps):
        y = _dopri45(rhs, y, float(renorm_interval), rtol, atol)[0]
        size = math.hypot(*y[3:])
        stretches[k] = math.log(size)
        y = y[:3] + [v / size for v in y[3:]]
    keep = stretches[int(math.floor(steps * discard_fraction)):]
    return float(np.sum(keep) / (keep.size * renorm_interval))
