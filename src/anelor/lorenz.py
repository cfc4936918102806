"""Mapping the reduced three-mode system onto the classic Lorenz form.

Rescaling amplitudes and time,

    X = a*A, Y = b*B, Z = c*C, s = d*t,

turns

    dA/dt = e1*A + e2*B
    dB/dt = e3*A*C + e4*B + e5*A
    dC/dt = e6*A*B + e7*C

into

    dX/ds = sigma*(Y - X)
    dY/ds = r*X - Y - X*Z
    dZ/ds = X*Y - delta*Z

with sigma = e1/e4, delta = e7/e4 and r = e2*e5/(e1*e4). Since e2 and e5
each carry a factor sqrt(Ra), r is linear in the Rayleigh number and the
critical value where the conducting state loses stability is simply
Ra* = Ra_ref / r(Ra_ref). The module also provides the rest points of the
Lorenz system, the exact eigenvalues of the conducting state, and a
one-dimensional minimizer of Ra* over the domain width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams
from .projection import ORDER, GalerkinCoeffs, coefficients

__all__ = [
    "BracketError",
    "LorenzParams",
    "ScalingMap",
    "StabilityReport",
    "LengthOptimum",
    "scale_to_lorenz",
    "critical_points",
    "origin_eigenvalues",
    "classify_rest_state",
    "critical_rayleigh",
    "taylor_ratio",
    "minimize_over_length",
]


class BracketError(RuntimeError):
    """The width scan found no interior minimum in [0.5, 10]."""


@dataclass(frozen=True)
class LorenzParams:
    """Classic Lorenz parameters; delta generalizes the usual 8/3."""

    sigma: float
    delta: float
    r: float

    def __post_init__(self):
        for name in ("sigma", "delta", "r"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            # plain floats keep the scalar integrator off numpy scalars
            object.__setattr__(self, name, float(value))
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.r < 0.0:
            raise ValueError(f"r must be nonnegative, got {self.r}")


@dataclass(frozen=True)
class ScalingMap:
    """Amplitude and time scaling between the reduced and Lorenz systems.

    Forward: (X, Y, Z) = (a*A, b*B, c*C) and Lorenz time s = d*t. The sign
    convention fixes b > 0; a and c then follow from the coefficients.
    """

    a: float
    b: float
    c: float
    d: float

    def apply(self, states):
        """Reduced (A, B, C) states, shape (..., 3), to Lorenz (X, Y, Z)."""
        return np.asarray(states) * np.array([self.a, self.b, self.c])

    def time_to_lorenz(self, t):
        return np.asarray(t) * self.d


@dataclass(frozen=True)
class StabilityReport:
    """Stability of the conducting (origin) state of the Lorenz system."""

    classification: str  # "stable" | "unstable" | "marginal"
    leading: float
    eigenvalues: np.ndarray


@dataclass(frozen=True)
class LengthOptimum:
    length: float
    rayleigh: float
    evaluations: int


def scale_to_lorenz(coeffs: GalerkinCoeffs) -> tuple[LorenzParams, ScalingMap]:
    """Lorenz parameters and the scaling that realizes them.

    Requires e1*e4 > 0 (decay in both linear diagonals), e2 != 0 (a buoyancy
    coupling, so the Rayleigh number must be positive), and e3*e6 < 0
    (opposed temperature nonlinearities). The product e3*e6 changes sign at
    beta = 2*sqrt(2)*pi, beyond which no real amplitude scaling exists.
    """
    e1, e2, e3, e4, e5, e6, e7 = coeffs.as_array()
    if e1 * e4 <= 0.0 or e7 * e4 <= 0.0:
        raise ValueError("need matching signs in e1, e4, e7 to form sigma and delta")
    if e2 == 0.0:
        raise ValueError("e2 vanishes (zero Rayleigh number); the map is singular")
    if e3 * e6 >= 0.0:
        raise ValueError(
            "e3*e6 must be negative for a real amplitude scaling; "
            "it changes sign at beta = 2*sqrt(2)*pi"
        )
    params = LorenzParams(sigma=e1 / e4, delta=e7 / e4, r=e2 * e5 / (e1 * e4))
    d = -e4
    b = math.sqrt(-e3 * e6 * e2**2 / (e1**2 * e4**2))
    a = -e1 * b / e2
    c = d * a * b / e6
    return params, ScalingMap(a=a, b=b, c=c, d=d)


def critical_points(lp: LorenzParams) -> np.ndarray:
    """Rest points, shape (k, 3); the convecting pair exists for r > 1."""
    points = [np.zeros(3)]
    if lp.r > 1.0:
        wing = math.sqrt(lp.delta * (lp.r - 1.0))
        points.append(np.array([wing, wing, lp.r - 1.0]))
        points.append(np.array([-wing, -wing, lp.r - 1.0]))
    return np.array(points)


def origin_eigenvalues(lp: LorenzParams) -> np.ndarray:
    """Eigenvalues at the origin, ordered (lambda+, lambda-, -delta).

    The quadratic factor has discriminant (sigma + 1)^2 + 4*sigma*(r - 1)
    >= (sigma - 1)^2 for r >= 0, so all three are real.
    """
    s, r = lp.sigma, lp.r
    disc = math.sqrt((s + 1.0) ** 2 + 4.0 * s * (r - 1.0))
    return np.array(
        [0.5 * (-(s + 1.0) + disc), 0.5 * (-(s + 1.0) - disc), -lp.delta]
    )


def classify_rest_state(lp: LorenzParams) -> StabilityReport:
    """Linear stability of the conducting state; marginal within 1e-12 of zero."""
    eigenvalues = origin_eigenvalues(lp)
    leading = float(np.max(eigenvalues))
    if abs(leading) <= 1e-12:
        classification = "marginal"
    elif leading < 0.0:
        classification = "stable"
    else:
        classification = "unstable"
    return StabilityReport(classification, leading, eigenvalues)


def critical_rayleigh(
    params: PhysicalParams, source: str = "oracle", order: int = ORDER
) -> float:
    """Rayleigh number where the conducting state loses stability (r = 1).

    r is exactly linear in Ra, so one evaluation at a reference Rayleigh
    number fixes the crossing. Where r does not grow with Ra (e4 >= 0, for
    one) there is no onset, and ArithmeticError names beta, l, e4 and the rate.
    """
    reference = coefficients(params.with_rayleigh(1.0), source, order)
    e1, e2, _, e4, e5, _, _ = reference.as_array()
    slope = float(e2 * e5 / (e1 * e4))
    if not slope > 0.0:
        raise ArithmeticError(f"no onset at beta = {params.beta}, l = {params.length}: "
                              f"r grows at rate {slope:.6g} per unit Ra (e4 = {e4:.6g}) "
                              "and cannot cross 1")
    return 1.0 / slope


def taylor_ratio(
    params: PhysicalParams, beta: float | None = None, source: str = "closed_form"
) -> float:
    """First-order sensitivity (Ra*(beta)/Ra*(0) - 1) / beta.

    Tends to 1/2 as beta -> 0: weak stratification raises the onset of
    convection at half the relative rate of beta itself.
    """
    beta = params.beta if beta is None else beta
    if beta <= 0.0:
        raise ValueError("the ratio needs beta > 0")
    flat = critical_rayleigh(params.with_beta(0.0), source)
    lifted = critical_rayleigh(params.with_beta(beta), source)
    return (lifted / flat - 1.0) / beta


def minimize_over_length(
    beta: float = 0.0,
    prandtl: float = PhysicalParams.prandtl,
    gamma: float = PhysicalParams.gamma,
    source: str = "closed_form",
    order: int = ORDER,
) -> LengthOptimum:
    """Domain width that minimizes the critical Rayleigh number.

    A 41-point scan of l over [0.5, 10], then golden-section refinement to
    |dl| <= 1e-8. Raises BracketError when Ra* is still falling at an edge of
    the scan; for beta > 2*pi the message also gives the e4 = 0 width below.
    At beta = 0 the optimum is l = 2*sqrt(2) with Ra* = 27*pi^4/4. `order` is
    the oracle's quadrature order, as in `critical_rayleigh`.

    The scan passes on the ArithmeticError of widths with e4 >= 0, l >= 2*pi /
    sqrt(beta^2/4 - pi^2) for beta > 2*pi, which holds at l = 10 from beta =
    6.408. Skipping them would give no minimum, since Ra* -> 0 as e4 -> 0-: at
    l = 4.06 the closed form gives Ra* = 372.8 at beta = 7 and 770.3 at 0.
    """
    evaluations = 0

    def ra_star(length):
        nonlocal evaluations
        evaluations += 1
        p = PhysicalParams(beta=beta, prandtl=prandtl, gamma=gamma, length=length)
        return critical_rayleigh(p, source, order)

    grid = np.linspace(0.5, 10.0, 41)
    values = [ra_star(l) for l in grid.tolist()]  # floats: numpy scalars warn on overflow
    k = int(np.argmin(values))
    if k == 0 or k == len(grid) - 1:
        message = f"Ra* is still falling at the edge l = {grid[k]:.6g} of the scan over [0.5, 10]"
        if beta > 2.0 * math.pi:
            width = 2.0 * math.pi / math.sqrt(beta**2 / 4.0 - math.pi**2)
            message += f"; the onset ends where e4 = 0, at l = {width:.6g}"
        raise BracketError(message)

    # golden-section on the bracketing triple
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    left, right = float(grid[k - 1]), float(grid[k + 1])
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = ra_star(x1), ra_star(x2)
    while right - left > 1e-8:
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = ra_star(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = ra_star(x2)
    best = 0.5 * (left + right)
    return LengthOptimum(length=best, rayleigh=ra_star(best), evaluations=evaluations)
