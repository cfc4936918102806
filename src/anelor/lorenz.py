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
Lorenz system, the exact eigenvalues of the conducting state, and the
domain width that minimizes Ra*, in closed form as the root of a cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .params import InadmissibleError, PhysicalParams
from .projection import GalerkinCoeffs, coefficients

__all__ = [
    "LorenzParams",
    "ScalingMap",
    "StabilityReport",
    "LengthOptimum",
    "scale_to_lorenz",
    "critical_points",
    "origin_eigenvalues",
    "classify_rest_state",
    "critical_rayleigh",
    "minimize_over_length",
]


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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # non-finite results raise below
def scale_to_lorenz(coeffs: GalerkinCoeffs) -> tuple[LorenzParams, ScalingMap]:
    """Lorenz parameters and the scaling that realizes them.

    Requires e1*e4 > 0 and e7*e4 > 0 (decay in the linear diagonals), e2 != 0
    (a buoyancy coupling, so the Rayleigh number must be positive), and
    e3*e6 < 0 (opposed temperature nonlinearities); otherwise it raises
    InadmissibleError naming beta and l. The map's domain is narrower than the
    onset's, which needs only e4 < 0: at l = 2*sqrt(2), e3*e6 changes sign at
    beta = 2*sqrt(2)*pi, beyond which no real amplitude scaling exists. A
    parameter or scaling that is not finite (r at Ra = 1e308; b at Pr = 1e-200,
    where e1^2 * e4^2 underflows) raises InadmissibleError naming beta, l and Ra.
    """
    e1, e2, e3, e4, e5, e6, e7 = coeffs.as_array()
    head = f"no Lorenz map at beta = {coeffs.params.beta}, l = {coeffs.params.length}: "
    if e1 * e4 <= 0.0 or e7 * e4 <= 0.0:
        raise InadmissibleError(head + "need matching signs in e1, e4, e7 to form sigma and delta")
    if e2 == 0.0:
        raise InadmissibleError(head + "e2 vanishes (zero Rayleigh number or underflow); "
                                "the map is singular")
    if e3 * e6 >= 0.0:
        raise InadmissibleError(head + f"e3*e6 = {e3 * e6:.6g} must be negative for a real "
                                "amplitude scaling")
    sigma, delta, r = e1 / e4, e7 / e4, e2 * e5 / (e1 * e4)
    d = -e4
    b = math.sqrt(-e3 * e6 * e2**2 / (e1**2 * e4**2))
    a = -e1 * b / e2
    c = d * a * b / e6
    if not np.isfinite([sigma, delta, r, a, b, c, d]).all():
        raise InadmissibleError(f"no Lorenz map at beta = {coeffs.params.beta}, "
                                f"l = {coeffs.params.length}, Ra = {coeffs.params.rayleigh}: "
                                "the Lorenz parameters or the scaling are not finite")
    return LorenzParams(sigma=sigma, delta=delta, r=r), ScalingMap(a=a, b=b, c=c, d=d)


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


def critical_rayleigh(params: PhysicalParams, source: str = "oracle") -> float:
    """Rayleigh number where the conducting state loses stability (r = 1).

    r is exactly linear in Ra, so one evaluation at a reference Rayleigh
    number fixes the crossing. Where r does not grow with Ra (e4 >= 0, for
    one) there is no onset, and InadmissibleError names beta, l, e4 and the
    rate; it names beta, l and the rate where Ra* = 1/rate overflows. Only
    this domain applies: the Lorenz map's e7 and e3*e6 conditions
    (`scale_to_lorenz`) do not.
    """
    c = coefficients(params.with_rayleigh(1.0), source)
    scale = c.e1 * c.e4  # Python floats: e4 = 0 is tested here, never divided by
    slope = c.e2 * c.e5 / scale if scale else math.nan
    if not slope > 0.0:
        rate = f"grows at rate {slope:.6g} per unit Ra" if scale else "is undefined"
        raise InadmissibleError(f"no onset at beta = {params.beta}, l = {params.length}: "
                                f"r {rate} (e4 = {c.e4:.6g}) and cannot cross 1")
    if not 1.0 / slope < math.inf:
        raise InadmissibleError(f"no finite onset at beta = {params.beta}, l = {params.length}: "
                                f"r grows at rate {slope:.6g} per unit Ra, so Ra* overflows")
    return 1.0 / slope


def minimize_over_length(
    beta: float = 0.0,
    prandtl: float = PhysicalParams.prandtl,
    gamma: float = PhysicalParams.gamma,
    source: str = "closed_form",
) -> LengthOptimum:
    """Domain width that minimizes the critical Rayleigh number, and Ra* there.

    With q = (2*pi/l)^2, a, b = pi^2 -+ beta^2/4 and c = (1 + gamma)*beta^2,
    the closed form's Ra* is proportional to ((b + q)^2 + c*q)(a + q)/q, and
    dRa*/dq = 0 is 2q^3 + (2b + c + a)q^2 = a*b^2. For beta < 2*pi that cubic
    has one positive root (Descartes' rule), the minimum over every width;
    the onset is evaluated there once, on the route asked. The oracle is the
    same function of l to quadrature accuracy; the published route's gamma
    term, 4*pi^2/l, is not polynomial in q, and it raises ValueError. For
    beta >= 2*pi no root exists: Ra* falls toward the width where e4 = 0, and
    InadmissibleError names it. Where the minimizing width overflows, as it
    does once (1 + gamma)*beta^2 does, InadmissibleError names beta and gamma.
    """
    params = PhysicalParams(beta=beta, prandtl=prandtl, gamma=gamma)
    if source == "published":
        raise ValueError("the published onset has no closed-form width minimum: its "
                         "gamma term, 4*pi^2/l, is not polynomial in (2*pi/l)^2")
    half = params.beta / 2.0
    a, b = (math.pi - half) * (math.pi + half), math.pi**2 + half * half
    if a <= 0.0:
        root = math.sqrt(half - math.pi) * math.sqrt(half + math.pi)  # sqrt(-a), no overflow
        width = 2.0 * math.pi / root if root else math.inf
        raise InadmissibleError(f"no width minimizes Ra* at beta = {params.beta}: it falls "
                                f"toward the width where e4 = 0, l = {width:.6g}")
    p, ab2 = 2.0 * b + (1.0 + params.gamma) * params.beta**2 + a, a * b * b
    # w = 1/q solves a*b^2*w^3 - p*w - 2 = 0; 27*a*b^2 <= p^3 (AM-GM), so its
    # roots are real, and the largest, the positive one, has the trigonometric form
    theta = math.acos(min(1.0, math.sqrt(27.0 * ab2 / (p * p * p))))
    w = 2.0 * math.sqrt(p / (3.0 * ab2)) * math.cos(theta / 3.0)
    length = 2.0 * math.pi * math.sqrt(w)
    if not length < math.inf:
        raise InadmissibleError(f"no finite width minimizes Ra* at beta = {params.beta}, "
                                f"gamma = {params.gamma}: the minimizing width overflows")
    return LengthOptimum(length, critical_rayleigh(replace(params, length=length), source))
