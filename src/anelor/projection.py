"""Galerkin projection of the anelastic convection equations onto three modes.

The truncated fields are

    psi = A(t) * psi[-1, 1, 1]          (streamfunction)
    tau = B(t) * psi[+1, 1, 1] + C(t) * psi[+1, 0, 2]   (temperature)

and projecting the vorticity and temperature equations onto the three modes,
then dividing by the time-derivative Gram factors, yields

    dA/dt = e1*A + e2*B
    dB/dt = e3*A*C + e4*B + e5*A
    dC/dt = e6*A*B + e7*C

The coefficients are produced by three routes:

  oracle        every projection integral evaluated by Gauss-Legendre
                quadrature from exact mode derivatives, with no reuse of the
                eigenvalue formula or of any hand integration, once per
                (beta, l, order), with Ra, Pr and gamma applied at assembly;
                this is the reference route
  closed_form   analytic integrals re-derived from scratch; they agree with
                the oracle to near machine precision and carry series branches
                so beta -> 0 is smooth
  published     the final reduced system as printed in the literature this
                model comes from: the closed-form terms with two printed
                overrides, the gamma term of e1 (4 pi^2/l for 4 pi^2/l^2)
                and the AC projection that the printed e3 implies; this route
                exists only so the discrepancy report can quantify the drift,
                and nothing downstream consumes it by default

`discrepancy_report` lists every projected term and every coefficient with
all routes side by side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .basis import ModeGrid, ModeIndex, QuadratureRule, vorticity_diffusion_terms
from .params import PhysicalParams

__all__ = [
    "ORDER",
    "GalerkinCoeffs",
    "ProjectionTermReport",
    "QuadratureConvergenceError",
    "TERM_NAMES",
    "expm1_over",
    "oracle_coefficients",
    "closed_form_coefficients",
    "published_coefficients",
    "coefficients",
    "discrepancy_report",
]

PROVENANCES = ("oracle", "closed_form", "published")

# oracle quadrature points per axis, unless a caller asks for another order
ORDER = 64

TERM_NAMES = (
    "diffusive-omega",
    "gamma-term",
    "buoyancy-omega",
    "mass-omega",
    "mass-tau1",
    "mass-tau2",
    "diffusive-tau1",
    "diffusive-tau2",
    "source-tau",
    "nonlinear-tau-111",
    "nonlinear-tau-102",
    "nonlinear-omega",
)

# relative-deviation floor; keeps identically-zero projections (quadrature
# noise ~1e-16) from reporting O(1) spurious deviations
_DEV_FLOOR = 1e-8


class QuadratureConvergenceError(RuntimeError):
    """Doubling the quadrature order moved a coefficient by too much."""


def expm1_over(x: float) -> float:
    """(exp(x) - 1) / x with a series branch for |x| < 1e-6."""
    if abs(x) < 1e-6:
        return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    return math.expm1(x) / x


@dataclass(frozen=True)
class GalerkinCoeffs:
    """Coefficients of the reduced three-mode system, with provenance."""

    e1: float
    e2: float
    e3: float
    e4: float
    e5: float
    e6: float
    e7: float
    provenance: str
    params: PhysicalParams

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not all(math.isfinite(v) for v in self.as_array()):
            raise ValueError("coefficients must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.e1, self.e2, self.e3, self.e4, self.e5, self.e6, self.e7])

    def as_dict(self) -> dict:
        return {f"e{i}": v for i, v in enumerate(self.as_array(), start=1)}


@dataclass(frozen=True)
class ProjectionTermReport:
    """One row of the route comparison; oracle is the reference."""

    term: str
    oracle: float
    closed_form: float
    published: float | None
    rel_dev: float
    rel_dev_closed_form: float
    rel_dev_published: float | None


def _oracle_terms(params: PhysicalParams, order: int) -> dict:
    """All projection integrals of the reduced system, by quadrature.

    Values are per unit amplitude (A, B, C, or their products): a copy of the
    cached geometry integrals, with the sqrt(Ra) factor of the equations on
    the buoyancy/source entries and gamma * beta^2 on the gamma term.
    """
    terms = dict(_oracle_integrals(params.beta, params.length, order))
    sqrt_ra = math.sqrt(params.rayleigh)
    terms["gamma-term"] = params.gamma * params.beta**2 * terms["gamma-term"]
    terms["buoyancy-omega"] = sqrt_ra * terms["buoyancy-omega"]
    terms["source-tau"] = sqrt_ra * terms["source-tau"]
    return terms


@functools.lru_cache(maxsize=16)
def _oracle_integrals(beta: float, length: float, order: int) -> MappingProxyType:
    """`_oracle_terms` without its Ra and gamma factors, which leaves a function
    of (beta, l, order) alone; read-only, since hits share it."""
    rule = QuadratureRule(order, length)
    geometry = PhysicalParams(beta=beta, length=length)
    _, Z, W = rule.grid()
    Eb = np.exp(beta * Z)
    E2 = np.exp(2.0 * beta * Z)

    a = ModeGrid(ModeIndex(-1, 1, 1), geometry, rule)
    t1 = ModeGrid(ModeIndex(+1, 1, 1), geometry, rule)
    t2 = ModeGrid(ModeIndex(+1, 0, 2), geometry, rule)

    def quad(field):
        return float(np.sum(W * field))

    # vorticity of the streamfunction mode, w = -exp(beta z)(Lap + beta d/dz) psi
    lap_a = a.laplacian()
    vort = -Eb * (lap_a + beta * a.partial(0, 1))
    mass_omega = quad(vort * a.partial())

    # diffusion of (w - beta exp(beta z) psi_z) = -exp(beta z)(Lap psi + 2 beta psi_z)
    diffused = -Eb * sum(
        c * a.partial(dx, dz) for c, dx, dz in vorticity_diffusion_terms(beta)
    )
    diffusive_omega = quad(Eb * diffused * a.partial())

    gamma_term = quad(E2 * a.partial(2, 0) * a.partial())

    buoyancy = -quad(Eb * t1.partial(1, 0) * a.partial())
    buoyancy_cross = -quad(Eb * t2.partial(1, 0) * a.partial())

    # momentum nonlinearity, projects to zero
    vort_x = -Eb * (a.partial(3, 0) + a.partial(1, 2) + beta * a.partial(1, 1))
    vort_z = -Eb * (
        beta * (lap_a + beta * a.partial(0, 1))
        + a.partial(2, 1)
        + a.partial(0, 3)
        + beta * a.partial(0, 2)
    )
    advected = beta * Eb * vort * a.partial(1, 0) + Eb * (
        a.partial(1, 0) * vort_z - a.partial(0, 1) * vort_x
    )
    nonlinear_omega = quad(advected * a.partial())

    # temperature equation: weight-free Gram factors, weighted diffusion
    mass_tau1 = quad(t1.partial() * t1.partial())
    mass_tau2 = quad(t2.partial() * t2.partial())
    gram_cross = quad(t1.partial() * t2.partial())

    diffusive_tau1 = quad(Eb * t1.laplacian() * t1.partial())
    diffusive_tau2 = quad(Eb * t2.laplacian() * t2.partial())
    diff_cross_12 = quad(Eb * t2.laplacian() * t1.partial())
    diff_cross_21 = quad(Eb * t1.laplacian() * t2.partial())

    source = quad(Eb * a.partial(1, 0) * t1.partial())
    source_cross = quad(Eb * a.partial(1, 0) * t2.partial())

    def advection(tau: ModeGrid, onto: ModeGrid) -> float:
        field = Eb * (
            a.partial(1, 0) * tau.partial(0, 1) - a.partial(0, 1) * tau.partial(1, 0)
        )
        return quad(field * onto.partial())

    nl_111 = advection(t2, t1)
    nl_102 = advection(t1, t2)
    nl_diag_1 = advection(t1, t1)
    nl_diag_2 = advection(t2, t2)

    # projections that vanish by horizontal orthogonality; a violation means
    # the quadrature is too coarse for the integrands
    scale = max(abs(mass_omega), abs(diffusive_tau1), 1.0)
    for name, value in (
        ("buoyancy cross", buoyancy_cross),
        ("gram cross", gram_cross),
        ("diffusion cross 12", diff_cross_12),
        ("diffusion cross 21", diff_cross_21),
        ("source cross", source_cross),
        ("advection diagonal 1", nl_diag_1),
        ("advection diagonal 2", nl_diag_2),
    ):
        if abs(value) > 1e-9 * scale:
            raise QuadratureConvergenceError(
                f"{name} projection is {value}; it vanishes by orthogonality, "
                f"so the rule does not resolve the integrands"
            )

    return MappingProxyType({
        "diffusive-omega": diffusive_omega,
        "gamma-term": gamma_term,
        "buoyancy-omega": buoyancy,
        "mass-omega": mass_omega,
        "mass-tau1": mass_tau1,
        "mass-tau2": mass_tau2,
        "diffusive-tau1": diffusive_tau1,
        "diffusive-tau2": diffusive_tau2,
        "source-tau": source,
        "nonlinear-tau-111": nl_111,
        "nonlinear-tau-102": nl_102,
        "nonlinear-omega": nonlinear_omega,
    })


def _closed_form_terms(params: PhysicalParams) -> dict:
    beta, l, gamma = params.beta, params.length, params.gamma
    pi2 = math.pi**2
    mu = 0.25 * beta**2 + 4.0 * pi2 / l**2 + pi2
    R4 = beta**2 + 4.0 * pi2
    Q16 = beta**2 + 16.0 * pi2
    P64 = beta**2 + 64.0 * pi2
    E1 = expm1_over(beta)  # (e^beta - 1)/beta
    Em = expm1_over(-beta)  # (1 - e^-beta)/beta
    Eh = expm1_over(-0.5 * beta)  # (1 - e^{-beta/2})/(beta/2)
    sqrt_ra = math.sqrt(params.rayleigh)
    return {
        "diffusive-omega": -(mu**2 + beta**2 * 4.0 * pi2 / l**2) * 4.0 * pi2 * E1 / R4,
        "gamma-term": -gamma * beta**2 * (4.0 * pi2 / l**2) * (4.0 * pi2 / R4) * E1,
        "buoyancy-omega": sqrt_ra * 2.0 * math.pi / l,
        "mass-omega": mu,
        "mass-tau1": Em * 4.0 * pi2 / R4,
        "mass-tau2": Em * 16.0 * pi2 / Q16,
        "diffusive-tau1": 0.25 * beta**2 - pi2 - 4.0 * pi2 / l**2,
        "diffusive-tau2": 0.25 * beta**2 - 4.0 * pi2,
        "source-tau": sqrt_ra * 2.0 * math.pi / l,
        "nonlinear-tau-111": -math.sqrt(2.0 / l) * (128.0 * math.pi**4 / l) * Eh / P64,
        "nonlinear-tau-102": math.sqrt(2.0 / l)
        * (4.0 * pi2 / l)
        * (0.5 * Eh)
        * (1.0 + 3.0 * beta**2 / P64 - 4.0 * beta**2 / Q16),
        "nonlinear-omega": 0.0,
    }


def _published_terms(params: PhysicalParams) -> dict:
    """Projection values as printed: the closed forms with two overrides.

    The printed e1 carries gamma * beta^2 * 4 pi^2 / l where the projection
    gives 4 pi^2 / l^2. The printed e3, sqrt(2/l) * (R4/Q16) * 64 pi^2 /
    (l * (1 + e^{-beta/2})), is carried as the AC projection it implies,
    -e3 * mass-tau1; it disagrees with the oracle for every l (by a factor 4
    at beta = 0).
    """
    terms = _closed_form_terms(params)
    beta, l = params.beta, params.length
    pi2 = math.pi**2
    R4 = beta**2 + 4.0 * pi2
    Q16 = beta**2 + 16.0 * pi2
    terms["gamma-term"] = (
        -params.gamma * beta**2 * (4.0 * pi2 / l) * (4.0 * pi2 / R4) * expm1_over(beta))
    terms["nonlinear-tau-111"] = (-math.sqrt(2.0 / l) * 256.0 * math.pi**4 * expm1_over(-beta)
                                  / (l * Q16 * (1.0 + math.exp(-0.5 * beta))))
    return terms


def _assemble(terms: dict, params: PhysicalParams, provenance: str) -> GalerkinCoeffs:
    """Divide each projected equation by its time-derivative Gram factor."""
    pr = params.prandtl
    mass_omega = terms["mass-omega"]
    g1 = terms["mass-tau1"]
    g2 = terms["mass-tau2"]
    return GalerkinCoeffs(
        e1=pr * (terms["diffusive-omega"] + terms["gamma-term"]) / mass_omega,
        e2=pr * terms["buoyancy-omega"] / mass_omega,
        e3=-terms["nonlinear-tau-111"] / g1,
        e4=terms["diffusive-tau1"] / g1,
        e5=terms["source-tau"] / g1,
        e6=-terms["nonlinear-tau-102"] / g2,
        e7=terms["diffusive-tau2"] / g2,
        provenance=provenance,
        params=params,
    )


def oracle_coefficients(
    params: PhysicalParams, order: int = ORDER, check_convergence: bool = False
) -> GalerkinCoeffs:
    """Reference coefficients, every integral by `order`-point quadrature per axis.

    With check_convergence=True the order is doubled and a relative move
    above 1e-9 in any coefficient raises QuadratureConvergenceError.
    """
    coeffs = _assemble(_oracle_terms(params, order), params, "oracle")
    if check_convergence:
        refined = _assemble(_oracle_terms(params, 2 * order), params, "oracle")
        base, again = coeffs.as_array(), refined.as_array()
        moves = np.abs(again - base) / np.maximum(np.abs(again), _DEV_FLOOR)
        if np.any(moves > 1e-9):
            worst = int(np.argmax(moves))
            raise QuadratureConvergenceError(
                f"e{worst + 1} moved by {moves[worst]:.3e} when the order doubled"
            )
    return coeffs


def closed_form_coefficients(params: PhysicalParams) -> GalerkinCoeffs:
    """Coefficients from the re-derived analytic integrals."""
    return _assemble(_closed_form_terms(params), params, "closed_form")


def published_coefficients(params: PhysicalParams) -> GalerkinCoeffs:
    """The reduced system as printed; kept for comparison only.

    These are the closed-form terms with two printed overrides: e1's gamma
    term has 4 pi^2 / l for 4 pi^2 / l^2, and e3 is the printed one, which
    disagrees with the oracle in both normalization and beta dependence. Do
    not feed these into anything that matters; `discrepancy_report`
    quantifies the drift.
    """
    return _assemble(_published_terms(params), params, "published")


def coefficients(
    params: PhysicalParams, source: str = "oracle", order: int = ORDER
) -> GalerkinCoeffs:
    """Dispatch on provenance; the oracle is the default everywhere, and the
    only route that reads `order`."""
    if source == "oracle":
        return oracle_coefficients(params, order)
    if source == "closed_form":
        return closed_form_coefficients(params)
    if source == "published":
        return published_coefficients(params)
    raise ValueError(f"unknown coefficient source {source!r}")


def _rel_dev(value: float, reference: float, floor: float = _DEV_FLOOR) -> float:
    return abs(value - reference) / max(abs(value), abs(reference), floor)


def discrepancy_report(
    params: PhysicalParams, order: int = ORDER
) -> list[ProjectionTermReport]:
    """Route comparison for every projected term and every coefficient.

    Deviations are relative to the larger of the two values being compared;
    rows whose exact value is zero fall back to a floor scaled by the
    dominant magnitude of the system, so quadrature noise in a vanishing
    projection does not read as disagreement.
    """
    oracle_terms = _oracle_terms(params, order)
    closed_terms = _closed_form_terms(params)
    published_terms = _published_terms(params)
    oracle = _assemble(oracle_terms, params, "oracle").as_array().tolist()
    closed = _assemble(closed_terms, params, "closed_form").as_array().tolist()
    published = _assemble(published_terms, params, "published").as_array().tolist()
    terms = [(name, oracle_terms[name], closed_terms[name], published_terms[name])
             for name in TERM_NAMES]
    coefficients = zip([f"e{i}" for i in range(1, 8)], oracle, closed, published)
    return _report_rows(terms) + _report_rows(list(coefficients))


def _report_rows(rows) -> list[ProjectionTermReport]:
    """One report per (term, oracle, closed form, published); zero values fall
    back to a floor scaled by the largest oracle value among `rows`."""
    floor = _DEV_FLOOR * max(1.0, max(abs(o) for _, o, _, _ in rows))
    return [ProjectionTermReport(
        term=term, oracle=o, closed_form=c, published=p,
        rel_dev=max(_rel_dev(c, o, floor), _rel_dev(p, o, floor)),
        rel_dev_closed_form=_rel_dev(c, o, floor), rel_dev_published=_rel_dev(p, o, floor),
    ) for term, o, c, p in rows]
