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

  oracle        every projection integral is an instance of one of nine
                operator rows (a weight exp(w*beta*z), a test field and a sum
                of products of exact field derivatives) on the three modes,
                evaluated on the tensor-product Gauss-Legendre grid with no
                reuse of the eigenvalue formula or of any hand integration,
                once per (beta, l, order), with Ra, Pr and gamma applied at
                assembly; this is the reference route
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
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .basis import ModeGrid, ModeIndex, QuadratureRule
from .params import InadmissibleError, PhysicalParams

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

# oracle quadrature points per axis, converged over the oracle's whole domain
ORDER = 64

# relative-deviation floor; keeps identically-zero projections (quadrature
# noise ~1e-16) from reporting O(1) spurious deviations
_DEV_FLOOR = 1e-8


class QuadratureConvergenceError(RuntimeError):
    """Doubling the quadrature order moved a coefficient by too much."""


def expm1_over(x: float) -> float:
    """(exp(x) - 1) / x with a series branch for |x| < 1e-6; inf where exp(x)
    overflows, so a huge beta gives non-finite values, not an OverflowError."""
    if abs(x) < 1e-6:
        return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    try:
        return math.expm1(x) / x
    except OverflowError:
        return math.inf


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
    """The named projection integrals by quadrature, per unit amplitude: a copy of
    the cached geometry integrals with the equations' sqrt(Ra) on the buoyancy
    and source entries and gamma * beta^2 on the gamma term."""
    terms = dict(_oracle_integrals(params.beta, params.length, order))
    sqrt_ra = math.sqrt(params.rayleigh)
    terms["gamma-term"] = params.gamma * params.beta**2 * terms["gamma-term"]
    terms["buoyancy-omega"] = sqrt_ra * terms["buoyancy-omega"]
    terms["source-tau"] = sqrt_ra * terms["source-tau"]
    return terms


# the truncation's modes by field: psi[-1, 1, 1] carries A, psi[+1, 1, 1] B, psi[+1, 0, 2] C
_MODES = {"psi": {"A": ModeIndex(-1, 1, 1)},
          "tau": {"B": ModeIndex(+1, 1, 1), "C": ModeIndex(+1, 0, 2)}}


def _operators(beta: float) -> dict:
    """The projected equations, one row per operator: name -> (test field, w, terms).
    On a test mode the row integrates exp(w*beta*z) * test * sum(c * product of
    d^dx d^dz field) over its terms (c, ((field, dx, dz), ...)). The powers of beta
    are numpy's: they overflow to inf under the callers' errstate, not raise."""
    beta = np.float64(beta)

    def linear(field, *terms):  # sum of c * d^dx d^dz field over (c, dx, dz)
        return [(c, ((field, dx, dz),)) for c, dx, dz in terms]

    # vorticity w = exp(beta z) v with v = -(Lap psi + beta psi_z); the diffusion
    # terms sum to exp(-beta z) * Lap(w - beta exp(beta z) psi_z), and the
    # advection exp(beta z)(psi_x w_z - psi_z w_x + beta w psi_x) is
    # exp(2 beta z)(2 beta psi_x v + psi_x v_z - psi_z v_x)
    vorticity = ((-1.0, 2, 0), (-1.0, 0, 2), (-beta, 0, 1))
    diffusion = ((-1.0, 4, 0), (-2.0, 2, 2), (-1.0, 0, 4), (-4.0 * beta, 2, 1),
                 (-4.0 * beta, 0, 3), (-beta**2, 2, 0), (-5.0 * beta**2, 0, 2),
                 (-2.0 * beta**3, 0, 1))
    advection = [term for c, dx, dz in vorticity for term in (
        (2.0 * beta * c, (("psi", 1, 0), ("psi", dx, dz))),
        (c, (("psi", 1, 0), ("psi", dx, dz + 1))),
        (-c, (("psi", 0, 1), ("psi", dx + 1, dz))))]
    # the temperature test weight is exp(tau*beta*z): the paper's test is
    # weight-free, and tau = -1 would give the Galerkin test exp(-beta*z) * mode
    tau = 0
    return {
        "vorticity time derivative": ("psi", 1, linear("psi", *vorticity)),
        "vorticity diffusion": ("psi", 2, linear("psi", *diffusion)),
        "gamma": ("psi", 2, linear("psi", (1.0, 2, 0))),
        "buoyancy": ("psi", 1, linear("tau", (-1.0, 1, 0))),
        "vorticity advection": ("psi", 2, advection),
        "temperature time derivative": ("tau", tau, linear("tau", (1.0, 0, 0))),
        "temperature diffusion": ("tau", tau + 1, linear("tau", (1.0, 2, 0), (1.0, 0, 2))),
        "source": ("tau", tau + 1, linear("psi", (1.0, 1, 0))),
        "temperature advection": ("tau", tau + 1, (  # the Jacobian psi_x tau_z - psi_z tau_x
            (1.0, (("psi", 1, 0), ("tau", 0, 1))), (-1.0, (("psi", 0, 1), ("tau", 1, 0))))),
    }


# the reported projections as instances (operator, test mode, trial modes in the
# order the row's fields appear); every other instance vanishes by orthogonality
_TERMS = {
    "diffusive-omega": ("vorticity diffusion", "A", "A"),
    "gamma-term": ("gamma", "A", "A"),
    "buoyancy-omega": ("buoyancy", "A", "B"),
    "mass-omega": ("vorticity time derivative", "A", "A"),
    "mass-tau1": ("temperature time derivative", "B", "B"),
    "mass-tau2": ("temperature time derivative", "C", "C"),
    "diffusive-tau1": ("temperature diffusion", "B", "B"),
    "diffusive-tau2": ("temperature diffusion", "C", "C"),
    "source-tau": ("source", "B", "A"),
    "nonlinear-tau-111": ("temperature advection", "B", "AC"),
    "nonlinear-tau-102": ("temperature advection", "C", "AB"),
    "nonlinear-omega": ("vorticity advection", "A", "A"),
}
TERM_NAMES = tuple(_TERMS)


def _instances(beta: float):
    """Each operator row on every (test, trial) pair of the truncation's modes, as
    (key, w, test mode, terms, the trial mode of each field), keyed as in _TERMS."""
    for name, (field, w, terms) in _operators(beta).items():
        fields = list(dict.fromkeys([f for _, factors in terms for f, _, _ in factors]))
        for test, *trial in itertools.product(_MODES[field], *map(_MODES.get, fields)):
            yield (name, test, "".join(trial)), w, test, terms, dict(zip(fields, trial))


@functools.lru_cache(maxsize=16)
@np.errstate(over="ignore", invalid="ignore")
def _oracle_integrals(beta: float, length: float, order: int) -> MappingProxyType:
    """`_oracle_terms` without its Ra and gamma factors, a function of (beta, l,
    order) alone: each instance summed on the tensor grid against W * exp(w*beta*z)
    * test, formed once per (w, test); read-only, since hits share it. Overflow
    raises InadmissibleError, a nonzero orthogonality instance QuadratureConvergenceError."""
    rule = QuadratureRule(order, length)
    geometry = PhysicalParams(beta=beta, length=length)
    W = np.outer(rule.x_weights, rule.z_weights)
    grids = {k: ModeGrid(j, geometry, rule) for modes in _MODES.values() for k, j in modes.items()}
    instances = list(_instances(beta))
    weighted = {(w, test): W * np.exp(w * beta * rule.z_nodes) * grids[test].partial()
                for w, test in {instance[1:3] for instance in instances}}
    values = {}
    for key, w, test, terms, mode in instances:
        field = 0.0
        for c, ((f, dx, dz), *rest) in terms:
            term = grids[mode[f]].partial(dx, dz)
            for f, dx, dz in rest:
                term = term * grids[mode[f]].partial(dx, dz)
            field = field + (term if c == 1.0 else c * term)
        values[key] = float(np.sum(field * weighted[w, test]))
    if not all(map(math.isfinite, values.values())):
        raise InadmissibleError(f"oracle integrals are not finite at beta = {beta}, l = {length}")
    named = {name: values.pop(key) for name, key in _TERMS.items()}
    scale = max(abs(named["mass-omega"]), abs(named["diffusive-tau1"]), 1.0)
    for key, value in values.items():  # the instances that vanish by orthogonality
        if abs(value) > 1e-9 * scale:
            raise QuadratureConvergenceError(f"{key} projection is {value}; it vanishes by "
                                             "orthogonality, so the rule does not resolve it")
    return MappingProxyType(named)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # _assemble rejects inf and nan
def _closed_form_terms(params: PhysicalParams) -> dict:
    beta, l, gamma = params.beta, np.float64(params.length), params.gamma
    pi2 = math.pi**2
    mu = 0.25 * beta * beta + 4.0 * pi2 / l**2 + pi2
    R4 = beta * beta + 4.0 * pi2
    Q16 = beta * beta + 16.0 * pi2
    P64 = beta * beta + 64.0 * pi2
    E1 = expm1_over(beta)  # (e^beta - 1)/beta
    Em = expm1_over(-beta)  # (1 - e^-beta)/beta
    Eh = expm1_over(-0.5 * beta)  # (1 - e^{-beta/2})/(beta/2)
    sqrt_ra = math.sqrt(params.rayleigh)
    terms = {
        "diffusive-omega": -(mu * mu + beta * beta * 4.0 * pi2 / l**2) * 4.0 * pi2 * E1 / R4,
        "gamma-term": -gamma * beta * beta * (4.0 * pi2 / l**2) * (4.0 * pi2 / R4) * E1,
        "buoyancy-omega": sqrt_ra * 2.0 * math.pi / l,
        "mass-omega": mu,
        "mass-tau1": Em * 4.0 * pi2 / R4,
        "mass-tau2": Em * 16.0 * pi2 / Q16,
        "diffusive-tau1": 0.25 * beta * beta - pi2 - 4.0 * pi2 / l**2,
        "diffusive-tau2": 0.25 * beta * beta - 4.0 * pi2,
        "source-tau": sqrt_ra * 2.0 * math.pi / l,
        "nonlinear-tau-111": -math.sqrt(2.0 / l) * (128.0 * math.pi**4 / l) * Eh / P64,
        "nonlinear-tau-102": math.sqrt(2.0 / l)
        * (4.0 * pi2 / l)
        * (0.5 * Eh)
        * (1.0 + 3.0 * beta * beta / P64 - 4.0 * beta * beta / Q16),
        "nonlinear-omega": 0.0,
    }
    return {name: float(value) for name, value in terms.items()}


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
    terms["gamma-term"] *= l
    Q16 = beta * beta + 16.0 * math.pi**2
    terms["nonlinear-tau-111"] = (-math.sqrt(2.0 / l) * 256.0 * math.pi**4 * expm1_over(-beta)
                                  / (l * Q16 * (1.0 + math.exp(-0.5 * beta))))
    return terms


def _assemble(terms: dict, params: PhysicalParams, provenance: str) -> GalerkinCoeffs:
    """Divide each projected equation by its time-derivative Gram factor."""
    where = f"at beta = {params.beta}, l = {params.length}"
    if not all(map(math.isfinite, terms.values())):  # a Gram factor may have underflowed to 0
        raise InadmissibleError(f"projection terms are not finite {where}")
    if params.rayleigh > 0.0 and 0.0 in (terms["buoyancy-omega"], terms["source-tau"]):
        raise InadmissibleError(f"the buoyancy or source coupling underflows to 0 {where}")
    pr, mass_omega = params.prandtl, terms["mass-omega"]
    g1, g2 = terms["mass-tau1"], terms["mass-tau2"]
    quotients = {
        "e1": pr * (terms["diffusive-omega"] + terms["gamma-term"]) / mass_omega,
        "e2": pr * terms["buoyancy-omega"] / mass_omega,
        "e3": -terms["nonlinear-tau-111"] / g1,
        "e4": terms["diffusive-tau1"] / g1,
        "e5": terms["source-tau"] / g1,
        "e6": -terms["nonlinear-tau-102"] / g2,
        "e7": terms["diffusive-tau2"] / g2,
    }
    if not all(map(math.isfinite, quotients.values())):  # a huge Pr overflows e1 and e2
        raise InadmissibleError(f"coefficients are not finite {where}, Pr = {pr}")
    return GalerkinCoeffs(**quotients, provenance=provenance, params=params)


def oracle_coefficients(params: PhysicalParams, *,
                        check_convergence: bool = False) -> GalerkinCoeffs:
    """Reference coefficients, every integral by ORDER-point quadrature per axis.

    With check_convergence=True the order is doubled and a relative move
    above 1e-9 in any coefficient raises QuadratureConvergenceError.
    """
    coeffs = _assemble(_oracle_terms(params, ORDER), params, "oracle")
    if check_convergence:
        refined = _assemble(_oracle_terms(params, 2 * ORDER), params, "oracle")
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


def coefficients(params: PhysicalParams, source: str = "oracle") -> GalerkinCoeffs:
    """Dispatch on provenance; the oracle is the default everywhere except
    `minimize_over_length`, which defaults to the closed form."""
    if source == "oracle":
        return oracle_coefficients(params)
    if source == "closed_form":
        return closed_form_coefficients(params)
    if source == "published":
        return published_coefficients(params)
    raise ValueError(f"unknown coefficient source {source!r}")


def _rel_dev(value: float, reference: float, floor: float) -> float:
    return abs(value - reference) / max(abs(value), abs(reference), floor)


def discrepancy_report(params: PhysicalParams) -> list[ProjectionTermReport]:
    """Route comparison for every projected term and every coefficient.

    Deviations are relative to the larger of the two values being compared;
    rows whose exact value is zero fall back to a floor scaled by the
    dominant magnitude of the system, so quadrature noise in a vanishing
    projection does not read as disagreement.
    """
    oracle_terms = _oracle_terms(params, ORDER)
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
    back to a floor scaled by the largest oracle value among `rows`. A zero
    value is reported as 0.0, never -0.0 (beta = 0 times a negative factor)."""
    floor = _DEV_FLOOR * max(1.0, max(abs(o) for _, o, _, _ in rows))
    return [ProjectionTermReport(
        term=term, oracle=o + 0.0, closed_form=c + 0.0, published=p + 0.0,
        rel_dev=max(_rel_dev(c, o, floor), _rel_dev(p, o, floor)),
        rel_dev_closed_form=_rel_dev(c, o, floor), rel_dev_published=_rel_dev(p, o, floor),
    ) for term, o, c, p in rows]
