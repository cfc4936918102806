import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import anelor.projection
from anelor.lorenz import critical_rayleigh
from anelor.params import ArgumentError, InadmissibleError, PhysicalParams
from anelor.projection import (
    ORDER,
    TERM_NAMES,
    GalerkinCoeffs,
    ProjectionTermReport,
    QuadratureConvergenceError,
    closed_form_coefficients,
    coefficients,
    discrepancy_report,
    expm1_over,
    oracle_coefficients,
    published_coefficients,
    PROVENANCES,
    _ROUTES,
    _TERMS,
    _assemble,
    _oracle_integrals,
    _oracle_terms,
)
from anelor.spectral import critical_rayleigh_spectral

ROOT2 = math.sqrt(2.0)

# the full coefficient agreement grid: 6 betas x 2 Prandtl x 2 gamma x 3 widths
BETAS = (0.0, 0.01, 0.1, 0.5, 1.0, 2.0)
PRANDTLS = (1.0, 10.0)
GAMMAS = (1.0 / 3.0, 4.0 / 3.0)
LENGTHS = (2.0, 2.0 * ROOT2, 4.0)

# frozen quadrature-oracle outputs (order 64)
ORACLE_BETA0 = np.array([
    -148.0440660163404, 52.72170145763633, 5.868501888018821,
    -14.80440660163404, 78.05135051088101, -5.868501888018816,
    -39.47841760435743,
])
ORACLE_BETA07 = np.array([
    -21.53356301958857, 3.1013396134397127, 8.3818569231811,
    -22.613804528315033, 79.11416154229592, -8.227718600780602,
    -54.89435738020777,
])
# frozen quadrature-oracle integrals (order 64), term by term: an error in one
# integral can cancel in a coefficient quotient (a factor on both mass-tau2
# and diffusive-tau2 leaves e7 alone), never in the terms themselves
ORACLE_INTEGRALS = {
    (5.8, 6.6): {
        "diffusive-omega": -12218.533047768498,
        "gamma-term": -27.782285826881864,
        "buoyancy-omega": 0.9519977738150918,
        "mass-omega": 19.1859041624383,
        "mass-tau1": 0.09280857711732717,
        "mass-tau2": 0.14170475113618036,
        "diffusive-tau1": -2.3659041624382438,
        "diffusive-tau2": -31.06841760435748,
        "source-tau": 0.9519977738150891,
        "nonlinear-tau-111": -0.5093515621231763,
        "nonlinear-tau-102": 0.24099982792015684,
    },
    (0.3, 1.2): {
        "diffusive-omega": -1622.3633312775714,
        "gamma-term": -31.899204709522685,
        "buoyancy-omega": 5.235987755983005,
        "mass-omega": 37.307672181893246,
        "mass-tau1": 0.8619741988570835,
        "mass-tau2": 0.8634471585236327,
        "diffusive-tau1": -37.26267218189314,
        "diffusive-tau2": -39.4559176043575,
        "source-tau": 5.23598775598299,
        "nonlinear-tau-111": -19.71723366913662,
        "nonlinear-tau-102": 19.6835404449438,
    },
}
PUBLISHED_BETA05 = np.array([
    -26.118963364424776, 1.5865260341795018, 44.59816030175036,
    -25.16245992869916, 40.17450278549427, -11.057406937892917,
    -50.16695662876353,
])


def rel_dev(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b),
                                              np.full_like(a, 1e-8)])


def test_expm1_over_series_branch_is_smooth():
    assert expm1_over(0.0) == 1.0
    for x in (1e-7, -1e-7, 9.999e-7):
        assert expm1_over(x) == pytest.approx(np.expm1(x) / x, rel=1e-14)
    assert expm1_over(2.0) == pytest.approx((math.e**2 - 1.0) / 2.0, rel=1e-15)


def test_expm1_over_is_inf_where_exp_overflows():
    assert math.isfinite(expm1_over(709.0))
    assert expm1_over(710.0) == math.inf
    assert expm1_over(1e300) == math.inf
    assert expm1_over(-800.0) == pytest.approx(1.0 / 800.0, rel=1e-15)


ROUTES = {
    "pencil": lambda params: critical_rayleigh_spectral(params, n_modes=2),
    "closed_form": closed_form_coefficients,
    "oracle": oracle_coefficients,
    "published": published_coefficients,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("beta", [709.0, 711.0, 800.0, 1e78, 1e103, 1e300])
def test_overflowing_stratification_raises_one_error_type(beta, route):
    with pytest.raises(ValueError) as excinfo:
        ROUTES[route](PhysicalParams(beta=beta, rayleigh=100.0))
    # numpy's LinAlgError subclasses ValueError; only the plain one is typed
    assert excinfo.type is InadmissibleError
    if route in ("pencil", "oracle"):
        assert f"beta = {beta}" in str(excinfo.value)


WIDTH_ROUTES = {
    **ROUTES,
    "onset_closed_form": lambda params: critical_rayleigh(params, "closed_form"),
    "onset_oracle": lambda params: critical_rayleigh(params, "oracle"),
    "onset_published": lambda params: critical_rayleigh(params, "published"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", list(WIDTH_ROUTES))
@pytest.mark.parametrize("length", [1e-200, 1e-320])
def test_vanishing_width_raises_one_error_type(length, route):
    # (2 pi/l)^2 overflows, or l^2 underflows to 0; neither escapes as a bare
    # ZeroDivisionError or OverflowError
    with pytest.raises(ValueError) as excinfo:
        WIDTH_ROUTES[route](PhysicalParams(length=length, rayleigh=100.0))
    assert excinfo.type is InadmissibleError
    assert f"l = {length}" in str(excinfo.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("route", ["closed_form", "published"])
def test_huge_width_gives_finite_closed_form_coefficients(route):
    # l^2 overflows to inf, so every 1/l^2 term is 0 rather than an OverflowError
    coeffs = ROUTES[route](PhysicalParams(length=1e300, rayleigh=100.0))
    assert np.all(np.isfinite(coeffs.as_array()))
    assert coeffs.e1 == pytest.approx(-math.pi**2 * 10.0, rel=1e-12)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("length", LENGTHS)
def test_oracle_matches_closed_form_across_grid(beta, length):
    for prandtl in PRANDTLS:
        for gamma in GAMMAS:
            params = PhysicalParams(beta=beta, prandtl=prandtl, rayleigh=321.0,
                                    gamma=gamma, length=length)
            oracle = oracle_coefficients(params).as_array()
            closed = closed_form_coefficients(params).as_array()
            assert np.max(rel_dev(oracle, closed)) < 1e-8


def test_frozen_oracle_values_beta0():
    params = PhysicalParams(beta=0.0, prandtl=10.0, rayleigh=1234.5,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    got = oracle_coefficients(params).as_array()
    assert np.max(np.abs(got - ORACLE_BETA0) / np.abs(ORACLE_BETA0)) < 1e-13


def test_frozen_oracle_values_beta07():
    params = PhysicalParams(beta=0.7, prandtl=0.9, rayleigh=500.0,
                            gamma=1.2, length=2.5)
    got = oracle_coefficients(params).as_array()
    assert np.max(np.abs(got - ORACLE_BETA07) / np.abs(ORACLE_BETA07)) < 1e-13


@pytest.mark.parametrize("geometry", sorted(ORACLE_INTEGRALS), ids=str)
def test_frozen_oracle_integrals_term_by_term(geometry):
    got = _oracle_integrals(*geometry, 64)
    assert set(got) == set(TERM_NAMES)
    for name, expected in ORACLE_INTEGRALS[geometry].items():
        assert abs(got[name] - expected) <= 1e-13 * abs(expected), name
    assert abs(got["nonlinear-omega"]) < 1e-10


def test_classic_limit_values():
    # beta = 0, l = 2 sqrt(2): e1 = -Pr*mu, e4 = -mu with mu = 3 pi^2/2,
    # e7 = -4 pi^2, e2 = 2 pi Pr sqrt(Ra)/(mu l), e5 = 2 pi sqrt(Ra)/l
    params = PhysicalParams(beta=0.0, prandtl=10.0, rayleigh=657.5113644795163,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    mu = 1.5 * math.pi**2
    c = closed_form_coefficients(params)
    assert c.e1 == pytest.approx(-10.0 * mu, rel=1e-14)
    assert c.e4 == pytest.approx(-mu, rel=1e-14)
    assert c.e7 == pytest.approx(-4.0 * math.pi**2, rel=1e-14)
    sqrt_ra = math.sqrt(params.rayleigh)
    assert c.e2 == pytest.approx(2.0 * math.pi * 10.0 * sqrt_ra / (mu * params.length),
                                 rel=1e-14)
    assert c.e5 == pytest.approx(2.0 * math.pi * sqrt_ra / params.length, rel=1e-14)


def test_rayleigh_enters_only_as_sqrt_factor():
    base = PhysicalParams(beta=0.4, prandtl=7.0, rayleigh=100.0, gamma=1.0,
                          length=3.0)
    low = closed_form_coefficients(base).as_array()
    high = closed_form_coefficients(base.with_rayleigh(400.0)).as_array()
    # e2, e5 double when Ra quadruples; the rest do not move
    assert high[1] == pytest.approx(2.0 * low[1], rel=1e-14)
    assert high[4] == pytest.approx(2.0 * low[4], rel=1e-14)
    for k in (0, 2, 3, 5, 6):
        assert high[k] == low[k]


def test_prandtl_and_gamma_touch_only_the_momentum_row():
    base = PhysicalParams(beta=0.6, prandtl=1.0, rayleigh=200.0, gamma=1.0,
                          length=2.0)
    ref = closed_form_coefficients(base).as_array()
    bumped_pr = closed_form_coefficients(
        PhysicalParams(beta=0.6, prandtl=3.0, rayleigh=200.0, gamma=1.0,
                       length=2.0)).as_array()
    assert bumped_pr[0] == pytest.approx(3.0 * ref[0], rel=1e-14)
    assert bumped_pr[1] == pytest.approx(3.0 * ref[1], rel=1e-14)
    assert np.array_equal(bumped_pr[2:], ref[2:])
    bumped_gamma = closed_form_coefficients(
        PhysicalParams(beta=0.6, prandtl=1.0, rayleigh=200.0, gamma=2.0,
                       length=2.0)).as_array()
    assert bumped_gamma[0] != ref[0]
    assert np.array_equal(bumped_gamma[1:], ref[1:])


@pytest.mark.parametrize("beta", BETAS)
def test_sign_structure(beta):
    for length in LENGTHS:
        params = PhysicalParams(beta=beta, prandtl=10.0, rayleigh=50.0,
                                gamma=4.0 / 3.0, length=length)
        c = closed_form_coefficients(params)
        assert c.e1 < 0.0 and c.e4 < 0.0 and c.e7 < 0.0
        assert c.e2 > 0.0 and c.e5 > 0.0
        assert c.e3 * c.e6 < 0.0


@pytest.mark.parametrize("field", ["e4", "e7"])
def test_beta_to_zero_continuity_is_linear(field):
    params0 = PhysicalParams(beta=0.0, prandtl=10.0, rayleigh=0.0,
                             gamma=4.0 / 3.0, length=2.0 * ROOT2)
    at0 = getattr(closed_form_coefficients(params0), field)
    gaps = []
    for beta in (1e-2, 5e-3, 2.5e-3):
        gaps.append(abs(getattr(
            closed_form_coefficients(params0.with_beta(beta)), field) - at0))
    # halving beta halves the gap (within 2 percent)
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.02)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.02)


def test_momentum_nonlinearity_projects_to_zero():
    for beta in (0.0, 0.5):
        params = PhysicalParams(beta=beta, prandtl=10.0, rayleigh=0.0,
                                gamma=4.0 / 3.0, length=2.0 * ROOT2)
        rows = {r.term: r for r in discrepancy_report(params)}
        assert abs(rows["nonlinear-omega"].oracle) < 1e-10
        assert rows["nonlinear-omega"].closed_form == 0.0


def test_published_route_is_a_literal_transcription():
    params = PhysicalParams(beta=0.5, prandtl=1.0, rayleigh=100.0,
                            gamma=4.0 / 3.0, length=2.0)
    got = published_coefficients(params).as_array()
    assert np.max(np.abs(got - PUBLISHED_BETA05) / np.abs(PUBLISHED_BETA05)) < 1e-13


@pytest.mark.parametrize("beta", [0.0, 0.5, 3.0], ids=["b0", "b0.5", "b3"])
@pytest.mark.parametrize("length", LENGTHS, ids=["l2", "l2rt2", "l4"])
def test_published_route_deviations_are_reported_not_reconciled(beta, length):
    # the published e-rows are the published term column assembled; the
    # printed AC coefficient is 4x the projected value at beta = 0, and the
    # printed gamma term of e1 drifts once beta > 0; both stay report-only
    params = PhysicalParams(beta=beta, prandtl=10.0, rayleigh=657.51,
                            gamma=4.0 / 3.0, length=length)
    rows = {r.term: r for r in discrepancy_report(params)}
    assembled = _assemble({name: rows[name].published for name in TERM_NAMES},
                          params, "published").as_array()
    published = np.array([rows[f"e{k}"].published for k in range(1, 8)])
    assert np.max(np.abs(assembled - published) / np.abs(published)) <= 1e-13
    assert rows["e3"].rel_dev_closed_form < 1e-10
    assert rows["e1"].rel_dev_closed_form < 1e-10
    if beta == 0.0:
        for name in ("nonlinear-tau-111", "e3"):
            assert rows[name].published / rows[name].oracle == pytest.approx(4.0, rel=1e-12)
        assert rows["e3"].rel_dev_published == pytest.approx(0.75, rel=1e-10)
    else:
        assert rows["e1"].rel_dev_published > 1e-6


def test_report_covers_every_term_and_coefficient():
    params = PhysicalParams(beta=1.0, prandtl=10.0, rayleigh=300.0,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    rows = discrepancy_report(params)
    names = [r.term for r in rows]
    assert names[:12] == list(TERM_NAMES)
    assert names[12:] == [f"e{k}" for k in range(1, 8)]
    for row in rows:
        record = dataclasses.asdict(row)
        assert set(record) == {"term", "oracle", "closed_form", "published",
                               "rel_dev", "rel_dev_closed_form",
                               "rel_dev_published"}
    closed_devs = [r.rel_dev_closed_form for r in rows if r.term.startswith("e")]
    assert max(closed_devs) < 1e-10


def test_report_beta0_closed_column_within_1e10():
    params = PhysicalParams(beta=0.0, prandtl=10.0, rayleigh=100.0,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    for row in discrepancy_report(params):
        assert row.rel_dev_closed_form < 1e-10


def test_oracle_column_stable_under_order_doubling(monkeypatch):
    params = PhysicalParams(beta=0.8, prandtl=10.0, rayleigh=120.0,
                            gamma=4.0 / 3.0, length=2.0)
    coarse = oracle_coefficients(params)
    monkeypatch.setattr(anelor.projection, "ORDER", 128)
    fine = oracle_coefficients(params)
    assert np.max(rel_dev(coarse.as_array(), fine.as_array())) < 1e-12


def test_convergence_check_passes_at_default_order():
    params = PhysicalParams(beta=0.3, prandtl=10.0, rayleigh=100.0,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    oracle_coefficients(params, check_convergence=True)


def test_convergence_check_rejects_coarse_rule(monkeypatch):
    params = PhysicalParams(beta=0.3, prandtl=10.0, rayleigh=100.0,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    monkeypatch.setattr(anelor.projection, "ORDER", 4)
    oracle_coefficients(params)  # a plain call does not double the order
    with pytest.raises(QuadratureConvergenceError, match="when the order doubled"):
        oracle_coefficients(params, check_convergence=True)


def test_convergence_check_is_keyword_only():
    # a positional second argument is no order and no check: it is refused
    with pytest.raises(TypeError):
        oracle_coefficients(PhysicalParams(rayleigh=100.0), True)


def _oracle_domain_draws():
    """100 seeded parameter sets over the oracle's whole domain: beta up to 354,
    just inside the edge where exp(2 beta z) overflows, and widths from 0.05 to 50."""
    rng = np.random.default_rng(20260)
    for _ in range(100):
        yield PhysicalParams(
            beta=rng.uniform(0.0, 354.0), length=float(np.exp(rng.uniform(-3.0, 3.9))),
            rayleigh=10.0 ** rng.uniform(0.0, 8.0), prandtl=10.0 ** rng.uniform(-2.0, 3.0),
            gamma=rng.uniform(1.0 / 3.0, 3.0))


def test_fixed_order_is_converged_across_the_oracle_domain():
    # the order-doubling check passes, and the oracle meets the closed form to
    # 1e-12 relative (2.3e-13 at worst on these draws)
    for params in _oracle_domain_draws():
        oracle = oracle_coefficients(params, check_convergence=True).as_array()
        closed = closed_form_coefficients(params).as_array()
        floor = 1e-8 * np.max(np.abs(closed))
        assert np.all(np.abs(oracle - closed) <= 1e-12 * np.maximum(np.abs(closed), floor)), params


def test_coefficients_dispatch():
    params = PhysicalParams(beta=0.2, prandtl=10.0, rayleigh=100.0,
                            gamma=4.0 / 3.0, length=2.0 * ROOT2)
    # the route table is the only list of routes, in the report's column order
    assert PROVENANCES == tuple(_ROUTES) == ("oracle", "closed_form", "published")
    fields = [field.name for field in dataclasses.fields(ProjectionTermReport)]
    assert fields[1:4] == list(PROVENANCES)
    for route in PROVENANCES:
        assert coefficients(params, route).provenance == route
    for source in ("bogus", None, ["oracle"]):
        message = f"unknown coefficient source {source!r}"
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            coefficients(params, source)


PUBLIC_ROUTES = {"oracle": oracle_coefficients, "closed_form": closed_form_coefficients,
                 "published": published_coefficients}


def test_every_entry_point_gives_the_dispatcher_bit_for_bit():
    # the report's columns and each route's public function are the dispatcher's values
    for params in itertools.islice(_oracle_domain_draws(), 50):
        rows = discrepancy_report(params)[len(TERM_NAMES):]
        for route in PROVENANCES:
            expected = coefficients(params, route)
            assert [getattr(row, route) for row in rows] == expected.as_array().tolist()
            assert PUBLIC_ROUTES[route](params) == expected


@pytest.mark.parametrize("prandtl, rayleigh", [(10.0, 100.0), (1e10, 1e12), (5e-324, 1e300)])
def test_each_coefficient_is_compared_on_its_own_scale(prandtl, rayleigh):
    # e1, e2 scale with Pr and e2, e5 with sqrt(Ra); neither may hide the others' deviations
    params = PhysicalParams(beta=0.5, prandtl=prandtl, rayleigh=rayleigh)
    for row in discrepancy_report(params)[len(TERM_NAMES):]:
        o, c = row.oracle, row.closed_form
        scale = max(abs(c), abs(o))
        assert row.rel_dev_closed_form == (abs(c - o) / scale if scale else 0.0), row.term


def test_galerkin_coeffs_validation():
    params = PhysicalParams(beta=0.0, prandtl=1.0, rayleigh=0.0,
                            gamma=4.0 / 3.0, length=2.0)
    with pytest.raises(ValueError):
        GalerkinCoeffs(1, 1, 1, 1, 1, 1, 1, "folklore", params)
    with pytest.raises(ValueError):
        GalerkinCoeffs(math.nan, 1, 1, 1, 1, 1, 1, "oracle", params)


# (Pr, Ra, gamma) settings that share one geometry
PHYSICAL_SETTINGS = ((10.0, 100.0, 4.0 / 3.0), (0.7, 2.5e4, 1.0 / 3.0), (42.0, 0.0, 2.9))


def _oracle_outputs(params, fresh):
    """Coefficients, the report's oracle column and the oracle onset; with
    fresh=True each one starts from an empty cache."""
    calls = (lambda: oracle_coefficients(params).as_array().tolist(),
             lambda: [row.oracle for row in discrepancy_report(params)],
             lambda: critical_rayleigh(params, "oracle"))
    outputs = []
    for call in calls:
        if fresh:
            _oracle_integrals.cache_clear()
        outputs.append(call())
    return outputs


def test_cached_integrals_give_the_fresh_result_bit_for_bit():
    geometry = {"beta": 1.7, "length": 3.3}
    variants = [PhysicalParams(prandtl=pr, rayleigh=ra, gamma=gamma, **geometry)
                for pr, ra, gamma in PHYSICAL_SETTINGS]
    fresh = [_oracle_outputs(params, fresh=True) for params in variants]
    _oracle_integrals.cache_clear()
    _oracle_outputs(variants[0], fresh=False)
    hits = _oracle_integrals.cache_info().hits
    for params, expected in zip(variants[::-1], fresh[::-1]):
        assert _oracle_outputs(params, fresh=False) == expected
    info = _oracle_integrals.cache_info()
    assert info.currsize == 1 and info.hits > hits


def test_integral_cache_stays_within_its_bound():
    bound = _oracle_integrals.cache_info().maxsize
    assert bound is not None
    for k in range(bound + 4):
        params = PhysicalParams(beta=0.1 * k, rayleigh=100.0, length=2.0 + 0.01 * k)
        oracle_coefficients(params)
        assert _oracle_integrals.cache_info().currsize <= bound


def test_under_resolved_rule_raises_on_every_call():
    # past beta = 354 the weight exp(2 beta z) overflows on the grid: the error
    # is raised afresh on each call, never cached
    params = PhysicalParams(beta=360.0, rayleigh=100.0, length=2.0 * ROOT2)
    misses = _oracle_integrals.cache_info().misses
    for _ in range(2):
        with pytest.raises(InadmissibleError, match="oracle integrals are not finite"):
            oracle_coefficients(params)
    assert _oracle_integrals.cache_info().misses == misses + 2


# the instances of the operator rows that vanish by orthogonality, keyed
# (operator, test mode, trial modes); A is the psi mode, B and C the tau modes
ORTHOGONAL_INSTANCES = {
    ("buoyancy", "A", "C"),
    ("temperature time derivative", "B", "C"),
    ("temperature time derivative", "C", "B"),
    ("temperature diffusion", "B", "C"),
    ("temperature diffusion", "C", "B"),
    ("source", "C", "A"),
    ("temperature advection", "B", "AB"),
    ("temperature advection", "C", "AC"),
}


def test_three_modes_close_across_the_oracle_domain(monkeypatch):
    # every (test, trial) instance the nine rows admit on the three modes is
    # either one of the twelve reported projections or one of the eight that
    # vanish by x-orthogonality, so the three-mode system is closed
    modes, admitted = anelor.projection._MODES, []
    for name, (field, _, terms) in anelor.projection._operators(0.0).items():
        fields = dict.fromkeys(f for _, factors in terms for f, _, _ in factors)
        for test, *trial in itertools.product(modes[field], *map(modes.get, fields)):
            admitted.append((name, test, "".join(trial)))
    assert len(admitted) == len(set(admitted)) == 20
    assert len(_TERMS) == 12 and not ORTHOGONAL_INSTANCES & set(_TERMS.values())
    assert set(_TERMS.values()) | ORTHOGONAL_INSTANCES == set(admitted)
    # the oracle's own evaluator, uncached, sums the eight in place of the twelve
    evaluate = _oracle_integrals.__wrapped__
    geometries = [(params.beta, params.length) for params in _oracle_domain_draws()]
    scales = [max(abs(named["mass-omega"]), abs(named["diffusive-tau1"]), 1.0)
              for named in (evaluate(beta, length, ORDER) for beta, length in geometries)]
    monkeypatch.setattr(anelor.projection, "_TERMS", {key: key for key in ORTHOGONAL_INSTANCES})
    for (beta, length), scale in zip(geometries, scales):
        closure = evaluate(beta, length, ORDER)
        assert set(closure) == ORTHOGONAL_INSTANCES
        worst = max(closure, key=lambda key: abs(closure[key]))
        assert abs(closure[worst]) <= 1e-9 * scale, (beta, length, worst, closure[worst])


def test_mutating_returned_terms_leaves_the_cache_intact():
    params = PhysicalParams(beta=0.9, prandtl=10.0, rayleigh=300.0,
                            gamma=4.0 / 3.0, length=2.5)
    expected = oracle_coefficients(params).as_array()
    terms = _oracle_terms(params, 64)
    for name in TERM_NAMES:
        terms[name] = 0.0
    with pytest.raises(TypeError):
        _oracle_integrals(params.beta, params.length, 64)["mass-omega"] = 0.0
    assert np.array_equal(oracle_coefficients(params).as_array(), expected)
