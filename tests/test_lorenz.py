import math

import numpy as np
import pytest

from anelor.lorenz import (
    BracketError,
    LorenzParams,
    classify_rest_state,
    critical_points,
    critical_rayleigh,
    minimize_over_length,
    origin_eigenvalues,
    scale_to_lorenz,
    taylor_ratio,
)
from anelor.params import PhysicalParams
from anelor.projection import (
    GalerkinCoeffs,
    closed_form_coefficients,
    coefficients,
    oracle_coefficients,
)

ROOT2 = math.sqrt(2.0)
RA_CLASSIC = 27.0 * math.pi**4 / 4.0


def make_params(beta=0.0, prandtl=10.0, rayleigh=0.0, gamma=4.0 / 3.0,
                length=2.0 * ROOT2):
    return PhysicalParams(beta=beta, prandtl=prandtl, rayleigh=rayleigh,
                          gamma=gamma, length=length)


def reduced_field(state, e):
    A, B, C = state
    return np.array([e[0] * A + e[1] * B,
                     e[2] * A * C + e[3] * B + e[4] * A,
                     e[5] * A * B + e[6] * C])


def lorenz_field(state, lp):
    X, Y, Z = state
    return np.array([lp.sigma * (Y - X), lp.r * X - Y - X * Z,
                     X * Y - lp.delta * Z])


@pytest.mark.parametrize("prandtl", [0.7, 1.0, 10.0, 40.0])
def test_classic_lorenz_recovery(prandtl):
    # beta = 0, l = 2 sqrt(2): sigma = Pr, delta = 8/3, r = Ra / (27 pi^4/4)
    params = make_params(prandtl=prandtl, rayleigh=2.0 * RA_CLASSIC)
    lp = scale_to_lorenz(coefficients(params, "oracle"))[0]
    assert lp.sigma == pytest.approx(prandtl, rel=1e-13)
    assert lp.delta == pytest.approx(8.0 / 3.0, rel=1e-10)
    assert lp.r == pytest.approx(params.rayleigh / RA_CLASSIC, rel=1e-10)


@pytest.mark.parametrize("beta,length", [(0.0, 2.0 * ROOT2), (0.4, 2.0),
                                         (1.3, 3.5)])
def test_scaling_map_transports_the_vector_field(beta, length):
    params = make_params(beta=beta, rayleigh=900.0, length=length)
    coeffs = oracle_coefficients(params)
    lp, sm = scale_to_lorenz(coeffs)
    rng = np.random.default_rng(42)
    e = coeffs.as_array()
    for _ in range(12):
        state = 3.0 * rng.standard_normal(3)
        lhs = lorenz_field(sm.apply(state), lp)
        rhs = np.array([sm.a, sm.b, sm.c]) * reduced_field(state, e) / sm.d
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_scaling_map_identities():
    coeffs = oracle_coefficients(make_params(beta=0.7, rayleigh=1500.0))
    e = coeffs.as_array()
    lp, sm = scale_to_lorenz(coeffs)
    assert sm.d == pytest.approx(-e[3], rel=1e-15)
    assert sm.b > 0.0
    assert sm.a == pytest.approx(-e[0] * sm.b / e[1], rel=1e-14)
    # the amplitude scalings must satisfy e3 b / (d a c) = -1, e6 c / (d a b) = 1
    assert e[2] * sm.b / (sm.d * sm.a * sm.c) == pytest.approx(-1.0, rel=1e-12)
    assert e[5] * sm.c / (sm.d * sm.a * sm.b) == pytest.approx(1.0, rel=1e-12)


def test_scale_to_lorenz_rejects_degenerate_coefficients():
    params = make_params(rayleigh=100.0)
    good = closed_form_coefficients(params)
    with pytest.raises(ValueError):  # zero Rayleigh kills the buoyancy column
        scale_to_lorenz(closed_form_coefficients(params.with_rayleigh(0.0)))
    same_sign = GalerkinCoeffs(good.e1, good.e2, good.e3, good.e4, good.e5,
                               -good.e6, good.e7, "closed_form", params)
    with pytest.raises(ValueError):
        scale_to_lorenz(same_sign)
    flipped = GalerkinCoeffs(-good.e1, good.e2, good.e3, good.e4, good.e5,
                             good.e6, good.e7, "closed_form", params)
    with pytest.raises(ValueError):
        scale_to_lorenz(flipped)


def test_b_squared_positive_across_projection_grid():
    for beta in (0.0, 0.01, 0.1, 0.5, 1.0, 2.0):
        for length in (2.0, 2.0 * ROOT2, 4.0):
            params = make_params(beta=beta, rayleigh=750.0, length=length)
            _, sm = scale_to_lorenz(closed_form_coefficients(params))
            assert sm.b > 0.0


def test_critical_points_appear_above_r_one():
    below = critical_points(LorenzParams(10.0, 8.0 / 3.0, 0.5))
    assert below.shape == (1, 3)
    assert np.all(below == 0.0)
    above = critical_points(LorenzParams(10.0, 8.0 / 3.0, 2.0))
    wing = math.sqrt(8.0 / 3.0)
    assert above.shape == (3, 3)
    assert above[1] == pytest.approx([wing, wing, 1.0], rel=1e-14)
    assert above[2] == pytest.approx([-wing, -wing, 1.0], rel=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 28.0])
def test_origin_eigenvalues_match_jacobian_and_products(r):
    lp = LorenzParams(10.0, 8.0 / 3.0, r)
    lam_plus, lam_minus, lam_z = origin_eigenvalues(lp)
    assert lam_z == -lp.delta
    assert lam_plus >= lam_minus
    # trace and determinant of the (X, Y) block
    assert lam_plus + lam_minus == pytest.approx(-(lp.sigma + 1.0), rel=1e-13)
    assert lam_plus * lam_minus == pytest.approx(-lp.sigma * (r - 1.0),
                                                 abs=1e-10)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 1.001, 28.0, 1e3])
def test_origin_eigenvalues_match_the_jacobian_spectrum(sigma, r):
    lp = LorenzParams(sigma, 8.0 / 3.0, r)
    values = origin_eigenvalues(lp)
    jacobian = np.array([[-sigma, sigma, 0.0], [r, -1.0, 0.0],
                         [0.0, 0.0, -lp.delta]])
    numeric = np.sort(np.linalg.eigvals(jacobian).real)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert np.max(np.abs(np.sort(values) - numeric)) <= 1e-12 * scale


@pytest.mark.parametrize("r,expected", [(0.9, "stable"), (0.999, "stable"),
                                        (1.001, "unstable"), (1.1, "unstable")])
def test_exchange_of_stability_sign(r, expected):
    report = classify_rest_state(LorenzParams(10.0, 8.0 / 3.0, r))
    assert report.classification == expected
    assert (report.leading > 0.0) == (r > 1.0)


def test_marginal_classification_at_onset():
    report = classify_rest_state(LorenzParams(10.0, 8.0 / 3.0, 1.0))
    assert report.classification == "marginal"
    assert abs(report.leading) <= 1e-12


def test_r_equals_one_at_the_critical_rayleigh():
    for beta in (0.0, 0.3):
        params = make_params(beta=beta)
        ra_star = critical_rayleigh(params, "oracle")
        lp = scale_to_lorenz(coefficients(params.with_rayleigh(ra_star), "oracle"))[0]
        assert abs(lp.r - 1.0) < 1e-12


def test_critical_rayleigh_classic_value():
    params = make_params()
    assert critical_rayleigh(params, "closed_form") == pytest.approx(
        RA_CLASSIC, rel=1e-12)
    assert critical_rayleigh(params, "oracle") == pytest.approx(
        RA_CLASSIC, rel=1e-12)


def test_critical_rayleigh_frozen_values():
    # gamma = 4/3, Pr = 10 throughout; oracle and closed form agree
    cases = [
        (0.7, 2.5, 993.8309320668212),
        (2.0, 4.0, 2677.5748088293994),
        (1e-3, 2.0, 779.662530754068),
    ]
    for beta, length, expected in cases:
        params = make_params(beta=beta, length=length)
        assert critical_rayleigh(params, "closed_form") == pytest.approx(
            expected, rel=1e-12)
        assert critical_rayleigh(params, "oracle") == pytest.approx(
            expected, rel=1e-10)


def test_critical_rayleigh_ignores_the_stored_rayleigh():
    params = make_params(beta=0.2)
    assert critical_rayleigh(params.with_rayleigh(5.0), "closed_form") == \
        critical_rayleigh(params.with_rayleigh(5000.0), "closed_form")


def test_stabilization_monotone_in_beta():
    params = make_params()
    values = [critical_rayleigh(params.with_beta(b), "closed_form")
              for b in np.linspace(0.025, 0.5, 20)]
    values.insert(0, critical_rayleigh(params, "closed_form"))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_taylor_ratio_tends_to_one_half():
    params = make_params()
    ratio = taylor_ratio(params, 1e-3)
    assert 0.495 <= ratio <= 0.505
    # deviation from 1/2 halves with beta
    gap1 = abs(taylor_ratio(params, 1e-3) - 0.5)
    gap2 = abs(taylor_ratio(params, 5e-4) - 0.5)
    assert gap1 / gap2 == pytest.approx(2.0, rel=0.01)
    with pytest.raises(ValueError):
        taylor_ratio(params, 0.0)


def test_taylor_ratio_uses_params_beta_by_default():
    params = make_params(beta=2e-3)
    assert taylor_ratio(params) == taylor_ratio(make_params(), 2e-3)


def test_minimize_over_length_recovers_classic_onset():
    optimum = minimize_over_length(beta=0.0)
    assert optimum.rayleigh == pytest.approx(RA_CLASSIC, rel=1e-6)
    assert optimum.length == pytest.approx(2.0 * ROOT2, abs=1e-6)
    assert optimum.evaluations > 41


def test_minimize_over_length_is_deterministic():
    a = minimize_over_length(beta=0.35)
    b = minimize_over_length(beta=0.35)
    assert a.length == b.length and a.rayleigh == b.rayleigh


def test_minimize_over_length_oracle_route_agrees():
    closed = minimize_over_length(beta=0.2, source="closed_form")
    oracle = minimize_over_length(beta=0.2, source="oracle")
    assert oracle.rayleigh == pytest.approx(closed.rayleigh, rel=1e-9)


def test_minimize_over_length_edge_raises():
    # a large viscosity ratio makes the gamma term dominate e1, which pushes
    # the minimum of Ra* over the scanned widths to the edge l = 10
    with pytest.raises(BracketError, match="edge l = 10"):
        minimize_over_length(beta=1.0, gamma=1e4)


def test_edge_message_names_the_falling_onset_below_two_pi():
    # below beta = 2 pi, e4 stays negative at every width, but Ra* still falls at l = 10
    with pytest.raises(BracketError, match=r"^Ra\* is still falling at the edge l = 10 ") as info:
        minimize_over_length(beta=6.27)
    assert "e4" not in str(info.value)


def test_edge_message_names_the_e4_width_above_two_pi():
    # above 2 pi the onset ends at l = 2 pi / sqrt(beta^2/4 - pi^2), 27.32 at beta = 6.3
    with pytest.raises(BracketError, match=r"^Ra\* is still falling at the edge l = 10 .*"
                       r"; the onset ends where e4 = 0, at l = 27\.3193$"):
        minimize_over_length(beta=6.3)
    width = 2.0 * math.pi / math.sqrt(6.3**2 / 4.0 - math.pi**2)
    assert critical_rayleigh(make_params(beta=6.3, length=0.999 * width), "closed_form") > 0.0
    with pytest.raises(ArithmeticError, match="e4 = "):
        critical_rayleigh(make_params(beta=6.3, length=1.001 * width), "closed_form")


def test_no_reduced_onset_where_e4_is_not_negative():
    # beta > 2 pi gives e4 >= 0 from l = 2 pi / sqrt(beta^2/4 - pi^2), 4.072 at beta = 7
    with pytest.raises(ArithmeticError, match=r"^no onset at beta = 7\.0, l = 4\.3: .*e4 = 3\.85"):
        critical_rayleigh(make_params(beta=7.0, length=4.3), "closed_form")
    # the width scan reaches that edge at its 17th point
    with pytest.raises(ArithmeticError, match=r"^no onset at beta = 7\.0, l = 4\.3:"):
        minimize_over_length(beta=7.0)


def test_reduced_onset_drops_below_boussinesq_near_the_e4_edge():
    # Ra* -> 0 as e4 -> 0-, so just inside the edge the three-mode model puts the
    # stratified onset below the unstratified one, against the paper's claim
    lifted = critical_rayleigh(make_params(beta=7.0, length=4.06), "closed_form")
    flat = critical_rayleigh(make_params(length=4.06), "closed_form")
    assert lifted == pytest.approx(372.842, rel=1e-5)
    assert flat == pytest.approx(770.290, rel=1e-5)
    assert lifted / flat < 1.0


def test_lorenz_params_validation():
    with pytest.raises(ValueError):
        LorenzParams(-1.0, 8.0 / 3.0, 1.0)
    with pytest.raises(ValueError):
        LorenzParams(10.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LorenzParams(10.0, 8.0 / 3.0, -0.5)
    with pytest.raises(ValueError):
        LorenzParams(math.inf, 8.0 / 3.0, 1.0)
