import json
import math

import numpy as np
import pytest

from anelor.cli import main
from anelor.lorenz import (
    LorenzParams,
    classify_rest_state,
    critical_points,
    critical_rayleigh,
    minimize_over_length,
    origin_eigenvalues,
    scale_to_lorenz,
)
from anelor.params import InadmissibleError, PhysicalParams
from anelor.projection import (
    GalerkinCoeffs,
    closed_form_coefficients,
    coefficients,
    expm1_over,
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


def test_origin_eigenvalues_neither_cancel_nor_overflow_at_large_sigma():
    # lambda+ = -(sigma + 1)/2 + root/2 cancels to 0.0 at sigma = 1e100, and
    # (sigma + 1)^2 overflows from sigma near 1e155
    report = classify_rest_state(LorenzParams(1e100, 8.0 / 3.0, 0.5))
    assert report.leading == pytest.approx(-0.5, abs=1e-12)
    assert report.classification == "stable"
    assert origin_eigenvalues(LorenzParams(1e200, 1.0, 0.0)).tolist() == [-1.0, -1e200, -1.0]
    assert classify_rest_state(LorenzParams(10.0, 8.0 / 3.0, 1.0 + 1e-12)).classification \
        == "marginal"


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


@pytest.mark.parametrize("gamma", [1.0 / 3.0, 4.0 / 3.0, 3.0])
def test_width_minimized_onset_rises_with_beta_up_to_5_8(gamma):
    # the minimized three-mode Ra* peaks at beta = 5.825 (gamma = 3) to 5.95
    # (gamma = 1/3) and falls after; on this grid each step rises by >= 0.4 %
    values = [minimize_over_length(beta=float(b), gamma=gamma, source="closed_form").rayleigh
              for b in np.linspace(0.0, 5.8, 117)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_critical_taylor_column_tends_to_one_half(capsys):
    # `critical`'s taylor_ratio column, (Ra*(beta)/Ra*(0) - 1)/beta, from the onsets
    # of its own rows
    assert main(["critical", "--beta-sweep", "0", "0.001", "3", "--source", "closed_form",
                 "--format", "json", "--quiet"]) == 0
    document = json.loads(capsys.readouterr().out)
    params = PhysicalParams(**document["params"])
    betas, taylor = zip(*[(row[0], row[4]) for row in document["rows"]])
    assert betas == (0.0, 5e-4, 1e-3)
    assert taylor[0] is None
    flat = critical_rayleigh(params, "closed_form")
    assert list(taylor[1:]) == [
        (critical_rayleigh(params.with_beta(beta), "closed_form") / flat - 1.0) / beta
        for beta in betas[1:]]
    assert 0.495 <= taylor[2] <= 0.505
    # deviation from 1/2 halves with beta
    assert abs(taylor[2] - 0.5) / abs(taylor[1] - 0.5) == pytest.approx(2.0, rel=0.01)


def test_minimize_over_length_recovers_classic_onset():
    optimum = minimize_over_length(beta=0.0)
    assert optimum.rayleigh == pytest.approx(RA_CLASSIC, rel=1e-14)
    assert optimum.length == pytest.approx(2.0 * ROOT2, rel=1e-15)


def onset_formula(beta, gamma, q):
    """The closed-form Ra* at q = (2 pi/l)^2 and the coefficients a, b, c of
    dRa*/dq = 0, that is 2q^3 + (2b + c + a)q^2 - a*b^2 = 0."""
    pi2 = math.pi**2
    a, b, c = pi2 - beta**2 / 4.0, pi2 + beta**2 / 4.0, (1.0 + gamma) * beta**2
    e1_r4 = expm1_over(beta) / (beta**2 + 4.0 * pi2)
    return 4.0 * pi2 * e1_r4 * ((b + q)**2 + c * q) * (a + q) / q, (a, b, c)


def cubic_minimum(beta, gamma):
    """Width 2 pi/sqrt(q*) and Ra* at q*, the cubic's positive root."""
    _, (a, b, c) = onset_formula(beta, gamma, 1.0)
    (q,) = [r.real for r in np.roots([2.0, 2.0 * b + c + a, 0.0, -a * b * b])
            if r.real > 0.0 and abs(r.imag) <= 1e-12 * abs(r)]
    for _ in range(3):  # Newton polish of the companion-matrix root
        q -= (2.0 * q**3 + (2.0 * b + c + a) * q**2 - a * b * b) / (
            6.0 * q**2 + 2.0 * (2.0 * b + c + a) * q)
    return 2.0 * math.pi / math.sqrt(q), onset_formula(beta, gamma, q)[0]


@pytest.mark.parametrize("beta, length", [(0.0, 2.0), (3.0, 4.0), (6.2, 9.0)])
def test_the_onset_formula_is_the_closed_form_onset(beta, length):
    formula, _ = onset_formula(beta, 4.0 / 3.0, (2.0 * math.pi / length) ** 2)
    onset = critical_rayleigh(make_params(beta=beta, length=length), "closed_form")
    assert formula == pytest.approx(onset, rel=1e-14)


@pytest.mark.parametrize("gamma", [1.0 / 3.0, 4.0 / 3.0, 3.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 3.0, 6.0, 6.2655, 6.2662])
def test_minimize_over_length_finds_the_root_of_the_cubic(beta, gamma):
    length, rayleigh = cubic_minimum(beta, gamma)
    optimum = minimize_over_length(beta=beta, gamma=gamma)
    assert optimum.length == pytest.approx(length, rel=1e-12)
    assert optimum.rayleigh == pytest.approx(rayleigh, rel=1e-13)


# the minimum lies at any width: near beta = 2 pi, or where a large viscosity
# ratio makes the gamma term dominate e1, l* passes 10
@pytest.mark.parametrize("beta, gamma, width", [
    (6.2664, 4.0 / 3.0, 10.02), (6.27, 4.0 / 3.0, 10.64), (1.0, 1e4, 11.22),
], ids=["beta-6.2664", "beta-6.27", "gamma-1e4"])
def test_minimize_over_length_answers_beyond_l_10(beta, gamma, width):
    length, rayleigh = cubic_minimum(beta, gamma)
    optimum = minimize_over_length(beta=beta, gamma=gamma)
    assert optimum.length == pytest.approx(width, abs=5e-3)
    assert optimum.length == pytest.approx(length, rel=1e-12)
    assert optimum.rayleigh == pytest.approx(rayleigh, rel=1e-13)


def test_minimize_over_length_is_deterministic():
    a = minimize_over_length(beta=0.35)
    b = minimize_over_length(beta=0.35)
    assert a.length == b.length and a.rayleigh == b.rayleigh


def test_minimize_over_length_oracle_route_agrees():
    # both routes minimize at the cubic's root, so only the onset there differs
    for beta in (0.2, 3.0, 6.2):
        closed = minimize_over_length(beta=beta, source="closed_form")
        oracle = minimize_over_length(beta=beta, source="oracle")
        assert oracle.length == closed.length
        assert oracle.rayleigh == pytest.approx(closed.rayleigh, rel=1e-12)


def test_minimize_over_length_rejects_the_published_route():
    # the published gamma term, 4 pi^2/l, is not polynomial in q = (2 pi/l)^2
    with pytest.raises(ValueError, match="published") as info:
        minimize_over_length(beta=1.0, source="published")
    assert not isinstance(info.value, InadmissibleError)


def test_edge_message_names_the_e4_width_above_two_pi():
    # above 2 pi the onset ends at l = 2 pi / sqrt(beta^2/4 - pi^2), 27.32 at beta = 6.3,
    # and Ra* falls toward it from every narrower width
    with pytest.raises(InadmissibleError, match=r"^no width minimizes Ra\* at beta = 6\.3: it "
                       r"falls toward the width where e4 = 0, l = 27\.3193$"):
        minimize_over_length(beta=6.3)
    with pytest.raises(InadmissibleError, match=r"^no width minimizes Ra\* at beta = "
                       r"6\.283185307179586: .*, l = inf$"):
        minimize_over_length(beta=2.0 * math.pi)
    width = 2.0 * math.pi / math.sqrt(6.3**2 / 4.0 - math.pi**2)
    assert critical_rayleigh(make_params(beta=6.3, length=0.999 * width), "closed_form") > 0.0
    with pytest.raises(InadmissibleError, match="e4 = "):
        critical_rayleigh(make_params(beta=6.3, length=1.001 * width), "closed_form")


def test_no_reduced_onset_where_e4_is_not_negative():
    # beta > 2 pi gives e4 >= 0 from l = 2 pi / sqrt(beta^2/4 - pi^2), 4.072 at beta = 7
    with pytest.raises(InadmissibleError, match=r"^no onset at beta = 7\.0, l = 4\.3: .*e4 = 3\.85"):
        critical_rayleigh(make_params(beta=7.0, length=4.3), "closed_form")
    with pytest.raises(InadmissibleError, match=r"^no width minimizes Ra\* at beta = 7\.0: "
                       r".*e4 = 0, l = 4\.07245$"):
        minimize_over_length(beta=7.0)


@pytest.mark.parametrize("beta, length", [(6.5, 7.548244634153276), (7.0, 4.072445668997758)])
def test_no_reduced_onset_exactly_at_the_e4_edge(beta, length):
    # the closed-form e4 is exactly 0.0 here; the sign test must not divide by it
    params = make_params(beta=beta, length=length)
    assert closed_form_coefficients(params).e4 == 0.0
    with pytest.raises(InadmissibleError, match=rf"^no onset at beta = {beta}, l = {length}: "
                       r"r is undefined \(e4 = 0\) and cannot cross 1$"):
        critical_rayleigh(params, "closed_form")


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
