"""Release gate: one check per advertised property, each printing a verdict.

Every test prints `criterion N: PASS/FAIL - detail` straight to the terminal
(bypassing capture) before asserting, so a full run always shows the verdict
table. Criterion 10 is informational: a chaotic-regime Lyapunov exponent
cross-checked against repeated runs, reported but not release-blocking.
"""

import math
import time

import numpy as np
import pytest

from anelor.basis import (
    ModeIndex,
    QuadratureRule,
    fourier_partial,
    mode_eval,
    mode_partial,
    vorticity_residual,
    weighted_inner_product,
)
from anelor.dynamics import (
    amplitude_trend,
    integrate_lorenz,
    integrate_reduced,
    largest_lyapunov,
    map_trajectory,
)
from anelor.lorenz import (
    LorenzParams,
    critical_rayleigh,
    lorenz_parameters,
    minimize_over_length,
    origin_eigenvalues,
    scale_to_lorenz,
)
from anelor.params import PhysicalParams
from anelor.projection import closed_form_coefficients, discrepancy_report
from anelor.spectral import critical_rayleigh_spectral

ROOT2 = math.sqrt(2.0)
RA_CLASSIC = 27.0 * math.pi**4 / 4.0

GRID_BETAS = (0.0, 0.01, 0.1, 0.5, 1.0, 2.0)
GRID_PRANDTLS = (1.0, 10.0)
GRID_GAMMAS = (1.0 / 3.0, 4.0 / 3.0)
GRID_LENGTHS = (2.0, 2.0 * ROOT2, 4.0)


def make_params(beta=0.0, prandtl=10.0, rayleigh=0.0, gamma=4.0 / 3.0,
                length=2.0 * ROOT2):
    return PhysicalParams(beta=beta, prandtl=prandtl, rayleigh=rayleigh,
                          gamma=gamma, length=length)


def verdict(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_classic_onset(capsys):
    start = time.perf_counter()
    optimum = minimize_over_length(beta=0.0)
    elapsed = time.perf_counter() - start
    ra_dev = abs(optimum.rayleigh - RA_CLASSIC) / RA_CLASSIC
    l_dev = abs(optimum.length - 2.0 * ROOT2)
    ok = ra_dev < 1e-6 and l_dev < 1e-4 and elapsed < 1.0
    verdict(capsys, 1, ok,
            f"min over l: Ra* rel dev {ra_dev:.2e} (tol 1e-6), "
            f"l dev {l_dev:.2e}, {elapsed:.3f} s (limit 1 s)")


def test_criterion_2_classic_lorenz_recovery(capsys):
    worst_sigma = worst_delta = worst_r = 0.0
    for prandtl in (0.7, 1.0, 10.0, 40.0):
        for rayleigh in (0.35 * RA_CLASSIC, 2.0 * RA_CLASSIC):
            params = make_params(prandtl=prandtl, rayleigh=rayleigh)
            lp = lorenz_parameters(params, "oracle")
            worst_sigma = max(worst_sigma, abs(lp.sigma - prandtl) / prandtl)
            worst_delta = max(worst_delta, abs(lp.delta - 8.0 / 3.0) / (8.0 / 3.0))
            worst_r = max(worst_r, abs(lp.r - rayleigh / RA_CLASSIC)
                          / (rayleigh / RA_CLASSIC))
    ok = worst_sigma < 1e-13 and worst_delta < 1e-10 and worst_r < 1e-10
    verdict(capsys, 2, ok,
            f"sigma=Pr dev {worst_sigma:.2e} (machine precision), "
            f"delta=8/3 dev {worst_delta:.2e}, r=Ra/(27pi^4/4) dev "
            f"{worst_r:.2e} (tol 1e-10)")


def test_criterion_3_stabilization(capsys):
    start = time.perf_counter()
    flat = critical_rayleigh(make_params(), "oracle")
    onsets = [critical_rayleigh(make_params(beta=b), "oracle")
              for b in (0.01, 0.05, 0.1, 0.25, 0.5)]
    elapsed = time.perf_counter() - start
    chain = [flat] + onsets
    ok = all(b > a for a, b in zip(chain, chain[1:])) and elapsed < 5.0
    verdict(capsys, 3, ok,
            f"Ra*(beta) strictly increasing over 5 betas, "
            f"{flat:.4f} -> {onsets[-1]:.4f}, {elapsed:.3f} s (limit 5 s)")


def test_criterion_4_first_order_taylor(capsys):
    flat = critical_rayleigh(make_params(), "closed_form")

    def ratio(beta):
        value = critical_rayleigh(make_params(beta=beta), "closed_form")
        return (value / flat - 1.0) / beta

    at_small = ratio(1e-3)
    gap_ratio = abs(ratio(1e-3) - 0.5) / abs(ratio(5e-4) - 0.5)
    ok = 0.495 <= at_small <= 0.505 and abs(gap_ratio - 2.0) < 0.02
    verdict(capsys, 4, ok,
            f"(Ra*/Ra*0 - 1)/beta = {at_small:.6f} at beta=1e-3 "
            f"(band [0.495, 0.505]); deviation halving ratio {gap_ratio:.4f}")


def test_criterion_5_route_agreement_on_the_grid(capsys):
    worst_closed = worst_published = 0.0
    for beta in GRID_BETAS:
        for prandtl in GRID_PRANDTLS:
            for gamma in GRID_GAMMAS:
                for length in GRID_LENGTHS:
                    params = make_params(beta=beta, prandtl=prandtl,
                                         rayleigh=1000.0, gamma=gamma,
                                         length=length)
                    for row in discrepancy_report(params):
                        if not row.term.startswith("e"):
                            continue
                        worst_closed = max(worst_closed,
                                           row.rel_dev_closed_form)
                        worst_published = max(worst_published,
                                              row.rel_dev_published)
    ok = worst_closed < 1e-8
    verdict(capsys, 5, ok,
            f"oracle vs closed form over 72-point grid: max rel dev "
            f"{worst_closed:.2e} (tol 1e-8); display column max "
            f"{worst_published:.2e} (reported, not asserted)")


def test_criterion_6_spectral_route_consistency(capsys):
    worst = 0.0
    for beta in (0.0, 0.1, 0.5, 1.0):
        params = make_params(beta=beta)
        reduced = critical_rayleigh(params, "oracle")
        spectral = critical_rayleigh_spectral(params, n_modes=1)
        worst = max(worst, abs(spectral - reduced) / reduced)
    params = make_params(beta=0.2)
    sequence = [critical_rayleigh_spectral(params, n_modes=n)
                for n in (1, 2, 4, 8)]
    diffs = [abs(b - a) / sequence[-1] for a, b in zip(sequence, sequence[1:])]
    ok = worst < 1e-8 and diffs[0] > diffs[1] > diffs[2]
    verdict(capsys, 6, ok,
            f"N=1 vs reduced max rel dev {worst:.2e} (tol 1e-8); N=2,4,8 "
            f"successive rel moves {diffs[0]:.1e} > {diffs[1]:.1e} > "
            f"{diffs[2]:.1e}")


def test_criterion_7_trajectory_scaling_equivalence(capsys):
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(10):
        beta = rng.uniform(0.0, 1.0)
        r_target = rng.uniform(0.05, 5.0)
        params = make_params(beta=beta,
                             prandtl=rng.uniform(0.7, 20.0),
                             gamma=rng.uniform(1.0 / 3.0, 2.0),
                             length=rng.uniform(2.0, 4.0))
        rayleigh = r_target * critical_rayleigh(params, "closed_form")
        coeffs = closed_form_coefficients(params.with_rayleigh(rayleigh))
        lp, sm = scale_to_lorenz(coeffs)
        initial = 0.5 * rng.standard_normal(3)
        s_grid = np.linspace(0.0, 20.0, 801)
        reduced = integrate_reduced(coeffs, initial, 20.0 / sm.d,
                                    rtol=1e-10, atol=1e-10,
                                    t_eval=s_grid / sm.d)
        direct = integrate_lorenz(lp, sm.apply(initial), 20.0,
                                  rtol=1e-10, atol=1e-10, t_eval=s_grid)
        deviation = float(np.max(np.abs(
            map_trajectory(reduced, sm).states - direct.states)))
        worst = max(worst, deviation)
    ok = worst < 1e-6
    verdict(capsys, 7, ok,
            f"mapped-ABC vs direct-XYZ over s in [0, 20], 10 seeded "
            f"parameter sets with r in (0, 5): max deviation {worst:.2e} "
            f"(tol 1e-6)")


def test_criterion_8_exchange_of_stability(capsys):
    signs_ok = True
    for r in (0.9, 0.999, 1.001, 1.1):
        leading = origin_eigenvalues(LorenzParams(10.0, 8.0 / 3.0, r))[0]
        signs_ok = signs_ok and math.copysign(1.0, leading) == \
            math.copysign(1.0, r - 1.0)
    trends_ok = True
    for beta in (0.0, 0.3):
        params = make_params(beta=beta)
        ra_star = critical_rayleigh(params, "closed_form")
        for factor, expected in ((0.99, "decay"), (1.01, "growth")):
            coeffs = closed_form_coefficients(
                params.with_rayleigh(factor * ra_star))
            traj = integrate_reduced(coeffs, [1e-3, 1e-3, 1e-3], 20.0)
            trends_ok = trends_ok and amplitude_trend(traj) == expected
    ok = signs_ok and trends_ok
    verdict(capsys, 8, ok,
            f"lambda+ sign tracks sign(r-1) at r=0.9/0.999/1.001/1.1: "
            f"{signs_ok}; perturbations decay at 0.99 Ra* and grow at "
            f"1.01 Ra* for beta=0, 0.3: {trends_ok}")


def test_criterion_9_property_suite(capsys):
    params = make_params(beta=0.8, rayleigh=1000.0)
    rule = QuadratureRule(48, params.length)
    modes = [ModeIndex(parity, m, n) for parity in (-1, 1)
             for m in (1, 2) for n in (1, 2)]

    ortho = 0.0
    for a in modes:
        for b in modes:
            product = weighted_inner_product(
                lambda x, z: mode_eval(a, x, z, params),
                lambda x, z: mode_eval(b, x, z, params),
                params.beta, rule)
            ortho = max(ortho, abs(product - float(a == b)))
    ortho_ok = ortho < 1e-12

    resid_ok = all(vorticity_residual(j, params) < 1e-9 for j in modes)

    walls_ok = all(
        mode_eval(j, 0.37 * params.length, z, params) == 0.0
        for j in modes for z in (0.0, 1.0))

    x = np.linspace(0.0, params.length, 7)
    rule_dev = 0.0
    for parity in (-1, 1):
        for m in (1, 2):
            lhs = fourier_partial(parity, m, x, params.length, 1)
            rhs = (-parity * 2.0 * np.pi * m / params.length
                   * fourier_partial(-parity, m, x, params.length))
            rule_dev = max(rule_dev, float(np.max(np.abs(lhs - rhs))))
    derivative_ok = rule_dev < 1e-12

    nonlin_ok = True
    for beta in (0.0, 0.5):
        report = {row.term: row for row in
                  discrepancy_report(make_params(beta=beta, rayleigh=1000.0))}
        scale = max(abs(row.oracle) for row in report.values())
        nonlin_ok = nonlin_ok and abs(
            report["nonlinear-omega"].oracle) < 1e-10 * scale

    b_ok = True
    for beta in GRID_BETAS:
        for length in GRID_LENGTHS:
            coeffs = closed_form_coefficients(
                make_params(beta=beta, rayleigh=1000.0, length=length))
            b_ok = b_ok and scale_to_lorenz(coeffs)[1].b > 0.0

    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    plus = integrate_lorenz(lp, [1.0, 1.0, 1.0], 10.0)
    minus = integrate_lorenz(lp, [-1.0, -1.0, 1.0], 10.0)
    flip = np.array([-1.0, -1.0, 1.0])
    symmetry_ok = float(np.max(np.abs(plus.states - flip * minus.states))) \
        < 1e-13

    ok = (ortho_ok and resid_ok and walls_ok and derivative_ok and nonlin_ok
          and b_ok and symmetry_ok)
    verdict(capsys, 9, ok,
            f"orthonormality {ortho_ok} (dev {ortho:.1e}), eigenfunction "
            f"residuals {resid_ok}, wall values {walls_ok}, derivative rule "
            f"{derivative_ok}, nonlinear zero projection {nonlin_ok}, "
            f"b^2 > 0 {b_ok}, sign symmetry {symmetry_ok}")


@pytest.mark.informational
def test_criterion_10_lyapunov_sanity(capsys, chaotic_lyapunov_seed0):
    lp = LorenzParams(10.0, 8.0 / 3.0, 28.0)
    estimates = [chaotic_lyapunov_seed0, largest_lyapunov(lp, seed=1)]
    ok = all(abs(value - 0.906) <= 0.05 for value in estimates)
    verdict(capsys, 10, ok,
            f"largest Lyapunov exponent at (10, 8/3, 28): "
            f"{estimates[0]:.4f}, {estimates[1]:.4f} (band 0.906 +/- 0.05; "
            f"informational)")
