import json
import math
import pathlib

import numpy as np
import pytest

import anelor.basis
import anelor.projection
from anelor.basis import ModeGrid, ModeIndex, QuadratureRule
from anelor.lorenz import critical_rayleigh
from anelor.params import PhysicalParams
from anelor.projection import closed_form_coefficients
from anelor.spectral import (
    LinearOperatorPencil,
    SpectralBracketError,
    assemble_pencil,
    critical_rayleigh_spectral,
    leading_growth_rate,
)

from reference_pencil import (
    max_block_deviation,
    pencil_blocks,
    quadrature_integral,
    reference_blocks,
)

ROOT2 = math.sqrt(2.0)
RA_CLASSIC = 27.0 * math.pi**4 / 4.0


def make_params(beta=0.0, prandtl=10.0, rayleigh=1.0, gamma=4.0 / 3.0,
                length=2.0 * ROOT2):
    return PhysicalParams(beta=beta, prandtl=prandtl, rayleigh=rayleigh,
                          gamma=gamma, length=length)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.5])
def test_mass_matrix_is_symmetric_positive_definite(beta):
    pencil = assemble_pencil(make_params(beta=beta), n_modes=4)
    n = pencil.n_modes
    assert pencil.mass.shape == (2 * n, 2 * n)
    assert np.array_equal(pencil.mass[:n, :n], np.eye(n))
    assert np.max(np.abs(pencil.mass - pencil.mass.T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(pencil.mass)) > 0.0


def test_mass_matrix_is_identity_without_stratification():
    pencil = assemble_pencil(make_params(beta=0.0), n_modes=4)
    assert np.max(np.abs(pencil.mass - np.eye(8))) < 1e-12


def test_vertical_modes_decouple_without_stratification():
    # at beta = 0 the weight is 1 and distinct sine modes are orthogonal, so
    # every block of the pencil is diagonal up to quadrature roundoff
    pencil = assemble_pencil(make_params(beta=0.0), n_modes=4)
    n = pencil.n_modes
    scale = max(np.max(np.abs(pencil.l0)), np.max(np.abs(pencil.l1)))
    for matrix in (pencil.l0, pencil.l1):
        for block in (matrix[:n, :n], matrix[:n, n:], matrix[n:, :n],
                      matrix[n:, n:]):
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) <= 1e-12 * scale


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_single_mode_pencil_reproduces_the_reduced_linear_block(beta):
    # the N = 1 operator at Rayleigh number Ra is [[e1, e2], [e5, e4]]
    rayleigh = 900.0
    coeffs = closed_form_coefficients(make_params(beta=beta, rayleigh=rayleigh))
    pencil = assemble_pencil(make_params(beta=beta), n_modes=1)
    operator = np.linalg.solve(
        pencil.mass, pencil.l0 + math.sqrt(rayleigh) * pencil.l1)
    expected = np.array([[coeffs.e1, coeffs.e2], [coeffs.e5, coeffs.e4]])
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(operator - expected)) < 1e-10 * scale


def test_oracle_and_pencil_read_one_linear_row(monkeypatch):
    # doubling the projection's temperature diffusion operator doubles both of the
    # oracle's diffusive-tau terms and the pencil's tau diffusion block; neither
    # holds a copy of the integrand
    operators = anelor.projection._operators

    def doubled(beta):
        rows = dict(operators(beta))
        test, w, terms = rows["temperature diffusion"]
        rows["temperature diffusion"] = (test, w, tuple((2.0 * c, f) for c, f in terms))
        return rows

    params = make_params(beta=0.7, length=2.5)

    def tau_diffusion():
        oracle = anelor.projection._oracle_integrals(params.beta, params.length, 64)
        block = assemble_pencil(params, n_modes=3).l0[3:, 3:]
        return oracle["diffusive-tau1"], oracle["diffusive-tau2"], block

    anelor.projection._oracle_integrals.cache_clear()
    try:
        before = tau_diffusion()
        with monkeypatch.context() as patch:
            patch.setattr(anelor.projection, "_operators", doubled)
            anelor.projection._oracle_integrals.cache_clear()
            after = tau_diffusion()
    finally:
        anelor.projection._oracle_integrals.cache_clear()
    assert before[0] != 0.0 and before[1] != 0.0 and np.all(np.diag(before[2]) != 0.0)
    assert after[:2] == (2.0 * before[0], 2.0 * before[1])
    assert np.array_equal(after[2], 2.0 * before[2])


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 1.0])
def test_single_mode_onset_matches_the_reduced_route(beta):
    params = make_params(beta=beta)
    spectral = critical_rayleigh_spectral(params, n_modes=1)
    reduced = critical_rayleigh(params, "oracle")
    assert abs(spectral - reduced) / reduced < 1e-8


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_growth_rate_crosses_zero_at_onset(beta):
    params = make_params(beta=beta)
    pencil = assemble_pencil(params, n_modes=1)
    ra_star = critical_rayleigh(params, "closed_form")
    assert leading_growth_rate(pencil, 0.0) < 0.0
    assert abs(leading_growth_rate(pencil, ra_star)) < 1e-8
    assert leading_growth_rate(pencil, 2.0 * ra_star) > 0.0


def test_growth_rate_increases_with_rayleigh():
    pencil = assemble_pencil(make_params(beta=0.3), n_modes=4)
    ra_star = critical_rayleigh_spectral(make_params(beta=0.3), n_modes=4)
    rates = [leading_growth_rate(pencil, f * ra_star)
             for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_extra_modes_are_inert_without_stratification():
    one = critical_rayleigh_spectral(make_params(beta=0.0), n_modes=1)
    eight = critical_rayleigh_spectral(make_params(beta=0.0), n_modes=8)
    assert one == pytest.approx(RA_CLASSIC, rel=1e-9)
    assert abs(eight - one) < 1e-12 * one


def test_truncation_converges_in_mode_count():
    params = make_params(beta=0.2)
    values = [critical_rayleigh_spectral(params, n_modes=n)
              for n in (1, 2, 4, 8)]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    assert diffs[0] > diffs[1] > diffs[2]
    # refined onsets stay within the N = 2 correction of each other
    assert all(abs(v - values[-1]) <= diffs[0] for v in values[1:])


@pytest.mark.parametrize("n_modes", [1, 4, 8])
def test_stratification_raises_the_spectral_onset(n_modes):
    flat = critical_rayleigh_spectral(make_params(beta=0.0), n_modes=n_modes)
    onsets = [critical_rayleigh_spectral(make_params(beta=b), n_modes=n_modes)
              for b in (0.25, 0.5)]
    assert flat < onsets[0] < onsets[1]


def test_assemble_pencil_validates_arguments():
    with pytest.raises(ValueError):
        assemble_pencil(make_params(), n_modes=0)
    with pytest.raises(ValueError):
        assemble_pencil(make_params(), m=0)


def test_onset_builds_no_quadrature_rule(monkeypatch):
    built = []
    original = anelor.basis.QuadratureRule.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(anelor.basis.QuadratureRule, "__init__", counting_init)
    QuadratureRule(8, 1.0)
    assert len(built) == 1
    for n_modes in (1, 4, 16):
        critical_rayleigh_spectral(make_params(beta=1.0), n_modes=n_modes)
    assert len(built) == 1


def test_pencil_matches_the_40_digit_reference_at_strong_stratification():
    # blocks of the defining integrals from mpmath (tests/data/make_pencil_reference.py);
    # a 64-point Gauss-Legendre pencil is 1.5e-14 off in the psi diffusion block
    document = json.loads(
        (pathlib.Path(__file__).parent / "data" / "pencil_beta13_n8.json").read_text())
    setup = document["params"]
    params = make_params(beta=setup["beta"], prandtl=setup["prandtl"],
                         gamma=setup["gamma"], length=setup["length"])
    assert params.length == 2.0 * ROOT2
    pencil = assemble_pencil(params, m=setup["m"], n_modes=setup["n_modes"])
    expected = {name: np.array(rows) for name, rows in document["blocks"].items()}
    assert max_block_deviation(pencil_blocks(pencil), expected) <= 2e-15


@pytest.mark.parametrize("beta", [5e-324, 2.2250738585e-313, 1e-300, 1e-8])
def test_tiny_stratification_gives_a_finite_continuous_pencil(beta):
    params = make_params(beta=beta)
    pencil = assemble_pencil(params, n_modes=4)
    for matrix in (pencil.mass, pencil.l0, pencil.l1):
        assert np.all(np.isfinite(matrix))
    blocks = pencil_blocks(pencil)
    flat = pencil_blocks(assemble_pencil(make_params(beta=0.0), n_modes=4))
    # the exact pencil moves by O(beta) of each block's scale (5e-9 at beta = 1e-8)
    assert max_block_deviation(blocks, flat) <= 1e-12 + beta
    reference = reference_blocks(params, quadrature_integral(beta, 4, 64))
    assert max_block_deviation(blocks, reference) <= 1e-12


def test_growth_rate_rejects_negative_rayleigh():
    pencil = assemble_pencil(make_params(), n_modes=1)
    with pytest.raises(ValueError):
        leading_growth_rate(pencil, -1.0)


def test_bracket_failures_raise(monkeypatch):
    import anelor.spectral as spectral

    def fake_pencil(mass, l0, l1):
        return LinearOperatorPencil(params=make_params(), m=1, n_modes=1,
                                    mass=mass, l0=l0, l1=l1)

    eye = np.eye(2)
    unstable_at_zero = fake_pencil(eye, eye.copy(), np.zeros((2, 2)))
    monkeypatch.setattr(spectral, "assemble_pencil",
                        lambda *a, **k: unstable_at_zero)
    with pytest.raises(SpectralBracketError):
        critical_rayleigh_spectral(make_params())

    never_unstable = fake_pencil(eye, -eye, np.zeros((2, 2)))
    monkeypatch.setattr(spectral, "assemble_pencil",
                        lambda *a, **k: never_unstable)
    with pytest.raises(SpectralBracketError):
        critical_rayleigh_spectral(make_params())


def test_rest_state_stability_uses_the_temperature_gram(monkeypatch):
    import anelor.spectral as spectral

    # eig(D) = {-1, -1} alone looks stable, but with the Gram mass G the
    # temperature rows grow at Ra = 0: eig(G^-1 D) has a positive real part
    mass, l0, l1 = np.eye(4), -np.eye(4), np.zeros((4, 4))
    mass[2:, 2:] = [[1.0, 0.8], [0.8, 1.0]]
    l0[2:, 2:] = [[-1.0, -4.0], [0.0, -1.0]]
    l1[:2, 2:] = l1[2:, :2] = np.eye(2)
    pencil = LinearOperatorPencil(params=make_params(), m=1, n_modes=2,
                                  mass=mass, l0=l0, l1=l1)
    assert leading_growth_rate(pencil, 0.0) > 0.0
    monkeypatch.setattr(spectral, "assemble_pencil", lambda *a, **k: pencil)
    with pytest.raises(SpectralBracketError, match="Ra = 0"):
        critical_rayleigh_spectral(make_params())


def tensor_grid_pencil(params, n_modes, rule):
    """Every pencil entry as a 2D tensor-grid quadrature sum on ModeGrid."""
    _, Z, W = rule.grid()
    beta, n = params.beta, n_modes
    Eb, E2 = np.exp(beta * Z), np.exp(2.0 * beta * Z)
    psi = [ModeGrid(ModeIndex(-1, 1, k), params, rule) for k in range(1, n + 1)]
    tau = [ModeGrid(ModeIndex(+1, 1, k), params, rule) for k in range(1, n + 1)]

    def quad(field):
        return float(np.sum(W * field))

    def diffused(g):
        return -Eb * (
            g.partial(4, 0) + 2.0 * g.partial(2, 2) + g.partial(0, 4)
            + 4.0 * beta * (g.partial(2, 1) + g.partial(0, 3))
            + beta**2 * g.laplacian()
            + 4.0 * beta**2 * g.partial(0, 2)
            + 2.0 * beta**3 * g.partial(0, 1))

    mass, l0, l1 = np.eye(2 * n), np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    for i in range(n):
        gram = quad(-Eb * (psi[i].laplacian() + beta * psi[i].partial(0, 1))
                    * psi[i].partial())
        for j in range(n):
            entry = quad(Eb * diffused(psi[j]) * psi[i].partial())
            entry += params.gamma * beta**2 * quad(
                E2 * psi[j].partial(2, 0) * psi[i].partial())
            l0[i, j] = params.prandtl * entry / gram
            l1[i, n + j] = -params.prandtl * quad(
                Eb * tau[j].partial(1, 0) * psi[i].partial()) / gram
            mass[n + i, n + j] = quad(tau[j].partial() * tau[i].partial())
            l0[n + i, n + j] = quad(Eb * tau[j].laplacian() * tau[i].partial())
            l1[n + i, j] = quad(Eb * psi[j].partial(1, 0) * tau[i].partial())
    return {"mass": mass, "l0": l0, "l1": l1}


@pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
def test_separable_pencil_matches_the_tensor_grid_sum(beta):
    params = make_params(beta=beta, prandtl=7.0, gamma=0.8, length=3.1)
    rule = QuadratureRule(64, params.length)
    pencil = assemble_pencil(params, n_modes=4)
    reference = tensor_grid_pencil(params, 4, rule)
    for name, expected in reference.items():
        actual = getattr(pencil, name)
        # zero blocks (mass and l0 cross blocks, l1 diagonal blocks) are exact
        for rows in (slice(0, 4), slice(4, 8)):
            for cols in (slice(0, 4), slice(4, 8)):
                block, ref = actual[rows, cols], expected[rows, cols]
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(block - ref)) <= 1e-12 * scale, (name, rows, cols)


def bisected_onset(pencil):
    lo, hi = 0.0, 1e3
    while leading_growth_rate(pencil, hi) < 0.0:
        hi *= 2.0
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if leading_growth_rate(pencil, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n_modes", [1, 4, 8, 16])
@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 3.0, 5.0])
def test_eigen_onset_matches_bisection_on_the_growth_rate(beta, n_modes):
    params = make_params(beta=beta)
    onset = critical_rayleigh_spectral(params, n_modes=n_modes)
    assert type(onset) is float
    reference = bisected_onset(assemble_pencil(params, n_modes=n_modes))
    assert abs(onset - reference) <= 1e-10 * reference


def test_onset_settles_at_strong_stratification():
    # a growth-rate bisection cannot reach |growth| < 1e-10 here: the
    # growth rate moves by 0.68 per 0.1 % of Ra
    params = make_params(beta=13.0)
    onset = critical_rayleigh_spectral(params, n_modes=8)
    assert math.isfinite(onset)
    assert abs(leading_growth_rate(assemble_pencil(params, n_modes=8), onset)) <= 1e-6


def test_oscillatory_onset_raises(monkeypatch):
    import anelor.spectral as spectral

    # L0 = -I and L1 = [[0, I], [C, 0]] couple only the two families, like an
    # assembled pencil, so the growth rates are -1 + s*nu with nu^2 an
    # eigenvalue of C: a complex pair -1 + s(1 +- i/2) crosses at s = 1,
    # before the real eigenvalue -1 + s/2 crosses at s = 2; the complex
    # eigenvalues 3/4 +- i of C mark no real crossing and must not set the onset
    l0 = -np.eye(6)
    l1 = np.zeros((6, 6))
    l1[:3, 3:] = np.eye(3)
    l1[3:5, :2] = [[0.75, 1.0], [-1.0, 0.75]]
    l1[5, 2] = 0.25
    pencil = LinearOperatorPencil(params=make_params(), m=1, n_modes=3,
                                  mass=np.eye(6), l0=l0, l1=l1)
    monkeypatch.setattr(spectral, "assemble_pencil", lambda *a, **k: pencil)
    with pytest.raises(SpectralBracketError, match="oscillatory"):
        critical_rayleigh_spectral(make_params())


@pytest.mark.parametrize("n_modes", [32, 48, 64])
def test_exact_pencil_matches_a_fine_quadrature_at_high_truncations(n_modes):
    # the exact pencil against an in-test Gauss-Legendre rule of 4N + 64 points
    params = make_params(beta=1.0, length=2.83)
    pencil = pencil_blocks(assemble_pencil(params, n_modes=n_modes))
    reference = reference_blocks(params, quadrature_integral(1.0, n_modes, 4 * n_modes + 64))
    for name, expected in reference.items():
        scale = max(float(np.max(np.abs(expected))), 1.0)
        assert float(np.max(np.abs(pencil[name] - expected))) <= 1e-9 * scale, name


def test_high_truncation_onset_matches_a_fine_quadrature_pencil():
    # with 64 points the N = 56 pencil was unstable at Ra = 0; 1152.37846336931
    # is the onset of a 256-point quadrature pencil
    params = make_params(beta=1.0, length=2.83)
    onset = critical_rayleigh_spectral(params, n_modes=56)
    assert math.isfinite(onset)
    assert onset == pytest.approx(1152.37846336931, rel=1e-9)
