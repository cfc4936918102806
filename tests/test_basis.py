import math

import numpy as np
import pytest

from anelor.basis import (
    ModeGrid,
    ModeIndex,
    QuadratureRule,
    fourier_partial,
    mode_eval,
    mode_partial,
    vertical_partial,
    vorticity_eigenvalue,
    vorticity_residual,
    weighted_inner_product,
)
from anelor.params import PhysicalParams


def make_params(beta, length=2.0 * math.sqrt(2.0)):
    return PhysicalParams(beta=beta, prandtl=10.0, rayleigh=0.0, gamma=4.0 / 3.0,
                          length=length)


def all_modes(max_m, max_n):
    modes = [ModeIndex(1, 0, n) for n in range(1, max_n + 1)]
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            modes.append(ModeIndex(1, m, n))
            modes.append(ModeIndex(-1, m, n))
    return modes


@pytest.mark.parametrize("parity,m,n", [(0, 1, 1), (1, -1, 1), (1, 1, 0), (-1, 0, 1),
                                        (1, 1.5, 2.5), (1, 1, 2.5), (1, 2.0, 1)])
def test_mode_index_rejects_bad_labels(parity, m, n):
    with pytest.raises(ValueError):
        ModeIndex(parity, m, n)


def test_labels_accept_numpy_integers():
    m, n = np.int64(2), np.int32(3)
    assert ModeIndex(-1, m, n) == ModeIndex(-1, 2, 3)
    x, z = np.linspace(0.0, 2.5, 5), np.linspace(0.0, 1.0, 5)
    assert np.array_equal(fourier_partial(-1, m, x, 2.5, 1), fourier_partial(-1, 2, x, 2.5, 1))
    assert np.array_equal(vertical_partial(n, z, 1.3, 2), vertical_partial(3, z, 1.3, 2))


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
def test_weighted_orthonormality(beta):
    params = make_params(beta)
    rule = QuadratureRule(48, params.length)
    modes = all_modes(4, 4)
    for i, ji in enumerate(modes):
        for jj in modes[i:]:
            value = weighted_inner_product(
                lambda x, z: mode_partial(ji, x, z, params),
                lambda x, z: mode_partial(jj, x, z, params),
                beta, rule,
            )
            expected = 1.0 if ji == jj else 0.0
            assert abs(value - expected) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("j", [ModeIndex(1, 0, 2), ModeIndex(1, 1, 1),
                               ModeIndex(-1, 1, 1), ModeIndex(-1, 3, 4)])
def test_vorticity_eigenfunction_residual(beta, j):
    params = make_params(beta)
    scale = abs(vorticity_eigenvalue(j, params))
    assert vorticity_residual(j, params) < 1e-10 * scale


@pytest.mark.parametrize("j", [ModeIndex(1, 1, 1), ModeIndex(-1, 2, 3)])
def test_eigenvalue_formula(j):
    params = make_params(0.7, length=2.5)
    wave = 2.0 * math.pi * j.horizontal / params.length
    expected = -(0.7**2 / 4.0 + wave**2 + (j.vertical * math.pi) ** 2)
    assert vorticity_eigenvalue(j, params) == pytest.approx(expected, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigenvalue_is_minus_inf_where_beta_squared_overflows():
    # beta^2 overflows from beta ~ 1.34e154; the eigenvalue is -inf, not an OverflowError
    assert vorticity_eigenvalue(ModeIndex(1, 1, 1), make_params(1e200)) == -math.inf


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_wall_boundary_conditions(beta):
    # psi = 0 exactly on the walls, and psi_zz + beta*psi_z = 0 there too
    params = make_params(beta)
    xs = np.linspace(0.0, params.length, 7)
    for j in (ModeIndex(-1, 1, 1), ModeIndex(1, 0, 2), ModeIndex(1, 2, 3)):
        for z in (0.0, 1.0):
            values = mode_eval(j, xs, np.full_like(xs, z), params)
            assert np.all(values == 0.0)
            stress = (mode_partial(j, xs, z, params, dz=2)
                      + beta * mode_partial(j, xs, z, params, dz=1))
            scale = (beta**2 / 4.0 + (j.vertical * math.pi) ** 2) * math.sqrt(2.0)
            assert np.max(np.abs(stress)) < 1e-10 * scale


def test_mode_eval_returns_scalar_for_scalars():
    params = make_params(0.3)
    value = mode_eval(ModeIndex(1, 1, 1), 0.5, 0.5, params)
    assert isinstance(value, float)
    assert value != 0.0


@pytest.mark.parametrize("parity,m", [(1, 1), (-1, 1), (1, 3), (-1, 2), (1, 0)])
def test_x_derivative_flips_parity(parity, m):
    # d/dx phi[p, m] = -p * (2 pi m / l) * phi[-p, m]
    length = 2.5
    x = np.linspace(0.0, length, 41)
    got = fourier_partial(parity, m, x, length, order=1)
    if m == 0:
        assert np.all(got == 0.0)
        return
    wave = 2.0 * math.pi * m / length
    branch = np.cos(wave * x) if parity == -1 else np.sin(wave * x)  # phi[-parity, m]
    expected = -parity * wave * math.sqrt(2.0 / length) * branch
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("parity, m, order, message", [
    (-1, 0, 1, "parity -1 with m = 0 is not a mode"),
    (2, 0, 2, "parity must be +1 or -1, got 2"),
    (2, 1, 1, "parity must be +1 or -1, got 2"),
    (1, -1, 1, "horizontal index m must be an integer >= 0, got -1"),
    (1, 1.5, 0, "horizontal index m must be an integer >= 0, got 1.5"),
], ids=["sine-at-m0", "parity-2-at-m0", "parity-2", "negative-m", "fractional-m"])
def test_fourier_partial_rejects_a_label_that_is_no_mode(parity, m, order, message):
    # at every order, naming the label the caller gave
    with pytest.raises(ValueError) as excinfo:
        fourier_partial(parity, m, np.linspace(0.0, 2.5, 5), 2.5, order)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("order,h", [(1, 1e-6), (2, 1e-5), (3, 4e-4), (4, 3e-3)])
def test_partials_match_finite_differences(order, h):
    # step sizes balance truncation against roundoff per stencil order
    params = make_params(0.6, length=3.0)
    j = ModeIndex(-1, 2, 2)
    x, z = 0.731, 0.412
    for axis in ("x", "z"):

        def f(shift):
            if axis == "x":
                return mode_partial(j, x + shift, z, params)
            return mode_partial(j, x, z + shift, params)

        if order == 1:
            approx = (f(h) - f(-h)) / (2 * h)
        elif order == 2:
            approx = (f(h) - 2 * f(0.0) + f(-h)) / h**2
        elif order == 3:
            approx = (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
        else:
            approx = (f(2 * h) - 4 * f(h) + 6 * f(0.0) - 4 * f(-h) + f(-2 * h)) / h**4
        exact = mode_partial(j, x, z, params,
                             dx=order if axis == "x" else 0,
                             dz=order if axis == "z" else 0)
        assert approx == pytest.approx(exact, rel=1e-3, abs=1e-2)


def test_vertical_factor_and_derivative_values():
    beta = 0.8
    z = np.array([0.25, 0.5, 0.75])
    expected = math.sqrt(2.0) * np.sin(2.0 * math.pi * z) * np.exp(-0.4 * z)
    assert np.max(np.abs(vertical_partial(2, z, beta) - expected)) < 1e-14
    d1 = math.sqrt(2.0) * np.exp(-0.4 * z) * (
        2.0 * math.pi * np.cos(2.0 * math.pi * z) - 0.4 * np.sin(2.0 * math.pi * z)
    )
    assert np.max(np.abs(vertical_partial(2, z, beta, order=1) - d1)) < 1e-12


@pytest.mark.parametrize("beta", [0.0, 3.0, 13.0])
def test_vertical_profiles_rows_match_the_complex_exponential(beta):
    # profile k, order d: sqrt(2) Im(c^d exp(c z)) with c = -beta/2 + i k pi
    z = QuadratureRule(80, 1.0).z_nodes
    for k in range(1, 65):
        c = complex(-0.5 * beta, k * math.pi)
        for d in range(5):
            expected = math.sqrt(2.0) * np.imag(c**d * np.exp(c * z))
            row = vertical_partial(k, z, beta, d)
            assert row.shape == (80,)
            assert np.max(np.abs(row - expected)) <= 1e-14 * np.max(np.abs(row))


@pytest.mark.parametrize("beta", [0.0, 3.0, 13.0])
def test_vertical_profiles_match_the_real_product_rule(beta):
    # d/dz of s(z) = sqrt(2) sin(k pi z) exp(-beta z / 2), written out in reals
    z = np.linspace(0.0, 1.0, 41)
    for k in (1, 7, 64):
        w, h = k * math.pi, 0.5 * beta
        sin, cos, decay = np.sin(w * z), np.cos(w * z), math.sqrt(2.0) * np.exp(-h * z)
        exact = (sin * decay, (w * cos - h * sin) * decay,
                 ((h * h - w * w) * sin - 2.0 * h * w * cos) * decay)
        for d, expected in enumerate(exact):
            row = vertical_partial(k, z, beta, d)
            assert np.max(np.abs(row - expected)) <= 1e-12 * np.max(np.abs(row))


@pytest.mark.parametrize("beta", [0.0, 1.7, 13.0])
def test_vertical_partial_agrees_with_the_profiles(beta):
    # a scalar z gives the matching entry of the profile over an array of z
    z = QuadratureRule(64, 1.0).z_nodes
    for k in (1, 5, 16):
        for d in range(5):
            row = vertical_partial(k, z, beta, d)
            points = np.array([vertical_partial(k, point, beta, d) for point in z])
            assert np.max(np.abs(points - row)) <= 1e-15 * np.max(np.abs(row))
    with pytest.raises(ValueError):
        vertical_partial(4, z, beta, -1)
    for n in (1.5, -1, 0):
        with pytest.raises(ValueError, match=f"vertical index n must be an integer >= 1, got {n}$"):
            vertical_partial(n, z, 1.0)


def test_quadrature_is_exact_on_polynomials():
    rule = QuadratureRule(8, 2.0)
    X, Z, W = rule.grid()
    # int_0^2 x^3 dx * int_0^1 z^2 dz = 4 * 1/3
    assert float(np.sum(W * X**3 * Z**2)) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert float(np.sum(W * X**5 * Z)) == pytest.approx((2.0**6 / 6.0) * 0.5, rel=1e-14)


def test_quadrature_rules_of_one_order_share_no_writable_nodes():
    first = QuadratureRule(8, 2.0)
    first.x_nodes[:] = 0.0
    first.z_weights[:] = 0.0
    second = QuadratureRule(8, 2.0)
    assert float(np.sum(second.z_weights)) == pytest.approx(1.0, rel=1e-14)
    assert np.all(np.diff(second.x_nodes) > 0.0)


def test_quadrature_weighted_line_integral():
    # int_0^1 exp(z) (1 - cos 2 pi z) dz = (e - 1) * 4 pi^2 / (1 + 4 pi^2)
    rule = QuadratureRule(32, 1.0)
    z = rule.z_nodes
    value = float(np.dot(rule.z_weights, np.exp(z) * (1.0 - np.cos(2.0 * math.pi * z))))
    expected = (math.e - 1.0) * 4.0 * math.pi**2 / (1.0 + 4.0 * math.pi**2)
    assert value == pytest.approx(expected, rel=1e-14)


def test_quadrature_stable_under_order_doubling():
    params = make_params(0.9, length=2.2)
    j1, j2 = ModeIndex(-1, 1, 1), ModeIndex(1, 1, 2)

    def product(order):
        rule = QuadratureRule(order, params.length)
        return weighted_inner_product(
            lambda x, z: mode_partial(j1, x, z, params, dx=1),
            lambda x, z: mode_partial(j2, x, z, params, dz=1),
            params.beta, rule,
        )

    assert abs(product(64) - product(128)) < 1e-12


def test_weighted_inner_product_rejects_non_finite():
    rule = QuadratureRule(8, 1.0)
    with pytest.raises(ValueError):
        weighted_inner_product(
            lambda x, z: np.full(np.shape(x), np.nan), lambda x, z: x, 0.0, rule
        )


def test_mode_grid_matches_direct_partials():
    params = make_params(0.4, length=2.8)
    rule = QuadratureRule(16, params.length)
    j = ModeIndex(1, 1, 2)
    grid = ModeGrid(j, params, rule)
    X, Z, _ = rule.grid()
    for dx, dz in ((0, 0), (1, 0), (0, 1), (2, 2), (0, 4)):
        direct = mode_partial(j, X, Z, params, dx=dx, dz=dz)
        assert np.max(np.abs(grid.partial(dx, dz) - direct)) < 1e-12 * max(
            1.0, np.max(np.abs(direct))
        )
    lap = grid.partial(2, 0) + grid.partial(0, 2)
    assert np.array_equal(grid.laplacian(), lap)
