"""Weighted eigenbasis of the stratified vorticity operator.

The layer is Omega = (0, l) x (0, 1) with a background density exp(-beta*z).
The operator D = Laplacian + beta * d/dz, restricted to fields that vanish at
z = 0, 1 and are l-periodic in x, has the orthonormal eigenbasis

    psi[i, m, n](x, z) = phi[i, m](x) * sqrt(2) * sin(n*pi*z) * exp(-beta*z/2)

with eigenvalues mu[m, n] = -(beta^2/4 + 4*m^2*pi^2/l^2 + n^2*pi^2), where

    phi[+1, m](x) = sqrt(2/l) * cos(2*pi*m*x/l)    (m >= 1)
    phi[-1, m](x) = sqrt(2/l) * sin(2*pi*m*x/l)    (m >= 1)
    phi[+1, 0](x) = sqrt(1/l)

Orthonormality holds in the weighted product <f, g> = int f * exp(beta*z) * g.
The projected equations are not written here but as projection's operator
rows. The quadrature oracle evaluates their instances on three of these modes
from the exact partial derivatives with tensor-product Gauss-Legendre
quadrature; the stability pencil (spectral) integrates the linear rows on
whole parity families in closed form, using only _fourier_factor and the
exponential form of the vertical factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .params import ArgumentError, PhysicalParams, _check_integer, _check_real, _is_integer

__all__ = [
    "ModeIndex",
    "QuadratureRule",
    "ModeGrid",
    "fourier_partial",
    "vertical_partial",
    "mode_eval",
    "mode_partial",
    "vorticity_eigenvalue",
    "weighted_inner_product",
    "vorticity_residual",
]


@dataclass(frozen=True)
class ModeIndex:
    """Basis label (parity, horizontal wavenumber m, vertical index n)."""

    parity: int
    horizontal: int
    vertical: int

    def __post_init__(self):
        _check_label(self.parity, self.horizontal, self.vertical)


def _check_label(parity, m, n):
    """ArgumentError naming the label unless (parity, m, n) labels a mode, the sines from
    m = 1 on; the factors call it directly, as a ModeIndex per call costs a dataclass."""
    if not (_is_integer(parity) and parity in (1, -1)):
        raise ArgumentError(f"parity must be +1 or -1, got {parity}")
    _check_integer("horizontal index m", m, 0 if parity == 1 else 1)
    _check_integer("vertical index n", n, 1)


def _fourier_factor(parity, m, length, order=0):
    """(factor, parity') with d^order/dx^order phi[parity, m] = factor * phi[parity', m];
    each derivative flips the parity and multiplies by -parity * 2*pi*m/l."""
    factor, cur, wave = 1.0, parity, 2.0 * np.pi * m / length
    for _ in range(order):
        factor *= -cur * wave
        cur = -cur
    return factor, cur


def fourier_partial(parity, m, x, length, order=0):
    """d^order/dx^order of phi[parity, m] at x, a scaled copy of one of the two branches."""
    _check_label(parity, m, 1)
    _check_integer("derivative order", order, 0)
    x = np.asarray(x, dtype=float)
    factor, cur = _fourier_factor(parity, m, length, order)
    if m == 0:  # the constant sqrt(1/l), whose derivatives vanish
        return np.zeros_like(x) if order else factor * np.full_like(x, np.sqrt(1.0 / length))
    arg = (2.0 * np.pi * m / length) * x
    return factor * (np.sqrt(2.0 / length) * (np.cos(arg) if cur == 1 else np.sin(arg)))


def vertical_partial(n, z, beta, order=0):
    """d^order/dz^order of sqrt(2) * sin(n*pi*z) * exp(-beta*z/2) at z: the mode is
    sqrt(2) * Im(exp(c*z)) with c = -beta/2 + i*n*pi, so the derivative is
    sqrt(2) * Im(c^order * exp(c*z)), exact at every order."""
    _check_label(1, 0, n)
    _check_integer("derivative order", order, 0)
    c = complex(-0.5 * beta, n * np.pi)
    power = np.complex128(c) ** order  # inf on overflow, where complex ** would raise
    return np.sqrt(2.0) * np.imag(power * np.exp(c * np.asarray(z, dtype=float)))


def mode_partial(j: ModeIndex, x, z, params: PhysicalParams, dx=0, dz=0):
    """Exact mixed partial d^dx d^dz of the mode psi[j] at (x, z)."""
    fx = fourier_partial(j.parity, j.horizontal, x, params.length, dx)
    fz = vertical_partial(j.vertical, z, params.beta, dz)
    return fx * fz


def mode_eval(j: ModeIndex, x, z, params: PhysicalParams):
    """Mode value at (x, z); exactly zero on the walls z = 0 and z = 1."""
    z = np.asarray(z, dtype=float)
    value = mode_partial(j, x, z, params)
    value = np.where((z == 0.0) | (z == 1.0), 0.0, value)
    if value.ndim == 0:
        return float(value)
    return value


def vorticity_eigenvalue(j: ModeIndex, params: PhysicalParams) -> float:
    """Eigenvalue of Laplacian + beta*d/dz on psi[j]; always negative."""
    m, n = j.horizontal, j.vertical
    wave = 2.0 * np.pi * m / params.length
    return -(0.25 * params.beta * params.beta + wave * wave + (n * np.pi) ** 2)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: callers share them."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class QuadratureRule:
    """Tensor-product Gauss-Legendre rule on (0, length) x (0, 1).

    `order` points per axis; the 1D rule integrates polynomials of degree
    up to 2*order - 1 exactly on each axis.
    """

    def __init__(self, order: int, length: float = 1.0):
        _check_integer("order", order, 1)
        self.order = int(order)
        self.length = _check_real("length", length, "> 0")
        nodes, weights = _gauss_legendre(self.order)
        # map [-1, 1] onto each axis
        self.x_nodes = 0.5 * self.length * (nodes + 1.0)
        self.x_weights = 0.5 * self.length * weights
        self.z_nodes = 0.5 * (nodes + 1.0)
        self.z_weights = 0.5 * weights

    def grid(self):
        """Meshed nodes X, Z and combined weights W, all (order, order)."""
        X, Z = np.meshgrid(self.x_nodes, self.z_nodes, indexing="ij")
        W = np.outer(self.x_weights, self.z_weights)
        return X, Z, W


def weighted_inner_product(f, g, beta, rule: QuadratureRule) -> float:
    """<f, g> = int_Omega f * exp(beta*z) * g, by quadrature.

    `f` and `g` are callables of (x, z) accepting arrays.
    """
    X, Z, W = rule.grid()
    integrand = np.asarray(f(X, Z), dtype=float) * np.exp(beta * Z) * np.asarray(
        g(X, Z), dtype=float
    )
    if not np.all(np.isfinite(integrand)):
        raise ArgumentError("non-finite integrand samples in weighted inner product")
    return float(np.sum(W * integrand))


def vorticity_residual(j: ModeIndex, params: PhysicalParams) -> float:
    """Max |(Laplacian + beta*d/dz - mu) psi[j]| over the interior 17 x 17 points
    of a uniform 19 x 19 grid on the layer."""
    xs = np.linspace(0.0, params.length, 19)[1:-1]
    zs = np.linspace(0.0, 1.0, 19)[1:-1]
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    mu = vorticity_eigenvalue(j, params)
    resid = (
        mode_partial(j, X, Z, params, dx=2)
        + mode_partial(j, X, Z, params, dz=2)
        + params.beta * mode_partial(j, X, Z, params, dz=1)
        - mu * mode_partial(j, X, Z, params)
    )
    return float(np.max(np.abs(resid)))


class ModeGrid:
    """Cached partial derivatives of one mode on a quadrature grid.

    The mode separates into line factors, so each (dx, dz) request costs one
    outer product of precomputed 1D arrays.
    """

    def __init__(self, j: ModeIndex, params: PhysicalParams, rule: QuadratureRule):
        self.j = j
        self.params = params
        self.rule = rule
        self._x_cache: dict[int, np.ndarray] = {}
        self._z_cache: dict[int, np.ndarray] = {}
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def _x_line(self, dx: int) -> np.ndarray:
        if dx not in self._x_cache:
            self._x_cache[dx] = fourier_partial(
                self.j.parity, self.j.horizontal, self.rule.x_nodes, self.params.length, dx
            )
        return self._x_cache[dx]

    def _z_line(self, dz: int) -> np.ndarray:
        if dz not in self._z_cache:
            self._z_cache[dz] = vertical_partial(
                self.j.vertical, self.rule.z_nodes, self.params.beta, dz
            )
        return self._z_cache[dz]

    def partial(self, dx: int = 0, dz: int = 0) -> np.ndarray:
        _check_integer("derivative order", dx, 0)  # before the lookup, where 2.0
        _check_integer("derivative order", dz, 0)  # and True find the orders 2 and 1
        key = (dx, dz)
        if key not in self._cache:
            self._cache[key] = np.outer(self._x_line(dx), self._z_line(dz))
        return self._cache[key]

    def laplacian(self) -> np.ndarray:
        return self.partial(2, 0) + self.partial(0, 2)
