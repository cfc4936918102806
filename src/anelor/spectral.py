"""N-mode linear stability of the conducting state, validating the reduction.

The linearized equations couple one streamfunction parity family to one
temperature parity family (each coupling term carries exactly one horizontal
derivative, which flips parity, so the complementary pair is a mirror copy).
Expanding

    psi = sum_n A_n(t) * psi[-1, m, n],   tau = sum_n B_n(t) * psi[+1, m, n]

and projecting gives a generalized eigenproblem M xdot = L(Ra) x on the
stacked vector x = (A_1..A_N, B_1..B_N), with

    M      = blockdiag(I, G); the vorticity rows are normalized by their
             diagonal time-derivative projection, and G is the unweighted
             Gram matrix of the temperature modes (identity at beta = 0)
    L(Ra)  = L0 + sqrt(Ra) * L1, where L0 holds the diffusion blocks and L1
             only the buoyancy/source cross blocks

The entries use the oracle's integrands, so the N = 1 pencil reproduces the
reduced critical Rayleigh number by construction. Each integrand is an x-factor
times a z-factor, so its tensor Gauss-Legendre sum is an x-quadrature of two
Fourier lines times (N x order) @ (order x N) products of the shared vertical
profiles. The onset is one eigenvalue solve (see critical_rayleigh_spectral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import QuadratureRule, fourier_partial, vertical_partial, vorticity_diffusion_terms
from .params import PhysicalParams

__all__ = [
    "LinearOperatorPencil",
    "SpectralBracketError",
    "default_order",
    "assemble_pencil",
    "leading_growth_rate",
    "critical_rayleigh_spectral",
]


class SpectralBracketError(RuntimeError):
    """No stationary onset: unstable at Ra = 0, no real crossing, or oscillatory."""


@dataclass(frozen=True)
class LinearOperatorPencil:
    """Mass matrix and stiffness split of the linearized truncation.

    The stiffness at Rayleigh number Ra is l0 + sqrt(Ra) * l1.
    """

    params: PhysicalParams
    m: int
    n_modes: int
    mass: np.ndarray
    l0: np.ndarray
    l1: np.ndarray


def default_order(n_modes: int) -> int:
    """Gauss-Legendre points per axis that resolve products of the first
    n_modes vertical modes: 64 up to N = 24, then 2N + 16."""
    return max(64, 2 * n_modes + 16)


def assemble_pencil(
    params: PhysicalParams,
    m: int = 1,
    n_modes: int = 4,
    rule: QuadratureRule | None = None,
    check_convergence: bool = False,
) -> LinearOperatorPencil:
    """Project the linearized equations onto n_modes vertical modes.

    The Rayleigh number of `params` is ignored; it enters only through the
    sqrt(Ra) factor applied to l1 later. Without a rule the quadrature order
    is default_order(n_modes). With check_convergence=True the assembly is
    repeated at twice the quadrature order and a relative entry move above
    1e-9 raises ValueError.
    """
    if n_modes < 1 or m < 1:
        raise ValueError("need n_modes >= 1 and m >= 1")
    if rule is None:
        rule = QuadratureRule(default_order(n_modes), params.length)
    matrices = _assemble_matrices(params, m, n_modes, rule)
    if check_convergence:
        fine = _assemble_matrices(
            params, m, n_modes, QuadratureRule(2 * rule.order, params.length)
        )
        for name in ("mass", "l0", "l1"):
            a, b = matrices[name], fine[name]
            scale = max(float(np.max(np.abs(b))), 1.0)
            if float(np.max(np.abs(a - b))) > 1e-9 * scale:
                raise ValueError(f"{name} entries move at double quadrature order")
    return LinearOperatorPencil(params=params, m=m, n_modes=n_modes, **matrices)


def _assemble_matrices(params, m, n, rule):
    beta, pr = params.beta, params.prandtl
    # profiles[d][k - 1] is the d-th z-derivative of vertical mode k; the
    # psi and tau families share them
    profiles = [
        np.array([vertical_partial(k, rule.z_nodes, beta, d) for k in range(1, n + 1)])
        for d in range(5)
    ]

    def block(terms, weight, trial, test):
        # [i, j] = sum of c * int exp(weight*beta*z) d^dx d^dz trial_j * test_i
        test_x = fourier_partial(test, m, rule.x_nodes, params.length)
        test_z = profiles[0] * (rule.z_weights * np.exp(weight * beta * rule.z_nodes))
        out = np.zeros((n, n))
        for c, dx, dz in terms:
            trial_x = fourier_partial(trial, m, rule.x_nodes, params.length, dx)
            x_part = float(np.dot(rule.x_weights * trial_x, test_x))
            out += c * x_part * (test_z @ profiles[dz].T)
        return out

    psi, tau = -1, +1
    # vorticity rows: time-derivative projections are diagonal by weighted
    # orthonormality; normalize each row by its diagonal entry
    vorticity = ((-1.0, 2, 0), (-1.0, 0, 2), (-beta, 0, 1))
    rows = pr / np.diag(block(vorticity, 1, psi, psi))[:, None]
    diffusion = [(-c, dx, dz) for c, dx, dz in vorticity_diffusion_terms(beta)]
    diffusion.append((params.gamma * beta**2, 2, 0))
    buoyancy = ((1.0, 1, 0),)

    mass = np.eye(2 * n)
    l0 = np.zeros((2 * n, 2 * n))
    l1 = np.zeros((2 * n, 2 * n))
    l0[:n, :n] = rows * block(diffusion, 2, psi, psi)
    l1[:n, n:] = -rows * block(buoyancy, 1, tau, psi)
    # temperature rows: unweighted Gram mass, weighted diffusion
    mass[n:, n:] = block(((1.0, 0, 0),), 0, tau, tau)
    l0[n:, n:] = block(((1.0, 2, 0), (1.0, 0, 2)), 1, tau, tau)
    l1[n:, :n] = block(buoyancy, 1, psi, tau)
    return {"mass": mass, "l0": l0, "l1": l1}


def _spectrum(pencil: LinearOperatorPencil, rayleigh: float) -> np.ndarray:
    stiffness = pencil.l0 + math.sqrt(rayleigh) * pencil.l1
    return np.linalg.eigvals(np.linalg.solve(pencil.mass, stiffness))


def leading_growth_rate(pencil: LinearOperatorPencil, rayleigh: float) -> float:
    """Maximum real part over the 2N generalized eigenvalues at this Ra."""
    if rayleigh < 0.0:
        raise ValueError("rayleigh must be nonnegative")
    return float(np.max(_spectrum(pencil, rayleigh).real))


def critical_rayleigh_spectral(
    params: PhysicalParams,
    m: int = 1,
    n_modes: int = 1,
    rule: QuadratureRule | None = None,
) -> float:
    """Rayleigh number where the truncated system's growth rate first crosses zero.

    A real eigenvalue crosses zero where L0 + s*L1 is singular, s = sqrt(Ra),
    so s = 1/mu for the largest positive real eigenvalue mu of -L0^-1 L1.
    Raises SpectralBracketError when the rest state is not stable at Ra = 0,
    when no positive real mu exists, or when the growth rate at the result is
    positive beyond roundoff, i.e. an oscillatory mode crossed first.
    """
    pencil = assemble_pencil(params, m, n_modes, rule)
    if leading_growth_rate(pencil, 0.0) >= 0.0:
        raise SpectralBracketError("growth rate at Ra = 0 is not negative")
    mu = np.linalg.eigvals(-np.linalg.solve(pencil.l0, pencil.l1))
    real = mu.real[(mu.imag == 0.0) & (mu.real > 0.0)]
    if real.size == 0:
        raise SpectralBracketError("no real eigenvalue crosses zero at any Ra > 0")
    rayleigh = float(np.max(real)) ** -2
    spectrum = _spectrum(pencil, rayleigh)
    growth = float(np.max(spectrum.real))
    if growth > 1e-8 * float(np.max(np.abs(spectrum))):
        raise SpectralBracketError(
            f"oscillatory onset: growth rate is {growth:.3e} at the first real "
            f"crossing Ra = {rayleigh:.6e}"
        )
    return rayleigh
