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
times a z-factor. The x-integrals are +-(2 pi m/l)^dx times an entry of the 2 x 2
Gram matrix of the cos/sin lines on the rule's x-nodes; the vertical profiles and
their z-derivatives take one complex exp per mode (basis.vertical_profiles); so a
block is one (N x order) @ (order x N) product. L0 is block diagonal and L1 only
couples the families, so the onset is an N x N eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (QuadratureRule, fourier_eval, fourier_factor, vertical_profiles,
                    vorticity_diffusion_terms)
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
    rule = (QuadratureRule(default_order(n_modes), params.length) if rule is None
            else rule.checked(params.length))
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
    beta, pr, length = params.beta, params.prandtl, params.length
    # profiles[d, k - 1] is the d-th z-derivative of vertical mode k (both families);
    # tests[w] is profiles[0] times the z-weights and exp(w*beta*z); gram[p, q] is the
    # x-quadrature of phi[p, m] * phi[q, m]
    profiles = vertical_profiles(n, rule.z_nodes, beta, 4)
    weights = rule.z_weights * np.exp(np.outer(np.arange(3) * beta, rule.z_nodes))
    tests = profiles[0] * weights[:, None]
    lines = {p: fourier_eval(p, m, rule.x_nodes, length) for p in (1, -1)}
    gram = {(p, q): np.dot(rule.x_weights * lines[p], lines[q]) for p in lines for q in lines}

    def block(terms, weight, trial, test):
        # [i, j] = sum of c * int exp(weight*beta*z) d^dx d^dz trial_j * test_i, with
        # d^dx phi[trial] = factor * phi[parity]; sums by dz, then one product
        by_dz = np.zeros(5)
        for c, dx, dz in terms:
            factor, parity = fourier_factor(trial, m, length, dx)
            by_dz[dz] += c * factor * gram[parity, test]
        return tests[weight] @ np.dot(by_dz, profiles.reshape(5, -1)).reshape(n, -1).T

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

    With L0 = blockdiag(A, D), L1 = [[0, B], [C, 0]] and M = blockdiag(I, G), the
    rest state is stable when eig(A) and eig(G^-1 D) have negative real parts, and
    L0 + sqrt(Ra)*L1 is singular where 1/Ra is an eigenvalue of A^-1 B D^-1 C; the
    onset is Ra = 1/lambda for the largest positive real eigenvalue lambda.
    Raises SpectralBracketError when the rest state is not stable at Ra = 0,
    when no positive real lambda exists, or when the growth rate at the result
    is positive beyond roundoff, i.e. an oscillatory mode crossed first.
    """
    pencil = assemble_pencil(params, m, n_modes, rule)
    n, solve, eigvals = pencil.n_modes, np.linalg.solve, np.linalg.eigvals
    a, d = pencil.l0[:n, :n], pencil.l0[n:, n:]
    if max(eigvals(a).real.max(), eigvals(solve(pencil.mass[n:, n:], d)).real.max()) >= 0.0:
        raise SpectralBracketError("growth rate at Ra = 0 is not negative")
    lam = eigvals(solve(a, pencil.l1[:n, n:]) @ solve(d, pencil.l1[n:, :n]))
    real = lam.real[(lam.imag == 0.0) & (lam.real > 0.0)]
    if real.size == 0:
        raise SpectralBracketError("no real eigenvalue crosses zero at any Ra > 0")
    rayleigh = 1.0 / float(np.max(real))
    spectrum = _spectrum(pencil, rayleigh)
    growth = float(np.max(spectrum.real))
    if growth > 1e-8 * float(np.max(np.abs(spectrum))):
        raise SpectralBracketError(
            f"oscillatory onset: growth rate is {growth:.3e} at the first real "
            f"crossing Ra = {rayleigh:.6e}"
        )
    return rayleigh
