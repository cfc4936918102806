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
times a z-factor, and both integrals are exact. In x, d^dx phi[p, m] is
+-(2 pi m/l)^dx times a cos/sin line, and the Gram matrix of those lines over
a period is the identity. In z, vertical mode k is sqrt(2) Im exp(c_k z) with
c_k = -beta/2 + i pi k, so its d-th derivative is sqrt(2) Im(c_k^d exp(c_k z)).
Entry (i, j) of a block with weight exp(w beta z) and summed term polynomial
p(c) = sum_d by_dz[d] c^d is then Re[p(c_j) K_w[i, j]], where

    K_w[i, j] = (sigma e^a - 1) * 2j pi i / (s1 * s2),
    a = (w - 1) beta, sigma = (-1)^(i + j), s1 = a + 1j pi (j - i),
    s2 = a + 1j pi (j + i),

and (e^a - 1)/s1 is expm1_over(a) on the diagonal. No quadrature enters, so the
pencil's only error is rounding. L0 is block diagonal and L1 only couples the
families, so the onset is an N x N eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import fourier_factor, vorticity_diffusion_terms
from .params import PhysicalParams
from .projection import expm1_over

__all__ = [
    "LinearOperatorPencil",
    "SpectralBracketError",
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


def assemble_pencil(
    params: PhysicalParams,
    m: int = 1,
    n_modes: int = 4,
) -> LinearOperatorPencil:
    """Project the linearized equations onto n_modes vertical modes.

    The Rayleigh number of `params` is ignored; it enters only through the
    sqrt(Ra) factor applied to l1 later.
    """
    if n_modes < 1 or m < 1:
        raise ValueError("need n_modes >= 1 and m >= 1")
    return LinearOperatorPencil(params=params, m=m, n_modes=n_modes,
                                **_assemble_matrices(params, m, n_modes))


def _kernels(beta, n):
    """K_w of the module docstring for w = 0, 1, 2 (stacked) and modes 1..n. The
    product 1/(s1 * s2) avoids the cancellation of 1/s1 - 1/s2, and expm1_over
    keeps the diagonal finite as a -> 0."""
    a = np.array([-beta, 0.0, beta])[:, None, None]
    i = np.arange(1, n + 1)[:, None]
    j, diagonal = i.T, np.arange(n)
    s1 = a + 1j * np.pi * (j - i)
    numerator = np.where((i + j) % 2 == 0, np.expm1(a), -(np.exp(a) + 1.0))
    s1[:, diagonal, diagonal] = 1.0
    numerator[:, diagonal, diagonal] = [[expm1_over(-beta)], [1.0], [expm1_over(beta)]]
    return numerator / s1 * ((2j * np.pi) * i / (a + 1j * np.pi * (j + i)))


def _assemble_matrices(params, m, n):
    beta, pr, length = params.beta, params.prandtl, params.length
    # powers[d, k - 1] = c_k^d; kernels[w] integrates against the weight exp(w*beta*z)
    powers = (-0.5 * beta + 1j * np.pi * np.arange(1, n + 1)) ** np.arange(5)[:, None]
    kernels = _kernels(beta, n)

    def block(terms, weight, trial, test):
        # [i, j] = sum of c * int exp(weight*beta*z) d^dx d^dz trial_j * test_i, with
        # d^dx phi[trial] = factor * phi[parity], orthonormal to phi[test] unless equal
        by_dz = np.zeros(5)
        for c, dx, dz in terms:
            factor, parity = fourier_factor(trial, m, length, dx)
            if parity == test:
                by_dz[dz] += c * factor
        return (np.dot(by_dz, powers) * kernels[weight]).real

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
    pencil = assemble_pencil(params, m, n_modes)
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
