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

Each block integrates operator rows of `projection._operators`, read by name,
with psi and tau standing for their whole families. The oracle instantiates
the same rows on three modes, so the N = 1 pencil reproduces the reduced onset
by construction. Every integrand is an x-factor times a z-factor,
both integrated exactly. In x, d^dx phi[p, m] is +-(2 pi m/l)^dx times a cos/sin
line, whose Gram matrix over a period is the identity. In z, vertical mode k
is sqrt(2) Im exp(c_k z) with c_k = -beta/2 + i pi k, so its d-th derivative
is sqrt(2) Im(c_k^d exp(c_k z)). Entry (i, j) of a block with weight exp(w beta z)
and summed term polynomial p(c) = sum_d by_dz[d] c^d is Re[p(c_j) K_w[i, j]], where

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

from . import projection
from .basis import fourier_factor
from .params import PhysicalParams

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
    sqrt(Ra) factor applied to l1 later. Overflowing entries raise ValueError.
    """
    if n_modes < 1 or m < 1:
        raise ValueError("need n_modes >= 1 and m >= 1")
    blocks = _assemble_matrices(params, m, n_modes)
    if not all(np.isfinite(block).all() for block in blocks.values()):
        raise ValueError(f"pencil entries are not finite at beta = {params.beta}")
    return LinearOperatorPencil(params=params, m=m, n_modes=n_modes, **blocks)


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
    numerator[:, diagonal, diagonal] = [[projection.expm1_over(-beta)], [1.0],
                                        [projection.expm1_over(beta)]]
    return numerator / s1 * ((2j * np.pi) * i / (a + 1j * np.pi * (j + i)))


@np.errstate(over="ignore", invalid="ignore")  # assemble_pencil rejects inf and nan
def _assemble_matrices(params, m, n):
    beta, pr, length = params.beta, params.prandtl, params.length
    # powers[d, k - 1] = c_k^d; kernels[w] integrates against the weight exp(w*beta*z)
    powers = (-0.5 * beta + 1j * np.pi * np.arange(1, n + 1)) ** np.arange(5)[:, None]
    kernels = _kernels(beta, n)
    operators = projection._operators(beta)
    parity = {"psi": -1, "tau": +1}  # the families the fields expand in
    scale = {"gamma": params.gamma * np.float64(beta) ** 2}  # as the oracle's gamma-term

    def block(*names):
        # [i, j] sums the named operators (times their scale) on test_i and trial member j;
        # d^dx phi[field] = factor * phi[parity], orthonormal to phi[test] unless equal
        by_dz = np.zeros(5)
        for name in names:
            test, weight, terms = operators[name]
            for c, ((field, dx, dz),) in terms:
                factor, flipped = fourier_factor(parity[field], m, length, dx)
                if flipped == parity[test]:
                    by_dz[dz] += scale.get(name, 1.0) * c * factor
        return (np.dot(by_dz, powers) * kernels[weight]).real

    # vorticity rows: time-derivative projections are diagonal by weighted
    # orthonormality; normalize each row by its diagonal entry
    rows = pr / np.diag(block("vorticity time derivative"))[:, None]
    mass, l0, l1 = np.eye(2 * n), np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    l0[:n, :n] = rows * block("vorticity diffusion", "gamma")
    l1[:n, n:] = rows * block("buoyancy")
    mass[n:, n:] = block("temperature time derivative")
    l0[n:, n:] = block("temperature diffusion")
    l1[n:, :n] = block("source")
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
