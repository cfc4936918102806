"""N-mode linear stability of the conducting state, validating the reduction.

The linearized equations couple one streamfunction parity family to one
temperature parity family (each coupling term carries exactly one horizontal
derivative, which flips parity, so the complementary pair is a mirror copy).
Expanding

    psi = sum_n x_n(t) * psi[-1, m, n],   tau = sum_n y_n(t) * psi[+1, m, n]

and projecting gives a generalized eigenproblem M xi' = L(Ra) xi on the
stacked vector xi = (x_1..x_N, y_1..y_N), with the N x N blocks A, B, C, D, G in

    M      = blockdiag(I, G); the vorticity rows are normalized by their
             diagonal time-derivative projection, and G is the unweighted
             Gram matrix of the temperature modes (identity at beta = 0)
    L(Ra)  = [[A, sqrt(Ra) B], [sqrt(Ra) C, D]], where A and D hold the
             diffusion and B and C the buoyancy and source couplings

Each block integrates operator rows of `projection._operators`, read by name,
with psi and tau standing for their whole families; the weight powers and the
highest z-derivative come from the same rows. The oracle instantiates them on
three modes, so the N = 1 pencil reproduces the reduced onset by construction.
Every integrand is an x-factor times a z-factor, both integrated exactly. In x,
d^dx phi[p, m] is +-(2 pi m/l)^dx times a cos/sin line, whose Gram matrix over
a period is the identity. In z, vertical mode k is sqrt(2) Im exp(c_k z) with
c_k = -beta/2 + i pi k, so its d-th derivative is sqrt(2) Im(c_k^d exp(c_k z)).
Entry (i, j) of a block with weight exp(w beta z) and summed term polynomial
p(c) = sum_d by_dz[d] c^d is Re[p(c_j) K_w[i, j]], where, for each w the rows use,

    K_w[i, j] = (sigma e^a - 1) * 2j pi i / (s1 * s2),
    a = (w - 1) beta, sigma = (-1)^(i + j), s1 = a + 1j pi (j - i),
    s2 = a + 1j pi (j + i),

and (e^a - 1)/s1 is expm1_over(a) on the diagonal. No quadrature enters, so the
pencil's only error is rounding. Ra enters only the coupling blocks B and C, so
the onset is an N x N eigenproblem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import projection
from .basis import _check_label, _fourier_factor
from .params import InadmissibleError, PhysicalParams, _check_real

__all__ = [
    "LinearOperatorPencil",
    "assemble_pencil",
    "leading_growth_rate",
    "critical_rayleigh_spectral",
]


@dataclass(frozen=True)
class LinearOperatorPencil:
    """The N x N blocks A, B, C, D and G of the module docstring, as fields a, b,
    c, d and g: M = blockdiag(I, G) and L(Ra) = [[A, sqrt(Ra) B], [sqrt(Ra) C, D]]."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    g: np.ndarray


def assemble_pencil(
    params: PhysicalParams,
    m: int = 1,
    n_modes: int = 4,
) -> LinearOperatorPencil:
    """Project the linearized equations onto n_modes vertical modes.

    The Rayleigh number of `params` is ignored; it enters only through the
    sqrt(Ra) factor applied to b and c later. An ArgumentError names m or n_modes
    unless psi[-1, m, n_modes] is a mode, that is both are integers >= 1;
    overflowing entries raise InadmissibleError.
    """
    _check_label(-1, m, n_modes)
    blocks = _assemble_matrices(params, m, n_modes)
    if not all(np.isfinite(block).all() for block in blocks.values()):
        raise InadmissibleError(f"pencil entries are not finite at beta = {params.beta}, "
                                f"l = {params.length}")
    return LinearOperatorPencil(**blocks)


def _kernels(beta, n, weights):
    """K_w of the module docstring on modes 1..n for each weight power w in
    `weights`, keyed by w. The product 1/(s1 * s2) avoids the cancellation of
    1/s1 - 1/s2, and expm1_over keeps the diagonal finite as a -> 0."""
    weights = sorted(weights)
    a = np.array([(w - 1) * beta for w in weights], dtype=float)[:, None, None]
    i = np.arange(1, n + 1)[:, None]
    j, diagonal = i.T, np.arange(n)
    s1 = a + 1j * np.pi * (j - i)
    numerator = np.where((i + j) % 2 == 0, np.expm1(a), -(np.exp(a) + 1.0))
    s1[:, diagonal, diagonal] = 1.0
    numerator[:, diagonal, diagonal] = [[projection.expm1_over((w - 1) * beta)] for w in weights]
    return dict(zip(weights, numerator / s1 * (2j * np.pi * i / (a + 1j * np.pi * (j + i)))))


@np.errstate(over="ignore", invalid="ignore")  # assemble_pencil rejects inf and nan
def _assemble_matrices(params, m, n):
    beta, pr, length = params.beta, params.prandtl, params.length
    operators = projection._operators(beta)
    declared = operators.values()
    # powers[d, k - 1] = c_k^d to the rows' top z-derivative; kernels[w] for each w they use
    top = max(dz for _, _, terms in declared for _, factors in terms for _, _, dz in factors)
    powers = (-0.5 * beta + 1j * np.pi * np.arange(1, n + 1)) ** np.arange(top + 1)[:, None]
    kernels = _kernels(beta, n, {w for _, w, _ in declared})
    parity = {"psi": -1, "tau": +1}  # the families the fields expand in
    scale = {"gamma": params.gamma * np.float64(beta) ** 2}  # as the oracle's gamma-term

    def block(*names):
        # [i, j] sums the named operators (times their scale) on test_i and trial member j;
        # d^dx phi[field] = factor * phi[parity], orthonormal to phi[test] unless equal
        by_dz = np.zeros(len(powers))
        for name in names:
            test, weight, terms = operators[name]
            for c, ((field, dx, dz),) in terms:
                factor, flipped = _fourier_factor(parity[field], m, length, dx)
                if flipped == parity[test]:
                    by_dz[dz] += scale.get(name, 1.0) * c * factor
        return (np.dot(by_dz, powers) * kernels[weight]).real

    # vorticity rows: time-derivative projections are diagonal by weighted
    # orthonormality; normalize each row by its diagonal entry
    rows = pr / np.diag(block("vorticity time derivative"))[:, None]
    return {"a": rows * block("vorticity diffusion", "gamma"), "b": rows * block("buoyancy"),
            "c": block("source"), "d": block("temperature diffusion"),
            "g": block("temperature time derivative")}


def _solve(pencil, name, rhs, head):
    """Block `name` (a, d or g) of the pencil solved against rhs; where it is
    singular, InadmissibleError says so after `head`."""
    try:
        return np.linalg.solve(getattr(pencil, name), rhs)
    except np.linalg.LinAlgError:
        raise InadmissibleError(head + f"block {name.upper()} is singular") from None


def _spectrum(pencil, rayleigh, head):
    """The 2N eigenvalues of M^-1 L(Ra) = [[A, sqrt(Ra) B], [G^-1 sqrt(Ra) C, G^-1 D]],
    the one place the blocks are stacked, and G^-1 D, from one N x N solve of G."""
    root = math.sqrt(rayleigh)
    lower = _solve(pencil, "g", np.hstack((root * pencil.c, pencil.d)), head)
    stacked = np.vstack((np.hstack((pencil.a, root * pencil.b)), lower))
    return np.linalg.eigvals(stacked), lower[:, len(pencil.d):]


def leading_growth_rate(pencil: LinearOperatorPencil, rayleigh: float) -> float:
    """Maximum real part over the 2N generalized eigenvalues at this Ra.
    Raises InadmissibleError, naming N, where G is singular."""
    rayleigh = _check_real("rayleigh", rayleigh, ">= 0")
    head = f"no growth rate at N = {len(pencil.g)}: "
    return float(np.max(_spectrum(pencil, rayleigh, head)[0].real))


def critical_rayleigh_spectral(
    params: PhysicalParams,
    m: int = 1,
    n_modes: int = 1,
) -> float:
    """Rayleigh number where the truncated system's growth rate first crosses zero.

    With the blocks of `LinearOperatorPencil`, the rest state is stable when
    eig(A) and eig(G^-1 D) have negative real parts, and L(Ra) is singular where
    1/Ra is an eigenvalue of A^-1 B D^-1 C; the onset is Ra = 1/lambda for the
    largest positive real eigenvalue lambda.
    Raises InadmissibleError, naming beta, l and N, when A, D or G is singular,
    when the rest state is not stable at Ra = 0, when no positive real lambda
    exists, or when the growth rate at the result is positive beyond roundoff,
    i.e. an oscillatory mode crossed first.
    """
    p, eigvals = assemble_pencil(params, m, n_modes), np.linalg.eigvals
    head = f"no stationary onset at beta = {params.beta}, l = {params.length}, N = {n_modes}: "
    lam = eigvals(_solve(p, "a", p.b, head) @ _solve(p, "d", p.c, head))
    real = lam.real[(lam.imag == 0.0) & (lam.real > 0.0)]
    # G^-1 D comes from the one solve of G, at the crossing (at Ra = 0 without one)
    rayleigh = 1.0 / float(np.max(real)) if real.size else 0.0
    spectrum, decay = _spectrum(p, rayleigh, head)
    if max(eigvals(p.a).real.max(), eigvals(decay).real.max()) >= 0.0:
        raise InadmissibleError(head + "growth rate at Ra = 0 is not negative")
    if real.size == 0:
        raise InadmissibleError(head + "no real eigenvalue crosses zero at any Ra > 0")
    growth = float(np.max(spectrum.real))
    if growth > 1e-8 * float(np.max(np.abs(spectrum))):
        raise InadmissibleError(head + f"oscillatory onset: growth rate is {growth:.3e} "
                                f"at the first real crossing Ra = {rayleigh:.6e}")
    return rayleigh
