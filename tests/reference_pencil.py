"""Reference N-mode pencil blocks, named as the fields of `LinearOperatorPencil`.

With s_k(z) = sqrt(2) sin(k pi z) exp(-beta z / 2) the vertical mode k, every
entry of the m = 1 pencil is a sum of x-factors times

    I(w, d)[i - 1, j - 1] = int_0^1 exp(w beta z) s_j^(d)(z) s_i(z) dz.

`reference_blocks` writes the x-integrals over a period out by hand (d/dx sin =
k cos, d/dx cos = -k sin with k = 2 pi / l, and the normalized lines are
orthonormal), so its blocks depend on anelor only through the parameters; it
works on float arrays and on object arrays of mpmath numbers alike.
`tensor_grid_blocks` instead sums every entry on a 2D tensor grid of anelor's
`ModeGrid` partials.
"""

import math

import numpy as np

from anelor.basis import ModeGrid, ModeIndex, QuadratureRule

BLOCKS = ("a", "b", "c", "d", "g")
# block -> its key in data/pencil_beta13_n8.json, in the file's order
FILE_KEYS = {"a": "l0_psi_psi", "b": "l1_psi_tau", "g": "mass_tau_tau",
             "d": "l0_tau_tau", "c": "l1_tau_psi"}


def stacked(pencil):
    """M, L0 and L1 of the 2N x 2N system M x' = (L0 + sqrt(Ra) L1) x."""
    zero = np.zeros_like(pencil.g)
    return (np.block([[np.eye(len(zero)), zero], [zero, pencil.g]]),
            np.block([[pencil.a, zero], [zero, pencil.d]]),
            np.block([[zero, pencil.b], [pencil.c, zero]]))


def reference_blocks(params, integral, pi=math.pi):
    """The blocks from integral(w, d) = I(w, d) as an n x n array."""
    beta, pr, gamma = params.beta, params.prandtl, params.gamma
    k = 2 * pi / params.length
    k2 = k * k
    i1 = {d: integral(1, d) for d in (0, 1, 2)}
    i2 = {d: integral(2, d) for d in range(5)}
    # vorticity row normalization: -int exp(beta z) (Lap psi_i + beta psi_i,z) psi_i
    norm = np.diag(k2 * i1[0] - i1[2] - beta * i1[1])[:, None]
    # -int exp(2 beta z) exp(-beta z) Lap(exp(beta z) (Lap psi_j + 2 beta psi_j,z)) psi_i,
    # expanded, plus the bulk term gamma beta^2 int exp(2 beta z) psi_j,xx psi_i
    diffusion = -(k2 * k2 * i2[0] - 2 * k2 * i2[2] + i2[4]
                  + 4 * beta * (i2[3] - k2 * i2[1])
                  + beta**2 * (i2[2] - k2 * i2[0]) + 4 * beta**2 * i2[2]
                  + 2 * beta**3 * i2[1]) - gamma * beta**2 * k2 * i2[0]
    return {
        "a": pr * diffusion / norm,
        "b": pr * k * i1[0] / norm,
        "c": k * i1[0],
        "d": i1[2] - k2 * i1[0],
        "g": integral(0, 0),
    }


def quadrature_integral(beta, n, order):
    """integral(w, d) for reference_blocks by an order-point Gauss-Legendre rule in z,
    each mode derivative written as sqrt(2) Im(c^d exp(c z)), c = -beta/2 + i k pi."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    z, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    c = -0.5 * beta + 1j * math.pi * np.arange(1, n + 1)[:, None]
    waves = np.exp(c * z)
    test = math.sqrt(2.0) * waves.imag * weights

    def integral(w, d):
        trial = math.sqrt(2.0) * np.imag(c**d * waves)
        return (test * np.exp(w * beta * z)) @ trial.T

    return integral


def tensor_grid_blocks(params, n, order=64):
    """The blocks as 2D tensor-grid sums of ModeGrid partials on an order-point rule."""
    rule, beta = QuadratureRule(order, params.length), params.beta
    _, Z, W = rule.grid()
    Eb, E2 = np.exp(beta * Z), np.exp(2.0 * beta * Z)
    psi = [ModeGrid(ModeIndex(-1, 1, k), params, rule) for k in range(1, n + 1)]
    tau = [ModeGrid(ModeIndex(+1, 1, k), params, rule) for k in range(1, n + 1)]

    def fields(grids, field):
        return np.array([field(g) for g in grids])

    def project(trials, tests, weight):
        # [i, j] = sum over the grid of W * weight * trial_j * test_i
        return np.tensordot(tests * (W * weight), trials, axes=([1, 2], [1, 2]))

    def diffused(g):
        return -Eb * (
            g.partial(4, 0) + 2.0 * g.partial(2, 2) + g.partial(0, 4)
            + 4.0 * beta * (g.partial(2, 1) + g.partial(0, 3))
            + beta**2 * g.laplacian()
            + 4.0 * beta**2 * g.partial(0, 2)
            + 2.0 * beta**3 * g.partial(0, 1))

    psi0, tau0 = fields(psi, lambda g: g.partial()), fields(tau, lambda g: g.partial())
    vorticity = fields(psi, lambda g: -(g.laplacian() + beta * g.partial(0, 1)))
    rows = params.prandtl / np.diag(project(vorticity, psi0, Eb))[:, None]
    diffusion = (project(fields(psi, diffused), psi0, Eb)
                 + params.gamma * beta**2 * project(fields(psi, lambda g: g.partial(2, 0)),
                                                    psi0, E2))
    return {
        "a": rows * diffusion,
        "b": -rows * project(fields(tau, lambda g: g.partial(1, 0)), psi0, Eb),
        "c": project(fields(psi, lambda g: g.partial(1, 0)), tau0, Eb),
        "d": project(fields(tau, lambda g: g.laplacian()), tau0, Eb),
        "g": project(tau0, tau0, 1.0),
    }


def max_block_deviation(actual, expected):
    """Largest |actual - expected| over each block, in units of the block's scale."""
    return max(float(np.max(np.abs(actual[name] - expected[name]))
                     / np.max(np.abs(expected[name]))) for name in BLOCKS)
