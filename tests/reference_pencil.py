"""Reference N-mode pencil blocks, built entry by entry from their defining integrals.

With s_k(z) = sqrt(2) sin(k pi z) exp(-beta z / 2) the vertical mode k, every
entry of the m = 1 pencil is a sum of x-factors times

    I(w, d)[i - 1, j - 1] = int_0^1 exp(w beta z) s_j^(d)(z) s_i(z) dz.

The x-integrals over a period are written out by hand here (d/dx sin = k cos,
d/dx cos = -k sin with k = 2 pi / l, and the normalized lines are orthonormal),
so the blocks depend on anelor only through the parameters. `reference_blocks`
works on float arrays and on object arrays of mpmath numbers alike.
"""

import math

import numpy as np

BLOCKS = ("l0_psi_psi", "l1_psi_tau", "mass_tau_tau", "l0_tau_tau", "l1_tau_psi")


def pencil_blocks(pencil):
    """The five nonzero, non-identity blocks of an assembled pencil, by name."""
    n = pencil.n_modes
    psi, tau = slice(0, n), slice(n, 2 * n)
    return dict(zip(BLOCKS, (pencil.l0[psi, psi], pencil.l1[psi, tau],
                             pencil.mass[tau, tau], pencil.l0[tau, tau],
                             pencil.l1[tau, psi])))


def reference_blocks(params, integral, pi=math.pi):
    """Blocks named as in BLOCKS from integral(w, d) = I(w, d) as an n x n array."""
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
        "l0_psi_psi": pr * diffusion / norm,
        "l1_psi_tau": pr * k * i1[0] / norm,
        "mass_tau_tau": integral(0, 0),
        "l0_tau_tau": i1[2] - k2 * i1[0],
        "l1_tau_psi": k * i1[0],
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


def max_block_deviation(actual, expected):
    """Largest |actual - expected| over each block, in units of the block's scale."""
    return max(float(np.max(np.abs(actual[name] - expected[name]))
                     / np.max(np.abs(expected[name]))) for name in BLOCKS)
