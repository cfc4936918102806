"""Property tests of the N-mode pencil over the onset_scan parameter box.

They add to the fixed-point tests in test_spectral.py and replace none. Draws
are derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from anelor.basis import ModeGrid, ModeIndex, QuadratureRule  # noqa: E402
from anelor.cli import ROUTE_GATE  # noqa: E402
from anelor.lorenz import critical_rayleigh  # noqa: E402
from anelor.params import PhysicalParams  # noqa: E402
from anelor.spectral import assemble_pencil, critical_rayleigh_spectral  # noqa: E402

BOX = st.builds(
    PhysicalParams,
    beta=st.floats(0.0, 6.0),
    prandtl=st.floats(0.5, 50.0),
    rayleigh=st.just(1.0),
    gamma=st.floats(1.0 / 3.0, 3.0),
    length=st.floats(1.0, 8.0),
)
MODES = st.sampled_from([1, 2, 4, 8, 16])


def box_settings(examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)


def tensor_grid_pencil(params, n, rule):
    """Every pencil entry as a 2D tensor-grid sum over ModeGrid partials."""
    _, Z, W = rule.grid()
    beta = params.beta
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
    mass, l0, l1 = np.eye(2 * n), np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    l0[:n, :n] = rows * diffusion
    l1[:n, n:] = -rows * project(fields(tau, lambda g: g.partial(1, 0)), psi0, Eb)
    mass[n:, n:] = project(tau0, tau0, 1.0)
    l0[n:, n:] = project(fields(tau, lambda g: g.laplacian()), tau0, Eb)
    l1[n:, :n] = project(fields(psi, lambda g: g.partial(1, 0)), tau0, Eb)
    return {"mass": mass, "l0": l0, "l1": l1}


@box_settings(30)
@given(params=BOX, n_modes=MODES)
def test_pencil_matches_the_tensor_grid_sum_on_the_box(params, n_modes):
    rule = QuadratureRule(64, params.length)
    pencil = assemble_pencil(params, n_modes=n_modes)
    n = n_modes
    for name, expected in tensor_grid_pencil(params, n, rule).items():
        actual = getattr(pencil, name)
        for rows in (slice(0, n), slice(n, 2 * n)):
            for cols in (slice(0, n), slice(n, 2 * n)):
                block, ref = actual[rows, cols], expected[rows, cols]
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(block - ref)) <= 1e-12 * scale, (name, rows, cols)


def full_pencil_onset(pencil):
    """Onset from the 2N x 2N problem: s = 1/mu, mu the largest positive real
    eigenvalue of -L0^-1 L1."""
    mu = np.linalg.eigvals(-np.linalg.solve(pencil.l0, pencil.l1))
    return float(np.max(mu.real[(mu.imag == 0.0) & (mu.real > 0.0)])) ** -2


@box_settings(60)
@given(params=BOX, n_modes=MODES)
def test_crossing_equals_the_full_pencil_onset_on_the_box(params, n_modes):
    onset = critical_rayleigh_spectral(params, n_modes=n_modes)
    reference = full_pencil_onset(assemble_pencil(params, n_modes=n_modes))
    assert math.isfinite(onset)
    assert abs(onset - reference) <= 1e-12 * reference


@box_settings(30)
@given(params=BOX)
def test_single_mode_onset_matches_the_oracle_on_the_box(params):
    spectral = critical_rayleigh_spectral(params, n_modes=1)
    reduced = critical_rayleigh(params, "oracle")
    assert abs(spectral - reduced) / reduced <= ROUTE_GATE
