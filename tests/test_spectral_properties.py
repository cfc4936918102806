"""Property tests of the N-mode pencil and the coefficient routes over the
onset_scan parameter box.

They add to the fixed-point tests in test_spectral.py and replace none. Draws
are derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from anelor.cli import ROUTE_GATE  # noqa: E402
from anelor.lorenz import critical_rayleigh  # noqa: E402
from anelor.params import PhysicalParams  # noqa: E402
from anelor.projection import closed_form_coefficients, oracle_coefficients  # noqa: E402
from anelor.spectral import assemble_pencil, critical_rayleigh_spectral  # noqa: E402
from reference_pencil import stacked, tensor_grid_blocks  # noqa: E402
from test_projection import rel_dev  # noqa: E402

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


@box_settings(30)
@given(params=BOX, n_modes=MODES)
def test_pencil_matches_the_tensor_grid_sum_on_the_box(params, n_modes):
    pencil = assemble_pencil(params, n_modes=n_modes)
    for name, expected in tensor_grid_blocks(params, n_modes).items():
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(getattr(pencil, name) - expected)) <= 1e-12 * scale, name


def full_pencil_onset(pencil):
    """Onset from the 2N x 2N problem: s = 1/mu, mu the largest positive real
    eigenvalue of -L0^-1 L1."""
    _, l0, l1 = stacked(pencil)
    mu = np.linalg.eigvals(-np.linalg.solve(l0, l1))
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


@box_settings(30)
@given(params=BOX)
def test_oracle_matches_the_closed_form_on_the_box(params):
    oracle = oracle_coefficients(params).as_array()
    closed = closed_form_coefficients(params).as_array()
    assert np.max(rel_dev(oracle, closed)) <= 1e-12
