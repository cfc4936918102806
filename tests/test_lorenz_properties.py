"""Property tests of the reduced onset. At a fixed width Ra*(beta) rises with
beta, over the range where it does; minimized over the width, no nearby or
distant width gives a lower onset.

Past beta = 5.4 the first need not hold: on a dense scan of the box the closed
form first falls at beta = 5.463, at l = 10 and gamma = 1/3. Draws are
derandomized, so every run checks the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from anelor.lorenz import critical_rayleigh, minimize_over_length  # noqa: E402
from anelor.params import PhysicalParams  # noqa: E402

BETA = st.floats(0.0, 5.4)


# a gap of 1e-6 in beta moves Ra* by at least 6e-8 relative on the box, far
# above rounding
@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(betas=st.tuples(BETA, BETA), length=st.floats(0.5, 10.0),
       gamma=st.floats(1.0 / 3.0, 3.0))
def test_the_reduced_onset_rises_with_beta_at_a_fixed_width(betas, length, gamma):
    low, high = sorted(betas)
    assume(high - low >= 1e-6)
    onset = [critical_rayleigh(PhysicalParams(beta=beta, length=length, gamma=gamma),
                               "closed_form") for beta in (low, high)]
    assert onset[1] > onset[0]


# a relative step of 1e-4 in l raises Ra* by at least 4e-9 relative on the box,
# far above rounding
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(beta=st.floats(0.0, 6.25), gamma=st.floats(1.0 / 3.0, 3.0))
def test_no_other_width_gives_a_lower_onset(beta, gamma):
    optimum = minimize_over_length(beta=beta, gamma=gamma)
    for step in (1e-4, 0.1):
        for length in (optimum.length * (1.0 - step), optimum.length * (1.0 + step)):
            params = PhysicalParams(beta=beta, gamma=gamma, length=length)
            assert optimum.rayleigh <= critical_rayleigh(params, "closed_form")
