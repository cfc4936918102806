"""Property test of the stabilization claim: at a fixed width the reduced
onset Ra*(beta) rises with beta, over the range where it does.

Past beta = 5.4 it need not: on a dense scan of the box the closed form first
falls at beta = 5.463, at l = 10 and gamma = 1/3. Draws are derandomized, so
every run checks the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from anelor.lorenz import critical_rayleigh  # noqa: E402
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
