"""Property test of the scaling equivalence over criterion 7's box: a reduced
run mapped onto Lorenz coordinates follows the Lorenz run from the mapped
start.

It adds to criterion 7's ten seeded points and replaces none. Draws are
derandomized, so every run checks the same examples.
"""

from statistics import NormalDist

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from anelor.dynamics import integrate_lorenz, integrate_reduced, map_trajectory  # noqa: E402
from anelor.lorenz import critical_rayleigh, scale_to_lorenz  # noqa: E402
from anelor.params import PhysicalParams  # noqa: E402
from anelor.projection import closed_form_coefficients  # noqa: E402

# N(0, 0.5) per component, as criterion 7 draws its starts, cut at 3.7 sigma
NORMAL = st.floats(1e-4, 1.0 - 1e-4).map(NormalDist(0.0, 0.5).inv_cdf)


# The gap is integration error of two runs at rtol = atol = 1e-10; the step
# control is relative to |state| above 1, so the bound is criterion 7's 1e-6
# times max(1, max |state|). The example is the worst point met so far: a gap
# of 1.104e-6 at max |state| 3.52.
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(beta=st.floats(0.0, 1.0), prandtl=st.floats(0.7, 20.0),
       gamma=st.floats(1.0 / 3.0, 2.0), length=st.floats(2.0, 4.0), r=st.floats(0.05, 5.0),
       initial=st.tuples(NORMAL, NORMAL, NORMAL))
@example(beta=0.9830080806406726, prandtl=12.429078629191148, gamma=0.8924909267458607,
         length=2.2914186736705453, r=3.6726046667225707,
         initial=(-0.6623559971137502, 0.4486617969782298, 0.19843653525081675))
def test_mapped_reduced_run_matches_the_direct_lorenz_run(beta, prandtl, gamma, length, r,
                                                          initial):
    params = PhysicalParams(beta=beta, prandtl=prandtl, gamma=gamma, length=length)
    coeffs = closed_form_coefficients(
        params.with_rayleigh(r * critical_rayleigh(params, "closed_form")))
    lorenz, scaling = scale_to_lorenz(coeffs)
    s_grid = np.linspace(0.0, 20.0, 801)
    reduced = integrate_reduced(coeffs, initial, 20.0 / scaling.d, rtol=1e-10, atol=1e-10,
                                t_eval=s_grid / scaling.d)
    direct = integrate_lorenz(lorenz, scaling.apply(np.asarray(initial)), 20.0, rtol=1e-10,
                              atol=1e-10, t_eval=s_grid)
    gap = np.max(np.abs(map_trajectory(reduced, scaling).states - direct.states))
    assert gap <= 1e-6 * max(1.0, np.max(np.abs(direct.states)))
