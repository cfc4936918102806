"""The domain edges of the reduction: every entry point gives a finite,
positive answer or raises InadmissibleError, naming beta and l, and a malformed
argument raises ArgumentError there, never InadmissibleError.

The onset needs only e4 < 0; the Lorenz map also needs e7 < 0 and e3*e6 < 0,
so an onset is never rejected where only the map fails. Draws are
derandomized, so every run checks the same examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from anelor.cli import ROUTE_GATE, main  # noqa: E402
from anelor.lorenz import (  # noqa: E402
    critical_rayleigh,
    minimize_over_length,
    scale_to_lorenz,
)
from anelor.params import ArgumentError, InadmissibleError, PhysicalParams  # noqa: E402
from anelor.projection import coefficients  # noqa: E402
from anelor.spectral import (  # noqa: E402
    assemble_pencil,
    critical_rayleigh_spectral,
    leading_growth_rate,
)


def lorenz_parameters(params, source):
    lorenz, _ = scale_to_lorenz(coefficients(params, source))
    return min(lorenz.sigma, lorenz.delta, lorenz.r)


# each entry point takes its route's own argument, a source or a truncation, second
ENTRY_POINTS = {
    "onset_closed_form": lambda params, source="closed_form": critical_rayleigh(params, source),
    "onset_oracle": lambda params, source="oracle": critical_rayleigh(params, source),
    "onset_published": lambda params, source="published": critical_rayleigh(params, source),
    "pencil_n1": lambda params, n_modes=1: critical_rayleigh_spectral(params, n_modes=n_modes),
    "pencil_n2": lambda params, n_modes=2: critical_rayleigh_spectral(params, n_modes=n_modes),
    "map_closed_form": lambda params, source="closed_form": lorenz_parameters(params, source),
    "map_oracle": lambda params, source="oracle": lorenz_parameters(params, source),
    "map_published": lambda params, source="published": lorenz_parameters(params, source),
}


EDGES = [(7.75, 2.0 * math.sqrt(2.0)), (0.0, 1e300)]


# at l = 2 sqrt(2), e4 > 0 from beta = 7.75, where the N = 2 pencil still has an
# onset; at l = 1e300, e2 and e5 underflow and e3 * e6 = 0.0 * -0.0
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta, length, route", [
    (beta, length, route) for beta, length in EDGES for route in ENTRY_POINTS
    if (route, beta) != ("pencil_n2", 7.75)])
def test_every_entry_point_rejects_the_edge_with_one_type(beta, length, route):
    with pytest.raises(InadmissibleError) as excinfo:
        ENTRY_POINTS[route](PhysicalParams(beta=beta, length=length, rayleigh=1000.0))
    assert f"beta = {beta}, l = {length}" in str(excinfo.value)


# a malformed route argument is rejected before any computation, so even at an edge it
# raises ArgumentError, never InadmissibleError
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta, length", [(0.0, 2.0 * math.sqrt(2.0)), *EDGES])
@pytest.mark.parametrize("route", ENTRY_POINTS)
@pytest.mark.parametrize("malformed", [True, "0.5", -1])
def test_every_entry_point_rejects_a_malformed_argument_as_such(beta, length, route, malformed):
    params = PhysicalParams(beta=beta, length=length, rayleigh=1000.0)
    with pytest.raises(ArgumentError) as excinfo:
        ENTRY_POINTS[route](params, malformed)
    assert not isinstance(excinfo.value, InadmissibleError)
    assert str(malformed) in str(excinfo.value)  # the message names the value


# e1 = Pr * (diffusion) / (vorticity Gram factor) overflows at the largest Prandtl
# numbers; the coefficient routes also name Pr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", ENTRY_POINTS)
def test_every_entry_point_rejects_an_overflowing_prandtl_number(route):
    params = PhysicalParams(prandtl=1e308, rayleigh=1000.0)
    with pytest.raises(InadmissibleError) as excinfo:
        ENTRY_POINTS[route](params)
    message = str(excinfo.value)
    assert f"beta = 0.0, l = {params.length}" in message
    assert route.startswith("pencil") or f"l = {params.length}, Pr = 1e+308" in message


# a numpy scalar is stored as a Python float, whose overflow raises the typed
# error where numpy's would only warn
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_numpy_prandtl_number_overflows_into_the_typed_error():
    params = PhysicalParams(prandtl=np.float64(9.92e158), rayleigh=1e300)
    assert type(params.prandtl) is float
    with pytest.raises(InadmissibleError, match=r"Pr = 9\.92e\+158"):
        coefficients(params, "closed_form")


def outcome(route, params):
    """The entry point's value, checked finite and positive, or None where it
    raises InadmissibleError; any other exception fails the test."""
    try:
        value = ENTRY_POINTS[route](params)
    except InadmissibleError:
        return None
    assert math.isfinite(value) and value > 0.0, route
    return value


BOX = st.builds(
    PhysicalParams,
    beta=st.floats(0.0, 30.0),
    prandtl=st.floats(0.5, 50.0),
    rayleigh=st.just(1000.0),
    gamma=st.floats(1.0 / 3.0, 3.0),
    length=st.floats(math.log(0.05), math.log(20.0)).map(math.exp),
)


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(params=BOX)
def test_the_box_across_the_edges_gives_answers_or_inadmissible(params):
    results = {route: outcome(route, params) for route in (
        "onset_closed_form", "onset_oracle", "pencil_n1", "pencil_n2", "map_closed_form")}
    if results["map_closed_form"] is not None:  # the map's domain lies inside the onset's
        assert results["onset_closed_form"] is not None


@pytest.mark.parametrize("beta, length, onset", [
    (9.0, 1.0, 2.67547e6), (13.0, 1.0, 2.77593e7), (10.0, 0.5, 4.17193e7),
    (20.0, 0.05, 5.79779e14)])
def test_only_the_map_rejects_where_e3_e6_or_e7_change_sign(beta, length, onset):
    params = PhysicalParams(beta=beta, length=length, rayleigh=1000.0)
    reduced = critical_rayleigh(params, "closed_form")
    assert reduced == pytest.approx(onset, rel=5e-6)
    assert abs(critical_rayleigh_spectral(params, n_modes=1) - reduced) <= ROUTE_GATE * reduced
    with pytest.raises(InadmissibleError, match=r"^no Lorenz map at beta = "):
        scale_to_lorenz(coefficients(params, "closed_form"))


@pytest.mark.filterwarnings("error")
def test_a_singular_gram_block_is_inadmissible():
    # cond(G) is 3.2e17 here, and LU meets an exactly zero pivot
    params = PhysicalParams(beta=475.22021508892465, length=6.535862772964041)
    with pytest.raises(InadmissibleError, match=r"^no stationary onset at beta = "
                       r"475\.22021508892465, l = 6\.535862772964041, N = 8: block G is singular$"):
        critical_rayleigh_spectral(params, m=2, n_modes=8)
    # the growth rate has no beta or l to name, and G is singular at any Ra
    pencil = assemble_pencil(params, m=2, n_modes=8)
    for rayleigh in (0.0, 1000.0):
        with pytest.raises(InadmissibleError, match=r"^no growth rate at N = 8: block G is "
                           r"singular$"):
            leading_growth_rate(pencil, rayleigh)


@pytest.mark.filterwarnings("error")
def test_an_underflowed_coupling_is_inadmissible(capsys):
    # at l = 1e300 the oracle's buoyancy and source integrals are exactly 0, against
    # the closed form's 2 pi sqrt(Ra)/l = 2.0e-298; at Ra = 0 they are 0 by design
    params = PhysicalParams(length=1e300, rayleigh=1000.0)
    with pytest.raises(InadmissibleError, match=r"^the buoyancy or source coupling underflows "
                       r"to 0 at beta = 0\.0, l = 1e\+300$"):
        coefficients(params, "oracle")
    assert coefficients(params.with_rayleigh(0.0), "oracle").e2 == 0.0
    assert main(["coeffs", "--l", "1e300", "--ra", "1000"]) == 1
    assert capsys.readouterr() == ("", "anelor: the buoyancy or source coupling underflows "
                                       "to 0 at beta = 0.0, l = 1e+300\n")
    assert main(["coeffs", "--l", "1e300", "--ra", "0", "--quiet"]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source", ["closed_form", "oracle"])
def test_an_overflowing_onset_is_inadmissible(capsys, source):
    # at gamma = 1e308, r grows so slowly with Ra that Ra* = 1/rate passes the
    # largest float; the width minimum, l* = 1.1e77 at beta = 1, lies there too
    params = PhysicalParams(beta=1.0, gamma=1e308, length=1e70)
    with pytest.raises(InadmissibleError, match=r"^no finite onset at beta = 1\.0, l = 1e\+70: "
                       r"r grows at rate .* per unit Ra, so Ra\* overflows$"):
        critical_rayleigh(params, source)
    assert main(["critical", "--optimize-l", "--gamma", "1e308", "--beta", "1",
                 "--source", source]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("anelor: no finite onset at beta = 1.0, l = 1.12")


@pytest.mark.filterwarnings("error")
def test_an_overflowing_width_minimum_is_inadmissible(capsys):
    # at beta = 6 the minimizing width passes the largest float from gamma about
    # 5e306, before any onset is evaluated
    message = ("no finite width minimizes Ra* at beta = 6.0, gamma = 1e+308: "
               "the minimizing width overflows")
    with pytest.raises(InadmissibleError) as excinfo:
        minimize_over_length(beta=6.0, gamma=1e308, source="closed_form")
    assert str(excinfo.value) == message
    assert main(["critical", "--optimize-l", "--gamma", "1e308", "--beta", "6",
                 "--source", "closed_form"]) == 1
    assert capsys.readouterr() == ("", f"anelor: {message}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source", ["closed_form", "oracle"])
@pytest.mark.parametrize("prandtl", [10.0, 1e-200])
def test_a_non_finite_lorenz_map_is_inadmissible(capsys, source, prandtl):
    # at Ra = 1e308 every coefficient is finite, but r = e2*e5/(e1*e4) overflows;
    # at Pr = 1e-200, e1^2 * e4^2 also underflows to 0 under b
    params = PhysicalParams(prandtl=prandtl, rayleigh=1e308)
    message = (f"no Lorenz map at beta = 0.0, l = {params.length}, Ra = 1e+308: "
               "the Lorenz parameters or the scaling are not finite")
    with pytest.raises(InadmissibleError) as excinfo:
        scale_to_lorenz(coefficients(params, source))
    assert str(excinfo.value) == message
    argv = ["simulate", "--ra", "1e308", "--pr", repr(prandtl), "--source", source]
    assert main([*argv, "--samples", "3", "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"anelor: {message}\n")
