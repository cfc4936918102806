"""Property test of the command line: `validate`'s reduced column is the onset
`critical` prints at the m-th harmonic's width l/m, for every coefficient route
and quadrature order. Draws are derandomized, so every run checks the same
examples.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from anelor.cli import main  # noqa: E402
from anelor.params import PhysicalParams  # noqa: E402


def table(*argv):
    """The one data row of a CSV table, as printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*argv, "--quiet"])
    (row,) = out.getvalue().splitlines()[1:]
    return row.split(",")


@pytest.mark.parametrize("order", ["8", "64", "96"])
@pytest.mark.parametrize("source", ["oracle", "closed_form", "published"])
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(m=st.sampled_from([1, 2, 3]), beta=st.floats(0.0, 5.0))
def test_validate_reduced_onset_is_the_critical_onset_at_the_harmonic_width(
        source, order, m, beta):
    common = ("--beta", repr(beta), "--source", source, "--order", order)
    reduced = table("validate", *common, "--m", str(m), "--n-modes", "1")[4]
    length = PhysicalParams().length / m
    assert reduced == table("critical", *common, "--l", repr(length))[2]
