import ast
import math
from pathlib import Path

import numpy as np
import pytest

from anelor.lorenz import LorenzParams
from anelor.params import PhysicalParams
from anelor.projection import GalerkinCoeffs


def test_negative_zero_is_stored_as_zero():
    params = PhysicalParams(beta=-0.0, rayleigh=-0.0)
    assert math.copysign(1.0, params.beta) == 1.0
    assert math.copysign(1.0, params.rayleigh) == 1.0
    assert math.copysign(1.0, PhysicalParams(beta=1.0).with_beta(-0.0).beta) == 1.0


LORENZ = {"sigma": 10.0, "delta": 8.0 / 3.0, "r": 28.0}
COEFFS = {f"e{i}": 1.0 for i in range(1, 8)} | {"provenance": "closed_form",
                                               "params": PhysicalParams()}
# field -> (its bound as the message states it, a finite value past it)
BOUNDS = {
    PhysicalParams: {"beta": (">= 0", -1.0), "prandtl": ("> 0", 0.0),
                     "rayleigh": (">= 0", -1.0), "gamma": (">= 1/3", 0.3),
                     "length": ("> 0", 0.0)},
    LorenzParams: {"sigma": ("> 0", 0.0), "delta": ("> 0", 0.0), "r": (">= 0", -1.0)},
    GalerkinCoeffs: {f"e{i}": ("", math.nan) for i in range(1, 8)},  # no bound
}


@pytest.mark.parametrize("record, name", [
    *[(PhysicalParams, name) for name in ("beta", "prandtl", "rayleigh", "gamma", "length")],
    *[(LorenzParams, name) for name in LORENZ],
    *[(GalerkinCoeffs, name) for name in BOUNDS[GalerkinCoeffs]],
])
def test_records_reject_a_bool_for_a_number(record, name):
    # float(True) is 1.0, so without the check beta = True would be stored as 1.0; a text,
    # None or an int past the float range is no finite number either
    base = {LorenzParams: LORENZ, GalerkinCoeffs: COEFFS}.get(record, {})
    bound, past = BOUNDS[record][name]
    for value in (True, "0.5", None, 10**400, math.nan, math.inf, past):
        with pytest.raises(ValueError) as info:
            record(**{**base, name: value})
        assert str(info.value) == f"{name} must be a finite number{bound and ' ' + bound}, " \
                                  f"got {value!r}"
    for value in (np.float32(0.5), np.int64(2)):  # numpy's numbers are numbers
        assert getattr(record(**{**base, name: value}), name) == value


def plain_value_errors(node, where):
    """The enclosing function's name for each `raise ValueError` under `node`."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Name) and raised.id == "ValueError":
            yield where
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    for child in ast.iter_child_nodes(node):
        yield from plain_value_errors(child, where)


def test_only_the_command_line_coercers_raise_a_plain_value_error():
    # the library raises ArgumentError for a malformed argument and InadmissibleError
    # where a well-formed one has no answer; the coercers' ValueError becomes an
    # ArgumentError naming the setting
    source = Path(__file__).resolve().parents[1] / "src" / "anelor"
    found = {(path.name, where) for path in sorted(source.glob("*.py"))
             for where in plain_value_errors(ast.parse(path.read_text()), "<module>")}
    assert ("cli.py", "_as_bool") in found
    assert {(name, where) for name, where in found
            if name != "cli.py" or not where.startswith("_as_")} == set()
