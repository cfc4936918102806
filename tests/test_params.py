import math

import pytest

from anelor.lorenz import LorenzParams
from anelor.params import PhysicalParams


def test_negative_zero_is_stored_as_zero():
    params = PhysicalParams(beta=-0.0, rayleigh=-0.0)
    assert math.copysign(1.0, params.beta) == 1.0
    assert math.copysign(1.0, params.rayleigh) == 1.0
    assert math.copysign(1.0, PhysicalParams(beta=1.0).with_beta(-0.0).beta) == 1.0


LORENZ = {"sigma": 10.0, "delta": 8.0 / 3.0, "r": 28.0}


@pytest.mark.parametrize("record, name", [
    *[(PhysicalParams, name) for name in ("beta", "prandtl", "rayleigh", "gamma", "length")],
    *[(LorenzParams, name) for name in LORENZ],
])
def test_records_reject_a_bool_for_a_number(record, name):
    # float(True) is 1.0, so without the check beta = True would be stored as 1.0
    base = LORENZ if record is LorenzParams else {}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        record(**{**base, name: True})
