import math

from anelor.params import PhysicalParams


def test_negative_zero_is_stored_as_zero():
    params = PhysicalParams(beta=-0.0, rayleigh=-0.0)
    assert math.copysign(1.0, params.beta) == 1.0
    assert math.copysign(1.0, params.rayleigh) == 1.0
    assert math.copysign(1.0, PhysicalParams(beta=1.0).with_beta(-0.0).beta) == 1.0
