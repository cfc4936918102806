"""Physical parameter bundle, the argument and domain errors, and the integer and
real rules shared by every module."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ArgumentError", "InadmissibleError", "PhysicalParams"]


class ArgumentError(ValueError):
    """A malformed argument: one that no call takes, such as a negative Prandtl
    number, a label that is no mode's or an unknown route. The message names it."""


class InadmissibleError(ValueError):
    """No answer at these parameters: they lie outside the domain of the route
    asked, such as no onset, no Lorenz map or non-finite projections."""


def _is_integer(value) -> bool:
    """An int or a numpy integer, but no bool (an int by type) and no integral float."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def _check_integer(name, value, low):
    """ArgumentError naming `name` unless `value` is an integer (`_is_integer`) >= low."""
    if not (_is_integer(value) and value >= low):
        raise ArgumentError(f"{name} must be an integer >= {low}, got {value}")


# a real argument's bound, as its message states it -> its test of the float
_BOUNDS = {"": lambda x: True, ">= 0": lambda x: x >= 0.0, "> 0": lambda x: x > 0.0,
           ">= 1/3": lambda x: x >= 1.0 / 3.0, "in (0, 1)": lambda x: 0.0 < x < 1.0}


def _check_real(name, value, bound=""):
    """`value` as a float, or an ArgumentError naming `name` unless it is an int, a float or
    a numpy number, no bool (float(True) is 1.0), finite and within `bound`, a key of
    `_BOUNDS`."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and type(value) is not bool
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int past the float range
        number = math.inf
    if math.isfinite(number) and _BOUNDS[bound](number):
        return number
    raise ArgumentError(f"{name} must be a finite number{bound and ' ' + bound}, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Parameters of the stratified convection layer.

    beta      compressibility of the background density exp(-beta*z); beta >= 0
    prandtl   Prandtl number, > 0
    rayleigh  Rayleigh number, >= 0; operations that determine a critical
              value ignore this field
    gamma     viscosity ratio (bulk over shear plus one third), >= 1/3
    length    horizontal period l of the layer (0, l) x (0, 1), > 0
    """

    beta: float = 0.0
    prandtl: float = 10.0
    rayleigh: float = 0.0
    gamma: float = 4.0 / 3.0
    length: float = 2.0 * math.sqrt(2.0)

    def __post_init__(self):
        for name, bound in (("beta", ">= 0"), ("prandtl", "> 0"), ("rayleigh", ">= 0"),
                            ("gamma", ">= 1/3"), ("length", "> 0")):
            number = _check_real(name, getattr(self, name), bound)
            object.__setattr__(self, name, number + 0.0)  # -0.0 becomes 0.0

    def with_rayleigh(self, rayleigh: float) -> "PhysicalParams":
        return replace(self, rayleigh=rayleigh)

    def with_beta(self, beta: float) -> "PhysicalParams":
        return replace(self, beta=beta)
