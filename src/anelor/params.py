"""Physical parameter bundle, and the domain error and integer rule shared by every module."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["InadmissibleError", "PhysicalParams"]


class InadmissibleError(ValueError):
    """No answer at these parameters: they lie outside the domain of the route
    asked, such as no onset, no Lorenz map or non-finite projections."""


def _is_integer(value) -> bool:
    """An int or a numpy integer, but no bool (an int by type) and no integral float."""
    return isinstance(value, (int, np.integer)) and type(value) is not bool


def _check_integer(name, value, low):
    """ValueError naming `name` unless `value` is an integer (`_is_integer`) >= low."""
    if not (_is_integer(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value}")


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
        for name in ("beta", "prandtl", "rayleigh", "gamma", "length"):
            value = getattr(self, name)
            if type(value) is bool or not math.isfinite(value):  # float(True) is 1.0
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value) + 0.0)  # -0.0 becomes 0.0
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.prandtl <= 0.0:
            raise ValueError(f"prandtl must be > 0, got {self.prandtl}")
        if self.rayleigh < 0.0:
            raise ValueError(f"rayleigh must be >= 0, got {self.rayleigh}")
        if self.gamma < 1.0 / 3.0:
            raise ValueError(f"gamma must be >= 1/3, got {self.gamma}")
        if self.length <= 0.0:
            raise ValueError(f"length must be > 0, got {self.length}")

    def with_rayleigh(self, rayleigh: float) -> "PhysicalParams":
        return replace(self, rayleigh=rayleigh)

    def with_beta(self, beta: float) -> "PhysicalParams":
        return replace(self, beta=beta)
