"""Lorenz-type reduction of anelastic Oberbeck-Boussinesq convection.

A stratified background density turns the usual Benard problem into an
anelastic one. Projecting the two-dimensional equations onto three modes of
the weighted vorticity eigenbasis yields a Lorenz-type system whose
coefficients, critical Rayleigh numbers, trajectories, and N-mode linear
validation this package computes.

Each module's `__all__` is its public API, and the package re-exports all of
them except the command line's, so `import anelor` does not load `anelor.cli`.
"""

from . import basis, dynamics, lorenz, params, projection, spectral
from .basis import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .lorenz import *  # noqa: F403
from .params import *  # noqa: F403
from .projection import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (params, basis, projection, lorenz, dynamics, spectral)
           for name in module.__all__] + ["__version__"]
