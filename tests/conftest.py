"""Fixtures shared across test modules."""

import pytest

from anelor.dynamics import largest_lyapunov
from anelor.lorenz import LorenzParams


@pytest.fixture(scope="session")
def chaotic_lyapunov_seed0():
    """largest_lyapunov at (10, 8/3, 28) from seed 0, computed once per session:
    criterion 10 and the golden-value test read the same run."""
    return largest_lyapunov(LorenzParams(10.0, 8.0 / 3.0, 28.0), seed=0)
