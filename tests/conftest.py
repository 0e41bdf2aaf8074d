"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from slicegrowth.algebra import blade
from slicegrowth.series import StemSeries


@pytest.fixture
def identity_stem():
    """A builder of the stem series F(z) = z of R_m in n variables,
    build(m, n): its slice map is the identity embedding."""
    def build(m: int, n: int) -> StemSeries:
        return StemSeries(m, n, {tuple(k): np.outer(k, blade(m))
                                 for k in np.eye(n, dtype=int).tolist()})
    return build
