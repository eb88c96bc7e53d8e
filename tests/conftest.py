import os

import numpy as np
import pytest
from hypothesis import settings

# the invariant suite's sample instances, which the test modules share
from relosplit.selftest import GAMMA_GRID, operator_zoo, random_affine  # noqa: F401

# every run draws the same examples, so a property test fails on every run
# or on none
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

#: The committed `relosplit run` configs whose outcomes test_cli pins.
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli")

#: Finite points at the ends of the float range; their squared norm overflows.
EXTREME_FINITE = [1.7976931348623157e308, -1e308, 5e-324]


def nonfinite_points(dim=5):
    """nan, +inf and -inf at the first, a middle and the last position."""
    for bad in (np.nan, np.inf, -np.inf):
        for pos in (0, dim // 2, dim - 1):
            point = np.linspace(-1.0, 1.0, dim)
            point[pos] = bad
            yield pytest.param(point, id=f"{bad}@{pos}")


def strided_real(values):
    """``values`` as the strided, non-contiguous ``.real`` view of a complex array.

    This is the kind of array AffineMonotone's factored resolvent returns and
    the sweep hands on as z1. Every imaginary part is nan, so a finiteness
    test that read past the view's strides would see it.
    """
    values = np.asarray(values, dtype=float)
    full = np.full(values.shape, complex(0.0, np.nan))
    full.real = values
    view = full.real
    assert not view.flags.c_contiguous and view.strides[-1] == 16
    return view


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def zoo(rng):
    return operator_zoo(rng)
