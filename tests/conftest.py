import os

import numpy as np
import pytest
from hypothesis import settings

from relosplit import operators

# every run draws the same examples, so a property test fails on every run
# or on none
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

#: The committed `relosplit run` configs whose outcomes test_cli pins.
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli")

GAMMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

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


def random_affine(rng, dim, scale=1.0):
    """A random monotone affine operator: PSD symmetric part plus skew."""
    root = scale * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    skew = scale * rng.standard_normal((dim, dim))
    return operators.AffineMonotone(root @ root.T + (skew - skew.T),
                                    scale * rng.standard_normal(dim))


def operator_zoo(rng, dim=3):
    """One instance of every catalog kind, including the nested wrappers."""
    inner = operators.NegLog(dim)
    return [
        operators.Zero(dim),
        operators.ScaledIdentity(1.5, dim),
        random_affine(rng, dim),
        operators.NormalConePoint(rng.standard_normal(dim)),
        operators.NormalConeBox(-np.ones(dim), np.ones(dim)),
        operators.NormalConeBall(rng.standard_normal(dim), 1.5),
        operators.NegLog(dim),
        operators.Translated(inner, rng.standard_normal(dim)),
        operators.Scaled(inner, 2.0),
    ]


@pytest.fixture
def zoo(rng):
    return operator_zoo(rng)
