import os
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from relosplit import dr2, graphs, malitsky_tam as mt, schedules as sch
from relosplit.driver import StopRule, run_relocated
from relosplit.linalg import BlockVector
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


class WaitingGeometric(sch.GeometricToLimit):
    """A geometric schedule that declares no limit, so a run on it follows
    gamma_n until it settles instead of relocating straight to the limit."""

    limit = None


class Case(NamedTuple):
    """A method ("graph", "mt" or "dr2") on ops, one per node, from x0, an
    (N - 1, d) array or dr2's (d,) vector; graph only for "graph"."""

    method: str
    ops: tuple
    schedule: sch.StepsizeSchedule
    x0: np.ndarray
    stop: StopRule
    theta: float = 1.0
    graph: graphs.SplittingGraph | None = None
    #: what test_differential's pinned case must reach, as the test it pins
    #: did: its end, a least number of iterations, and a relocation to the limit
    status: str | None = None
    min_iters: int = 0
    relocates: bool = False


def run(case, ops, naive=False, **kw):
    """The method's runner on ops or, naive, run_relocated on its family and
    relocator; kw goes to the call (solution_residual)."""
    if case.method == "dr2":
        p, args = dr2.DRProblem(*ops), (case.schedule, case.x0, case.stop)
        return (run_relocated(dr2.dr_family(p), dr2.dr_relocator(p), *args, **kw) if naive
                else dr2.algorithm1_run(p, *args, **kw))
    args = (case.schedule, BlockVector(case.x0), case.stop)
    if case.method == "mt":
        p = mt.MTProblem(ops, case.theta)
        return (run_relocated(mt.mt_family(p), mt.mt_relocator(p), *args, **kw) if naive
                else mt.algorithm2_run(p, *args, **kw))
    g, theta = case.graph, case.theta
    return (run_relocated(graphs.graph_family(ops, g, theta), graphs.graph_relocator(ops, g),
                          *args, **kw) if naive
            else graphs.graph_relocated_run(ops, g, theta, *args, **kw))


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
