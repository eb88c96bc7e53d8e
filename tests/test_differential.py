"""Every efficient runner is the naive relocated iteration x_{n+1} =
Q_{gamma_{n+1}<-gamma_n} T_{gamma_n} x_n of its method's family and
relocator, at one resolvent per operator per iteration. check() states it
for one case; the fuzz draws cases, and the pinned ones are those of the
hand-built tests it replaced. A runner's trace replays its iterates from its
rows when they are read; check() pins them, and final_x, to the bytes of the
points its relocate hook returned in a run of the same hooks."""

import contextlib
import copy
import io
import itertools
import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Case, WaitingGeometric, operator_zoo, random_affine, run
from relosplit import dr2, graphs, malitsky_tam as mt, problems, schedules as sch
from relosplit.driver import ScheduleBudgetWarning, StopRule, ambient_flat
from relosplit.linalg import BlockVector
from relosplit.operators import (AffineMonotone, CountingOperator, NegLog, NormalConePoint,
                                 ScaledIdentity)
from relosplit.selftest import chorded_path, fix_point_oracle_affine

#: Relative agreement of the runner's and the naive run's iterates, per row.
ITERATE_RTOL = 1e-12

#: The zoo's kinds by index: the linear ones, strongly monotone, so that a
#: problem on them has one solution, and those whose resolvent reads no stepsize.
ZOO = operator_zoo(np.random.default_rng(0), 1)
LINEAR = [k for k, op in enumerate(ZOO) if isinstance(op, (ScaledIdentity, AffineMonotone))]
STEPSIZE_FREE = [k for k, op in enumerate(ZOO) if op.stepsize_free]


def written(trace):
    """A run's bytes: its CSV and its iterates."""
    out = io.StringIO()
    trace.write_csv(out)
    return out.getvalue(), [ambient_flat(x).tobytes() for x in trace.iterates]


def stored(case, ops):
    """run(case, ops) with its runner's replay hook swapped for one that
    hands back x_0 and each point the relocate hook returned, as the run
    computed them: the same hooks and arguments otherwise."""
    graph_hooks = graphs.graph_hooks

    def hooks(*args, **kw):
        step, feedback, relocate, _ = graph_hooks(*args, **kw)
        relocated = []

        def keep(*args):
            x, carry = relocate(*args)
            relocated.append(x)
            return x, carry

        return step, feedback, keep, lambda x0, *rows: [x0, *relocated]

    with contextlib.ExitStack() as patches:
        for runner in (dr2, graphs, mt):
            patches.enter_context(mock.patch.object(runner, "graph_hooks", hooks))
        return run(case, ops)


def final(trace):
    """The bytes of a run's final_x, and its type."""
    return type(trace.final_x), ambient_flat(trace.final_x).tobytes()


def waiting(schedule):
    """A copy of schedule that declares no limit: a run on it waits for gamma."""
    twin = copy.copy(schedule)
    twin.__class__ = type("Waiting", (type(schedule),), {"limit": None})
    return twin


def check(case):
    """The runner's run of case is the naive run's, at N resolvents per row:
    both end alike; iterates agree per row to ITERATE_RTOL of the row's largest
    entry, of the iterate or of the monitored point it is formed from;
    stepsizes are equal, or adaptive ones agree to ITERATE_RTOL. Each node's
    operator is called once a row, A_1 once more for an adaptive run's last
    feedback. The runner on case.ops themselves, whose affine resolvents read
    the input rows the sweep writes and which one object at two nodes
    shares, writes the counted run's bytes, and so does a run on equal
    distinct objects. A limit relocation comes at the first residual within
    tolerance, and up to it the run writes the bytes of one that waits for
    gamma. The iterates a runner's trace replays, and its final_x, are of
    x0's type and have the bytes of a stored run's. Returns the runner's
    trace."""
    counted = {id(op): CountingOperator(op) for op in case.ops}
    ops = tuple(counted[id(op)] for op in case.ops)
    # the affine kind alone keeps buffers; each node gets an object of its
    # own, rebuilt on the same arrays (a deep copy would keep one object at
    # two nodes)
    distinct = (tuple(AffineMonotone(op.matrix, op.offset) if isinstance(op, AffineMonotone)
                      else op for op in case.ops) if len(counted) < len(ops) else None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleBudgetWarning)
        trace = run(case, ops)
        calls = {key: op.calls for key, op in counted.items()}
        raw, naive = run(case, case.ops), run(case, case.ops, naive=True)
        kept = stored(case, case.ops)
        apart = raw if distinct is None else run(case, distinct)
        jump = trace.relocated_to_limit_at
        slow = None if jump is None else run(case._replace(schedule=waiting(case.schedule)),
                                             case.ops)

    assert ((trace.status, trace.iterations, jump)
            == (naive.status, naive.iterations, naive.relocated_to_limit_at))
    assert case.status in (None, trace.status)
    assert trace.iterations >= case.min_iters and (jump is not None or not case.relocates)
    for n, (a, b, point) in enumerate(zip(trace.iterates, naive.iterates, naive.points)):
        a, b = ambient_flat(a), ambient_flat(b)
        scale = max(np.max(np.abs(b)), np.max(np.abs(point)))
        assert np.max(np.abs(a - b)) <= ITERATE_RTOL * scale, f"row {n}"
    if case.schedule.is_adaptive:
        assert np.allclose(trace.gammas, naive.gammas, rtol=ITERATE_RTOL, atol=0.0)
    else:
        assert trace.gammas == naive.gammas
    first = id(case.ops[0])
    assert calls == {key: nodes * len(trace) + (key == first and case.schedule.is_adaptive)
                     for key, nodes in Counter(map(id, case.ops)).items()}
    assert written(trace) == written(raw) == written(apart) == written(kept)
    x0_type = np.ndarray if case.method == "dr2" else BlockVector
    assert {type(x) for x in raw.iterates} == {type(x) for x in kept.iterates} == {x0_type}
    assert final(trace) == final(raw) == final(kept)
    if jump is not None:
        assert (trace.residuals[jump] <= case.stop.residual_tol
                < min(trace.residuals[:jump], default=math.inf))
        assert trace.gammas[jump + 1] == case.schedule.limit
        # the waiting run goes on past the jump, having written the same rows
        assert slow.iterations > jump and "relocated_to_limit_at" not in slow.summary()
        rows = jump + 2  # the header and rows 0 to jump
        assert written(slow)[0].splitlines()[:rows] == written(trace)[0].splitlines()[:rows]
    return trace


def powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


GAMMA, CLAMP = powers_of_ten(-1.0, 1.0), powers_of_ten(0.0, 1.0)
ALL_KINDS, LINEAR_KINDS = st.sampled_from(range(len(ZOO))), st.sampled_from(LINEAR)
POOLS = st.sampled_from([ALL_KINDS, LINEAR_KINDS, st.sampled_from(STEPSIZE_FREE)])
THETA = {"graph": st.floats(0.05, 1.95), "mt": st.floats(0.05, 0.95), "dr2": st.just(1.0)}


@st.composite
def schedules(draw):
    """A constant, geometric, explicit or adaptive schedule of stepsizes in
    [0.1, 10]. Adaptive clamps stay within a factor 10 of gamma_0: a clamp
    1e8 times the stepsize amplifies a one-ulp difference by as much."""
    kind = draw(st.sampled_from(["constant", "geometric", "explicit", "adaptive"]))
    if kind == "constant":
        return sch.Constant(draw(GAMMA))
    if kind == "geometric":
        return sch.GeometricToLimit(draw(GAMMA), draw(GAMMA), draw(st.floats(0.05, 0.99)))
    if kind == "explicit":
        return sch.ExplicitList(draw(st.lists(GAMMA, min_size=1, max_size=6)))
    gamma0 = draw(GAMMA)
    return sch.AdaptiveKappa(gamma0, gamma0 / draw(CLAMP), gamma0 * draw(CLAMP))


@st.composite
def cases(draw):
    """A method on N = 2-6 zoo operators of R^1-R^3 (all kinds, the linear
    or the stepsize-free ones), one object at two nodes in half the draws;
    the graph runner on a path or random spanning tree plus random chords;
    x0 of scale 10^(-3..3) or, on linear kinds in half the draws, a fixed
    point of T_{gamma_0}, where a moving schedule relocates to its limit at
    once; a random theta, tolerance and budget."""
    method = draw(st.sampled_from(["graph", "mt", "dr2"]))
    n = 2 if method == "dr2" else draw(st.integers(2, 6))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(POOLS)
    ops = [operator_zoo(rng, dim)[draw(kinds)] for _ in range(n)]
    if draw(st.booleans()):
        first, second = sorted(draw(st.permutations(range(n)))[:2])
        ops[second] = ops[first]
    graph = mt.mt_graph(n)
    if method == "graph":
        path = draw(st.booleans())
        tree = [(j - 1 if path else draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)]
        chords = [arc for arc in itertools.combinations(range(1, n + 1), 2)
                  if arc not in tree and draw(st.booleans())]
        graph = graphs.build_graph(n, tree + chords, tree)
    theta, schedule = draw(THETA[method]), draw(schedules())
    if kinds is LINEAR_KINDS and draw(st.booleans()):
        # MT is the ring's graph DR at (s gamma, s x), s the ring degree
        s = float(graph.deg[0]) if method == "mt" else 1.0
        x0 = fix_point_oracle_affine(ops, graph, s * schedule.gamma_at(0))[0] / s
    else:
        x0 = draw(powers_of_ten(-3.0, 3.0)) * rng.standard_normal((n - 1, dim))
    return Case(method, tuple(ops), schedule, x0[0] if method == "dr2" else x0,
                StopRule(draw(powers_of_ten(-10.0, -3.0)), draw(st.integers(1, 40))), theta,
                graph if method == "graph" else None)


@settings(max_examples=1000, deadline=None)
@given(cases())
def test_runners_are_the_relocated_iteration(case):
    check(case)


def pinned_cases():
    """The cases of the hand-built tests the fuzz replaced, each drawn as
    that test drew it from the rng fixture's seed."""
    geometric, listed = sch.GeometricToLimit(1.0, 2.0, 0.5), sch.ExplicitList([2.0, 0.7, 1.3, 1.0])
    adaptive, ladder = sch.AdaptiveKappa(1.0), sch.ExplicitList([2.0, 1.0, 1.4, 0.9, 1.0])
    neglog = (NormalConePoint([1.0]), NegLog(1))

    def affine(rng, count, dim=2):
        return tuple(random_affine(rng, dim) for _ in range(count))

    # test_dr2.py
    rng = np.random.default_rng(12345)
    for ops in (neglog, affine(rng, 2, 3)):
        for schedule in (sch.Constant(1.5), geometric, listed):
            yield Case("dr2", ops, schedule, rng.standard_normal(ops[0].dim), StopRule(1e-14, 50))
    rng = np.random.default_rng(12345)
    yield Case("dr2", affine(rng, 2), adaptive, rng.standard_normal(2), StopRule(1e-11, 200))
    yield Case("dr2", neglog, WaitingGeometric(1.0, 2.0, 0.5), np.array([3.0]),
               StopRule(1e-16, 30))
    rng = np.random.default_rng(12345)
    for budget, status in ((2000, "converged"), (7, "max_iters")):
        yield Case("dr2", affine(rng, 2, 3), adaptive, rng.standard_normal(3),
                   StopRule(1e-10, budget), status=status)
    # test_malitsky_tam.py
    rng = np.random.default_rng(12345)
    yield Case("mt", affine(rng, 4), sch.Constant(1.0), rng.standard_normal((3, 2)),
               StopRule(1e-15, 60), 0.5)
    rng = np.random.default_rng(12345)
    for n in (2, 3, 5):
        ops, x0 = affine(rng, n), rng.standard_normal((n - 1, 2))
        for schedule in (geometric, listed, adaptive):
            yield Case("mt", ops, schedule, x0, StopRule(1e-14, 40), 0.5)
    rng = np.random.default_rng(12345)
    yield Case("mt", affine(rng, 4), geometric, rng.standard_normal((3, 2)),
               StopRule(1e-15, 25), 0.5)
    rng = np.random.default_rng(12345)
    for budget, status in ((5000, "converged"), (7, "max_iters")):
        yield Case("mt", affine(rng, 4), adaptive, rng.standard_normal((3, 2)),
                   StopRule(1e-10, budget), 0.5, status=status)
    # test_graphs.py
    rng = np.random.default_rng(12345)
    yield Case("graph", affine(rng, 3), sch.Constant(1.0), rng.standard_normal((2, 2)),
               StopRule(1e-13, 40), 1.0, mt.mt_graph(3))
    rng = np.random.default_rng(12345)
    for g in (mt.mt_graph(4), chorded_path(5)):
        ops, x0 = affine(rng, g.n_nodes), rng.standard_normal((g.n_nodes - 1, 2))
        for schedule in (ladder, adaptive):
            yield Case("graph", ops, schedule, x0, StopRule(1e-14, 30), 0.8, g)
    rng = np.random.default_rng(12345)
    shared, others = random_affine(rng, 3), affine(rng, 5, 3)
    ops, x0 = (shared, others[1], shared, others[3], others[4]), rng.standard_normal((4, 3))
    for schedule in (ladder, adaptive):
        yield Case("graph", ops, schedule, x0, StopRule(1e-14, 40), 1.0, chorded_path(5),
                   min_iters=5)
        yield Case("mt", ops, schedule, x0, StopRule(1e-14, 40), 0.5, min_iters=5)
    rng = np.random.default_rng(12345)
    for schedule in (sch.Constant(1.0), sch.GeometricToLimit(1.0, 2.0, 0.9), adaptive):
        yield Case("graph", affine(rng, 5), schedule, np.zeros((4, 2)), StopRule(1e-10, 3000),
                   1.0, chorded_path(5), status="converged")
    for schedule in (sch.GeometricToLimit(1.0, 2.0, 0.9), adaptive):
        rng, tree = np.random.default_rng(12345), [(i, i + 1) for i in range(1, 6)]
        a, b, c, d, _, f = affine(rng, 6, 3)
        yield Case("graph", (a, b, c, d, a, f), schedule, np.zeros((5, 3)), StopRule(1e-10, 400),
                   1.0, graphs.build_graph(6, tree + [(1, 3), (2, 5), (4, 6)], tree),
                   min_iters=21)
        a, b, _, d = affine(rng, 4, 3)
        yield Case("mt", (a, b, b, d), schedule, np.zeros((3, 3)), StopRule(1e-10, 400), 0.5,
                   min_iters=21)
    # test_driver.py
    pair = problems.make_problem("affine_random", {"count": 2, "dim": 3}, seed=3).dr_problem()
    ring = tuple(problems.make_problem("affine_consensus", {"count": 4, "dim": 2}, seed=0).ops)
    stop = StopRule(1e-10, 5000)
    for schedule in (sch.GeometricToLimit(1.0, 2.0, 0.95),
                     sch.ExplicitList([1.0 - 0.5 * 0.95 ** n for n in range(800)])):
        guard = {"status": "converged", "relocates": True}
        yield Case("dr2", (pair.op_a, pair.op_b), schedule, np.zeros(3), stop, **guard)
        yield Case("mt", ring, schedule, np.zeros((3, 2)), stop, 0.5, **guard)
        yield Case("graph", ring, schedule, np.zeros((3, 2)), stop, 1.0, chorded_path(4), **guard)


@pytest.mark.parametrize("case", pinned_cases())
def test_pinned_cases(case):
    check(case)


def test_an_overflowing_run_replays_its_rows_and_keeps_its_overflowed_iterate():
    # MT's relocations by factors up to 1e100 grow the iterate until x_5 overflows:
    # the trace's rows replay without a warning (pytest makes a RuntimeWarning
    # an error), and final_x is the overflowed iterate, which no row records
    ops = problems.make_problem("affine_consensus", {"count": 3, "dim": 1, "c": [[0], [0], [10]]},
                                seed=0).ops
    gammas = [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300]
    case = Case("mt", tuple(ops), sch.ExplicitList(gammas), np.array([[1.0], [2.0]]),
                StopRule(1e-10, 50), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleBudgetWarning)
        trace, kept = run(case, case.ops), stored(case, case.ops)
    assert trace.status == "diverged" and len(trace) == 5
    assert np.max(np.abs(trace.iterates[-1].data)) > 1e198
    assert not np.isfinite(trace.final_x.data).any()
    assert written(trace) == written(kept) and final(trace) == final(kept)
