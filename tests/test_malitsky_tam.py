import math

import numpy as np
import pytest

from conftest import GAMMA_GRID, WaitingGeometric, random_affine
from relosplit import dr2, graphs, malitsky_tam as mt, schedules as sch
from relosplit.driver import ScheduleBudgetWarning, StopRule, run_relocated
from relosplit.errors import DimensionError, ParameterError
from relosplit.linalg import BlockVector
from relosplit.operators import (
    CountingOperator,
    NegLog,
    NormalConePoint,
    Zero,
)
from relosplit.selftest import (
    fix_point_oracle_affine,
    graph_relocator_apply,
    mt_vs_graph_equivalence,
)

SQRT5 = math.sqrt(5.0)


def affine_problem(rng, n, dim=2, theta=0.5):
    return mt.MTProblem(tuple(random_affine(rng, dim) for _ in range(n)), theta)


def neglog_mt(theta=0.5):
    return mt.MTProblem((NormalConePoint([1.0]), NegLog(1)), theta)


def zero_problem(n):
    return mt.MTProblem(tuple(Zero(1) for _ in range(n)), 0.5)


class TestMTGraph:
    def test_ring_structure(self):
        g = mt.mt_graph(3)
        assert g.arcs == ((1, 2), (1, 3), (2, 3))
        assert g.tree_arcs == ((1, 2), (2, 3))
        assert list(g.deg) == [2, 2, 2]
        assert list(g.indeg) == [0, 1, 2]

    def test_larger_rings(self):
        for n in (4, 5, 6):
            g = mt.mt_graph(n)
            assert list(g.deg) == [2] * n
            assert list(g.indeg) == [0] + [1] * (n - 2) + [2]

    def test_two_nodes_collapse(self):
        g = mt.mt_graph(2)
        assert g.arcs == ((1, 2),)
        assert g.tree_arcs == ((1, 2),)
        assert list(g.deg) == [1, 1]

    def test_one_node_rejected(self):
        with pytest.raises(ParameterError):
            mt.mt_graph(1)


class TestMTProblem:
    def test_theta_range(self):
        with pytest.raises(ParameterError):
            mt.MTProblem((Zero(1), Zero(1)), theta=1.0)
        with pytest.raises(ParameterError):
            mt.MTProblem((Zero(1), Zero(1)), theta=0.0)

    def test_needs_two_ops(self):
        with pytest.raises(ParameterError):
            mt.MTProblem((Zero(1),), theta=0.5)

    def test_mixed_dims(self):
        with pytest.raises(DimensionError):
            mt.MTProblem((Zero(1), Zero(2)), theta=0.5)


class TestMTApply:
    def test_neglog_hand_values(self):
        problem = neglog_mt(theta=0.5)
        tx, z = mt.mt_apply(problem, 1.0, [[3.0]])
        assert z[0][0] == 1.0
        assert z[1][0] == pytest.approx((-1.0 + SQRT5) / 2.0, abs=1e-15)
        assert tx[0][0] == pytest.approx(3.0 + 0.5 * ((-1.0 + SQRT5) / 2.0 - 1.0),
                                         abs=1e-15)

    def test_zero_ops_telescope(self, rng):
        n = 5
        problem = mt.MTProblem(tuple(Zero(2) for _ in range(n)), theta=0.7)
        x = rng.standard_normal((n - 1, 2))
        tx, z = mt.mt_apply(problem, 1.3, x)
        # z_1 = x_1, z_i telescopes to x_i, z_N wraps to x_1
        for i in range(n - 1):
            assert np.allclose(z[i], x[i])
        assert np.allclose(z[n - 1], x[0])
        expected = [x[k] + 0.7 * (z[k + 1] - z[k]) for k in range(n - 1)]
        for k in range(n - 1):
            assert np.allclose(tx[k], expected[k])

    def test_consensus_fixed(self, rng):
        p = rng.standard_normal(2)
        problem = mt.MTProblem(tuple(NormalConePoint(p) for _ in range(4)), 0.5)
        x = np.tile(rng.standard_normal(2), (3, 1))
        tx, z = mt.mt_apply(problem, 2.0, x)
        for block in z:
            assert np.allclose(block, p)
        assert type(tx) is np.ndarray and np.max(np.abs(tx - x)) <= 1e-12

    def test_averagedness(self, rng):
        # the operator is theta-averaged on the product space
        for theta in (0.3, 0.5, 0.8):
            problem = affine_problem(rng, 4, theta=theta)
            for _ in range(30):
                u = 3.0 * rng.standard_normal((3, 2))
                v = 3.0 * rng.standard_normal((3, 2))
                tu, _ = mt.mt_apply(problem, 1.2, u)
                tv, _ = mt.mt_apply(problem, 1.2, v)
                lhs = np.linalg.norm(tu - tv) ** 2 + ((1 - theta) / theta) * np.linalg.norm(
                    (u - tu) - (v - tv)) ** 2
                assert lhs <= np.linalg.norm(u - v) ** 2 + 1e-9

    def test_n2_relaxed_dr(self, rng):
        # T_mt = (1 - theta) x + theta * (DR image): recover the DR step
        theta = 0.5
        problem = neglog_mt(theta)
        dr_problem = dr2.DRProblem(problem.ops[0], problem.ops[1])
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0)
            tx, _ = mt.mt_apply(problem, 1.0, [[x]])
            w, _, _ = dr2.dr_apply(dr_problem, 1.0, [x])
            recovered = (tx[0][0] - (1.0 - theta) * x) / theta
            assert recovered == pytest.approx(w[0], abs=1e-12)


class TestMTRelocator:
    def test_identity_when_equal(self, rng):
        problem = affine_problem(rng, 4)
        x = rng.standard_normal((3, 2))
        assert np.max(np.abs(mt.mt_relocator(problem).apply(1.3, 1.3, x) - x)) <= 1e-12

    def test_hand_values(self):
        problem = mt.MTProblem((NormalConePoint([1.0]), Zero(1), Zero(1)), 0.5)
        out = mt.mt_relocator(problem).apply(1.0, 2.0, [[3.0], [5.0]])
        assert out[0][0] == 5.0  # 2*3 + (1-2)*1
        assert out[1][0] == 9.0  # 2*(5-3) + 5

    def test_n2_reduces_to_dr_relocator(self, rng):
        problem = neglog_mt()
        ours_relocator = mt.mt_relocator(problem)
        ref_relocator = dr2.dr_relocator(dr2.DRProblem(*problem.ops))
        for _ in range(20):
            x = float(rng.uniform(-4.0, 4.0))
            gamma, delta = rng.choice(GAMMA_GRID, size=2)
            ours = ours_relocator.apply(gamma, delta, [[x]])
            ref = ref_relocator.apply(gamma, delta, [x])
            assert ours[0][0] == pytest.approx(ref[0], abs=0.0)

    def test_single_resolvent_of_first_operator(self):
        counted = [CountingOperator(Zero(1)) for _ in range(4)]
        problem = mt.MTProblem(tuple(counted), 0.5)
        mt.mt_relocator(problem).apply(1.0, 2.0, [[1.0], [2.0], [3.0]])
        assert counted[0].calls == 1
        assert all(op.calls == 0 for op in counted[1:])

    def test_matches_graph_relocator_on_fixed_points(self, rng):
        # cheap vs pseudo-inverse relocator, via the half-scaling change of
        # variables: Q_graph(2g, 2d, 2x) = 2 Q_mt(g, d, x) on Fix T_gamma
        for n in (3, 4, 5):
            problem = affine_problem(rng, n)
            ops = list(problem.ops)
            g = mt.mt_graph(n)
            for gamma in (0.5, 1.0):
                x_graph, _ = fix_point_oracle_affine(ops, g, 2.0 * gamma)
                x_mt = 0.5 * x_graph
                for delta in GAMMA_GRID:
                    cheap = mt.mt_relocator(problem).apply(gamma, delta, x_mt)
                    full = graph_relocator_apply(ops, g, 2.0 * gamma,
                                                        2.0 * delta, x_graph)
                    assert np.linalg.norm(0.5 * full - cheap) <= 1e-9

    def test_empirical_lipschitz_below_bound(self, rng):
        for n in (2, 3, 5):
            relocator = mt.mt_relocator(affine_problem(rng, n))
            for gamma, delta in ((1.0, 2.0), (2.0, 0.5), (0.5, 4.0)):
                bound = relocator.lipschitz_bound(gamma, delta)
                for _ in range(200):
                    u = 4.0 * rng.standard_normal((n - 1, 2))
                    v = 4.0 * rng.standard_normal((n - 1, 2))
                    qu = relocator.apply(gamma, delta, u)
                    qv = relocator.apply(gamma, delta, v)
                    assert np.linalg.norm(qu - qv) <= bound * np.linalg.norm(u - v) + 1e-9


class TestMTLipschitz:
    def test_equal_stepsizes(self):
        assert mt.mt_relocator(zero_problem(5)).lipschitz_bound(1.3, 1.3) == 1.0

    def test_hand_value(self):
        assert mt.mt_relocator(zero_problem(3)).lipschitz_bound(1.0, 2.0) == 3.0

    def test_n2_matches_dr_constant(self):
        ours = mt.mt_relocator(zero_problem(2))
        ref = dr2.dr_relocator(dr2.DRProblem(Zero(1), Zero(1)))
        for gamma in GAMMA_GRID:
            for delta in GAMMA_GRID:
                assert ours.lipschitz_bound(gamma, delta) == ref.lipschitz_bound(gamma, delta)


class TestAlgorithm2:
    def test_n2_neglog_shadow_converges(self):
        # scalar oracle: the shadow z-blocks approach the solution z = 1 along
        # the moving stepsize (the schedule declares no limit to relocate to)
        problem = neglog_mt(theta=0.5)
        schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        trace = mt.algorithm2_run(problem, schedule, BlockVector([[3.0]]),
                                  StopRule(residual_tol=1e-12, max_iters=500))
        assert trace.status == "converged"
        z_blocks = trace.points[-1]
        assert np.max(np.abs(z_blocks - 1.0)) <= 1e-6

    def test_affine_consensus_reaches_mean(self, rng):
        cs = [rng.standard_normal(3) for _ in range(4)]
        from relosplit.operators import AffineMonotone
        ops = tuple(AffineMonotone(np.eye(3), -c) for c in cs)
        problem = mt.MTProblem(ops, theta=0.5)
        schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
        trace = mt.algorithm2_run(problem, schedule, BlockVector(np.zeros((3, 3))),
                                  StopRule(residual_tol=1e-12, max_iters=3000))
        assert trace.status == "converged"
        mean = np.mean(np.stack(cs), axis=0)
        z_final = trace.points[-1].reshape(4, 3)
        for block in z_final:
            assert np.linalg.norm(block - mean) <= 1e-6

    def test_shadow_identity(self, rng):
        # the carried-over z^1 equals J_{gamma_n A_1} x_n^1 recomputed
        problem = affine_problem(rng, 4)
        schedule = sch.ExplicitList([2.0, 1.0, 1.5, 0.7, 1.0])
        x0 = BlockVector(rng.standard_normal((3, 2)))
        trace = mt.algorithm2_run(problem, schedule, x0,
                                  StopRule(residual_tol=1e-15, max_iters=20))
        for gamma, x, z_flat in zip(trace.gammas, trace.iterates, trace.points):
            z1 = z_flat.reshape(4, 2)[0]
            direct = problem.ops[0].resolvent(gamma, x.data[0])
            assert np.max(np.abs(z1 - direct)) <= 1e-12


class TestOverflowDiverges:
    """A stepsize ratio of 1e600 overflows the first relocation.

    The run must end with status "diverged", the loop's finiteness test
    being the only detector, instead of a finiteness check somewhere in the
    block arithmetic raising ParameterError.
    """

    RUNNERS = {
        "algorithm2_run": lambda p, s, x0, stop: mt.algorithm2_run(p, s, x0, stop),
        "graph_relocated_run": lambda p, s, x0, stop: graphs.graph_relocated_run(
            p.ops, mt.mt_graph(p.n_ops), 1.0, s, x0, stop),
        "run_relocated": lambda p, s, x0, stop: run_relocated(
            mt.mt_family(p), mt.mt_relocator(p), s, x0, stop),
    }

    @pytest.mark.parametrize("runner", sorted(RUNNERS))
    def test_status_diverged(self, rng, runner):
        problem = affine_problem(rng, 4)
        schedule = sch.ExplicitList([1e-300, 1e300] * 3)
        x0 = BlockVector(rng.standard_normal((3, 2)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.warns(ScheduleBudgetWarning):
            trace = self.RUNNERS[runner](problem, schedule, x0,
                                         StopRule(residual_tol=1e-10, max_iters=50))
        assert trace.status == "diverged"
        assert trace.iterations == 0
        assert not np.all(np.isfinite(trace.final_x.data))


class TestChangeOfVariables:
    def test_equivalence_random_instances(self, rng):
        for n in (3, 4):
            for _ in range(10):
                problem = affine_problem(rng, n, theta=float(rng.uniform(0.1, 0.9)))
                for _ in range(10):
                    x = rng.standard_normal((n - 1, 2))
                    gamma = float(rng.choice((0.5, 1.0, 2.0)))
                    report = mt_vs_graph_equivalence(problem, gamma, x)
                    assert report.passed, (report.max_operator_diff,
                                           report.max_sweep_diff)

    def test_zero_ops_both_sides_telescope(self, rng):
        problem = mt.MTProblem(tuple(Zero(2) for _ in range(4)), theta=0.5)
        x = rng.standard_normal((3, 2))
        report = mt_vs_graph_equivalence(problem, 1.0, x)
        assert report.passed

    def test_n2_rejected(self):
        problem = neglog_mt()
        with pytest.raises(ParameterError):
            mt_vs_graph_equivalence(problem, 1.0, [[1.0]])
