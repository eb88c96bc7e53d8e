import math

import numpy as np
import pytest

from conftest import GAMMA_GRID, Case, WaitingGeometric, random_affine, run
from relosplit import dr2, schedules as sch
from relosplit.driver import ScheduleBudgetWarning, StopRule, ambient_norm, run_relocated
from relosplit.errors import DimensionError, ParameterError
from relosplit.operators import (
    NegLog,
    NormalConePoint,
    Zero,
)
from relosplit.selftest import check_relocator_axioms

SQRT5 = math.sqrt(5.0)


def neglog_problem():
    """The 1-D instance with disjoint fixed-point sets: Fix T_gamma = {1 + gamma}."""
    return dr2.DRProblem(NormalConePoint([1.0]), NegLog(1))


# scalar closed forms for the 1-D instance, independent of the library
def oracle_ja(gamma, x):
    return 1.0


def oracle_jb(gamma, x):
    return (x + math.sqrt(x * x + 4.0 * gamma)) / 2.0


def oracle_t(gamma, x):
    return (x + math.sqrt((2.0 - x) ** 2 + 4.0 * gamma)) / 2.0


def oracle_algorithm1(gammas, x0, steps):
    """Scalar transcription of the efficient relocated run."""
    x = x0
    z = oracle_ja(gammas(0), x)
    xs, zs = [x], [z]
    for n in range(steps):
        g, g1 = gammas(n), gammas(n + 1)
        y = oracle_jb(g, 2.0 * z - x)
        w = x - z + y
        z = oracle_ja(g, w)
        x = (g1 / g) * w + (1.0 - g1 / g) * z
        xs.append(x)
        zs.append(z)
    return xs, zs


class TestDRApply:
    def test_zero_operators(self):
        problem = dr2.DRProblem(Zero(2), Zero(2))
        w, z, y = dr2.dr_apply(problem, 1.5, [3.0, -1.0])
        assert np.allclose(w, [3.0, -1.0])
        assert np.allclose(z, [3.0, -1.0])
        assert np.allclose(y, [3.0, -1.0])

    def test_neglog_closed_forms(self):
        w, z, y = dr2.dr_apply(neglog_problem(), 1.0, [3.0])
        assert z[0] == 1.0
        assert y[0] == pytest.approx((-1.0 + SQRT5) / 2.0, abs=1e-15)
        assert w[0] == pytest.approx((3.0 + SQRT5) / 2.0, abs=1e-15)

    def test_fixed_point(self):
        w, _, _ = dr2.dr_apply(neglog_problem(), 1.0, [2.0])
        assert w[0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_scalar_oracle(self, rng):
        problem = neglog_problem()
        for _ in range(50):
            gamma = float(rng.uniform(0.1, 4.0))
            x = float(rng.uniform(-5.0, 5.0))
            w, _, _ = dr2.dr_apply(problem, gamma, [x])
            assert w[0] == pytest.approx(oracle_t(gamma, x), abs=1e-13)

    def test_firm_nonexpansiveness(self, rng):
        for problem in (neglog_problem(),
                        dr2.DRProblem(random_affine(rng, 3), random_affine(rng, 3))):
            for _ in range(50):
                gamma = float(rng.choice(GAMMA_GRID))
                x = 4.0 * rng.standard_normal(problem.dim)
                y = 4.0 * rng.standard_normal(problem.dim)
                tx, _, _ = dr2.dr_apply(problem, gamma, x)
                ty, _, _ = dr2.dr_apply(problem, gamma, y)
                lhs = (np.linalg.norm(tx - ty) ** 2
                       + np.linalg.norm((x - tx) - (y - ty)) ** 2)
                assert lhs <= np.linalg.norm(x - y) ** 2 + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            dr2.DRProblem(Zero(2), Zero(3))


class TestDRRelocator:
    def test_identity_when_equal(self):
        out = dr2.dr_relocator(dr2.DRProblem(NegLog(1), Zero(1))).apply(1.3, 1.3, [4.0])
        assert out[0] == 4.0

    def test_zero_operator_collapses(self):
        out = dr2.dr_relocator(dr2.DRProblem(Zero(1), Zero(1))).apply(1.0, 3.0, [4.0])
        assert out[0] == pytest.approx(4.0, abs=0.0)

    def test_hand_value(self):
        # 2*2 + (1-2)*1 = 3 = 1 + delta
        out = dr2.dr_relocator(neglog_problem()).apply(1.0, 2.0, [2.0])
        assert out[0] == 3.0

    def test_moves_fixed_points_exactly(self):
        relocator = dr2.dr_relocator(neglog_problem())
        for g in GAMMA_GRID:
            for d in GAMMA_GRID:
                out = relocator.apply(g, d, [1.0 + g])
                assert out[0] == pytest.approx(1.0 + d, abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            dr2.dr_relocator(dr2.DRProblem(Zero(1), Zero(1))).apply(-1.0, 1.0, [0.0])


class TestFixedPoints:
    """Fix T_gamma = {z + gamma w : w in Az, -w in Bz}: dr_apply fixes the
    point a pair (z, w) gives."""

    def test_neglog_fixed_points_are_one_plus_gamma(self):
        # z = 1, w = 1: w lies in the normal cone at 1 and -1 = (-ln)'(1)
        problem = neglog_problem()
        for gamma in GAMMA_GRID:
            assert dr2.dr_apply(problem, gamma, [1.0 + gamma])[0].tolist() == [1.0 + gamma]

    def test_zero_pair_fixes_every_point(self):
        # w = 0 lies in Az and -w in Bz at every z, so z itself is fixed
        problem = dr2.DRProblem(Zero(1), Zero(1))
        for gamma in (0.5, 1.0, 2.0):
            assert dr2.dr_apply(problem, gamma, [0.5])[0].tolist() == [0.5]

    def test_affine_pair_solved_directly(self, rng):
        a, b = random_affine(rng, 3), random_affine(rng, 3)
        problem = dr2.DRProblem(a, b)
        # solve (A + B) z = 0 directly, then w = A z and -w = B z
        z = np.linalg.solve(a.matrix + b.matrix, -(a.offset + b.offset))
        y = z + 2.0 * a.value(z)
        w, _, _ = dr2.dr_apply(problem, 2.0, y)
        assert np.linalg.norm(y - w) <= 1e-9

    def test_disjoint_fixed_point_sets(self):
        problem = neglog_problem()
        for g in GAMMA_GRID:
            for d in GAMMA_GRID:
                fix_g = dr2.dr_apply(problem, g, [1.0 + g])[0][0]
                fix_d = dr2.dr_apply(problem, d, [1.0 + d])[0][0]
                assert abs(fix_g - fix_d) == abs(g - d)


class TestAlgorithm1:
    def test_constant_schedule_reduces_to_classical_dr(self):
        problem = neglog_problem()
        trace = dr2.algorithm1_run(problem, sch.Constant(1.0), np.array([3.0]),
                                   StopRule(residual_tol=1e-16, max_iters=100))
        x = np.array([3.0])
        for n, iterate in enumerate(trace.iterates):
            assert np.max(np.abs(iterate - x)) <= 1e-12, f"mismatch at n={n}"
            x, _, _ = dr2.dr_apply(problem, 1.0, x)
        # and the classical iteration approaches Fix T_1 = {2}
        assert abs(trace.iterates[-1][0] - 2.0) <= 1e-6

    def test_geometric_matches_scalar_oracle(self):
        # a schedule without a declared limit: x_0 = 3 is on the moving
        # curve, so a run that knew the limit would relocate onto Fix T_1 at
        # once (see test_on_curve_start_relocates_onto_fix_t_at_the_limit)
        problem = neglog_problem()
        schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]),
                                   StopRule(residual_tol=1e-16, max_iters=60))
        xs, zs = oracle_algorithm1(lambda n: 1.0 + 0.5 ** n, 3.0, 60)
        for n, iterate in enumerate(trace.iterates):
            assert iterate[0] == pytest.approx(xs[n], abs=1e-12)
            assert trace.points[n][0] == pytest.approx(zs[n], abs=1e-12)
        assert abs(trace.iterates[-1][0] - 2.0) <= 1e-6
        assert abs(trace.points[-1][0] - 1.0) <= 1e-6

    def test_adaptive_step_at_the_clamp_matches_run_relocated_bit_for_bit(self):
        # the naive step forms T x = x - (z - y), as the runner does: as x - z + y
        # it was an ulp off, which gamma's jump to the 1e4 clamp made 1.8e-12
        problem = dr2.DRProblem(NormalConePoint([1.0374046058699675, 1.4682311715954466]),
                                Zero(2))
        x0 = np.array([-1.2142094517444664, -0.25294727240699827])
        stop, gamma0 = StopRule(7.288519359704362e-10, 31), 1.2157197417858834
        with pytest.warns(ScheduleBudgetWarning):
            eff = dr2.algorithm1_run(problem, sch.AdaptiveKappa(gamma0), x0, stop)
            naive = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                                  sch.AdaptiveKappa(gamma0), x0, stop)
        assert eff.gammas == naive.gammas == [gamma0, 1e4]
        assert [x.tobytes() for x in eff.iterates] == [x.tobytes() for x in naive.iterates]

    def test_shadow_consistency(self, rng):
        # z_n recorded by the runner equals J_{gamma_n A} x_n recomputed
        problem = dr2.DRProblem(random_affine(rng, 3), random_affine(rng, 3))
        schedule = sch.GeometricToLimit(limit=0.8, start=2.0, ratio=0.7)
        trace = dr2.algorithm1_run(problem, schedule, rng.standard_normal(3),
                                   StopRule(residual_tol=1e-14, max_iters=40))
        for gamma, x, z in zip(trace.gammas, trace.iterates, trace.points):
            direct = problem.op_a.resolvent(gamma, x)
            assert np.max(np.abs(direct - z)) <= 1e-12
        # the shadow is recorded once: the "z" column shares the point's array
        shared = trace.extra_vectors["z"]
        assert len(shared) == len(trace.points)
        assert all(z is point for z, point in zip(shared, trace.points))

    @pytest.mark.parametrize("runner", ["algorithm1_run", "run_relocated"])
    def test_budget_stop_on_moving_curve_is_max_iters(self, runner):
        # x_n = 1 + gamma_n stays on the moving fixed-point curve, so every
        # residual is 0, but gamma_2 = 1.25 still moves by 0.125 per step.
        # The schedule declares no limit, which a run would relocate to
        problem = neglog_problem()
        schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        stop = StopRule(residual_tol=1e-9, max_iters=2)
        case = Case("dr2", (problem.op_a, problem.op_b), schedule, np.array([3.0]), stop)
        trace = run(case, case.ops, naive=runner == "run_relocated")
        assert max(trace.residuals) <= stop.residual_tol
        assert trace.status == "max_iters"
        assert trace.iterations == 2

    @pytest.mark.parametrize("runner", ["algorithm1_run", "run_relocated"])
    def test_on_curve_start_relocates_onto_fix_t_at_the_limit(self, runner):
        # x_0 = 3 = 1 + gamma_0 is on the moving curve: residual 0 while gamma
        # moves, so the first relocation goes straight to the limit 1 and
        # lands on Fix T_1 = {2}, where the settled stop rule ends the run
        problem = neglog_problem()
        schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
        stop = StopRule(residual_tol=1e-9, max_iters=500)
        case = Case("dr2", (problem.op_a, problem.op_b), schedule, np.array([3.0]), stop)
        trace = run(case, case.ops, naive=runner == "run_relocated")
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert trace.relocated_to_limit_at == 0
        assert trace.gammas == [2.0, 1.0]
        assert trace.iterates[1].tolist() == [2.0]
        assert trace.points[1].tolist() == [1.0]
        assert trace.residuals == [0.0, 0.0]

    def test_opial_surrogate(self):
        # distance to the limit fixed point settles: last-quarter oscillation
        # along the moving stepsize, on a schedule without a declared limit
        problem = neglog_problem()
        schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]),
                                   StopRule(residual_tol=1e-16, max_iters=200))
        target = 2.0  # the unique point of Fix T_1
        dists = [abs(x[0] - target) for x in trace.iterates]
        tail = dists[3 * len(dists) // 4:]
        assert max(tail) - min(tail) <= 1e-4

    def test_anchor_decrease_inequality(self):
        # ||x_{n+1} - c_{n+1}|| <= L_n ||x_n - c_n||, where the anchor c_n, a
        # fixed point of T_{gamma_n}, is replayed by the relocator over the
        # trace's own gammas and L_n bounds Q_{gamma_{n+1}<-gamma_n}
        problem = neglog_problem()
        relocator = dr2.dr_relocator(problem)
        schedule = sch.ExplicitList([1.0, 2.0, 0.5, 1.5, 1.0, 1.0])
        anchor = np.array([2.0])  # Fix T_1 = {1 + 1}
        trace = run_relocated(dr2.dr_family(problem), relocator, schedule, np.array([5.0]),
                              StopRule(residual_tol=1e-14, max_iters=5))
        assert len(trace) == 6
        for n in range(len(trace) - 1):
            gamma, delta = trace.gammas[n], trace.gammas[n + 1]
            dist = ambient_norm(trace.iterates[n] - anchor)
            anchor = relocator.apply(gamma, delta, anchor)
            assert (ambient_norm(trace.iterates[n + 1] - anchor)
                    <= relocator.lipschitz_bound(gamma, delta) * dist + 1e-12)


class TestDRAxiomsHarness:
    def test_neglog_instance_passes(self, rng):
        problem = neglog_problem()
        fixed_points = [(g, np.array([1.0 + g])) for g in GAMMA_GRID]
        report = check_relocator_axioms(
            dr2.dr_family(problem), dr2.dr_relocator(problem),
            fixed_points, GAMMA_GRID, tol=1e-9, rng=rng)
        assert report.passed
        assert report.max_lipschitz_ratio_excess <= 1e-10

    def test_broken_relocator_flagged(self, rng):
        problem = neglog_problem()
        fixed_points = [(1.0, np.array([2.0]))]
        from relosplit.driver import Relocator
        relocator = dr2.dr_relocator(problem)
        broken = Relocator(lambda g, d, x: relocator.apply(g, d, x) + 0.1,
                           relocator.lipschitz_bound)
        report = check_relocator_axioms(dr2.dr_family(problem), broken,
                                        fixed_points, GAMMA_GRID, rng=rng)
        assert not report.bijection_ok
        assert not report.semigroup_ok
