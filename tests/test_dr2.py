import math

import numpy as np
import pytest

from conftest import GAMMA_GRID, WaitingGeometric, random_affine
from relosplit import dr2, schedules as sch
from relosplit.driver import StopRule, ambient_norm, run_relocated
from relosplit.errors import CertificateError, DimensionError, ParameterError
from relosplit.operators import (
    CountingOperator,
    NegLog,
    NormalConePoint,
    Zero,
)
from relosplit.selftest import check_relocator_axioms, dr_fixed_point

SQRT5 = math.sqrt(5.0)


def neglog_problem():
    """The 1-D instance with disjoint fixed-point sets: Fix T_gamma = {1 + gamma}."""
    return dr2.DRProblem(NormalConePoint([1.0]), NegLog(1))


def neglog_certificate(problem):
    return dr2.DRCertificate(problem, z=[1.0], w=[1.0])


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
        out = dr2.dr_relocator_apply(NegLog(1), 1.3, 1.3, [4.0])
        assert out[0] == 4.0

    def test_zero_operator_collapses(self):
        out = dr2.dr_relocator_apply(Zero(1), 1.0, 3.0, [4.0])
        assert out[0] == pytest.approx(4.0, abs=0.0)

    def test_hand_value(self):
        # 2*2 + (1-2)*1 = 3 = 1 + delta
        out = dr2.dr_relocator_apply(NormalConePoint([1.0]), 1.0, 2.0, [2.0])
        assert out[0] == 3.0

    def test_moves_fixed_points_exactly(self):
        problem = neglog_problem()
        for g in GAMMA_GRID:
            for d in GAMMA_GRID:
                out = dr2.dr_relocator_apply(problem.op_a, g, d, [1.0 + g])
                assert out[0] == pytest.approx(1.0 + d, abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ParameterError):
            dr2.dr_relocator_apply(Zero(1), -1.0, 1.0, [0.0])


class TestCertificates:
    def test_neglog_certificate_and_fixed_points(self):
        problem = neglog_problem()
        cert = neglog_certificate(problem)
        for gamma in GAMMA_GRID:
            assert dr_fixed_point(cert, gamma)[0] == 1.0 + gamma

    def test_zero_displacement(self):
        problem = dr2.DRProblem(Zero(1), Zero(1))
        cert = dr2.DRCertificate(problem, z=[0.5], w=[0.0])
        for gamma in (0.5, 1.0, 2.0):
            assert dr_fixed_point(cert, gamma)[0] == 0.5

    def test_affine_certificate_from_solve(self, rng):
        a, b = random_affine(rng, 3), random_affine(rng, 3)
        problem = dr2.DRProblem(a, b)
        # solve (A + B) z = 0 directly, then w = A z
        m = a.matrix + b.matrix
        z = np.linalg.solve(m, -(a.offset + b.offset))
        cert = dr2.DRCertificate(problem, z=z, w=a.value(z))
        y = dr_fixed_point(cert, 2.0)
        w, _, _ = dr2.dr_apply(problem, 2.0, y)
        assert np.linalg.norm(y - w) <= 1e-9

    def test_invalid_membership_rejected(self):
        problem = neglog_problem()
        with pytest.raises(CertificateError):
            dr2.DRCertificate(problem, z=[2.0], w=[1.0])  # z != 1
        with pytest.raises(CertificateError):
            dr2.DRCertificate(problem, z=[1.0], w=[2.0])  # -2 != -1/1

    def test_disjoint_fixed_point_sets(self):
        cert = neglog_certificate(neglog_problem())
        for g in GAMMA_GRID:
            for d in GAMMA_GRID:
                gap = abs(dr_fixed_point(cert, g)[0]
                          - dr_fixed_point(cert, d)[0])
                assert gap == abs(g - d)


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

    def test_matches_run_relocated_per_iterate(self, rng):
        problems = [neglog_problem(),
                    dr2.DRProblem(random_affine(rng, 3), random_affine(rng, 3))]
        schedules = [sch.Constant(1.5),
                     sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5),
                     sch.ExplicitList([2.0, 0.7, 1.3, 1.0])]
        for problem in problems:
            for schedule in schedules:
                x0 = rng.standard_normal(problem.dim)
                stop = StopRule(residual_tol=1e-14, max_iters=50)
                eff = dr2.algorithm1_run(problem, schedule, x0, stop)
                naive = run_relocated(dr2.dr_family(problem),
                                      dr2.dr_relocator(problem),
                                      schedule, x0.copy(), stop)
                assert eff.status == naive.status
                assert len(eff.iterates) == len(naive.iterates)
                for a, b in zip(eff.iterates, naive.iterates):
                    assert np.max(np.abs(a - b)) <= 1e-12
                assert eff.gammas == pytest.approx(naive.gammas, abs=0.0)

    def test_adaptive_matches_run_relocated(self, rng):
        problem = dr2.DRProblem(random_affine(rng, 2), random_affine(rng, 2))
        x0 = rng.standard_normal(2)
        stop = StopRule(residual_tol=1e-11, max_iters=200)
        eff = dr2.algorithm1_run(problem, sch.AdaptiveKappa(1.0), x0, stop)
        naive = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                              sch.AdaptiveKappa(1.0), x0.copy(), stop)
        assert len(eff.iterates) == len(naive.iterates)
        for a, b in zip(eff.iterates, naive.iterates):
            assert np.max(np.abs(a - b)) <= 1e-10

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

    def test_one_resolvent_per_operator_per_iteration(self):
        op_a = CountingOperator(NormalConePoint([1.0]))
        op_b = CountingOperator(NegLog(1))
        problem = dr2.DRProblem(op_a, op_b)
        # no declared limit: the run follows the moving stepsize for all 30
        # iterations instead of relocating onto Fix T_1 at once
        schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]),
                                   StopRule(residual_tol=1e-16, max_iters=30))
        iterations = trace.iterations
        # z_0 costs one extra call of A before the loop
        assert op_b.calls == iterations + 1
        assert op_a.calls == iterations + 1

    def test_adaptive_resolvent_counts(self, rng):
        # the stop test of the last iteration, a budget stop included, needs
        # one feedback resolvent of A
        for max_iters, status in ((2000, "converged"), (7, "max_iters")):
            op_a = CountingOperator(random_affine(rng, 3))
            op_b = CountingOperator(random_affine(rng, 3))
            trace = dr2.algorithm1_run(dr2.DRProblem(op_a, op_b), sch.AdaptiveKappa(1.0),
                                       rng.standard_normal(3),
                                       StopRule(residual_tol=1e-10, max_iters=max_iters))
            assert trace.status == status
            assert op_a.calls == trace.iterations + 2
            assert op_b.calls == trace.iterations + 1

    @pytest.mark.parametrize("runner", ["algorithm1_run", "run_relocated"])
    def test_budget_stop_on_moving_curve_is_max_iters(self, runner):
        # x_n = 1 + gamma_n stays on the moving fixed-point curve, so every
        # residual is 0, but gamma_2 = 1.25 still moves by 0.125 per step.
        # The schedule declares no limit, which a run would relocate to
        problem = neglog_problem()
        schedule = WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
        stop = StopRule(residual_tol=1e-9, max_iters=2)
        if runner == "algorithm1_run":
            trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]), stop)
        else:
            trace = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                                  schedule, np.array([3.0]), stop)
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
        if runner == "algorithm1_run":
            trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]), stop)
        else:
            trace = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                                  schedule, np.array([3.0]), stop)
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
        anchor = dr_fixed_point(neglog_certificate(problem), 1.0)
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
        cert = neglog_certificate(problem)
        fixed_points = [(g, dr_fixed_point(cert, g)) for g in GAMMA_GRID]
        report = check_relocator_axioms(
            dr2.dr_family(problem), dr2.dr_relocator(problem),
            fixed_points, GAMMA_GRID, tol=1e-9, rng=rng)
        assert report.passed
        assert report.max_lipschitz_ratio_excess <= 1e-10

    def test_broken_relocator_flagged(self, rng):
        problem = neglog_problem()
        cert = neglog_certificate(problem)
        fixed_points = [(1.0, dr_fixed_point(cert, 1.0))]
        from relosplit.driver import Relocator
        broken = Relocator(
            lambda g, d, x: dr2.dr_relocator_apply(problem.op_a, g, d, x) + 0.1,
            dr2.dr_lipschitz)
        report = check_relocator_axioms(dr2.dr_family(problem), broken,
                                        fixed_points, GAMMA_GRID, rng=rng)
        assert not report.bijection_ok
        assert not report.semigroup_ok
