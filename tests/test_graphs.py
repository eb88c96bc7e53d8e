import numpy as np
import pytest

from conftest import GAMMA_GRID, random_affine
from relosplit import graphs, problems, schedules as sch
from relosplit.driver import StopRule, run_relocated
from relosplit.errors import (
    ConstructionError,
    DimensionError,
    InfeasibleError,
    ParameterError,
)
from relosplit.linalg import BlockVector
from relosplit.malitsky_tam import MTProblem, mt_family, mt_graph
from relosplit.operators import (
    AffineMonotone,
    CountingOperator,
    NegLog,
    NormalConeBall,
    NormalConeBox,
    NormalConePoint,
    Scaled,
    Translated,
    Zero,
)


def chorded_path(n=4):
    """Path spanning tree with two extra chords."""
    tree = [(i, i + 1) for i in range(1, n)]
    return graphs.build_graph(n, tree + [(1, 3), (2, 4)], tree)


def affine_ops(rng, g, dim=2):
    return [random_affine(rng, dim) for _ in range(g.n_nodes)]


class TestBuildGraph:
    def test_mt_degrees(self):
        g = graphs.build_graph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3)])
        assert list(g.deg) == [2, 2, 2]
        assert list(g.indeg) == [0, 1, 2]
        assert list(g.outdeg) == [2, 1, 0]
        assert list(g.tree_deg) == [1, 2, 1]
        assert list(g.chord_deg) == [1, 0, 1]

    def test_tree_not_spanning(self):
        with pytest.raises(ConstructionError, match="spanning|N-1"):
            graphs.build_graph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2)])

    def test_backward_arc(self):
        with pytest.raises(ConstructionError, match="ordering"):
            graphs.build_graph(3, [(2, 1), (2, 3)], [(2, 3)])

    def test_tree_must_be_subset(self):
        with pytest.raises(ConstructionError, match="subset"):
            graphs.build_graph(3, [(1, 2), (2, 3)], [(1, 3), (1, 2)])

    def test_duplicate_arc(self):
        with pytest.raises(ConstructionError, match="duplicate"):
            graphs.build_graph(3, [(1, 2), (1, 2), (2, 3)], [(1, 2), (2, 3)])

    def test_disconnected_tree(self):
        with pytest.raises(ConstructionError):
            graphs.build_graph(4, [(1, 2), (3, 4), (1, 4)], [(1, 2), (3, 4)])

    def test_too_few_nodes(self):
        with pytest.raises(ConstructionError):
            graphs.build_graph(1, [], [])


class TestGraphMatrices:
    def test_mt3_hand_values(self):
        g = mt_graph(3)
        m = g.matrices
        assert np.array_equal(m.Z, [[1, 0], [-1, 1], [0, -1]])
        assert np.array_equal(m.L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.array_equal(m.R, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        assert np.array_equal(m.P, [[1, 0, 0], [0, 0, 0], [-2, 0, 1]])
        expected_zdag = np.array([[2.0, -1.0, -1.0], [1.0, 1.0, -2.0]]) / 3.0
        assert np.max(np.abs(m.Zdag - expected_zdag)) < 1e-14
        assert m.Zdag_norm == pytest.approx(1.0)

    def test_identities_across_graphs(self):
        for g in [mt_graph(n) for n in (3, 4, 5, 6)] + [chorded_path()]:
            m = g.matrices
            n = g.n_nodes
            assert np.max(np.abs(m.L - m.Z @ m.Z.T)) <= 1e-12
            assert np.max(np.abs(m.M - m.C @ m.C.T)) <= 1e-12
            assert np.max(np.abs(m.R + m.R.T)) <= 1e-12
            assert np.max(np.abs(m.Z.T @ np.ones(n))) <= 1e-12
            assert np.max(np.abs(m.Zdag @ m.Z - np.eye(n - 1))) <= 1e-10
            assert int(g.deg.sum()) == 2 * len(g.arcs)
            assert int(g.indeg[1:].sum()) == len(g.arcs)
            assert int(g.outdeg[:-1].sum()) == len(g.arcs)


class TestGraphDRApply:
    def test_zero_ops_hand_sweep(self):
        g = mt_graph(3)
        ops = [Zero(1)] * 3
        w, z = graphs.graph_dr_apply(ops, g, 1.0, 1.0, BlockVector([[2.0], [0.0]]))
        assert z.allclose(BlockVector([[1.0], [0.0], [1.0]]))
        assert w.allclose(BlockVector([[1.0], [1.0]]))

    def test_consensus_is_fixed(self):
        g = mt_graph(3)
        ops = [Zero(1)] * 3
        x = BlockVector([[1.0], [1.0]])
        w, z = graphs.graph_dr_apply(ops, g, 1.0, 1.0, x)
        assert z.allclose(BlockVector([[0.5], [0.5], [0.5]]))
        assert w.allclose(x)

    def test_normal_cone_point_everything_fixed(self, rng):
        g = mt_graph(4)
        p = rng.standard_normal(2)
        ops = [NormalConePoint(p)] * 4
        x = BlockVector(rng.standard_normal((3, 2)))
        w, z = graphs.graph_dr_apply(ops, g, 1.7, 0.9, x)
        for block in z:
            assert np.allclose(block, p)
        assert w.allclose(x, tol=1e-12)

    def test_theta_range(self):
        g = mt_graph(3)
        with pytest.raises(ParameterError):
            graphs.graph_dr_apply([Zero(1)] * 3, g, 1.0, 2.0, BlockVector([[0.0], [0.0]]))

    def test_averagedness(self, rng):
        # theta/2-averaged: ||Tu-Tv||^2 + ((1-a)/a)||(I-T)u-(I-T)v||^2 <= ||u-v||^2
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        for theta in (0.5, 1.0, 1.5):
            alpha = theta / 2.0
            for _ in range(30):
                u = BlockVector(3.0 * rng.standard_normal((2, 2)))
                v = BlockVector(3.0 * rng.standard_normal((2, 2)))
                tu, _ = graphs.graph_dr_apply(ops, g, 1.3, theta, u)
                tv, _ = graphs.graph_dr_apply(ops, g, 1.3, theta, v)
                lhs = (tu - tv).norm() ** 2 + ((1 - alpha) / alpha) * (
                    (u - tu) - (v - tv)).norm() ** 2
                assert lhs <= (u - v).norm() ** 2 + 1e-9


class TestRelocationVector:
    def test_hand_values(self):
        g = mt_graph(3)
        e = graphs.relocation_vector_e(g, BlockVector([[0.5], [0.5], [0.5]]))
        assert e.allclose(BlockVector([[1.0], [0.0], [-1.0]]))

    def test_zero(self):
        g = mt_graph(3)
        e = graphs.relocation_vector_e(g, BlockVector.zeros(3, 2))
        assert e.norm() == 0.0

    def test_blocks_sum_to_zero(self, rng):
        for g in (mt_graph(4), chorded_path()):
            z = BlockVector(rng.standard_normal((g.n_nodes, 3)))
            e = graphs.relocation_vector_e(g, z)
            assert np.max(np.abs(e.data.sum(axis=0))) <= 1e-12


class TestGraphRelocator:
    def test_identity_when_equal(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        x = BlockVector(rng.standard_normal((2, 2)))
        assert graphs.graph_relocator_apply(ops, g, 1.3, 1.3, x).allclose(x)

    def test_zero_ops_fixed_point(self):
        # consensus x = ((1),(1)) stays put: Zdag e = ((1),(1))
        g = mt_graph(3)
        ops = [Zero(1)] * 3
        x = BlockVector([[1.0], [1.0]])
        for delta in (0.5, 2.0, 4.0):
            y = graphs.graph_relocator_apply(ops, g, 1.0, delta, x)
            assert y.allclose(x, tol=1e-12)

    def test_system_residual_random(self, rng):
        for g in (mt_graph(3), mt_graph(5), chorded_path()):
            ops = affine_ops(rng, g)
            for _ in range(100):
                x = BlockVector(3.0 * rng.standard_normal((g.n_nodes - 1, 2)))
                gamma, delta = rng.choice(GAMMA_GRID, size=2)
                resid = graphs.relocator_system_residual(ops, g, gamma, delta, x)
                assert resid <= 1e-10

    def test_fixed_point_transport(self, rng):
        for g in (mt_graph(3), mt_graph(4), chorded_path()):
            ops = affine_ops(rng, g)
            for gamma in (0.5, 1.0, 2.0):
                x_fix, _ = graphs.fix_point_oracle_affine(ops, g, gamma)
                for delta in GAMMA_GRID:
                    y = graphs.graph_relocator_apply(ops, g, gamma, delta, x_fix)
                    w, _ = graphs.graph_dr_apply(ops, g, delta, 1.0, y)
                    assert (y - w).norm() <= 1e-8

    def test_semigroup_on_fixed_points(self, rng):
        g = mt_graph(4)
        ops = affine_ops(rng, g)
        x_fix, _ = graphs.fix_point_oracle_affine(ops, g, 1.0)
        for d in GAMMA_GRID:
            for e in GAMMA_GRID:
                step = graphs.graph_relocator_apply(ops, g, 1.0, d, x_fix)
                two_step = graphs.graph_relocator_apply(ops, g, d, e, step)
                direct = graphs.graph_relocator_apply(ops, g, 1.0, e, x_fix)
                assert (two_step - direct).norm() <= 1e-9


class TestLipschitzBound:
    def test_equal_stepsizes_give_one(self):
        g = mt_graph(3)
        assert graphs.graph_relocator_lipschitz_bound(g, g.matrices.Zdag_norm,
                                                      1.3, 1.3) == 1.0

    def test_mt3_hand_recursion(self):
        # L_1 = 1, L_2 = 1 + sqrt(2), L_3 = 3 + sqrt(2); norm(Zdag) = 1
        g = mt_graph(3)
        bound = graphs.graph_relocator_lipschitz_bound(g, g.matrices.Zdag_norm,
                                                       1.0, 2.0)
        expected = 2.0 + np.sqrt(1.0 + (3.0 + np.sqrt(2.0)) ** 2)
        assert bound == pytest.approx(expected, abs=1e-12)
        assert bound == pytest.approx(6.526, abs=1e-3)

    def test_empirical_ratio_below_bound(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        zdag_norm = g.matrices.Zdag_norm
        for gamma, delta in ((1.0, 2.0), (2.0, 0.5), (0.5, 4.0)):
            bound = graphs.graph_relocator_lipschitz_bound(g, zdag_norm, gamma, delta)
            for _ in range(200):
                u = BlockVector(4.0 * rng.standard_normal((2, 2)))
                v = BlockVector(4.0 * rng.standard_normal((2, 2)))
                denom = (u - v).norm()
                qu = graphs.graph_relocator_apply(ops, g, gamma, delta, u)
                qv = graphs.graph_relocator_apply(ops, g, gamma, delta, v)
                assert (qu - qv).norm() <= bound * denom + 1e-9


class TestAffineOracle:
    def test_zero_ops(self):
        g = mt_graph(3)
        x_fix, z_star = graphs.fix_point_oracle_affine([Zero(1)] * 3, g, 1.0)
        w, _ = graphs.graph_dr_apply([Zero(1)] * 3, g, 1.0, 1.0, x_fix)
        assert (x_fix - w).norm() <= 1e-10

    def test_translation_consensus_mean(self):
        # A_i x = x - c_i: the consensus zero is the mean of the c_i
        g = mt_graph(3)
        cs = [np.array([1.0]), np.array([3.0]), np.array([5.0])]
        ops = [AffineMonotone(np.eye(1), -c) for c in cs]
        x_fix, z_star = graphs.fix_point_oracle_affine(ops, g, 1.0)
        assert z_star[0] == pytest.approx(3.0, abs=1e-10)
        w, z = graphs.graph_dr_apply(ops, g, 1.0, 1.0, x_fix)
        assert (x_fix - w).norm() <= 1e-8
        for block in z:
            assert block[0] == pytest.approx(3.0, abs=1e-8)

    def test_infeasible_detected(self):
        # constant fields b_i with a nonzero total have no common zero
        g = mt_graph(3)
        ops = [AffineMonotone(np.zeros((1, 1)), [float(b)]) for b in (1.0, 1.0, 1.0)]
        with pytest.raises(InfeasibleError):
            graphs.fix_point_oracle_affine(ops, g, 1.0)

    def test_non_affine_rejected(self):
        g = mt_graph(3)
        with pytest.raises(ParameterError):
            graphs.fix_point_oracle_affine([NegLog(1)] * 3, g, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: NormalConePoint([0.5]),
        lambda: NormalConeBox([-1.0], [1.0]),
        lambda: NormalConeBall([0.0], 1.0),
        lambda: Scaled(Translated(NegLog(1), [1.0]), 2.0),
        lambda: CountingOperator(NormalConeBox([-1.0], [1.0])),
    ], ids=["point", "box", "ball", "scaled-translated-neglog", "counting-box"])
    def test_non_affine_kind_among_affine_rejected(self, make):
        ops = [AffineMonotone(np.eye(1), [1.0]), make(), Zero(1)]
        with pytest.raises(ParameterError, match="affine operators"):
            graphs.fix_point_oracle_affine(ops, mt_graph(3), 1.0)


class TestGraphRelocatedRun:
    def test_constant_schedule_is_plain_graph_dr(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        x0 = BlockVector(rng.standard_normal((2, 2)))
        trace = graphs.graph_relocated_run(ops, g, 1.0, sch.Constant(1.0), x0,
                                           StopRule(residual_tol=1e-13, max_iters=40))
        x = x0
        for n, iterate in enumerate(trace.iterates):
            assert np.max(np.abs(iterate.data - x.data)) <= 1e-12, f"n={n}"
            x, _ = graphs.graph_dr_apply(ops, g, 1.0, 1.0, x)

    def test_normal_cone_points_consensus_in_one_sweep(self, rng):
        g = mt_graph(3)
        p = rng.standard_normal(2)
        ops = [NormalConePoint(p)] * 3
        x0 = BlockVector(rng.standard_normal((2, 2)))
        trace = graphs.graph_relocated_run(ops, g, 1.0, sch.Constant(1.0), x0,
                                           StopRule(residual_tol=1e-10, max_iters=5))
        z_first = trace.points[0].reshape(3, 2)
        assert np.max(np.abs(z_first - p[None, :])) <= 1e-12

    def test_affine_convergence_to_known_zero(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        # independent linear-solve oracle for the common zero
        m_total = sum(op.matrix for op in ops)
        b_total = sum(op.offset for op in ops)
        z_star = np.linalg.solve(m_total, -b_total)
        schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
        trace = graphs.graph_relocated_run(
            ops, g, 1.0, schedule, BlockVector.zeros(2, 2),
            StopRule(residual_tol=1e-12, max_iters=3000))
        assert trace.status == "converged"
        z_final = trace.points[-1].reshape(3, 2)
        for block in z_final:
            assert np.linalg.norm(block - z_star) <= 1e-6

    def test_matches_generic_driver(self, rng):
        # the chorded path and the adaptive schedule reach the reuse of the
        # feedback sweep inside the relocation
        for g in (mt_graph(4), chorded_path(5)):
            ops = affine_ops(rng, g)
            x0 = BlockVector(rng.standard_normal((g.n_nodes - 1, 2)))
            stop = StopRule(residual_tol=1e-14, max_iters=30)
            for schedule in (sch.ExplicitList([2.0, 1.0, 1.4, 0.9, 1.0]),
                             sch.AdaptiveKappa(1.0)):
                direct = graphs.graph_relocated_run(ops, g, 0.8, schedule, x0, stop)
                naive = run_relocated(graphs.graph_family(ops, g, 0.8),
                                      graphs.graph_relocator(ops, g), schedule, x0, stop)
                assert direct.status == naive.status
                assert direct.gammas == naive.gammas
                assert len(direct.iterates) == len(naive.iterates)
                for a, b in zip(direct.iterates, naive.iterates):
                    assert np.max(np.abs(a.data - b.data)) <= 1e-12

    def test_resolvent_counts(self, rng):
        # one sweep per iteration, plus one more per step that moves gamma;
        # an adaptive run sweeps twice per iteration, the stopping one included
        g = chorded_path(5)
        stop = StopRule(residual_tol=1e-10, max_iters=3000)
        for schedule in (sch.Constant(1.0),
                         sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.9),
                         sch.AdaptiveKappa(1.0)):
            ops = [CountingOperator(op) for op in affine_ops(rng, g)]
            trace = graphs.graph_relocated_run(ops, g, 1.0, schedule,
                                               BlockVector.zeros(4, 2), stop)
            assert trace.status == "converged"
            iterations = trace.iterations
            if schedule.is_adaptive:
                expected = 2 * (iterations + 1)
            else:
                moves = sum(a != b for a, b in zip(trace.gammas, trace.gammas[1:]))
                expected = iterations + 1 + moves
            assert [op.calls for op in ops] == [expected] * g.n_nodes

    def test_x0_block_dimension_checked_before_any_resolvent(self, rng):
        g = chorded_path(4)
        ops = [CountingOperator(op) for op in affine_ops(rng, g, dim=2)]
        # the entry check names the expected shape; a resolvent would only
        # report a dimension mismatch of its own point
        for shape in ((3, 3), (2, 2)):
            with pytest.raises(DimensionError, match="3 blocks of dimension 2"):
                graphs.graph_relocated_run(ops, g, 1.0, sch.Constant(1.0),
                                           BlockVector.zeros(*shape),
                                           StopRule(residual_tol=1e-9, max_iters=5))
        assert [op.calls for op in ops] == [0] * g.n_nodes

    def test_consensus_residual_recorded(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        trace = graphs.graph_relocated_run(
            ops, g, 1.0, sch.Constant(1.0), BlockVector.zeros(2, 2),
            StopRule(residual_tol=1e-9, max_iters=500))
        cons = trace.extra_scalars["consensus_residual"]
        assert len(cons) == len(trace.residuals)
        # residual = theta * consensus for theta = 1
        for r, c in zip(trace.residuals, cons):
            assert r == pytest.approx(c, abs=1e-13)


class TestAdaptiveFeedback:
    def test_pair_matches_mt_under_half_scaling(self, rng):
        # the ring graph at (2 gamma, 2 theta, 2 w) and MT at (gamma, theta, w)
        # feed the adaptive rule the same (z_1, input of node 1's resolvent)
        g = mt_graph(4)
        ops = affine_ops(rng, g)
        theta, gamma = 0.4, 0.7
        w = BlockVector(rng.standard_normal((3, 2)))
        graph_pair = graphs.graph_family(ops, g, 2.0 * theta).feedback(2.0 * gamma, 2.0 * w)
        mt_pair = mt_family(MTProblem(tuple(ops), theta)).feedback(gamma, w)
        for a, b in zip(graph_pair, mt_pair):
            assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12

    def test_chorded_graph_converges(self):
        # with block 0 of w as the reference point this run drove gamma down
        # to the 1e-4 clamp and ended max_iters with an oracle residual of 3.9
        inst = problems.make_problem("affine_random", {"count": 5, "dim": 3}, seed=8)
        tree = [(1, 2), (2, 3), (3, 4), (4, 5)]
        g = graphs.build_graph(5, tree + [(1, 3), (2, 5)], tree)
        trace = graphs.graph_relocated_run(
            inst.ops, g, 1.0, sch.AdaptiveKappa(1.0), BlockVector.zeros(4, 3),
            StopRule(residual_tol=1e-8, max_iters=20000),
            solution_residual=lambda z: problems.solution_residual(inst, z))
        assert trace.status == "converged"
        assert trace.iterations < 1000
        assert min(trace.gammas) > 1e-4
        assert trace.solution_residuals[-1] <= 1e-6
