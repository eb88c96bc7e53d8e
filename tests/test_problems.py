import numpy as np
import pytest

from conftest import GAMMA_GRID, WaitingGeometric
from relosplit import cli, dr2, problems
from relosplit.errors import ConstructionError, NoOracleError


class TestIndicatorNeglog:
    def test_instance(self):
        inst = problems.make_problem("indicator_neglog")
        assert inst.dim == 1
        assert inst.n_ops == 2
        assert inst.solution_point[0] == 1.0
        assert problems.solution_residual(inst, [1.0]) == 0.0

    def test_fixed_points_exact(self):
        # Fix T_gamma = {z + gamma w} = {1 + gamma}: w = 1 lies in the normal
        # cone at z = 1 and -1 = (-ln)'(1)
        problem = problems.make_problem("indicator_neglog").dr_problem()
        for gamma in GAMMA_GRID:
            assert dr2.dr_apply(problem, gamma, [1.0 + gamma])[0].tolist() == [1.0 + gamma]

    def test_dr_problem_helper(self):
        inst = problems.make_problem("indicator_neglog")
        problem = inst.dr_problem()
        w, _, _ = dr2.dr_apply(problem, 1.0, [2.0])
        assert w[0] == pytest.approx(2.0, abs=1e-15)


class TestAffineConsensus:
    def test_explicit_centers(self):
        inst = problems.make_problem("affine_consensus",
                                     {"c": [[1.0], [3.0], [5.0]]})
        assert inst.solution_point[0] == pytest.approx(3.0)
        assert problems.solution_residual(inst, [3.0]) == pytest.approx(0.0, abs=1e-12)
        assert problems.solution_residual(inst, [0.0]) == pytest.approx(9.0)

    def test_seeded_generation_is_reproducible(self):
        a = problems.make_problem("affine_consensus",
                                  {"count": 4, "dim": 3}, seed=7)
        b = problems.make_problem("affine_consensus",
                                  {"count": 4, "dim": 3}, seed=7)
        assert np.array_equal(a.solution_point, b.solution_point)
        c = problems.make_problem("affine_consensus",
                                  {"count": 4, "dim": 3}, seed=8)
        assert not np.array_equal(a.solution_point, c.solution_point)

    def test_needs_two_centers(self):
        with pytest.raises(ConstructionError):
            problems.make_problem("affine_consensus", {"c": [[1.0]]})


class TestSolutionPoints:
    """A factory's solution point is a zero by construction, so building a
    problem does not ask its oracle: the oracle accepts the point at unit
    scale, and at large scale, where its residual is rounding, the problem
    still builds."""

    @pytest.mark.parametrize("name, params, seed", [
        ("indicator_neglog", None, None),
        ("affine_consensus", {"count": 4, "dim": 3}, 3),
        ("affine_random", {"count": 4, "dim": 3}, 3),
    ])
    def test_planted_zero_validates(self, name, params, seed):
        inst = problems.make_problem(name, params, seed=seed)
        assert problems.solution_residual(inst, inst.solution_point) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_large_spread_builds(self, seed):
        doc = {"problem": {"name": "affine_consensus",
                           "params": {"count": 3, "dim": 4, "spread": 1e9}},
               "algorithm": "mt", "theta": 0.5,
               "schedule": {"kind": "geometric", "limit": 1.0, "start": 2.0, "ratio": 0.9},
               "stop": {"residual_tol": 1e-10, "max_iters": 50}}
        inst = cli.parse_config(doc, seed=seed).problem
        # the centres' mean, each centre minus its operator's offset
        assert inst.solution_point.tolist() == np.mean(
            [-op.offset for op in inst.ops], axis=0).tolist()


class TestAffineRandom:
    def test_nonzero_candidate_has_positive_residual(self):
        inst = problems.make_problem("affine_random",
                                     {"count": 3, "dim": 2}, seed=5)
        off = inst.solution_point + 1.0
        assert problems.solution_residual(inst, off) > 1e-3


class TestAffineOracle:
    @pytest.mark.parametrize("name, params, seed", [
        ("affine_random", {"count": 2, "dim": 16}, 1),
        ("affine_random", {"count": 6, "dim": 32}, 2),
        ("affine_consensus", {"count": 4, "dim": 5, "spread": 3.0}, 3),
        ("affine_consensus", {"c": [[1.0, -2.0], [0.5, 4.0], [-3.0, 0.0]]}, None),
    ])
    def test_summed_oracle_matches_sum_of_values(self, name, params, seed):
        inst = problems.make_problem(name, params, seed=seed)
        rng = np.random.default_rng(7)
        points = [inst.solution_point] + [scale * rng.standard_normal(inst.dim)
                                          for scale in (1e-6, 1.0, 1e3, 1e8)]
        for z in points:
            values = [op.value(z) for op in inst.ops]
            direct = float(np.linalg.norm(sum(values)))
            scale = 1.0 + sum(np.linalg.norm(op.matrix @ z) + np.linalg.norm(op.offset)
                              for op in inst.ops)
            assert abs(problems.solution_residual(inst, z) - direct) <= 1e-12 * scale


class TestBoxFeasibility:
    def test_disjoint_boxes_have_no_oracle(self):
        inst = problems.make_problem(
            "box_feasibility",
            {"boxes": [[[0.0], [1.0]], [[2.0], [3.0]]]})
        assert not inst.has_oracle
        with pytest.raises(NoOracleError):
            problems.solution_residual(inst, [0.5])

    def test_overlapping_boxes_distance(self):
        inst = problems.make_problem(
            "box_feasibility",
            {"boxes": [[[0.0], [2.0]], [[1.0], [3.0]]]})
        assert inst.has_oracle
        assert problems.solution_residual(inst, [1.5]) == 0.0
        assert problems.solution_residual(inst, [0.0]) == pytest.approx(1.0)

    def test_distance_is_clip_form(self):
        boxes = [[[-1.0, 0.0, -2.0, 0.5], [1.0, 2.0, 0.0, 3.0]],
                 [[-2.0, 0.0, -1.0, 0.0], [0.5, 3.0, 0.0, 1.5]]]
        inst = problems.make_problem("box_feasibility", {"boxes": boxes})
        lo, hi = np.array([-1.0, 0.0, -1.0, 0.5]), np.array([0.5, 2.0, 0.0, 1.5])
        rng = np.random.default_rng(11)
        points = [lo, hi, (lo + hi) / 2, np.where([1, 0, 1, 0], lo, hi),
                  np.array([-0.0, 0.0, -0.0, 0.0])]
        points += [3.0 * rng.standard_normal(4) for _ in range(20)]
        for z in points:
            assert problems.solution_residual(inst, z) == float(
                np.linalg.norm(z - np.clip(z, lo, hi)))


CUSTOM_AFFINE = {"kind": "affine", "M": [[2.0, 1.0], [-1.0, 2.0]], "b": [-3.0, 1.0]}
CUSTOM_BALL = {"kind": "scaled", "sigma": 2.0, "inner": {
    "kind": "translated", "shift": [0.5, 0.5],
    "inner": {"kind": "normal_cone_ball", "center": [0.0, 0.0], "radius": 1.0}}}


class TestCustomProblem:
    def test_operator_specs(self):
        inst = problems.make_problem("custom", {
            "ops": [
                {"kind": "normal_cone_point", "c": [1.0]},
                {"kind": "neg_log", "dim": 1},
            ],
            "solution": [1.0],
        })
        assert inst.n_ops == 2
        assert problems.solution_residual(inst, [1.0]) == 0.0

    def test_bad_declared_solution_rejected(self):
        # both single valued at 2: 2*(2) + (2 - 5) = 1 != 0
        with pytest.raises(ConstructionError):
            problems.make_problem("custom", {
                "ops": [
                    {"kind": "scaled_identity", "lam": 2.0, "dim": 1},
                    {"kind": "affine", "M": [[1.0]], "b": [-5.0]},
                ],
                "solution": [2.0],
            })

    @pytest.mark.parametrize("ops, solution", [
        # the mt_custom_specs golden config and the fuzz test's custom base:
        # both solutions lie inside the ball, where its cone is {0}
        ([CUSTOM_AFFINE, CUSTOM_BALL, {"kind": "affine", "M": [[1.0, 0.0], [0.0, 1.0]],
                                      "b": [0.0, -2.0]}], [0.8, 0.6]),
        ([CUSTOM_AFFINE, CUSTOM_BALL], [1.4, 0.2]),
    ])
    def test_declared_solution_with_one_set_valued_operator(self, ops, solution):
        inst = problems.make_problem("custom", {"ops": ops, "solution": solution})
        assert problems.solution_residual(inst, solution) == 0.0

    def test_wrong_declared_solution_rejected(self):
        ops = [CUSTOM_AFFINE, CUSTOM_BALL, {"kind": "affine", "M": [[1.0, 0.0], [0.0, 1.0]],
                                            "b": [0.0, -2.0]}]
        with pytest.raises(ConstructionError, match=r"^solution: not a solution: residual"):
            problems.make_problem("custom", {"ops": ops, "solution": [5.0, -7.0]})

    def test_a_declared_solution_at_large_scale_passes_and_a_shifted_one_does_not(self):
        # x - c_1 and x - c_2 with centres at scale 1e9 in R^4 vanish in sum at
        # their mean up to rounding alone (about 1e-7 in 168 of 200 draws); a
        # mean shifted by 1e-6 of that scale is refused as before
        rng = np.random.default_rng(0)
        identity = np.eye(4).tolist()
        for _ in range(200):
            centres = 1e9 * rng.standard_normal((2, 4))
            ops = [{"kind": "affine", "M": identity, "b": (-c).tolist()} for c in centres]
            mean = centres.mean(axis=0)
            problems.make_problem("custom", {"ops": ops, "solution": mean.tolist()})
            shifted = mean + 1e-6 * 1e9 * np.eye(4)[rng.integers(4)]
            with pytest.raises(ConstructionError, match=r"^solution: not a solution: residual"):
                problems.make_problem("custom", {"ops": ops, "solution": shifted.tolist()})

    def test_two_set_valued_operators_refuse_the_declaration(self):
        # (1.4, 0.2) lies on the edge of the box and inside the ball: with the
        # ball's shift moved to (1.4, 1.2) it lies on the sphere too
        ball = {**CUSTOM_BALL, "inner": {**CUSTOM_BALL["inner"], "shift": [1.4, 1.2]}}
        ops = [CUSTOM_AFFINE, CUSTOM_BALL, {"kind": "normal_cone_box", "lo": [0.0, 0.2],
                                            "hi": [2.0, 2.0]}]
        # one set valued operator, the box, whose cone holds minus the others' sum (0)
        problems.make_problem("custom", {"ops": ops, "solution": [1.4, 0.2]})
        with pytest.raises(ConstructionError, match=r"^solution: ops\[1\], ops\[2\] are set valued"):
            problems.make_problem("custom", {"ops": [CUSTOM_AFFINE, ball, ops[2]],
                                             "solution": [1.4, 0.2]})

    def test_needs_two_specs(self):
        with pytest.raises(ConstructionError):
            problems.make_problem("custom", {"ops": [{"kind": "zero", "dim": 1}]})


class TestBundledConvergence:
    """Every solvable bundled problem converges under an accepted schedule."""

    def test_runs_converge(self):
        import numpy as np

        from relosplit import malitsky_tam as mt, schedules as sch
        from relosplit.driver import StopRule

        schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
        stop = StopRule(residual_tol=1e-9, max_iters=3000)

        # x0 = 3 is on the moving fixed-point curve: a schedule without a
        # declared limit makes the run follow gamma rather than relocate at once
        inst = problems.make_problem("indicator_neglog")
        trace = dr2.algorithm1_run(inst.dr_problem(),
                                   WaitingGeometric(limit=1.0, start=2.0, ratio=0.5),
                                   np.array([3.0]), stop)
        assert trace.status == "converged"

        for name, params in (("affine_consensus", {"count": 4, "dim": 2}),
                             ("affine_random", {"count": 3, "dim": 2})):
            inst = problems.make_problem(name, params, seed=2)
            problem = mt.MTProblem(tuple(inst.ops), theta=0.5)
            trace = mt.algorithm2_run(
                problem, schedule, np.zeros((inst.n_ops - 1, inst.dim)),
                stop, solution_residual=lambda z: problems.solution_residual(inst, z))
            assert trace.status == "converged"
            assert trace.solution_residuals[-1] <= 1e-6


class TestFactory:
    def test_unknown_name(self):
        with pytest.raises(ConstructionError):
            problems.make_problem("mystery_problem")

    def test_unknown_param_named(self):
        with pytest.raises(ConstructionError, match="^dimm: unknown field$"):
            problems.make_problem("affine_random", {"count": 2, "dimm": 5})
        with pytest.raises(ConstructionError, match="^seed: unknown field$"):
            problems.make_problem("indicator_neglog", {"seed": 1})

    def test_names_listed(self):
        names = problems.problem_names()
        assert "indicator_neglog" in names
        assert "affine_consensus" in names
        assert "custom" in names
