import copy
import io
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTREME_FINITE, GAMMA_GRID, nonfinite_points, operator_zoo, random_affine
from relosplit import dr2, operators as ops
from relosplit import problems, schedules as sch
from relosplit.driver import StopRule
from relosplit.errors import ConstructionError, DimensionError, ParameterError

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


class TestResolventExamples:
    def test_zero_is_identity(self):
        op = ops.Zero(2)
        assert np.allclose(op.resolvent(3.0, [7.0, -1.0]), [7.0, -1.0])

    def test_normal_cone_point_is_constant(self):
        op = ops.NormalConePoint([1.0])
        assert op.resolvent(5.0, [42.0])[0] == 1.0

    def test_neg_log_closed_form(self):
        op = ops.NegLog(1)
        # (0 + sqrt(0 + 4)) / 2 = 1
        assert op.resolvent(1.0, [0.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_scaled_identity_linear_solve(self):
        # y + 2y = 6  =>  y = 2
        op = ops.ScaledIdentity(1.0, 1)
        assert op.resolvent(2.0, [6.0])[0] == pytest.approx(2.0, abs=1e-15)

    def test_resolvent_defining_inclusion(self, rng):
        # (x - y) / gamma must lie in A(y) for the single-valued kinds
        for op in operator_zoo(rng):
            x = rng.standard_normal(op.dim)
            gamma = float(rng.choice(GAMMA_GRID))
            y = op.resolvent(gamma, x)
            resid = ops.inclusion_residual(op, y, (x - y) / gamma)
            if resid is not None:
                assert resid <= 1e-9

    def test_parameter_and_dimension_errors(self):
        op = ops.Zero(2)
        with pytest.raises(ParameterError):
            op.resolvent(0.0, [1.0, 2.0])
        with pytest.raises(ParameterError):
            op.resolvent(-1.0, [1.0, 2.0])
        with pytest.raises(DimensionError):
            op.resolvent(1.0, [1.0, 2.0, 3.0])
        for gamma in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                op.resolvent(gamma, [1.0, 2.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                op.resolvent(1.0, [1.0, bad])
        for point in ([[1.0, 2.0]], []):
            with pytest.raises(DimensionError):
                op.resolvent(1.0, point)
        assert ops.Zero(1).resolvent(2.0, np.array(3.0)).tolist() == [3.0]

    def test_unchecked_resolvent_hands_its_inputs_on(self):
        # check=False is for callers that checked their inputs once already:
        # nothing is checked again, so a non-finite point reaches the result,
        # through the nested kinds too, where a loop's finiteness test sees it
        box = ops.NormalConeBox([-1.0, -1.0], [1.0, 1.0])
        out = box.resolvent(1.0, np.array([np.inf, -np.inf]), check=False)
        assert out.tolist() == [1.0, -1.0]
        nested = ops.CountingOperator(
            ops.Scaled(ops.Translated(ops.ScaledIdentity(1.0, 1), [1.0]), 2.0))
        assert np.isnan(nested.resolvent(1.0, np.array([np.nan]), check=False)).all()
        assert nested.resolvent(1.0, np.array([np.inf]), check=False).tolist() == [np.inf]
        assert nested.calls == 2
        with pytest.raises(ParameterError, match="^vector entries must be finite$"):
            nested.resolvent(1.0, np.array([np.inf]))

    def test_extreme_finite_point_accepted_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            y = ops.Zero(3).resolvent(1.0, EXTREME_FINITE)
        assert y.tolist() == EXTREME_FINITE

    @pytest.mark.parametrize("point", nonfinite_points())
    def test_nonfinite_point_rejected_at_any_position(self, point):
        with pytest.raises(ParameterError, match="^vector entries must be finite$"):
            ops.Zero(point.size).resolvent(1.0, point)

    def test_box_resolvent_is_clip(self, rng):
        lo = np.array([-1.0, 0.0, -0.0, 2.0, -3.0, 0.5])
        hi = np.array([1.0, 0.0, 0.0, 2.0, -1.0, 4.0])
        box = ops.NormalConeBox(lo, hi)
        inside = lo + rng.uniform(size=6) * (hi - lo)
        points = [inside, lo, hi, np.where(rng.uniform(size=6) < 0.5, lo, hi),
                  np.array([-0.0, -0.0, 0.0, -0.0, 0.0, -0.0]),
                  np.array([0.0, -0.0, -0.0, 0.0, -0.0, 0.0])]
        points += [4.0 * rng.standard_normal(6) for _ in range(20)]
        for x in points:
            # byte equality also pins the sign of a zero, which the trace CSV prints
            assert box.resolvent(0.7, x).tobytes() == np.clip(x, lo, hi).tobytes()

    def test_ball_resolvent_returns_an_interior_point_bit_for_bit(self, rng):
        # center + (x - center) rounds x = 0.3 about centre -0.675 by 5.6e-17
        ball = ops.NormalConeBall([-0.675], 1.0)
        x = np.array([0.3])
        assert ball.resolvent(1.0, x).tobytes() == x.tobytes()
        center = rng.standard_normal(4)
        ball = ops.NormalConeBall(center, 2.0)
        for _ in range(50):
            x = center + rng.uniform(-0.45, 0.45, 4)
            for out in (None, np.empty(4)):
                y = ball.resolvent(0.7, x, out=out)
                assert y.tobytes() == x.tobytes() and y is not x
        # outside, the projection lands on the sphere
        y = ball.resolvent(1.0, center + 3.0)
        assert abs(np.linalg.norm(y - center) - 2.0) <= 1e-12


class TestReflectent:
    def test_zero(self):
        assert ops.Zero(1).reflectent(2.0, [4.0])[0] == 4.0

    def test_normal_cone_point(self):
        assert ops.NormalConePoint([1.0]).reflectent(1.0, [3.0])[0] == -1.0

    def test_neg_log(self):
        assert ops.NegLog(1).reflectent(1.0, [0.0])[0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_definition(self, zoo, rng):
        for op in zoo:
            x = rng.standard_normal(op.dim)
            expected = 2.0 * op.resolvent(1.5, x) - x
            assert np.allclose(op.reflectent(1.5, x), expected)


class TestMakeOperator:
    def test_zero(self):
        op = ops.make_operator({"kind": "zero", "dim": 2})
        assert isinstance(op, ops.Zero) and op.dim == 2

    def test_dim_takes_any_integer_type(self):
        for op in (ops.Zero(np.int64(2)), ops.NegLog(np.int32(2)),
                   ops.ScaledIdentity(np.float64(0.5), np.int64(2))):
            assert type(op.dim) is int and op.dim == 2

    def test_normal_cone_point(self):
        op = ops.make_operator({"kind": "normal_cone_point", "c": [1.0]})
        assert op.resolvent(5.0, [42.0])[0] == 1.0

    def test_skew_affine_accepted(self):
        op = ops.make_operator(
            {"kind": "affine", "M": [[0.0, 1.0], [-1.0, 0.0]], "b": [0.0, 0.0]}
        )
        assert isinstance(op, ops.AffineMonotone)

    @pytest.mark.parametrize("matrix", [
        [[-1.0]], [[1e308, 0.0], [0.0, -1.0]], [[1e308, 0.0], [0.0, -1e308]],
    ], ids=["negative", "huge-and-negative", "huge-both-signs"])
    def test_non_monotone_affine_rejected(self, matrix):
        # M + M^T overflows for the huge entries; no warning may escape either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError, match="would not be monotone"):
                ops.make_operator({"kind": "affine", "M": matrix, "b": [0.0] * len(matrix)})

    def test_unknown_kind(self):
        with pytest.raises(ConstructionError):
            ops.make_operator({"kind": "mystery"})

    def test_bad_radius(self):
        with pytest.raises(ConstructionError):
            ops.make_operator({"kind": "normal_cone_ball", "center": [0.0], "radius": 0.0})

    def test_missing_parameter(self):
        with pytest.raises(ConstructionError):
            ops.make_operator({"kind": "zero"})

    def test_nested_kinds(self):
        op = ops.make_operator({
            "kind": "scaled", "sigma": 2.0,
            "inner": {"kind": "translated", "shift": [1.0],
                      "inner": {"kind": "neg_log", "dim": 1}},
        })
        assert op.dim == 1
        assert np.isfinite(op.resolvent(1.0, [0.0])[0])

    def test_bad_box(self):
        with pytest.raises(ConstructionError):
            ops.make_operator({"kind": "normal_cone_box", "lo": [1.0], "hi": [0.0]})

    def test_array_fields_take_numeric_arrays_and_refuse_text_and_bools(self):
        op = ops.make_operator({"kind": "affine", "M": np.eye(2, dtype=np.int64),
                                "b": (np.float32(0.5), 1)})
        assert isinstance(op, ops.AffineMonotone)
        for bad in (np.array([True]), np.array(["1.0"]), np.array([1.0, "x"], dtype=object),
                    [np.bool_(True)], "1.0"):
            with pytest.raises(ConstructionError,
                               match=r"^c: must be a \(nested\) list of finite numbers"):
                ops.make_operator({"kind": "normal_cone_point", "c": bad})

    @pytest.mark.parametrize("spec, path", [
        ({"kind": "normal_cone_point", "c": [1.0], "bogus": 3}, "bogus"),
        ({"kind": "scaled", "sigma": 2.0, "bogus": 3,
          "inner": {"kind": "neg_log", "dim": 1}}, "bogus"),
        ({"kind": "scaled", "sigma": 2.0,
          "inner": {"kind": "translated", "shift": [1.0],
                    "inner": {"kind": "neg_log", "dim": 1, "bogus": 3}}}, r"inner\.inner\.bogus"),
    ], ids=["flat", "wrapper", "nested-inner"])
    def test_unknown_key_named_by_its_path(self, spec, path):
        with pytest.raises(ConstructionError, match=f"^{path}: unknown field$"):
            ops.make_operator(spec)


class TestScalingIdentity:
    """J_{beta A}((beta/alpha) x + (1 - beta/alpha) J_{alpha A} x) = J_{alpha A} x."""

    def test_catalog(self, rng):
        for op in operator_zoo(rng):
            for _ in range(40):
                x = 4.0 * rng.standard_normal(op.dim)
                alpha, beta = rng.choice(GAMMA_GRID, size=2)
                jx = op.resolvent(alpha, x)
                moved = (beta / alpha) * x + (1.0 - beta / alpha) * jx
                assert np.linalg.norm(op.resolvent(beta, moved) - jx) <= 1e-10

    @given(x=finite_floats, alpha=st.sampled_from(GAMMA_GRID),
           beta=st.sampled_from(GAMMA_GRID))
    @settings(max_examples=200, deadline=None)
    def test_neg_log_hypothesis(self, x, alpha, beta):
        op = ops.NegLog(1)
        jx = op.resolvent(alpha, [x])
        moved = (beta / alpha) * np.array([x]) + (1.0 - beta / alpha) * jx
        assert abs(op.resolvent(beta, moved)[0] - jx[0]) <= 1e-10


class TestNonexpansivenessProperties:
    def test_firm_nonexpansiveness(self, rng):
        for op in operator_zoo(rng):
            for _ in range(30):
                x = 4.0 * rng.standard_normal(op.dim)
                y = 4.0 * rng.standard_normal(op.dim)
                gamma = float(rng.choice(GAMMA_GRID))
                jx, jy = op.resolvent(gamma, x), op.resolvent(gamma, y)
                lhs = (np.linalg.norm(jx - jy) ** 2
                       + np.linalg.norm((x - jx) - (y - jy)) ** 2)
                assert lhs <= np.linalg.norm(x - y) ** 2 + 1e-10

    @given(x=finite_floats, y=finite_floats, gamma=st.sampled_from(GAMMA_GRID))
    @settings(max_examples=200, deadline=None)
    def test_firm_nonexpansiveness_neg_log(self, x, y, gamma):
        op = ops.NegLog(1)
        jx, jy = op.resolvent(gamma, [x])[0], op.resolvent(gamma, [y])[0]
        lhs = (jx - jy) ** 2 + ((x - jx) - (y - jy)) ** 2
        assert lhs <= (x - y) ** 2 + 1e-10

    def test_stepsize_lipschitz(self, rng):
        # ||J_{gamma A} x - J_{lam gamma A} x|| <= |1 - lam| ||J_{gamma A} x - x||
        for op in operator_zoo(rng):
            for _ in range(30):
                x = 4.0 * rng.standard_normal(op.dim)
                gamma = float(rng.choice(GAMMA_GRID))
                lam = float(rng.uniform(0.1, 4.0))
                jg = op.resolvent(gamma, x)
                jl = op.resolvent(lam * gamma, x)
                assert (np.linalg.norm(jg - jl)
                        <= abs(1.0 - lam) * np.linalg.norm(jg - x) + 1e-10)


class TestRelocatorContraction:
    """Q_{beta<-alpha} = (beta/alpha) Id + (1 - beta/alpha) J_{alpha A}."""

    def test_lipschitz_bound(self, rng):
        for op in operator_zoo(rng):
            for _ in range(30):
                alpha, beta = rng.choice(GAMMA_GRID, size=2)
                z = 4.0 * rng.standard_normal(op.dim)
                zb = 4.0 * rng.standard_normal(op.dim)
                r = beta / alpha
                qz = r * z + (1 - r) * op.resolvent(alpha, z)
                qzb = r * zb + (1 - r) * op.resolvent(alpha, zb)
                bound = max(1.0, r) * np.linalg.norm(z - zb)
                assert np.linalg.norm(qz - qzb) <= bound + 1e-10

    def test_refined_inequality_expanding(self, rng):
        # for beta >= alpha: ||Qz - Qz'||^2 + (r^2 - 1) ||Jz - Jz'||^2 <= r^2 ||z - z'||^2
        for op in operator_zoo(rng):
            for _ in range(30):
                alpha = float(rng.choice(GAMMA_GRID))
                beta = alpha * float(rng.uniform(1.0, 4.0))
                z = 4.0 * rng.standard_normal(op.dim)
                zb = 4.0 * rng.standard_normal(op.dim)
                r = beta / alpha
                jz, jzb = op.resolvent(alpha, z), op.resolvent(alpha, zb)
                qz = r * z + (1 - r) * jz
                qzb = r * zb + (1 - r) * jzb
                lhs = (np.linalg.norm(qz - qzb) ** 2
                       + (r ** 2 - 1.0) * np.linalg.norm(jz - jzb) ** 2)
                assert lhs <= r ** 2 * np.linalg.norm(z - zb) ** 2 + 1e-10


class TestJointContinuity:
    def test_bounded_modulus_on_grid(self, rng):
        # ||J_gamma x - J_lam y|| <= (||J_gamma x - x|| / gamma) |gamma - lam| + ||x - y||
        for op in operator_zoo(rng):
            for _ in range(40):
                x = rng.uniform(-5.0, 5.0, size=op.dim)
                y = rng.uniform(-5.0, 5.0, size=op.dim)
                gamma = float(rng.uniform(0.1, 4.0))
                lam = float(rng.uniform(0.1, 4.0))
                jx = op.resolvent(gamma, x)
                jy = op.resolvent(lam, y)
                bound = (np.linalg.norm(jx - x) / gamma) * abs(gamma - lam) \
                    + np.linalg.norm(x - y)
                assert np.linalg.norm(jx - jy) <= bound + 1e-10


class TestAsymptoticProjection:
    def test_small_gamma_projects_onto_domain(self, rng):
        cases = [(ops.NormalConeBox(-np.ones(3), np.ones(3)), lambda x: np.clip(x, -1, 1)),
                 (ops.NegLog(3), lambda x: np.maximum(x, 0))]
        for op, project in cases:
            for _ in range(20):
                x = 4.0 * rng.standard_normal(3)
                j_small = op.resolvent(1e-8, x)
                proj = project(x)
                assert np.linalg.norm(j_small - proj) <= 1e-3


class TestStepsizeFree:
    """stepsize_free declares that J_{gamma A} is one map at every gamma > 0."""

    #: the kinds whose resolvent ignores gamma: the projections and Id
    DECLARED = {"zero", "normal_cone_point", "normal_cone_box", "normal_cone_ball"}

    def test_each_kind_declares_what_it_is(self, zoo):
        assert {op.kind for op in zoo if op.stepsize_free} == self.DECLARED

    def test_a_declared_resolvent_gives_the_same_bytes_at_every_stepsize(self, rng):
        for op in operator_zoo(rng):
            # the nested kinds and the counting wrapper, around every kind
            wrapped = [ops.Translated(op, rng.standard_normal(op.dim)), ops.Scaled(op, 2.0),
                       ops.CountingOperator(op)]
            assert [w.stepsize_free for w in wrapped] == [op.stepsize_free] * 3
            for each in (op, *wrapped):
                if not each.stepsize_free:
                    continue
                for _ in range(20):
                    x = 4.0 * rng.standard_normal(op.dim)
                    outs = {each.resolvent(gamma, x).tobytes() for gamma in GAMMA_GRID}
                    assert len(outs) == 1, each.kind


class TestFactoredAffineResolvent:
    """The affine resolvent from eigenfactors of M agrees with a dense solve."""

    @staticmethod
    def assert_matches_dense(op, rng):
        m, b = op.affine_parts()
        for gamma in np.logspace(-3, 3, 13):
            x = rng.standard_normal(op.dim)
            expected = np.linalg.solve(np.eye(op.dim) + gamma * m, x - gamma * b)
            result = op.resolvent(gamma, x)
            error = np.linalg.norm(result - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)
            # written into a row of a larger buffer, as the runners' sweep
            # hands it in, the result has the same bytes
            row = np.full((2, op.dim), np.nan)[1]
            assert op.resolvent(gamma, x, check=False, out=row) is row
            assert row.tobytes() == result.tobytes()

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        calls = []
        solve_linear = ops.solve_linear

        def counting(matrix, rhs):
            calls.append(1)
            return solve_linear(matrix, rhs)

        monkeypatch.setattr(ops, "solve_linear", counting)
        return calls

    def test_symmetric(self, rng, solve_calls):
        for dim in (1, 2, 5, 8):
            root = rng.standard_normal((dim, dim))
            self.assert_matches_dense(
                ops.AffineMonotone(root @ root.T, rng.standard_normal(dim)), rng)
        assert not solve_calls

    def test_non_symmetric(self, rng, solve_calls):
        for dim in (2, 3, 5, 8):
            op = random_affine(rng, dim)
            self.assert_matches_dense(op, rng)
            self.assert_matches_dense(ops.Scaled(ops.Translated(
                op, rng.standard_normal(dim)), 0.3), rng)
        assert not solve_calls

    def test_skew(self, rng, solve_calls):
        # purely imaginary spectrum: every eigenpair has a conjugate partner
        for dim in (2, 4, 5, 8):
            root = rng.standard_normal((dim, dim))
            self.assert_matches_dense(
                ops.AffineMonotone(root - root.T, rng.standard_normal(dim)), rng)
        assert not solve_calls

    @pytest.mark.parametrize("count, dim", [(6, 32), (2, 16)])
    def test_benchmark_sizes(self, rng, solve_calls, count, dim):
        for seed in (1, 2, 3):
            instance = problems.make_problem("affine_random",
                                             {"count": count, "dim": dim}, seed)
            for op in instance.ops:
                self.assert_matches_dense(op, rng)
        assert not solve_calls

    def test_one_kept_complex_pair(self, rng, solve_calls):
        # d = 2 with eigenvalues 0.5 +- 2i: one eigenpair is kept, at twice
        # the weight, so each product has a single (Re, Im) pair
        op = ops.AffineMonotone([[0.5, -2.0], [2.0, 0.5]], [1.0, -3.0])
        self.assert_matches_dense(op, rng)
        assert op._factors.left.shape == (2, 2)
        assert not solve_calls

    def test_overflowing_step_is_non_finite_and_silent(self):
        op = ops.AffineMonotone([[1.0, 0.0], [0.0, 2.0]], [-10.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                for gamma in (1e308, float("inf")):
                    row = op.resolvent(gamma, np.array([1.0, 1.0]), check=False)
                    assert not np.all(np.isfinite(row))

    def test_offset_is_a_read_only_copy(self, rng):
        m, b = [[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]], rng.standard_normal(3)
        op, reference = ops.AffineMonotone(m, b), ops.AffineMonotone(m, b.copy())
        x = rng.standard_normal(3)
        # edited before the first resolvent builds the factors, and after
        for edit in (100.0, -300.0):
            b += edit
            assert op.resolvent(0.5, x).tobytes() == reference.resolvent(0.5, x).tobytes()
            assert op.value(x).tobytes() == reference.value(x).tobytes()
        assert not op.offset.flags.writeable
        with pytest.raises(ValueError):
            op.offset[0] = 1.0

    def test_defective_falls_back_to_dense(self, rng, solve_calls):
        # one eigenvalue 1 with a single eigenvector: V is singular
        op = ops.AffineMonotone([[1.0, 1.0], [0.0, 1.0]], [0.5, -1.0])
        self.assert_matches_dense(op, rng)
        # one solve per resolvent: 13 stepsizes, each returned and written into a row
        assert len(solve_calls) == 2 * 13

    def test_factored_once_on_first_use(self, rng, monkeypatch):
        calls = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(1) or eig(m))
        op = random_affine(rng, 4)
        assert not calls
        for gamma in GAMMA_GRID:
            op.resolvent(gamma, rng.standard_normal(4))
        assert len(calls) == 1
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 1.0


class TestAffineScratch:
    """The factored affine kind writes every call into buffers its factors
    own; no result may be one of them, and no call may read another's."""

    @staticmethod
    def alone(op, gamma, x):
        """The bytes of the first call on op, a fresh operator, off a dense
        solve by at most 1e-12 relative."""
        y = op.resolvent(gamma, x.copy())
        m, b = op.affine_parts()
        dense = np.linalg.solve(np.eye(op.dim) + gamma * m, x - gamma * b)
        assert np.linalg.norm(y - dense) <= 1e-12 * np.linalg.norm(dense)
        return y.tobytes()

    @staticmethod
    def fresh(op):
        return ops.AffineMonotone(op.matrix, op.offset)

    def test_a_returned_result_keeps_its_bytes(self, rng):
        op = random_affine(rng, 5)
        kept = []
        for gamma in GAMMA_GRID:
            x = rng.standard_normal(5)
            kept.append((op.resolvent(gamma, x, check=False),
                         self.alone(self.fresh(op), gamma, x)))
        for y, expected in kept:
            assert y.tobytes() == expected

    def test_input_row_is_the_output_row(self, rng):
        op = random_affine(rng, 5)
        row = rng.standard_normal((2, 5))[1]
        for gamma in GAMMA_GRID:
            expected = self.alone(self.fresh(op), gamma, row)
            assert op.resolvent(gamma, row, check=False, out=row) is row
            assert row.tobytes() == expected

    def test_a_call_reads_its_input_row_in_place(self, rng):
        op = random_affine(rng, 5)
        row = op.input_row()
        assert op.input_row() is row
        assert row.shape == (5,) and np.shares_memory(row, op._factors.xa)
        out = np.empty(5)
        for gamma in GAMMA_GRID:
            x = rng.standard_normal(5)
            row[...] = x
            assert op.resolvent(gamma, row, check=False, out=out) is out
            assert out.tobytes() == self.alone(self.fresh(op), gamma, x)
            row[...] = x
            assert op.resolvent(gamma, row, check=False).tobytes() == out.tobytes()

    def test_other_kinds_give_a_fresh_row(self, rng):
        # the dense fallback, a kind with no input buffer and a wrapper
        dense = ops.AffineMonotone([[1.0, 1.0], [0.0, 1.0]], [0.5, -1.0])
        for op in (dense, ops.NormalConeBox([-1.0, -1.0], [1.0, 1.0]),
                   ops.CountingOperator(random_affine(rng, 2))):
            a, b = op.input_row(), op.input_row()
            assert a.shape == (2,) and a.dtype == float and a.flags.writeable
            assert not np.shares_memory(a, b)

    def test_nested_and_inner_operator_called_alternately(self, rng):
        op = random_affine(rng, 5)
        shift = rng.standard_normal(5)

        def nest(inner):
            return ops.Scaled(ops.Translated(inner, shift), 0.3)

        nested, kept = nest(op), []
        for gamma in GAMMA_GRID:
            x = rng.standard_normal(5)
            kept.append((nested.resolvent(gamma, x), self.alone(nest(self.fresh(op)), gamma, x)))
            kept.append((op.resolvent(gamma, x), self.alone(self.fresh(op), gamma, x)))
        for y, expected in kept:
            assert y.tobytes() == expected


COPIES = {"deepcopy": copy.deepcopy, "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


@pytest.mark.parametrize("make_copy", COPIES.values(), ids=COPIES.keys())
class TestAffineCopies:
    """A copy of an AffineMonotone, made before or after its first call,
    computes the original's resolvents and runs, byte for byte. Copying
    copies each array of the factors on its own, so it would cut the views
    that a call writes through loose from their buffers."""

    def test_a_copy_gives_its_originals_resolvent(self, rng, make_copy):
        for seed in range(24):
            op = problems.make_problem("affine_random", {"count": 2, "dim": 4}, seed=seed).ops[0]
            before = make_copy(op)
            op.resolvent(1.0, rng.standard_normal(4))
            after = make_copy(op)
            # M and b stay read only, as the original's are
            assert not any(a.flags.writeable for twin in (before, after)
                           for a in (twin.matrix, twin.offset))
            for gamma in GAMMA_GRID:
                x = rng.standard_normal(4)
                expected = op.resolvent(gamma, x).tobytes()
                assert before.resolvent(gamma, x).tobytes() == expected
                assert after.resolvent(gamma, x).tobytes() == expected

    def test_a_copy_runs_as_its_original(self, make_copy):
        problem = problems.make_problem("affine_random", {"count": 2, "dim": 3},
                                        seed=3).dr_problem()
        args = (sch.GeometricToLimit(1.0, 2.0, 0.9), np.zeros(3), StopRule(1e-10, 2000))
        before = make_copy(problem)
        runs = [dr2.algorithm1_run(problem, *args)]
        after = make_copy(problem)
        runs += [dr2.algorithm1_run(twin, *args) for twin in (before, after)]
        texts = []
        for trace in runs:
            buffer = io.StringIO()
            trace.write_csv(buffer)
            texts.append((buffer.getvalue(), [x.tobytes() for x in trace.iterates]))
        assert runs[0].status == "converged" and runs[0].iterations > 50
        assert texts[1] == texts[0] and texts[2] == texts[0]


class TestCountingOperator:
    def test_counts_calls(self):
        op = ops.CountingOperator(ops.Zero(1))
        op.resolvent(1.0, [1.0])
        op.resolvent(2.0, [1.0])
        assert op.calls == 2


class TestOperatorSemantics:
    """value / inclusion_residual / affine_parts live on the operator classes."""

    def test_affine_parts_reproduce_value(self, rng):
        root = rng.standard_normal((3, 3))
        inner = ops.AffineMonotone(root @ root.T, rng.standard_normal(3))
        nested = ops.Scaled(ops.Translated(inner, rng.standard_normal(3)), 1.7)
        for op in (nested, ops.CountingOperator(nested), ops.Zero(3),
                   ops.ScaledIdentity(0.4, 3)):
            m, b = op.affine_parts()
            for _ in range(10):
                u = rng.standard_normal(3)
                assert np.max(np.abs(m @ u + b - op.value(u))) <= 1e-12

    @pytest.mark.parametrize("op", [
        ops.NormalConePoint([0.0, 1.0]),
        ops.NormalConeBox([-1.0, -1.0], [1.0, 1.0]),
        ops.NormalConeBall([0.0, 0.0], 1.0),
        ops.NegLog(2),
        ops.Scaled(ops.Translated(ops.NegLog(2), [1.0, 1.0]), 2.0),
        ops.CountingOperator(ops.NormalConePoint([0.0, 1.0])),
    ], ids=["point", "box", "ball", "neglog", "scaled-translated-neglog", "counting"])
    def test_non_affine_parts_raise(self, op):
        with pytest.raises(ParameterError):
            op.affine_parts()

    def test_wrappers_compose(self, rng):
        x = rng.standard_normal(2)
        shift = rng.standard_normal(2)
        op = ops.CountingOperator(
            ops.Scaled(ops.Translated(ops.ScaledIdentity(0.5, 2), shift), 3.0))
        assert np.max(np.abs(ops.single_value(op, x) - 1.5 * (x - shift))) <= 1e-15
        w = rng.standard_normal(2)
        assert ops.inclusion_residual(op, x, w) == pytest.approx(
            np.linalg.norm(w / 3.0 - 0.5 * (x - shift)), abs=1e-14)

    def test_set_valued_kinds(self):
        point = ops.Translated(ops.NormalConePoint([1.0, 0.0]), [0.0, 2.0])
        assert ops.single_value(point, [3.0, 4.0]) is None
        # the cone is nonempty only at the translated point (1, 2)
        assert ops.inclusion_residual(point, [1.0, 2.0], [5.0, -7.0]) == 0.0
        assert ops.inclusion_residual(point, [1.0, 5.0], [0.0, 0.0]) == 3.0
        box = ops.Scaled(ops.NormalConeBox([-1.0, -1.0], [1.0, 1.0]), 2.0)
        # single valued, {0}, inside the box only
        assert ops.single_value(box, [0.0, 0.5]).tolist() == [0.0, 0.0]
        assert ops.single_value(box, [1.0, 0.5]) is None
        assert ops.single_value(box, [3.0, 0.5]) is None
        # the residual is ||z - P(z + w)||: 0 exactly on the cone, at the
        # interior, on a face and outside the box
        assert ops.inclusion_residual(box, [0.0, 0.0], [0.0, 0.0]) == 0.0
        assert ops.inclusion_residual(box, [0.0, 0.0], [1.0, 0.0]) == 0.5
        assert ops.inclusion_residual(box, [1.0, 0.0], [4.0, 0.0]) == 0.0
        assert ops.inclusion_residual(box, [1.0, 0.0], [4.0, 1.0]) == 0.5
        assert ops.inclusion_residual(box, [3.0, 0.0], [0.0, 0.0]) == 2.0
        ball = ops.NormalConeBall([0.0, 0.0], 1.0)
        assert ops.single_value(ball, [0.0, 0.5]).tolist() == [0.0, 0.0]
        assert ops.single_value(ball, [0.6, 0.8]) is None
        assert ops.inclusion_residual(ball, [0.6, 0.8], [3.0, 4.0]) == pytest.approx(0.0, abs=1e-15)
        assert ops.inclusion_residual(ball, [0.6, 0.8], [-3.0, -4.0]) == pytest.approx(2.0)
        assert ops.inclusion_residual(ball, [0.0, 0.5], [0.0, 1.0]) == 0.5

    def test_neg_log_off_the_orthant(self):
        op = ops.Scaled(ops.NegLog(2), 2.0)
        assert ops.single_value(op, [1.0, -1.0]) is None
        assert ops.inclusion_residual(op, [1.0, -1.0], [0.0, 0.0]) == float("inf")
        assert ops.inclusion_residual(op, [1.0, 0.5], [-2.0, -4.0]) == 0.0

    def test_entry_points_check_inputs(self):
        op = ops.Zero(2)
        with pytest.raises(DimensionError):
            ops.single_value(op, [1.0])
        with pytest.raises(DimensionError):
            ops.inclusion_residual(op, [1.0, 2.0], [1.0])
        with pytest.raises(ParameterError):
            ops.single_value(op, [1.0, np.nan])
