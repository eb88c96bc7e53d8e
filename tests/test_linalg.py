import warnings

import numpy as np
import pytest

from conftest import EXTREME_FINITE, nonfinite_points, strided_real
from relosplit.errors import DimensionError, ParameterError, SingularMatrixError
from relosplit.linalg import (
    BlockVector,
    as_block_vector,
    as_matrix,
    as_vector,
    kron_apply,
    pseudo_inverse,
    solve_linear,
)

MT3_Z = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])


class TestConstructors:
    def test_as_vector_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            as_vector([1.0, np.nan])
        with pytest.raises(ParameterError):
            as_vector([np.inf])

    def test_as_vector_accepts_extreme_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = as_vector(EXTREME_FINITE)
        assert v.tolist() == EXTREME_FINITE

    @pytest.mark.parametrize("point", nonfinite_points())
    def test_as_vector_rejects_nonfinite_at_any_position(self, point):
        with pytest.raises(ParameterError, match="^vector entries must be finite$"):
            as_vector(point)

    def test_as_vector_strided_view_extreme_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = as_vector(strided_real(EXTREME_FINITE))
        assert v.tolist() == EXTREME_FINITE

    @pytest.mark.parametrize("point", nonfinite_points())
    def test_as_vector_strided_view_rejects_nonfinite_at_any_position(self, point):
        with pytest.raises(ParameterError, match="^vector entries must be finite$"):
            as_vector(strided_real(point))

    def test_as_vector_scalar_promotes(self):
        assert as_vector(3.0).shape == (1,)
        assert as_vector(np.array(3.0)).tolist() == [3.0]

    def test_as_vector_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            as_vector([[1.0, 2.0]])
        with pytest.raises(DimensionError):
            as_vector([])

    def test_as_matrix_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ParameterError):
            as_matrix([[np.nan]])

    def test_block_vector_requires_equal_dims(self):
        with pytest.raises(DimensionError):
            BlockVector.from_blocks([[1.0, 2.0], [3.0]])

    def test_block_vector_rejects_single_vector(self):
        with pytest.raises(DimensionError):
            BlockVector([1.0, 2.0])

    def test_block_vector_immutable(self):
        bv = BlockVector([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            bv.data[0, 0] = 9.0

    def test_block_vector_arithmetic(self):
        a = BlockVector([[1.0, 2.0], [3.0, 4.0]])
        b = BlockVector([[1.0, 1.0], [1.0, 1.0]])
        assert (a - b).allclose(BlockVector([[0.0, 1.0], [2.0, 3.0]]))
        assert (2.0 * b).allclose(b + b)
        assert (a + (-a)).norm() == 0.0

    def test_numpy_scalar_multiplication_stays_blockvector(self):
        b = BlockVector([[1.0], [2.0]])
        out = np.float64(2.0) * b
        assert isinstance(out, BlockVector)
        assert out.allclose(BlockVector([[2.0], [4.0]]))


class TestCheckedOnce:
    def test_asarray_is_read_only_view(self):
        bv = BlockVector([[1.0, 2.0], [3.0, 4.0]])
        arr = np.asarray(bv)
        assert arr is bv.data
        assert not arr.flags.writeable
        assert np.asarray(bv, dtype=np.float32).dtype == np.float32
        copied = np.array(bv, copy=True)
        copied[0, 0] = 9.0
        assert bv.data[0, 0] == 1.0

    def test_arithmetic_results_are_read_only(self):
        a = BlockVector([[1.0, 2.0]])
        for out in (a + a, a - a, 2.0 * a, -a, kron_apply(np.eye(1), a)):
            assert isinstance(out, BlockVector)
            with pytest.raises(ValueError):
                out.data[0, 0] = 9.0

    def test_arithmetic_does_not_recheck_finiteness(self):
        # the iteration loop detects non-finite iterates, not the arithmetic
        big = BlockVector([[1e300, -1e300]])
        with np.errstate(over="ignore"):
            out = 1e10 * big
        assert np.all(np.isinf(out.data))

    def test_outside_data_still_checked(self):
        with pytest.raises(ParameterError):
            BlockVector([[1.0, np.inf]])
        with pytest.raises(ParameterError):
            BlockVector.from_blocks([[1.0], [np.nan]])

    def test_as_block_vector(self):
        bv = BlockVector.zeros(2, 3)
        assert as_block_vector(bv, 2, 3) is bv
        assert as_block_vector([[1.0, 2.0, 3.0]] * 2, 2, 3).allclose(
            BlockVector([[1.0, 2.0, 3.0]] * 2))
        for nblocks, dim in ((3, 3), (2, 2)):
            with pytest.raises(DimensionError):
                as_block_vector(bv, nblocks, dim)
        with pytest.raises(ParameterError):
            as_block_vector([[np.nan]], 1, 1)


class TestKronApply:
    def test_identity(self):
        x = BlockVector([[1.0, 2.0], [3.0, 4.0]])
        assert kron_apply(np.eye(2), x).allclose(x)

    def test_mt_incidence_transpose(self):
        # rows of Z^T are (1,-1,0) and (0,1,-1)
        x = BlockVector([[1.0], [0.0], [1.0]])
        out = kron_apply(MT3_Z.T, x)
        assert out.allclose(BlockVector([[1.0], [-1.0]]))

    def test_all_ones_row(self):
        x = BlockVector([[1.0], [0.0], [1.0]])
        out = kron_apply(np.ones((1, 3)), x)
        assert out.allclose(BlockVector([[2.0]]))

    def test_block_count_mismatch(self):
        with pytest.raises(DimensionError):
            kron_apply(np.eye(2), BlockVector([[1.0], [2.0], [3.0]]))

    def test_composition_associativity(self, rng):
        for _ in range(25):
            r, c, k, d = rng.integers(1, 5, size=4)
            m1 = rng.standard_normal((r, c))
            m2 = rng.standard_normal((c, k))
            x = BlockVector(rng.standard_normal((k, d)))
            lhs = kron_apply(m1 @ m2, x)
            rhs = kron_apply(m1, kron_apply(m2, x))
            assert np.max(np.abs(lhs.data - rhs.data)) <= 1e-12


class TestPseudoInverse:
    def test_identity(self):
        zdag, opnorm = pseudo_inverse(np.eye(2))
        assert np.allclose(zdag, np.eye(2))
        assert opnorm == pytest.approx(1.0)

    def test_mt_incidence(self):
        zdag, opnorm = pseudo_inverse(MT3_Z)
        expected = np.array([[2.0, -1.0, -1.0], [1.0, 1.0, -2.0]]) / 3.0
        assert np.max(np.abs(zdag - expected)) < 1e-14
        # eigenvalues of Z^T Z are 1 and 3, so sigma_min = 1
        assert opnorm == pytest.approx(1.0)

    def test_left_inverse_and_projector(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, n))
            z = rng.standard_normal((n, m))
            zdag, _ = pseudo_inverse(z)
            assert np.max(np.abs(zdag @ z - np.eye(m))) <= 1e-10
            proj = z @ zdag
            assert np.max(np.abs(proj - proj.T)) <= 1e-10
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMatrixError):
            pseudo_inverse(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            pseudo_inverse(np.ones((2, 3)))


class TestSolveLinear:
    def test_identity(self):
        assert np.allclose(solve_linear(np.eye(2), [5.0, -3.0]), [5.0, -3.0])

    def test_diagonal(self):
        x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert np.allclose(x, [1.0, 2.0])

    def test_rank_one_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_linear([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear(np.eye(3), [1.0, 2.0])

    def test_random_spd_residual(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 17))
            root = rng.standard_normal((d, d))
            m = root @ root.T + np.eye(d)
            b = rng.standard_normal(d)
            x = solve_linear(m, b)
            assert np.linalg.norm(m @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))
