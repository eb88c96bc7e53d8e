"""Small dense linear algebra over R^d and blockwise product spaces.

Everything here is desk scale (d up to a few dozen, a handful of blocks),
so plain dense numpy routines are used throughout, and a point of a product
space X^k is a plain (k, d) float array.

Data from outside the library is checked where it enters: ``as_stepsize``,
``as_vector``, ``as_matrix``, ``BlockVector(...)`` and ``as_block_vector``.
They share one conversion, which turns ragged nesting into a DimensionError
and an entry that is not a real number into a ParameterError. Arrays the
library computes itself (``kron_apply``, sweeps, relocations) are not
re-checked; the iteration loop tests the iterate for finiteness once per
step.
"""

import math

import numpy as np

from .errors import DimensionError, ParameterError, SingularMatrixError

#: Relative rank tolerance for the pseudo-inverse: sigma_min <= RANK_TOL * sigma_max
#: is treated as rank deficient.
RANK_TOL = 1e-12

#: Relative residual tolerance of solve_linear.
SOLVE_TOL = 1e-10


def _all_finite(a):
    """True when every entry of the float array ``a`` is finite.

    One C-level pass: ``np.isfinite(a)`` holds a zero byte exactly where an
    entry is not finite, and ``bytes.__contains__`` finds it. No numpy
    Python-level wrapper runs (``ndarray.all`` and ``np.count_nonzero`` are
    Python functions), and unlike a ``v.dot(v)`` test this never warns on
    large finite entries, whose squares overflow.
    """
    return 0 not in np.isfinite(a).tobytes()


def _float_array(x, what):
    """``x`` as a float array, the conversion every checked coercion shares.

    Ragged nesting raises a DimensionError and an entry that is not a real
    number (a string, None, a complex number) a ParameterError, so neither
    reaches the caller as numpy's own ValueError or TypeError. A float
    array comes back as it is, without a copy.
    """
    try:
        a = np.asarray(x)
    except ValueError:
        raise DimensionError(f"{what} must be a rectangular array, got ragged nesting") from None
    # an object array (Python ints beyond int64, None) converts entry by entry
    if a.dtype.kind in "biufO":
        try:
            return a.astype(float, copy=False)
        except (TypeError, ValueError):
            pass
    raise ParameterError(f"{what} must hold real numbers, got {a.dtype.name} entries")


def as_stepsize(gamma, name="gamma"):
    """Coerce a stepsize to a float, rejecting one that is not finite and > 0."""
    value = _float_array(gamma, name)
    if value.ndim != 0 or not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be positive, got {gamma}")
    return float(value)


def as_vector(x):
    """Coerce ``x`` to a 1-D float array, rejecting non-finite entries."""
    v = _float_array(x, "vector")
    if v.ndim == 0:
        v = v.reshape(1)
    elif v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if v.size == 0:
        raise DimensionError("vectors must have dimension >= 1")
    if not _all_finite(v):
        raise ParameterError("vector entries must be finite")
    return v


def as_matrix(m):
    """Coerce ``m`` to a 2-D float array, rejecting non-finite entries."""
    a = _float_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if not _all_finite(a):
        raise ParameterError("matrix entries must be finite")
    return a


class BlockVector:
    """A checked point of a product space X^k: k blocks of R^d, held as a
    read-only (k, d) float array.

    The runners' boundary type: they accept one as x_0, and a run started
    from one hands its iterates and final_x back as BlockVectors (see
    driver.relocated_loop). The library itself computes on plain arrays;
    ``data`` and ``np.asarray`` of a block vector are its read-only array.
    """

    __slots__ = ("_data",)

    def __init__(self, blocks):
        # a BlockVector converts through __array__, to its own array
        arr = _float_array(blocks, "blocks")
        if arr.ndim == 1:
            raise DimensionError(
                "a BlockVector needs a sequence of blocks; wrap a single "
                "vector as [v]"
            )
        if arr.ndim != 2:
            raise DimensionError(f"blocks must form a (k, d) array, got {arr.shape}")
        arr = arr.copy()
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError("need k >= 1 blocks of dimension d >= 1")
        if not _all_finite(arr):
            raise ParameterError("block entries must be finite")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr):
        """Adopt a freshly computed (k, d) float array: no copy, no re-check."""
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out._data = arr
        return out

    @property
    def data(self):
        """Read-only (k, d) view of the blocks."""
        return self._data

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._data, dtype=dtype)
        return self._data if dtype is None else self._data.astype(dtype, copy=False)

    def __repr__(self):
        return f"BlockVector({self._data.tolist()!r})"


def kron_apply(matrix, x):
    """Apply the blockwise lift (M kron I) to a point of X^c; returns an array.

    Block i of the result is sum_j M_ij * x_j; for an r x c matrix the input
    must have c blocks and the output has r blocks.
    """
    m = as_matrix(matrix)
    x = BlockVector(x).data
    if x.shape[0] != m.shape[1]:
        raise DimensionError(
            f"matrix has {m.shape[1]} columns but block vector has {x.shape[0]} blocks"
        )
    return m @ x


def as_block_vector(x, nblocks, dim):
    """Coerce ``x`` to a BlockVector of ``nblocks`` blocks in R^dim.

    The entry check of the product-space runners: a BlockVector passes
    unchanged, anything else goes through the checked constructor.
    """
    if not isinstance(x, BlockVector):
        x = BlockVector(x)
    if x.data.shape != (nblocks, dim):
        raise DimensionError(
            f"iterate must have {nblocks} blocks of dimension {dim}, "
            f"got {x.data.shape[0]} x {x.data.shape[1]}"
        )
    return x


def as_block_iterate(x, nblocks, dim):
    """A product-space runner's x_0, checked as ``as_block_vector`` checks it
    and kept in the caller's type: a BlockVector as it is, anything else as
    the checked copy's read-only (nblocks, dim) array, which shares no
    memory with ``x``. The loop hands a run's iterates and final_x back in
    that type (see driver.relocated_loop)."""
    checked = as_block_vector(x, nblocks, dim)
    return checked if isinstance(x, BlockVector) else checked.data


def pseudo_inverse(z):
    """Moore-Penrose pseudo-inverse of a tall full-column-rank matrix.

    Returns ``(zdag, opnorm)`` where ``zdag = (Z^T Z)^{-1} Z^T`` and
    ``opnorm = ||Z^dagger|| = 1 / sigma_min(Z)``. Computed via the normal
    equations with a symmetric eigen-solve, which is plenty accurate for
    the tiny matrices handled here.
    """
    z = as_matrix(z)
    n, m = z.shape
    if n < m:
        raise DimensionError(f"expected a tall matrix, got shape {(n, m)}")
    gram = z.T @ z
    evals = np.linalg.eigvalsh(gram)
    sigma_max = np.sqrt(max(evals[-1], 0.0))
    sigma_min = np.sqrt(max(evals[0], 0.0))
    if sigma_min <= RANK_TOL * sigma_max or sigma_max == 0.0:
        raise SingularMatrixError(
            f"matrix is rank deficient (sigma_min={sigma_min:.3e}, "
            f"sigma_max={sigma_max:.3e})"
        )
    zdag = np.linalg.solve(gram, z.T)
    return zdag, float(1.0 / sigma_min)


def solve_linear(matrix, rhs):
    """Solve M x = b for a square well-conditioned M.

    Raises SingularMatrixError when numpy reports a singular factorization or
    when the residual exceeds ``SOLVE_TOL * (1 + ||b||)``.
    """
    m = as_matrix(matrix)
    b = as_vector(rhs)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] != b.size:
        raise DimensionError(
            f"matrix is {m.shape[0]}x{m.shape[1]} but rhs has dimension {b.size}"
        )
    try:
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    residual = np.linalg.norm(m @ x - b)
    if not _all_finite(x) or residual > SOLVE_TOL * (1.0 + np.linalg.norm(b)):
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds tolerance; matrix is "
            "numerically singular"
        )
    return x
