"""Small dense linear algebra over R^d and blockwise product spaces.

Everything here is desk scale (d up to a few dozen, a handful of blocks),
so plain dense numpy routines are used throughout.

Data from outside the library is checked where it enters: ``as_vector``,
``as_matrix``, ``BlockVector(...)``, ``BlockVector.from_blocks`` and
``as_block_vector``. Block vectors the library computes itself (arithmetic,
``kron_apply``, sweeps, relocations) are wrapped without a copy or a
re-check; the iteration loop tests the iterate for finiteness once per step.
"""

import numpy as np

from .errors import DimensionError, ParameterError, SingularMatrixError

#: Relative rank tolerance for the pseudo-inverse: sigma_min <= RANK_TOL * sigma_max
#: is treated as rank deficient.
RANK_TOL = 1e-12


def as_vector(x):
    """Coerce ``x`` to a 1-D float array, rejecting non-finite entries."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if v.size == 0:
        raise DimensionError("vectors must have dimension >= 1")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector entries must be finite")
    return v


def as_matrix(m):
    """Coerce ``m`` to a 2-D float array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")
    return a


class BlockVector:
    """An ordered tuple of k points in R^d, stored as a read-only (k, d) array.

    Block vectors are the ambient space of the product-space methods: the
    governing iterate lives in X^(N-1) and the resolvent sweep output in X^N.
    They behave as immutable values and support +, -, and scalar *;
    ``np.asarray`` of a block vector is its read-only (k, d) array.
    """

    __slots__ = ("_data",)

    # keep numpy scalars from hijacking the arithmetic operators
    __array_ufunc__ = None

    def __init__(self, blocks):
        if isinstance(blocks, BlockVector):
            arr = blocks._data.copy()
        else:
            arr = np.asarray(blocks, dtype=float)
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
        if not np.all(np.isfinite(arr)):
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

    @classmethod
    def zeros(cls, nblocks, dim):
        return cls(np.zeros((nblocks, dim)))

    @classmethod
    def from_blocks(cls, blocks):
        """Build from an iterable of equal-dimension vectors."""
        vecs = [as_vector(b) for b in blocks]
        dims = {v.size for v in vecs}
        if len(dims) != 1:
            raise DimensionError(f"blocks have mixed dimensions {sorted(dims)}")
        return cls(np.stack(vecs))

    @property
    def data(self):
        """Read-only (k, d) view of the blocks."""
        return self._data

    @property
    def nblocks(self):
        return self._data.shape[0]

    @property
    def dim(self):
        return self._data.shape[1]

    def __getitem__(self, i):
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return self.nblocks

    def ravel(self):
        """Flattened copy, blocks concatenated in order."""
        return self._data.ravel().copy()

    def norm(self):
        return float(np.linalg.norm(self._data))

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self._data, dtype=dtype)
        return self._data if dtype is None else self._data.astype(dtype, copy=False)

    def __add__(self, other):
        self._check_compatible(other)
        return BlockVector._wrap(self._data + other._data)

    def __sub__(self, other):
        self._check_compatible(other)
        return BlockVector._wrap(self._data - other._data)

    def __mul__(self, scalar):
        return BlockVector._wrap(self._data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return BlockVector._wrap(-self._data)

    def _check_compatible(self, other):
        if not isinstance(other, BlockVector):
            raise DimensionError("expected another BlockVector")
        if other._data.shape != self._data.shape:
            raise DimensionError(
                f"shape mismatch: {self._data.shape} vs {other._data.shape}"
            )

    def allclose(self, other, tol=1e-12):
        self._check_compatible(other)
        return bool(np.max(np.abs(self._data - other._data)) <= tol)

    def __repr__(self):
        return f"BlockVector({self._data.tolist()!r})"


def kron_apply(matrix, x):
    """Apply the blockwise lift (M kron I) to a BlockVector.

    Block i of the result is sum_j M_ij * x_j; for an r x c matrix the input
    must have c blocks and the output has r blocks.
    """
    m = as_matrix(matrix)
    if not isinstance(x, BlockVector):
        x = BlockVector(x)
    if x.nblocks != m.shape[1]:
        raise DimensionError(
            f"matrix has {m.shape[1]} columns but block vector has {x.nblocks} blocks"
        )
    return BlockVector._wrap(m @ x.data)


def as_block_vector(x, nblocks, dim):
    """Coerce ``x`` to a BlockVector of ``nblocks`` blocks in R^dim.

    The entry check of the product-space runners: a BlockVector passes
    unchanged, anything else goes through the checked constructor.
    """
    if not isinstance(x, BlockVector):
        x = BlockVector(x)
    if x.nblocks != nblocks or x.dim != dim:
        raise DimensionError(
            f"iterate must have {nblocks} blocks of dimension {dim}, "
            f"got {x.nblocks} x {x.dim}"
        )
    return x


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


def solve_linear(matrix, rhs, tol=1e-10):
    """Solve M x = b for a square well-conditioned M.

    Raises SingularMatrixError when numpy reports a singular factorization or
    when the residual exceeds ``tol * (1 + ||b||)``.
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
    if not np.all(np.isfinite(x)) or residual > tol * (1.0 + np.linalg.norm(b)):
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds tolerance; matrix is "
            "numerically singular"
        )
    return x
