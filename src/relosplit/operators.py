"""Catalog of maximally monotone operators with closed-form resolvents.

Every operator exposes the same oracle: ``op.resolvent(gamma, x)`` returns
J_{gamma A} x = (I + gamma A)^{-1} x, single-valued and defined for every x.
Reflectents are derived as R = 2 J - Id. All resolvents are exact (no inner
iterative solves). The affine kind factors its matrix once, on its first
resolvent or ``input_row`` call, into stepsize-free eigenfactors that take gamma as an entry
of their input, so each later resolvent is two real matrix-vector products
and one complex division at any gamma, made in buffers the factors own: a
call allocates its result and nothing else, and nothing at all with
``out=row`` (about 2.4 us a call at d = 32, and 0.73 s for graph-affine's
solve, from 3.9 us and 0.86 s when a call made its own input and product).
So an affine operator's resolvent is not reentrant across threads (the
library starts none). A matrix whose eigenvector basis is ill conditioned
keeps a dense linear solve per call.

``resolvent`` checks gamma and x. ``resolvent(gamma, x, check=False)`` skips
the checks, for a caller that checked its inputs once, at its own entry: the
runners' sweeps and relocators, and the nested kinds, which hand their inner
operator a point computed from one already checked. ``out=row`` writes the
result into a float row of R^dim and returns that row: the box kind
projects in place and the factored affine kind writes its last product
into the row, while every other kind copies its result in. The runners'
sweep uses it to write each node into its row of a buffer kept for the run.
Every call still goes through this one method, so a wrapper around it sees
every resolvent.

``input_row()`` returns the row an operator's resolvent reads its input
from. The factored affine kind returns the x part of its own [x; -gamma; 1]
buffer, and a call handed that very row skips its copy; every other kind
returns a fresh row, which the caller owns. The runners' sweep writes each
node's input into its operator's row, so a graph-affine iteration copies no
resolvent input (see ``graphs.sweep_workspace``): a call from the row takes
about 1.8 us at d = 32 and 1.5 us at d = 16, against 2.0 and 1.6 us when it
copies its input in, and 2.3 and 2.0 us before its last product dropped
np.dot's dispatcher. The row is shared by every
caller of one operator object and rewritten by its calls, so it is filled
just before the call that reads it, and an affine operator's resolvent is
not reentrant: two calls on one object must not overlap, across threads or
through a callback (the library starts no thread and makes no such call).

Each kind also answers for its own semantics: ``value`` (A itself where it
is single valued), ``inclusion_residual`` (the membership test w in A z)
and ``affine_parts`` (A u = M u + b, affine kinds only). These methods take
checked vectors; the module functions ``single_value`` and
``inclusion_residual`` are the checked entry points.

A kind whose resolvent is the same map at every gamma > 0 declares the class
attribute ``stepsize_free = True``: the normal cones, whose resolvent is the
projection onto their set, and the zero operator, whose resolvent is the
identity. The nested kinds and the counting wrapper report their inner
operator's value; every other kind says False. A kind may under-declare,
never over-declare. When every operator of a run is stepsize free, T_gamma
is one operator for every gamma, its fixed-point set does not move with the
stepsize, and the runners stop at the first small residual (see
``driver.StopRule``).
"""

from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DimensionError, ParameterError
from .kinds import MATRIX, NUMBER, VECTOR, Object, Tagged, checked, integer
from .linalg import as_matrix, as_stepsize, as_vector, solve_linear

#: Smallest admissible eigenvalue of M + M^T for the affine kind (half of it
#: for the symmetric part (M + M^T)/2, which is what is tested). Slightly
#: negative so that exactly-skew matrices survive floating-point checks.
PSD_TOL = -1e-10

#: Largest cond_1(V) = ||V||_1 ||V^-1||_1 of the eigenvector basis of an
#: affine M for which the factored resolvent is used; its
#: error is about cond_1(V) * machine epsilon relative to the input. A worse
#: basis (defective or nearly defective M) keeps the dense solve.
EIG_COND_MAX = 1e4

#: The kind of an operator's dimension
DIM = integer(1)


class MonotoneOperator:
    """Base class: a resolvent oracle on R^dim."""

    dim = None
    kind = "abstract"
    #: whether J_{gamma A} is the same map at every gamma > 0
    stepsize_free = False

    def resolvent(self, gamma, x, *, check=True, out=None):
        """Evaluate J_{gamma A} x for gamma > 0.

        gamma must be finite and positive, and x a finite vector of R^dim;
        ParameterError or DimensionError says which is not. With check=False
        nothing is checked: the caller vouches for a float gamma > 0, which
        may be inf (a runner's gamma times its scale can overflow), and a
        float vector x of R^dim; a non-finite gamma or entry of x passes
        through to the result. The runners' sweeps and relocators pass it
        for the points they compute themselves, from inputs checked at their
        entry. out, a writable, C-contiguous float64 array of shape (dim,),
        receives the result, which is then out itself; its bytes are those
        of the call without out.
        """
        if check:
            gamma, x = as_stepsize(gamma), _checked_point(self, x)
        if out is None:
            return self._resolvent(gamma, x)
        return self._resolvent_into(gamma, x, out)

    def input_row(self):
        """A float row of R^dim that a caller may fill with the input of its
        next resolvent call: the runners' sweep writes each node's input
        into its operator's row, built once per run. The default is a fresh
        array; a kind that copies its input into a buffer of its own returns
        that buffer, and its resolvent then skips the copy. The row is the
        operator's, not the caller's: any call on the operator may overwrite
        it, so it is filled just before the call that reads it.
        """
        return np.empty(self.dim)

    def reflectent(self, gamma, x):
        """Evaluate R_{gamma A} x = 2 J_{gamma A} x - x."""
        x = as_vector(x)
        return 2.0 * self.resolvent(gamma, x) - x

    def _resolvent(self, gamma, x):
        raise NotImplementedError

    def _resolvent_into(self, gamma, x, out):
        out[...] = self._resolvent(gamma, x)
        return out

    def value(self, x):
        """A(x) where A is single valued at x, else None."""
        return None

    def inclusion_residual(self, z, w):
        """||w - A(z)|| where A is single valued at z, else None (undecided)."""
        v = self.value(z)
        return None if v is None else float(np.linalg.norm(w - v))

    def affine_parts(self):
        """(M, b) with A u = M u + b; raises ParameterError for non-affine kinds."""
        raise ParameterError(
            f"the affine fixed-point oracle requires affine operators, got {self!r}"
        )

    def __repr__(self):
        return f"<{type(self).__name__} dim={self.dim}>"


class Zero(MonotoneOperator):
    """A = 0, so J = Id."""

    kind = "zero"
    stepsize_free = True

    def __init__(self, dim):
        self.dim = checked(DIM, dim, "dim")

    def _resolvent(self, gamma, x):
        return x.copy()

    def value(self, x):
        return np.zeros(self.dim)

    def affine_parts(self):
        return np.zeros((self.dim, self.dim)), np.zeros(self.dim)


class ScaledIdentity(MonotoneOperator):
    """A = lam * Id with lam >= 0; J x = x / (1 + gamma * lam)."""

    kind = "scaled_identity"

    def __init__(self, lam, dim):
        lam = checked(NUMBER, lam, "lam")
        if not np.isfinite(lam) or lam < 0:
            raise ConstructionError(f"operator kind {self.kind!r}: lam must be >= 0, "
                                    f"got {lam}")
        self.lam = lam
        self.dim = checked(DIM, dim, "dim")

    def _resolvent(self, gamma, x):
        return x / (1.0 + gamma * self.lam)

    def value(self, x):
        return self.lam * x

    def affine_parts(self):
        return self.lam * np.eye(self.dim), np.zeros(self.dim)


class AffineMonotone(MonotoneOperator):
    """A x = M x + b with M + M^T positive semidefinite.

    The resolvent solves (I + gamma M) y = r with r = x - gamma b. The first
    call factors M = V diag(lam) V^-1 once for every gamma and keeps the
    factors (M and b are read-only copies, so they cannot go stale); then
    y = Re(V ((V^-1 r) / (1 + gamma lam))), keeping one eigenpair of each
    complex-conjugate pair, weighted by 2. The stepsize enters as an entry
    of the input, [x; -gamma; 1], so one real matrix-vector product gives
    both V^-1 r and 1 + gamma lam (see ``_eigen_factors``), and a call is
    that product, one complex division and one product with V, written
    straight into its result. At the benchmark's sizes (d = 16 and 32) a
    call costs numpy's per-call overhead more than arithmetic, so it is
    the count of numpy calls and of the arrays they make that sets its
    time. The input [x; -gamma; 1], the product and its complex halves are
    buffers and views kept with the factors, so a call allocates only its
    result, and with out=row nothing: about 2.4 us a call at d = 32, from
    about 3.9 us when each call made its input, its product and five
    slices or views, and graph-affine's solve time fell from 0.86 to 0.73 s
    (BENCH_25.json). Two calls on one operator must therefore not overlap:
    the resolvent is not reentrant across threads.

    input_row() is the x part of that input buffer, so a caller that
    writes its point there, as the runners' sweep does, hands it over with
    no copy: the call then writes gamma, makes the product and the
    division, and ends in left.dot(num_real, out=out), the method that
    reaches the same C routine as np.dot without its dispatcher: about
    1.8 us a call at d = 32 from the row and 2.0 us with the copy, from
    2.3 us with np.dot (minima of 21 timeit rounds). The row is the
    operator's, shared by every node it sits at, and any call overwrites
    it.

    Monotone M has Re lam >= 0, so |1 + gamma lam| >= 1 and the error is
    about cond_1(V) times machine epsilon at every gamma. When cond_1(V)
    exceeds EIG_COND_MAX (defective or nearly defective M, such as
    [[1, 1], [0, 1]]), every call instead solves I + gamma M densely with
    ``solve_linear``, which checks its residual.
    """

    kind = "affine"

    def __init__(self, matrix, offset):
        m = as_matrix(matrix).copy()
        b = as_vector(offset).copy()
        for frozen in (m, b):
            frozen.setflags(write=False)
        if m.shape[0] != m.shape[1]:
            raise ConstructionError(f"M must be square, got shape {m.shape}")
        if m.shape[0] != b.size:
            raise ConstructionError("M and b dimensions disagree")
        # the symmetric part (M + M^T)/2 is formed in halves, so no entry
        # overflows; an eigenvalue that is NaN fails the test as well
        low = np.linalg.eigvalsh(0.5 * m + 0.5 * m.T)[0]
        if not low >= 0.5 * PSD_TOL:
            raise ConstructionError(
                f"(M + M^T)/2 has eigenvalue {low:.3e} < {0.5 * PSD_TOL}; "
                "operator would not be monotone"
            )
        self.matrix = m
        self.offset = b
        self.dim = b.size
        # an _AffineFactors, or () for the dense solve; built on first use
        self._factors = None

    def input_row(self):
        """The factors' own input row, the x of [x; -gamma; 1], which the
        factors are built for if they are missing; the dense fallback has
        none and returns a fresh row."""
        if self._factors is None:
            self._factors = _eigen_factors(self.matrix, self.offset)
        return self._factors.x if self._factors else np.empty(self.dim)

    def __getstate__(self):
        # copy and pickle copy each array of the factors on its own, which
        # cuts x, num, den and num_real loose from the xa and t that a call
        # writes: a copy would return its original's last result. So a copy
        # leaves the factors out and builds its own on first use
        return {**self.__dict__, "_factors": None}

    def __setstate__(self, state):
        # a copy's M and b come back writeable, so they are frozen again
        self.__dict__.update(state)
        for frozen in (self.matrix, self.offset):
            frozen.setflags(write=False)

    def _resolvent(self, gamma, x):
        return self._resolvent_into(gamma, x, np.empty(self.dim))

    def _resolvent_into(self, gamma, x, out):
        if self._factors is None:
            self._factors = _eigen_factors(self.matrix, self.offset)
        if not self._factors:
            out[...] = solve_linear(np.eye(self.dim) + gamma * self.matrix,
                                    x - gamma * self.offset)
            return out
        left, full, xa, x_row, t, num, den, num_real = self._factors
        # one real product of full and [x; -gamma; 1] gives the numerators
        # R (x - gamma b) and the denominators 1 + gamma lam, interleaved
        # (Re, Im); every operand is a buffer of the factors, so the result
        # is the only array made, and only when out is not given. An input
        # written into input_row() is already in place
        if x is not x_row:
            x_row[...] = x
        xa[-2] = -gamma
        full.dot(xa, out=t)
        np.divide(num, den, out=num)
        return left.dot(num_real, out=out)

    def value(self, x):
        """The (single-valued) operator itself, M x + b."""
        return self.matrix @ x + self.offset

    def affine_parts(self):
        return self.matrix.copy(), self.offset.copy()


def _eigen_factors(m, b):
    """Stepsize-free factors of A u = M u + b for the affine resolvent.

    Factors M = V diag(lam) V^-1 and keeps k eigenpairs, one of each complex
    conjugate pair, whose rows R of V^-1 are weighted by 2, so that
    (I + gamma M)^-1 r = Re(L diag(1 / (1 + gamma lam)) R r) with L the kept
    columns of V. Returns an _AffineFactors, whose factors left and full
    are real:

    - left, (d x 2k), holds the columns (Re l_j, -Im l_j), so left.dot(t) is
      Re(L c) when t holds the (Re, Im) pairs of c;
    - full, (4k x (d + 2)), holds R in its first 2k rows as (Re, Im) row
      pairs, with R b in column d; its last 2k rows hold (-Re lam_j,
      -Im lam_j) in column d and (1, 0) in column d + 1. So full.dot([x;
      -gamma; 1]) is R (x - gamma b) followed by 1 + gamma lam, as (Re, Im)
      pairs.

    With them come the buffers and views that every call on the operator
    writes (see ``_AffineFactors``), so a call allocates nothing but its
    result: about 2.4 us a call at d = 32 and 2.1 us at d = 16, from 3.9
    and 3.8 us when a call made them itself.

    Returns () when the eigenvector basis is singular or cond_1(V) exceeds
    EIG_COND_MAX.
    """
    lam, v = np.linalg.eig(m)
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return ()
    if not np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1) <= EIG_COND_MAX:
        return ()
    # a real M's complex eigenpairs come in conjugate pairs whose terms are
    # conjugate: keep the one with Im lam > 0 at twice the weight
    keep = lam.imag >= 0
    weight = np.where(lam.imag[keep] > 0, 2.0, 1.0)
    rows = weight[:, None] * v_inv[keep]
    d, k = m.shape[0], rows.shape[0]
    full = np.zeros((2 * k, d + 2), dtype=complex)
    full[:k, :d], full[:k, d] = rows, rows.dot(b)
    full[k:, d], full[k:, d + 1] = -lam[keep], 1.0
    # complex row j becomes the real rows 2j (Re) and 2j + 1 (Im), and
    # complex column j of V the real columns 2j (Re) and 2j + 1 (-Im)
    full = np.stack([full.real, full.imag], axis=1).reshape(4 * k, d + 2)
    left = np.stack([v[:, keep].real, -v[:, keep].imag], axis=2).reshape(d, 2 * k)
    xa, t = np.zeros(d + 2), np.empty(4 * k)
    xa[-1] = 1.0
    num, den = t[:2 * k].view(complex), t[2 * k:].view(complex)
    return _AffineFactors(left, full, xa, xa[:d], t, num, den, num.view(float))


class _AffineFactors(NamedTuple):
    """The factors of ``_eigen_factors`` and the scratch of a resolvent call.

    left and full are the factors. xa (d + 2 entries, [x; -gamma; 1], its
    last entry fixed at 1) and t (4k entries, the product full.dot(xa)) are
    written by every call; x is the view of xa's first d entries, the
    operator's input row, num and den are the complex views of t's halves,
    and num_real the float view of num, made once so that a call makes none.
    """

    left: np.ndarray
    full: np.ndarray
    xa: np.ndarray
    x: np.ndarray
    t: np.ndarray
    num: np.ndarray
    den: np.ndarray
    num_real: np.ndarray


class _NormalCone(MonotoneOperator):
    """Normal cone of a closed convex set C; J projects onto C at every gamma."""

    stepsize_free = True

    def inclusion_residual(self, z, w):
        # w lies in the cone at z exactly when z is the projection of z + w
        return float(np.linalg.norm(z - self._resolvent(1.0, z + w)))


class NormalConePoint(_NormalCone):
    """Normal cone of the singleton {c}; J is the constant map c."""

    kind = "normal_cone_point"

    def __init__(self, point):
        self.point = as_vector(point)
        self.dim = self.point.size

    def _resolvent(self, gamma, x):
        return self.point.copy()


class NormalConeBox(_NormalCone):
    """Normal cone of the box [lo, hi]; J clips componentwise."""

    kind = "normal_cone_box"

    def __init__(self, lo, hi):
        lo = as_vector(lo)
        hi = as_vector(hi)
        if lo.size != hi.size:
            raise ConstructionError("lo and hi dimensions disagree")
        if np.any(lo > hi):
            raise ConstructionError("box requires lo <= hi componentwise")
        self.lo = lo
        self.hi = hi
        self.dim = lo.size

    def _resolvent(self, gamma, x):
        # np.clip's arithmetic (lo <= hi) at half its call cost
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def _resolvent_into(self, gamma, x, out):
        # the same two ufuncs, writing into out: no temporary
        np.maximum(x, self.lo, out=out)
        return np.minimum(out, self.hi, out=out)

    def value(self, x):
        # the cone is {0} inside the box and set valued on its boundary
        return np.zeros(self.dim) if np.all((self.lo < x) & (x < self.hi)) else None


class NormalConeBall(_NormalCone):
    """Normal cone of the closed ball B(center, radius); J projects onto it."""

    kind = "normal_cone_ball"

    def __init__(self, center, radius):
        radius = checked(NUMBER, radius, "radius")
        if not np.isfinite(radius) or radius <= 0:
            raise ConstructionError(f"radius must be > 0, got {radius}")
        self.center = as_vector(center)
        self.radius = radius
        self.dim = self.center.size

    def _resolvent(self, gamma, x):
        d = x - self.center
        dist = np.linalg.norm(d)
        if dist <= self.radius:
            # x itself: center + (x - center) can round away from it
            return x.copy()
        return self.center + d * (self.radius / dist)

    def value(self, x):
        # the cone is {0} inside the ball and set valued on its sphere
        return np.zeros(self.dim) if np.linalg.norm(x - self.center) < self.radius else None


class NegLog(MonotoneOperator):
    """Componentwise subdifferential of -ln, A y = -1/y on y > 0.

    J x = (x + sqrt(x^2 + 4 gamma)) / 2 componentwise; defined for every
    real x even though dom A is the positive orthant.
    """

    kind = "neg_log"

    def __init__(self, dim):
        self.dim = checked(DIM, dim, "dim")

    def _resolvent(self, gamma, x):
        root = np.sqrt(x * x + 4.0 * gamma)
        # rationalized branch for x < 0 avoids cancellation in x + root
        return np.where(x >= 0, (x + root) / 2.0, (2.0 * gamma) / (root - x))

    def value(self, x):
        return -1.0 / x if np.all(x > 0) else None

    def inclusion_residual(self, z, w):
        if np.any(z <= 0):
            return float("inf")
        return super().inclusion_residual(z, w)


class Translated(MonotoneOperator):
    """A_s x = A(x - s); the resolvent is s + J_{gamma A}(x - s)."""

    kind = "translated"

    def __init__(self, inner, shift):
        if not isinstance(inner, MonotoneOperator):
            raise ConstructionError("inner must be a MonotoneOperator")
        shift = as_vector(shift)
        if shift.size != inner.dim:
            raise ConstructionError("shift dimension disagrees with inner operator")
        self.inner = inner
        self.shift = shift
        self.dim = inner.dim

    @property
    def stepsize_free(self):
        return self.inner.stepsize_free

    def _resolvent(self, gamma, x):
        return self.shift + self.inner.resolvent(gamma, x - self.shift, check=False)

    def value(self, x):
        return self.inner.value(x - self.shift)

    def inclusion_residual(self, z, w):
        return self.inner.inclusion_residual(z - self.shift, w)

    def affine_parts(self):
        m, b = self.inner.affine_parts()
        return m, b - m @ self.shift


class Scaled(MonotoneOperator):
    """sigma * A with sigma > 0; J_{gamma(sigma A)} = J_{(gamma sigma) A}."""

    kind = "scaled"

    def __init__(self, inner, sigma):
        if not isinstance(inner, MonotoneOperator):
            raise ConstructionError("inner must be a MonotoneOperator")
        sigma = checked(NUMBER, sigma, "sigma")
        if not np.isfinite(sigma) or sigma <= 0:
            raise ConstructionError(f"sigma must be > 0, got {sigma}")
        self.inner = inner
        self.sigma = sigma
        self.dim = inner.dim

    @property
    def stepsize_free(self):
        return self.inner.stepsize_free

    def _resolvent(self, gamma, x):
        return self.inner.resolvent(gamma * self.sigma, x, check=False)

    def value(self, x):
        inner = self.inner.value(x)
        return None if inner is None else self.sigma * inner

    def inclusion_residual(self, z, w):
        return self.inner.inclusion_residual(z, w / self.sigma)

    def affine_parts(self):
        m, b = self.inner.affine_parts()
        return self.sigma * m, self.sigma * b


class CountingOperator(MonotoneOperator):
    """Delegating wrapper that counts resolvent evaluations.

    Used to audit the one-resolvent-per-operator-per-iteration accounting of
    the efficient algorithm implementations.
    """

    kind = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0

    @property
    def stepsize_free(self):
        return self.inner.stepsize_free

    def _resolvent(self, gamma, x):
        self.calls += 1
        return self.inner.resolvent(gamma, x, check=False)

    def value(self, x):
        return self.inner.value(x)

    def inclusion_residual(self, z, w):
        return self.inner.inclusion_residual(z, w)

    def affine_parts(self):
        return self.inner.affine_parts()


def stepsize_free(ops):
    """Whether every operator's resolvent is the same map at every gamma > 0."""
    return all(op.stepsize_free for op in ops)


def _checked_point(op, x):
    x = as_vector(x)
    if x.size != op.dim:
        raise DimensionError(
            f"operator acts on R^{op.dim}, point has dimension {x.size}"
        )
    return x


def single_value(op, x):
    """Evaluate A(x) for kinds where the operator is single valued at x.

    Returns None where A is set valued (a normal cone off the interior of
    its set) and for points outside the domain.
    """
    return op.value(_checked_point(op, x))


def inclusion_residual(op, point, value):
    """Residual of the membership claim ``value in op(point)``.

    Returns a float (0 means the claim holds) for kinds where membership is
    decidable in closed form, and None when it is not; callers then fall back
    to indirect validation.
    """
    return op.inclusion_residual(_checked_point(op, point), _checked_point(op, value))


#: Each operator spec kind: its keys, each mapped to its field kind, and the
#: class built from them. "inner" holds a nested spec, so the table is filled
#: in after the Tagged kind that refers to it.
SPECS = {}
OPERATOR = Tagged("kind", SPECS)
SPECS.update({
    "zero": Object({"dim": DIM}, build=Zero),
    "scaled_identity": Object({"lam": NUMBER, "dim": DIM}, build=ScaledIdentity),
    "affine": Object({"M": MATRIX, "b": VECTOR}, build=lambda M, b: AffineMonotone(M, b)),
    "normal_cone_point": Object({"c": VECTOR}, build=lambda c: NormalConePoint(c)),
    "normal_cone_box": Object({"lo": VECTOR, "hi": VECTOR}, build=NormalConeBox),
    "normal_cone_ball": Object({"center": VECTOR, "radius": NUMBER}, build=NormalConeBall),
    "neg_log": Object({"dim": DIM}, build=NegLog),
    "translated": Object({"inner": OPERATOR, "shift": VECTOR}, build=Translated),
    "scaled": Object({"inner": OPERATOR, "sigma": NUMBER}, build=Scaled),
})


def make_operator(spec):
    """Build an operator from a structured description.

    ``spec`` is a mapping with a "kind" key plus kind-specific parameters,
    e.g. {"kind": "normal_cone_point", "c": [1.0]}. The nested kinds
    "translated" and "scaled" take an "inner" sub-description. Any fault
    raises ConstructionError naming the field by its path in the spec
    (``inner.dim: must be an integer, got 1.9``, ``bogus: unknown field``).
    """
    return checked(OPERATOR, spec)
