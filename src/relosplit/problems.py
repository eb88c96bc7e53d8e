"""Bundled test problems with known solutions or independent oracles."""

import numbers

import numpy as np

from .dr2 import DRCertificate, DRProblem
from .driver import ambient_norm
from .errors import ConstructionError, DimensionError, NoOracleError, UnknownFieldError
from .linalg import as_vector
from .operators import (
    AffineMonotone,
    NegLog,
    NormalConeBox,
    NormalConePoint,
    _checked_numbers,
    make_operator,
    single_value,
)


class ProblemInstance:
    """A named list of operators plus an optional solution oracle.

    The oracle is a callable z -> float that the factory sets, taking a
    checked point of R^dim: the distance to an analytic solution point, the
    affine inclusion residual ||(sum M_i) z + sum b_i|| (the sums formed
    once, when the instance is built), or a feasible-set distance. Instances
    without an oracle cannot report solution residuals.
    """

    def __init__(self, name, ops, dim, solution_point=None, oracle=None,
                 dr_certificate=None, seed=None, params=None):
        self.name = name
        self.ops = list(ops)
        self.dim = dim
        self.solution_point = None if solution_point is None else as_vector(solution_point)
        self.oracle = oracle
        self.dr_certificate = dr_certificate
        self.seed = seed
        self.params = dict(params or {})
        if self.solution_point is not None and self.solution_point.size != dim:
            raise DimensionError("solution point dimension disagrees with the problem")

    @property
    def n_ops(self):
        return len(self.ops)

    @property
    def has_oracle(self):
        return self.oracle is not None

    def dr_problem(self):
        if self.n_ops != 2:
            raise ConstructionError(
                f"{self.name} has {self.n_ops} operators; a DR pair needs exactly 2"
            )
        return DRProblem(self.ops[0], self.ops[1])

    def __repr__(self):
        return f"ProblemInstance({self.name!r}, n_ops={self.n_ops}, dim={self.dim})"


def solution_residual(instance, z):
    """Distance-to-solution measure for a candidate point z.

    Checks z, then asks the instance's own oracle. Raises NoOracleError when
    the instance carries none.
    """
    z = as_vector(z)
    if z.size != instance.dim:
        raise DimensionError("candidate dimension disagrees with the problem")
    if instance.oracle is None:
        raise NoOracleError(f"{instance.name} carries no solution oracle")
    return instance.oracle(z)


def _distance_to(point):
    """Oracle ||z - point|| for an analytic solution point."""
    return lambda z: ambient_norm(z - point)


def _affine_inclusion(ops):
    """Oracle ||sum A_i z|| for affine operators A_i z = M_i z + b_i.

    M = sum M_i and b = sum b_i are formed here, once, so each call is one
    matrix-vector product, ||M z + b||. It differs from summing the N values
    A_i z only by rounding.
    """
    parts = [op.affine_parts() for op in ops]
    m = sum(mat for mat, _ in parts)
    b = sum(off for _, off in parts)
    return lambda z: ambient_norm(m.dot(z) + b)


def _box_distance(lo, hi):
    """Oracle ||z - clip(z, lo, hi)||, the distance to the box [lo, hi] (lo <= hi)."""
    return lambda z: ambient_norm(z - np.minimum(np.maximum(z, lo), hi))


def _int_param(params, key, default):
    """params[key] (default if absent), which must be an integer, not a bool."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConstructionError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number_param(params, key, default):
    """params[key] (default if absent), which must be a number, not a bool or text."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConstructionError(f"{key} must be a number, got {value!r}")
    return float(value)


def _indicator_neglog(params, seed):
    op_a = NormalConePoint([1.0])
    op_b = NegLog(1)
    problem = DRProblem(op_a, op_b)
    # w = 1 lies in the normal cone at the feasible point and -1 = (-ln)'(1).
    cert = DRCertificate(problem, z=[1.0], w=[1.0])
    return ProblemInstance(
        "indicator_neglog", [op_a, op_b], dim=1,
        solution_point=[1.0], oracle=_distance_to(np.array([1.0])),
        dr_certificate=cert, seed=seed, params=params,
    )


def _affine_consensus(params, seed):
    if "c" in params:
        centers = [as_vector(c) for c in
                   _checked_numbers("problem 'affine_consensus'", "c", params["c"])]
    else:
        count = _int_param(params, "count", 3)
        dim = _int_param(params, "dim", 1)
        spread = _number_param(params, "spread", 1.0)
        rng = np.random.default_rng(seed)
        centers = [spread * rng.standard_normal(dim) for _ in range(count)]
    if len(centers) < 2:
        raise ConstructionError("affine_consensus needs at least 2 centers")
    dims = {c.size for c in centers}
    if len(dims) != 1:
        raise DimensionError("centers have mixed dimensions")
    dim = centers[0].size
    ops = [AffineMonotone(np.eye(dim), -c) for c in centers]
    mean = np.mean(np.stack(centers), axis=0)
    return ProblemInstance(
        "affine_consensus", ops, dim=dim,
        solution_point=mean, oracle=_affine_inclusion(ops),
        seed=seed, params=params,
    )


def _affine_random(params, seed):
    count = _int_param(params, "count", 3)
    dim = _int_param(params, "dim", 2)
    if count < 2:
        raise ConstructionError("affine_random needs at least 2 operators")
    rng = np.random.default_rng(seed)
    zero = rng.standard_normal(dim)
    mats, offs = [], []
    for _ in range(count):
        square_root = rng.standard_normal((dim, dim)) / np.sqrt(dim)
        skew = rng.standard_normal((dim, dim))
        mats.append(square_root @ square_root.T + (skew - skew.T))
        offs.append(rng.standard_normal(dim))
    # adjust the last offset so that the drawn point is a common zero
    offs[-1] = -sum(m @ zero for m in mats) - sum(offs[:-1])
    ops = [AffineMonotone(m, b) for m, b in zip(mats, offs)]
    total = sum(op.value(zero) for op in ops)
    if np.linalg.norm(total) > 1e-8:
        raise ConstructionError("random affine instance failed its own oracle check")
    return ProblemInstance(
        "affine_random", ops, dim=dim,
        solution_point=zero, oracle=_affine_inclusion(ops),
        seed=seed, params=params,
    )


def _box_feasibility(params, seed):
    boxes = params.get("boxes")
    if not boxes or len(boxes) < 2:
        raise ConstructionError("box_feasibility needs at least 2 boxes")
    _checked_numbers("problem 'box_feasibility'", "boxes", boxes)
    ops = [NormalConeBox(lo, hi) for (lo, hi) in boxes]
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionError("boxes have mixed dimensions")
    dim = ops[0].dim
    lo = np.max(np.stack([op.lo for op in ops]), axis=0)
    hi = np.min(np.stack([op.hi for op in ops]), axis=0)
    return ProblemInstance(
        "box_feasibility", ops, dim=dim,
        oracle=_box_distance(lo, hi) if np.all(lo <= hi) else None,
        seed=seed, params=params,
    )


def _custom(params, seed):
    specs = params.get("ops")
    if not specs or len(specs) < 2:
        raise ConstructionError("custom needs at least 2 operator specs")
    ops = [make_operator(spec) for spec in specs]
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionError("custom operators act on mixed dimensions")
    solution = params.get("solution")
    if solution is not None:
        solution = as_vector(_checked_numbers("problem 'custom'", "solution", solution))
        # when every operator is single valued at the declared point, the
        # zero-of-the-sum claim is checkable directly
        values = [single_value(op, solution) for op in ops]
        if all(v is not None for v in values):
            total = np.linalg.norm(sum(values))
            if total > 1e-8:
                raise ConstructionError(
                    f"declared solution has sum residual {total:.3e}")
    return ProblemInstance(
        "custom", ops, dim=ops[0].dim,
        solution_point=solution,
        oracle=None if solution is None else _distance_to(solution),
        seed=seed, params=params,
    )


#: Each problem's factory and the params it accepts; any other key is an error
_FACTORIES = {
    "indicator_neglog": (_indicator_neglog, ()),
    "affine_consensus": (_affine_consensus, ("c", "count", "dim", "spread")),
    "affine_random": (_affine_random, ("count", "dim")),
    "box_feasibility": (_box_feasibility, ("boxes",)),
    "custom": (_custom, ("ops", "solution")),
}


def make_problem(name, params=None, seed=None):
    """Build a bundled problem instance by name.

    Known names: indicator_neglog (the 1-D disjoint-fixed-point instance),
    affine_consensus (x -> x - c_i, solution the mean), affine_random
    (seeded monotone affine operators with a planted common zero),
    box_feasibility (normal cones of boxes; no oracle when disjoint), and
    custom (params: {"ops": [operator specs], "solution": optional point}).
    A param the problem does not accept raises UnknownFieldError.
    """
    try:
        factory, allowed = _FACTORIES[name]
    except KeyError:
        raise ConstructionError(f"unknown problem name {name!r}") from None
    params = dict(params or {})
    for key in params:
        if key not in allowed:
            raise UnknownFieldError(key)
    instance = factory(params, seed)
    _validate_oracle(instance)
    return instance


def _validate_oracle(instance):
    if instance.solution_point is None or not instance.has_oracle:
        return
    resid = solution_residual(instance, instance.solution_point)
    if resid > 1e-8:
        raise ConstructionError(
            f"{instance.name}: oracle point has residual {resid:.3e}"
        )


def problem_names():
    return sorted(_FACTORIES)
