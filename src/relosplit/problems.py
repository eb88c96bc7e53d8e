"""Bundled test problems with known solutions or independent oracles."""

from functools import partial

import numpy as np

from .dr2 import DRCertificate, DRProblem
from .driver import ambient_norm
from .errors import ConstructionError, DimensionError, NoOracleError
from .kinds import NUMBER, VECTOR, ListOf, Object, Tagged, checked, integer
from .linalg import as_vector
from .operators import DIM, OPERATOR, AffineMonotone, NegLog, NormalConeBox, NormalConePoint

#: The kind of a problem's seed
SEED = integer(0)

#: Largest residual a declared custom solution may leave: the sum residual,
#: or the inclusion residual of its one set-valued operator
SOLUTION_TOL = 1e-8


class ProblemInstance:
    """A named list of operators on one R^dim plus an optional solution oracle.

    dim is the operators' common dimension; operators of mixed dimensions
    raise DimensionError.

    The oracle is a callable z -> float that the factory sets, taking a
    checked point of R^dim: the distance to an analytic solution point, the
    affine inclusion residual ||(sum M_i) z + sum b_i|| (the sums formed
    once, when the instance is built), or a feasible-set distance. Instances
    without an oracle cannot report solution residuals.
    """

    def __init__(self, name, ops, solution_point=None, oracle=None,
                 dr_certificate=None, seed=None):
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionError(f"operators act on mixed dimensions {sorted(dims)}")
        self.name = name
        self.ops = list(ops)
        self.dim = dims.pop()
        self.solution_point = None if solution_point is None else as_vector(solution_point)
        self.oracle = oracle
        self.dr_certificate = dr_certificate
        self.seed = seed
        if self.solution_point is not None and self.solution_point.size != self.dim:
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


def _indicator_neglog(params, seed):
    op_a = NormalConePoint([1.0])
    op_b = NegLog(1)
    problem = DRProblem(op_a, op_b)
    # w = 1 lies in the normal cone at the feasible point and -1 = (-ln)'(1).
    cert = DRCertificate(problem, z=[1.0], w=[1.0])
    return ProblemInstance("indicator_neglog", [op_a, op_b], solution_point=[1.0],
                           oracle=_distance_to(np.array([1.0])), dr_certificate=cert, seed=seed)


def _affine_consensus(params, seed):
    if "c" in params:
        centers = params["c"]
    else:
        rng = np.random.default_rng(seed)
        centers = [params.get("spread", 1.0) * rng.standard_normal(params.get("dim", 1))
                   for _ in range(params.get("count", 3))]
    instance = ProblemInstance(
        "affine_consensus", [AffineMonotone(np.eye(c.size), -c) for c in centers], seed=seed)
    # the centers share one dimension once the instance holds their operators
    instance.solution_point = np.mean(np.stack(centers), axis=0)
    instance.oracle = _affine_inclusion(instance.ops)
    return instance


def _affine_random(params, seed):
    count = params.get("count", 3)
    dim = params.get("dim", 2)
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
    return ProblemInstance("affine_random", ops, solution_point=zero,
                           oracle=_affine_inclusion(ops), seed=seed)


def _box_feasibility(params, seed):
    instance = ProblemInstance(
        "box_feasibility", [NormalConeBox(lo, hi) for (lo, hi) in params["boxes"]], seed=seed)
    # the boxes share one dimension once the instance holds their cones
    lo = np.max(np.stack([op.lo for op in instance.ops]), axis=0)
    hi = np.min(np.stack([op.hi for op in instance.ops]), axis=0)
    if np.all(lo <= hi):
        instance.oracle = _box_distance(lo, hi)
    return instance


def _custom(params, seed):
    solution = params.get("solution")
    return ProblemInstance("custom", params["ops"], solution_point=solution,
                           oracle=None if solution is None else _distance_to(solution), seed=seed)


def _custom_params(**params):
    """custom's params, once the declared solution is decided: at most one
    operator may be set valued there, and minus the sum of the others'
    values must pass its inclusion residual (with none, the sum must
    vanish). A solution of the wrong dimension is left to the problem.
    """
    ops, solution = params["ops"], params.get("solution")
    if solution is not None and {op.dim for op in ops} == {solution.size}:
        values = [op.value(solution) for op in ops]
        set_valued = [i for i, value in enumerate(values) if value is None]
        if len(set_valued) > 1:
            names = ", ".join(f"ops[{i}]" for i in set_valued)
            raise ConstructionError(f"{names} are set valued there; a declared solution is "
                                    "checked only where at most one operator is", field="solution")
        total = sum(value for value in values if value is not None)
        resid = (ops[set_valued[0]].inclusion_residual(solution, -total) if set_valued
                 else float(np.linalg.norm(total)))
        if not resid <= SOLUTION_TOL:
            raise ConstructionError(f"not a solution: residual {resid:.3e} > {SOLUTION_TOL:g}",
                                    field="solution")
    return params


#: Each problem's factory and the kind of its params
_FACTORIES = {
    "indicator_neglog": (_indicator_neglog, Object({})),
    "affine_consensus": (_affine_consensus, Object({}, {
        "c": ListOf(VECTOR, 2), "count": integer(2), "dim": DIM, "spread": NUMBER})),
    "affine_random": (_affine_random, Object({}, {"count": integer(2), "dim": DIM})),
    "box_feasibility": (_box_feasibility, Object({"boxes": ListOf(ListOf(VECTOR, 2, 2), 2)})),
    "custom": (_custom, Object({"ops": ListOf(OPERATOR, 2)}, {"solution": VECTOR},
                               build=_custom_params)),
}


def _instance(factory, params=None, seed=None):
    """The instance ``factory`` makes of checked params. A factory's solution
    point is a zero by construction, so its oracle is not asked: the residual
    it would report is rounding, which grows with the problem's scale."""
    return factory(params or {}, seed)


#: The config's problem object, whose name picks the kind of its params;
#: they are required when that kind has a required key
PROBLEM = Tagged("name", {
    name: Object({"params": params} if params.required else {},
                 {"params": params, "seed": SEED}, build=partial(_instance, factory))
    for name, (factory, params) in _FACTORIES.items()})


def make_problem(name, params=None, seed=None):
    """Build a bundled problem instance by name.

    Known names: indicator_neglog (the 1-D disjoint-fixed-point instance),
    affine_consensus (x -> x - c_i, solution the mean), affine_random
    (seeded monotone affine operators with a planted common zero),
    box_feasibility (normal cones of boxes; no oracle when disjoint), and
    custom (params: {"ops": [operator specs], "solution": optional point}).
    A param the problem does not accept, or one of the wrong kind, raises
    ConstructionError naming it by its path in params (``dimm: unknown
    field``, ``ops[1].dim: must be an integer, got 1.9``).
    """
    if name not in _FACTORIES:
        raise ConstructionError(f"unknown problem name {name!r}")
    factory, kind = _FACTORIES[name]
    return _instance(factory, checked(kind, params or {}), seed)


def problem_names():
    return sorted(_FACTORIES)
