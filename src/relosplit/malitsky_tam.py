"""Variable-stepsize Malitsky-Tam resolvent splitting for N >= 2 operators.

The underlying graph is the ring: a chain spanning tree plus the chord
(1, N). After rescaling stepsize, relaxation and iterate by one half, the
graph-DR operator on that ring collapses to the sweep of mt_apply, which
touches each operator's resolvent exactly once. Its cheap relocator only
needs the resolvent of the first operator: it is the graph runner's
one-resolvent relocator on the ring. So the efficient runner is the graph
runner's hooks in MT's coordinates, and it keeps the
one-resolvent-per-operator cost of the stationary method.
"""

from dataclasses import dataclass

import numpy as np

from .driver import OperatorFamily, Relocator, relocated_loop
from .errors import DimensionError, ParameterError
from .graphs import at_consensus, build_graph, consensus_columns, graph_hooks
from .kinds import INTEGER, NUMBER, checked
from .linalg import as_block_iterate, as_block_vector, as_stepsize
from .operators import MonotoneOperator, stepsize_free


@dataclass(frozen=True)
class MTProblem:
    """N >= 2 operators on a common space plus the relaxation theta in (0, 1)."""

    ops: tuple
    theta: float

    def __post_init__(self):
        ops = tuple(self.ops)
        object.__setattr__(self, "ops", ops)
        if len(ops) < 2:
            raise ParameterError(f"need at least 2 operators, got {len(ops)}")
        if not all(isinstance(op, MonotoneOperator) for op in ops):
            raise ParameterError("all entries must be MonotoneOperator instances")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise DimensionError(f"operators act on mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "theta", checked(NUMBER, self.theta, "theta"))
        if not 0.0 < self.theta < 1.0:
            raise ParameterError(f"theta must lie in (0, 1), got {self.theta}")

    @property
    def n_ops(self):
        return len(self.ops)

    @property
    def dim(self):
        return self.ops[0].dim


def mt_graph(n):
    """The ring splitting graph: chain tree plus the chord (1, N).

    For N = 2 the chord coincides with the single tree arc, so E = E'.
    """
    n = checked(INTEGER, n, "N")
    if n < 2:
        raise ParameterError(f"need N >= 2, got {n}")
    tree = [(i, i + 1) for i in range(1, n)]
    arcs = tree + ([(1, n)] if n >= 3 else [])
    return build_graph(n, arcs, tree)


def _check_x(problem, x):
    return as_block_vector(x, problem.n_ops - 1, problem.dim)


def mt_apply(problem, gamma, x):
    """One Malitsky-Tam step; returns the arrays (Tx, z).

    z_1 = J_{gamma A_1} x_1, z_i = J_{gamma A_i}(z_{i-1} + x_i - x_{i-1}) for
    the middle nodes, z_N = J_{gamma A_N}(z_1 + z_{N-1} - x_{N-1}); then
    Tx = x + theta (z_2 - z_1, ..., z_N - z_{N-1}). One resolvent each.
    """
    gamma = as_stepsize(gamma)
    x = _check_x(problem, x).data
    ops, n = problem.ops, problem.n_ops
    z = [ops[0].resolvent(gamma, x[0])]
    for i in range(1, n - 1):
        z.append(ops[i].resolvent(gamma, z[i - 1] + x[i] - x[i - 1]))
    z.append(ops[n - 1].resolvent(gamma, z[0] + z[n - 2] - x[n - 2]))
    z = np.stack(z)
    return x + problem.theta * (z[1:] - z[:-1]), z


def mt_family(problem):
    """The MT operators as a driver family (theta-averaged), stepsize free
    when every operator is."""

    def apply(gamma, x):
        tx, z = mt_apply(problem, gamma, x)
        return tx, {"shadow": z}

    def feedback(gamma, w):
        w_1 = np.asarray(w)[0]
        return problem.ops[0].resolvent(gamma, w_1), w_1

    return OperatorFamily(apply, feedback=feedback, name="malitsky_tam",
                          stepsize_free=stepsize_free(problem.ops))


def mt_relocator(problem):
    """The cheap relocator as a driver relocator: one resolvent of A_1 only.

    With r = delta/gamma, the first component is r x_1 + (1 - r) J_{gamma A_1}
    x_1, and every other component is r (x_i - x_1) plus the first. On
    Fix T_gamma this agrees with the pseudo-inverse relocator of the ring
    graph under the half-scaling change of variables. apply returns an
    (N - 1, d) array; the Lipschitz bound is max{1, r} + (N - 2) |1 - r|.
    """

    def apply(gamma, delta, x):
        x = _check_x(problem, x).data
        ratio = delta / gamma
        if ratio == 1.0:
            return x
        q1 = ratio * x[0] + (1.0 - ratio) * problem.ops[0].resolvent(gamma, x[0])
        return ratio * (x - x[0]) + q1

    def lipschitz_bound(gamma, delta):
        ratio = delta / gamma
        return max(1.0, ratio) + (problem.n_ops - 2) * abs(1.0 - ratio)

    return Relocator(apply, lipschitz_bound, name="malitsky_tam")


def algorithm2_run(problem, schedule, x0, stop, solution_residual=None):
    """Efficient variable-stepsize MT run; N resolvents per iteration.

    MT is graph DR on the ring under half-scaling, so this is the graph
    runner's hooks with scale the ring degree (2, or 1 for N = 2), in MT's
    coordinates. z_1 = J_{gamma_n A_1} w_n^1 of the relocation doubles as the
    next sweep's J_{gamma_{n+1} A_1} x_{n+1}^1; an adaptive run's stopping
    iteration pays one more A_1 for its feedback. The consensus_residual
    column ||Z^T z_n|| and the solution residual, at the blockwise mean of
    the sweep, are computed from the recorded sweep when they are read.
    When every operator is stepsize free (boxes, balls, points), the run
    stops at its first residual within tolerance (see driver.StopRule).
    """
    g = mt_graph(problem.n_ops)
    return relocated_loop(*graph_hooks(problem.ops, g, problem.theta, scale=float(g.deg[0])),
                          schedule, as_block_iterate(x0, problem.n_ops - 1, problem.dim), stop,
                          solution_residual=at_consensus(solution_residual, g.n_nodes),
                          stepsize_free=stepsize_free(problem.ops),
                          point_columns=consensus_columns(g))
