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
from .linalg import as_block_vector
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
    n = int(n)
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
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    x = _check_x(problem, x).data
    ops, n = problem.ops, problem.n_ops
    z = [ops[0].resolvent(gamma, x[0])]
    for i in range(1, n - 1):
        z.append(ops[i].resolvent(gamma, z[i - 1] + x[i] - x[i - 1]))
    z.append(ops[n - 1].resolvent(gamma, z[0] + z[n - 2] - x[n - 2]))
    z = np.stack(z)
    return x + problem.theta * (z[1:] - z[:-1]), z


def mt_relocator_apply(problem, gamma, delta, x):
    """The cheap relocator: one resolvent of A_1 only.

    First component (delta/gamma) x_1 + (1 - delta/gamma) J_{gamma A_1} x_1;
    every other component is (delta/gamma)(x_i - x_1) plus the first. On
    Fix T_gamma this agrees with the pseudo-inverse relocator of the ring
    graph under the half-scaling change of variables. Returns an (N - 1, d)
    array.
    """
    if gamma <= 0 or delta <= 0:
        raise ParameterError("gamma and delta must be positive")
    x = _check_x(problem, x).data
    ratio = delta / gamma
    if ratio == 1.0:
        return x
    q1 = ratio * x[0] + (1.0 - ratio) * problem.ops[0].resolvent(gamma, x[0])
    return ratio * (x - x[0]) + q1


def mt_lipschitz(n, gamma, delta):
    """Lipschitz constant max{1, delta/gamma} + (N-2) |1 - delta/gamma|."""
    if n < 2:
        raise ParameterError(f"need N >= 2, got {n}")
    ratio = delta / gamma
    return max(1.0, ratio) + (n - 2) * abs(1.0 - ratio)


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
    return Relocator(
        lambda gamma, delta, x: mt_relocator_apply(problem, gamma, delta, x),
        lambda gamma, delta: mt_lipschitz(problem.n_ops, gamma, delta),
        name="malitsky_tam",
    )


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
    step, feedback, relocate, replay = graph_hooks(problem.ops, g, problem.theta,
                                                   scale=float(g.deg[0]))
    return relocated_loop(step, relocate, feedback, schedule, _check_x(problem, x0),
                          stop, solution_residual=at_consensus(solution_residual, g.n_nodes),
                          stepsize_free=stepsize_free(problem.ops),
                          point_columns=consensus_columns(g), replay=replay)
