"""Variable-stepsize Malitsky-Tam resolvent splitting for N >= 2 operators.

The underlying graph is the ring: a chain spanning tree plus the chord
(1, N). After rescaling stepsize, relaxation and iterate by one half, the
graph-DR operator on that ring collapses to the sweep below, which touches
each operator's resolvent exactly once. Its cheap relocator only needs the
resolvent of the first operator, so the efficient runner keeps the
one-resolvent-per-operator cost of the stationary method.
"""

from dataclasses import dataclass

import numpy as np

from .driver import OperatorFamily, Relocator, relocated_loop
from .errors import DimensionError, ParameterError
from .graphs import at_consensus, build_graph, graph_dr_apply
from .linalg import BlockVector, as_block_vector
from .operators import MonotoneOperator


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


def _mt_sweep(problem, gamma, x, z1=None):
    """The chain sweep; z1 may be supplied to reuse a precomputed resolvent."""
    n = problem.n_ops
    ops = problem.ops
    z = [ops[0].resolvent(gamma, x[0]) if z1 is None else z1]
    for i in range(2, n):
        z.append(ops[i - 1].resolvent(gamma, z[i - 2] + x[i - 1] - x[i - 2]))
    z.append(ops[n - 1].resolvent(gamma, z[0] + z[n - 2] - x[n - 2]))
    return z


def mt_apply(problem, gamma, x):
    """One Malitsky-Tam step; returns (Tx, z).

    z_1 = J_{gamma A_1} x_1, z_i = J_{gamma A_i}(z_{i-1} + x_i - x_{i-1}) for
    the middle nodes, z_N = J_{gamma A_N}(z_1 + z_{N-1} - x_{N-1}); then
    Tx = x + theta (z_2 - z_1, ..., z_N - z_{N-1}). One resolvent each.
    """
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    x = _check_x(problem, x)
    z = _mt_sweep(problem, gamma, x)
    shifts = np.stack([z[k + 1] - z[k] for k in range(problem.n_ops - 1)])
    tx = BlockVector._wrap(x.data + problem.theta * shifts)
    return tx, BlockVector._wrap(np.stack(z))


def mt_relocator_apply(problem, gamma, delta, x):
    """The cheap relocator: one resolvent of A_1 only.

    First component (delta/gamma) x_1 + (1 - delta/gamma) J_{gamma A_1} x_1;
    every other component is (delta/gamma)(x_i - x_1) plus the first. On
    Fix T_gamma this agrees with the pseudo-inverse relocator of the ring
    graph under the half-scaling change of variables.
    """
    if gamma <= 0 or delta <= 0:
        raise ParameterError("gamma and delta must be positive")
    x = _check_x(problem, x)
    ratio = delta / gamma
    if ratio == 1.0:
        return x
    q1 = ratio * x[0] + (1.0 - ratio) * problem.ops[0].resolvent(gamma, x[0])
    blocks = [q1]
    for i in range(1, problem.n_ops - 1):
        blocks.append(ratio * (x[i] - x[0]) + q1)
    return BlockVector._wrap(np.stack(blocks))


def mt_lipschitz(n, gamma, delta):
    """Lipschitz constant max{1, delta/gamma} + (N-2) |1 - delta/gamma|."""
    if n < 2:
        raise ParameterError(f"need N >= 2, got {n}")
    ratio = delta / gamma
    return max(1.0, ratio) + (n - 2) * abs(1.0 - ratio)


def mt_family(problem):
    """The MT operators as a driver family (theta-averaged)."""

    def apply(gamma, x):
        tx, z = mt_apply(problem, gamma, x)
        return tx, {"shadow": z}

    def feedback(gamma, w):
        return problem.ops[0].resolvent(gamma, w[0]), w[0]

    return OperatorFamily(apply, averagedness_alpha=problem.theta,
                          feedback=feedback, name="malitsky_tam")


def mt_relocator(problem):
    return Relocator(
        lambda gamma, delta, x: mt_relocator_apply(problem, gamma, delta, x),
        lambda gamma, delta: mt_lipschitz(problem.n_ops, gamma, delta),
        name="malitsky_tam",
    )


def algorithm2_run(problem, schedule, x0, stop, solution_residual=None):
    """Efficient variable-stepsize MT run; N resolvents per iteration.

    The sweep's first entry is carried over from the previous relocation
    step (z_1 = J_{gamma_n A_1} w_n^1 doubles as J_{gamma_{n+1} A_1}
    x_{n+1}^1), so each iteration evaluates A_2..A_N in the sweep and A_1
    in the update; an adaptive run's stopping iteration pays one more A_1
    for its feedback. Matches run_relocated with the cheap relocator
    per-iterate. The solution residual, when requested, is evaluated at
    the blockwise mean of the sweep.
    """
    ops, theta = problem.ops, problem.theta
    n_ops = problem.n_ops

    def step(gamma, x, z1):
        z = _mt_sweep(problem, gamma, x, z1=z1)
        shifts = np.stack([z[k + 1] - z[k] for k in range(n_ops - 1)])
        w = BlockVector._wrap(x.data + theta * shifts)
        return w, {"shadow": BlockVector._wrap(np.stack(z)),
                   "scalars": {"consensus_residual": float(np.linalg.norm(shifts))}}

    def feedback(gamma, w):
        z1 = ops[0].resolvent(gamma, w[0])
        return (z1, w[0]), z1

    def relocate(gamma, delta, w, z1):
        if z1 is None:
            z1 = ops[0].resolvent(gamma, w[0])
        ratio = delta / gamma
        x1 = ratio * w[0] + (1.0 - ratio) * z1
        blocks = [x1] + [ratio * (w[i] - w[0]) + x1 for i in range(1, n_ops - 1)]
        return BlockVector._wrap(np.stack(blocks)), z1

    return relocated_loop(step, relocate, feedback, schedule, _check_x(problem, x0),
                          stop, solution_residual=at_consensus(solution_residual))


@dataclass
class EquivalenceReport:
    """Result of the ring-graph vs MT operator comparison."""

    max_operator_diff: float
    max_sweep_diff: float
    tol: float

    @property
    def passed(self):
        return self.max_operator_diff <= self.tol and self.max_sweep_diff <= self.tol


def mt_vs_graph_equivalence(problem, gamma, x, tol=1e-10):
    """Check the half-scaling equivalence with the ring graph for N >= 3.

    Applying the graph-DR operator at stepsize 2 gamma, relaxation 2 theta
    and iterate 2x, then halving, must reproduce mt_apply; the resolvent
    sweeps must agree without any scaling. For N = 2 compare with the
    two-operator DR step directly instead.
    """
    if problem.n_ops < 3:
        raise ParameterError("the ring comparison needs N >= 3")
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    x = _check_x(problem, x)
    g = mt_graph(problem.n_ops)
    w_graph, z_graph = graph_dr_apply(list(problem.ops), g, 2.0 * gamma,
                                      2.0 * problem.theta, 2.0 * x)
    tx, z_mt = mt_apply(problem, gamma, x)
    op_diff = float(np.max(np.abs(0.5 * w_graph.data - tx.data)))
    sweep_diff = float(np.max(np.abs(z_graph.data - z_mt.data)))
    return EquivalenceReport(max_operator_diff=op_diff, max_sweep_diff=sweep_diff,
                             tol=tol)
