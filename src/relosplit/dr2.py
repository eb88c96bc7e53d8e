"""Two-operator Douglas-Rachford with variable stepsizes.

The iteration operator is T_gamma = Id - J_{gamma A} + J_{gamma B} R_{gamma A}
and its fixed points are {z + gamma w : w in Az, -w in Bz}, so they move with
gamma. The relocator Q_{delta<-gamma} = (delta/gamma) Id +
(1 - delta/gamma) J_{gamma A} carries Fix T_gamma onto Fix T_delta. It is
the graph relocator of the 2-node graph, and the efficient runner is the
graph runner's hooks on that graph, which fold the relocation into the
iteration at no extra resolvent cost.
"""

from dataclasses import dataclass

from .driver import OperatorFamily, Relocator, relocated_loop
from .errors import DimensionError
from .graphs import build_graph, graph_hooks
from .linalg import as_vector
from .operators import MonotoneOperator, stepsize_free


@dataclass(frozen=True)
class DRProblem:
    """An ordered pair (A, B) of operators on the same R^d."""

    op_a: MonotoneOperator
    op_b: MonotoneOperator

    def __post_init__(self):
        if self.op_a.dim != self.op_b.dim:
            raise DimensionError(
                f"A acts on R^{self.op_a.dim} but B on R^{self.op_b.dim}"
            )

    @property
    def dim(self):
        return self.op_a.dim


def dr_apply(problem, gamma, x):
    """One Douglas-Rachford step; returns (w, z, y).

    z = J_{gamma A} x, y = J_{gamma B}(2z - x) and w = x - (z - y) = T_gamma x,
    grouped as the runner's step groups it. Exactly one resolvent of A and
    one of B are evaluated.
    """
    x = as_vector(x)
    z = problem.op_a.resolvent(gamma, x)
    y = problem.op_b.resolvent(gamma, 2.0 * z - x)
    w = x - (z - y)
    return w, z, y


def dr_family(problem):
    """The DR operators as a driver family (firmly nonexpansive, alpha = 1/2),
    stepsize free when A and B both are."""

    def apply(gamma, x):
        w, z, y = dr_apply(problem, gamma, x)
        return w, {"shadow": z}

    def feedback(gamma, w):
        return problem.op_a.resolvent(gamma, as_vector(w)), w

    return OperatorFamily(apply, feedback=feedback, name="dr2",
                          stepsize_free=stepsize_free((problem.op_a, problem.op_b)))


def dr_relocator(problem):
    """The DR relocator Q_{delta<-gamma} x = (delta/gamma) x + (1 - delta/gamma)
    J_{gamma A} x as a driver relocator, with Lipschitz bound max{1, delta/gamma}.

    apply returns a fresh (d,) array, a copy of x when delta == gamma.
    """

    def apply(gamma, delta, x):
        x = as_vector(x)
        r = delta / gamma
        if r == 1.0:
            return x.copy()
        return r * x + (1.0 - r) * problem.op_a.resolvent(gamma, x)

    return Relocator(apply, lambda gamma, delta: max(1.0, delta / gamma), name="dr2")


def _record_dr(sweep, w):
    """dr2's trace entry: the shadow z and the columns z, y, w."""
    z, y = sweep
    return z, {"z": z, "y": y, "w": w}


def algorithm1_run(problem, schedule, x0, stop, solution_residual=None):
    """Efficient relocated DR run; one resolvent of A and one of B per iteration.

    DR is graph DR on the 2-node graph with theta = 1, so this is the graph
    runner's hooks: z = J_{gamma A} x, y = J_{gamma B}(2z - x), w = x - (z - y).
    The relocation's J_{gamma A} w_n is, by the scaling identity, the next
    step's J_{delta A} x_{n+1}; an adaptive run's stopping iteration pays one
    resolvent of A, for its feedback, that no step uses. The trace records
    the shadow z_n (also the monitored point), y_n and w_n, and replays x_n
    from w_n and z_n when its iterates are read. When A
    and B are both stepsize free, the run stops at its first residual within
    tolerance (see driver.StopRule).
    """
    ops = (problem.op_a, problem.op_b)
    return relocated_loop(*graph_hooks(ops, build_graph(2, [(1, 2)], [(1, 2)]), record=_record_dr),
                          schedule, as_vector(x0), stop, solution_residual=solution_residual,
                          stepsize_free=stepsize_free(ops))
