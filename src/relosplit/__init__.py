"""relosplit: variable-stepsize resolvent splitting via fixed-point relocation.

The fixed-point sets of Douglas-Rachford-type operators move with the
stepsize, so changing the stepsize mid-run breaks the classical analysis.
This package implements the remedy: compose each operator step with a
relocator that carries fixed points of the current operator onto those of
the next one. It ships the two-operator method, the graph-based N-operator
method, the ring (Malitsky-Tam) specialization, stepsize schedule
validation, and an experiment CLI.
"""

__version__ = "0.1.0"

from .driver import (
    ConvergenceTrace,
    OperatorFamily,
    Relocator,
    ScheduleBudgetWarning,
    StopRule,
    run_relocated,
)
from .dr2 import (
    DRProblem,
    algorithm1_run,
    dr_apply,
    dr_family,
    dr_relocator,
)
from .graphs import (
    GraphMatrices,
    SplittingGraph,
    build_graph,
    graph_dr_apply,
    graph_family,
    graph_relocated_run,
    graph_relocator,
    graph_z_sweep,
    relocation_vector_e,
)
from .linalg import BlockVector, kron_apply, pseudo_inverse, solve_linear
from .malitsky_tam import (
    MTProblem,
    algorithm2_run,
    mt_apply,
    mt_family,
    mt_graph,
    mt_relocator,
)
from .operators import (
    AffineMonotone,
    CountingOperator,
    MonotoneOperator,
    NegLog,
    NormalConeBall,
    NormalConeBox,
    NormalConePoint,
    Scaled,
    ScaledIdentity,
    Translated,
    Zero,
    inclusion_residual,
    make_operator,
    single_value,
)
from .problems import ProblemInstance, make_problem, problem_names, solution_residual
from .schedules import (
    AdaptiveKappa,
    Constant,
    ExplicitList,
    GeometricToLimit,
    ScheduleReport,
    StepsizeSchedule,
    kappa_ratio,
    validate_schedule,
)

#: The invariant suite's names, served from relosplit.selftest, which is
#: imported the first time one of them is asked for
_SELFTEST_NAMES = (
    "check_relocator_axioms",
    "fix_point_oracle_affine",
    "graph_relocator_apply",
    "graph_relocator_lipschitz_bound",
    "mt_vs_graph_equivalence",
    "relocator_system_residual",
    "run_selftest",
)


def __getattr__(name):
    if name in _SELFTEST_NAMES:
        from . import selftest

        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
