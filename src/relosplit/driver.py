"""Generic relocated fixed-point iteration x_{n+1} = Q_{g_{n+1}<-g_n} T_{g_n} x_n.

The driver is agnostic to the ambient space: iterates may be plain float
arrays, a vector or (k, d) blocks, or BlockVectors. The loop itself carries
plain float arrays, and a trace hands its iterates out in x_0's type. A
trace keeps no iterate per row: every run hands the loop a replay hook, and
its trace rebuilds the iterates from a private copy of x_0 and the recorded
rows when they are first read. Families bundle the parametrized operator
T_gamma with its feedback and whether it is stepsize free; relocators
bundle Q with a Lipschitz bound.
"""

import csv
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ParameterError, RelosplitError, ScheduleError
from .kinds import INTEGER, NUMBER, checked
from .linalg import BlockVector, _all_finite, as_stepsize

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_DIVERGED = "diverged"
STATUS_SCHEDULE_REJECTED = "schedule_rejected"


#: Budget of the summed positive stepsize increments, in units of gamma_0: a
#: practical tripwire, since the summability hypothesis is asymptotic.
POS_INCREMENT_BUDGET = 1e3


class ScheduleBudgetWarning(RuntimeWarning):
    """The accumulated positive stepsize increments exceeded their budget."""


_FLOAT = np.dtype(float)


def _values(x):
    """The float array of a point, no copy: a float ndarray as it is, a
    BlockVector's own (k, d) array."""
    if type(x) is np.ndarray and x.dtype is _FLOAT:
        return x
    return x.data if isinstance(x, BlockVector) else np.asarray(x, dtype=float)


def ambient_norm(x):
    # np.linalg.norm's own arithmetic without its wrapper, so bit-identical
    v = _values(x).ravel(order="K")
    return math.sqrt(v.dot(v))


def ambient_flat(x):
    return _values(x).flatten()


def _floats(v):
    """The entries of a flat vector as a list of Python floats."""
    return np.asarray(v, dtype=float).tolist()


@dataclass(frozen=True)
class StopRule:
    """Terminate when the run has converged, or after max_iters iterations.

    Convergence means the fixed-point residual ||x_n - T_{gamma_n} x_n|| is
    at most residual_tol AND the upcoming stepsize increment
    |gamma_{n+1} - gamma_n| is at most residual_tol * max(1, gamma_n). The
    second condition matters: an iterate sitting exactly on the moving
    fixed-point curve has residual zero at every n, yet it only approaches
    Fix T at the limit stepsize as the schedule settles.

    A run whose resolvents read no stepsize (every operator stepsize free,
    such as normal cones, whose resolvent is a projection at every gamma)
    skips the second condition: there T_gamma is one operator and Fix
    T_gamma does not move, so the residual test alone gives what the settle
    test guards, an iterate whose residual under T at the limit stepsize is
    within residual_tol.

    A run whose schedule declares its limit does not wait for gamma either:
    at its first residual within residual_tol with gamma still moving,
    relocated_loop relocates straight to the limit and holds gamma there, so
    this rule, unchanged, decides at the next iteration, a real step at the
    limit stepsize.
    """

    residual_tol: float
    max_iters: int

    def __post_init__(self):
        if not 0.0 < checked(NUMBER, self.residual_tol, "residual_tol") < math.inf:
            raise ParameterError("residual_tol must be positive and finite")
        if checked(INTEGER, self.max_iters, "max_iters") < 1:
            raise ParameterError("max_iters must be >= 1")

    def settled(self, gamma, gamma_next):
        return abs(gamma_next - gamma) <= self.residual_tol * max(1.0, abs(gamma))


class OperatorFamily:
    """A stepsize-parametrized family (T_gamma) of averaged operators.

    apply(gamma, x) returns (T_gamma x, aux) where aux is a dict that may
    name the monitored shadow point under "shadow" and a dict of vectors to
    record under "vectors". feedback(gamma, w), when
    provided, computes the pair (z, w_ref) fed to the adaptive stepsize
    rule. stepsize_free declares that T_gamma is the same operator at every
    gamma > 0 (its fixed-point set does not move), so run_relocated stops
    at the first residual within tolerance; it defaults to False, which is
    always safe.
    """

    def __init__(self, apply, feedback=None, name="", stepsize_free=False):
        self._apply = apply
        self._feedback = feedback
        self.name = name
        self.stepsize_free = bool(stepsize_free)

    def apply(self, gamma, x):
        result, aux = self._apply(gamma, x)
        return result, (aux or {})

    def feedback(self, gamma, x):
        if self._feedback is None:
            raise ScheduleError(
                f"family {self.name or type(self).__name__} provides no feedback "
                "points; adaptive schedules are unavailable"
            )
        return self._feedback(gamma, x)


class Relocator:
    """A family Q_{delta<-gamma} mapping Fix T_gamma onto Fix T_delta.

    apply(gamma, delta, x) returns Q_{delta<-gamma} x, and
    lipschitz_bound(gamma, delta) a global Lipschitz constant for it, which
    equals 1 when delta == gamma. Both refuse a gamma or delta that is not
    finite and > 0 by a ParameterError, and hand both on to the functions
    the relocator was built from as floats, so those check neither.
    """

    def __init__(self, apply, lipschitz_bound, name=""):
        self._apply = apply
        self._bound = lipschitz_bound
        self.name = name

    def apply(self, gamma, delta, x):
        return self._apply(as_stepsize(gamma), as_stepsize(delta, "delta"), x)

    def lipschitz_bound(self, gamma, delta):
        return float(self._bound(as_stepsize(gamma), as_stepsize(delta, "delta")))


class _PointColumn(Sequence):
    """A trace column computed where it is read: row n is fn(points[n]), a
    float, or nan without fn. Nothing is kept, so each read calls
    fn again, and an error of fn is raised by the read. The solution-residual
    column and the columns of ConvergenceTrace.point_columns are these.

    It holds the trace's list of points, which grows with the trace, and not
    the trace: a trace that kept a column holding itself would be a
    reference cycle, freed only by the cyclic collector, so a run's rows
    would outlive it (peak RSS 56 -> 200 MB on graph-affine)."""

    def __init__(self, points, fn):
        self._points, self._fn = points, fn

    def __len__(self):
        return len(self._points)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return [self[i] for i in range(*n.indices(len(self)))]
        # fn may meet an overflowed point, as the run did
        with np.errstate(over="ignore", invalid="ignore"):
            return self.at(self._points[n])

    def at(self, point):
        """fn at one recorded point, nan without fn; numpy's overflow and
        invalid warnings are the caller's to silence."""
        if self._fn is None:
            return math.nan
        return float(self._fn(point))


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a run, a table: every row carries row 0's
    fields (a point of row 0's length, and its vector keys and lengths), so
    every series is as long as the trace and every row fills the CSV header.

    residuals[n] is ||x_n - T_{gamma_n} x_n||; points[n] holds the flattened
    monitored point: the family's shadow, or x_n when it has none.
    iterates[n] is the governing x_n itself, in x_0's type, for programmatic
    use; iterates are not serialized. A recorded vector that is the
    monitored point itself shares its array: points[n] is
    extra_vectors[key][n] (dr2's "z").

    No row keeps its iterate. relocated_loop hands the trace its replay hook
    and a private copy of x_0, and iterates is computed where it is read,
    once: the first read replays x_0, x_1, ..., one per row, from that copy,
    gammas, points and extra_vectors, by the arithmetic the run did (see
    relocated_loop), and the list it builds is kept, so a later read returns
    that same list and an assignment into it holds. The replay reads the
    rows as they are at that first read: writing into points (or a vector)
    before it changes the iterates it returns. A trace that no run built
    has no replay, and reading its iterates raises a RelosplitError.

    solution_residuals[n] is oracle(points[n]), evaluated only when it is
    read: by summary() (the last row), by write_csv (every row) or by
    indexing the column. It is nan without an oracle. The oracle is handed
    the flat copy that record keeps, and an error it raises comes from the
    read, not from the run. point_columns names further columns of that
    kind: extra_scalars[name][n] is fn(points[n]), computed as it is read
    (the graph runners' consensus_residual). extra_scalars holds these
    columns only; a row records no scalars of its own.
    """

    gammas: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    points: list = field(default_factory=list)
    extra_vectors: dict = field(default_factory=dict)
    status: str = STATUS_MAX_ITERS
    sum_pos_increments: float = 0.0
    #: the row whose relocation went straight to the schedule's limit
    relocated_to_limit_at: int | None = None
    final_x: object = None
    seed: int | None = None
    #: the row at which the summed positive increments crossed their budget
    #: and ScheduleBudgetWarning was raised
    budget_exceeded_at: int | None = None
    #: the solution-residual oracle, called on a recorded point when its row
    #: of solution_residuals is read
    oracle: object = None
    #: name -> function of a recorded point: the extra scalar columns
    #: computed where they are read
    point_columns: dict = field(default_factory=dict)
    #: row 0's signature: its point length and its vector lengths by key
    _row0: tuple = field(default=None, init=False, repr=False)
    #: the replayed iterates, None until the first read
    _iterates: list = field(default=None, init=False, repr=False)
    #: (replay, a private copy of x_0's array, the wrap back to x_0's type),
    #: set by relocated_loop
    _replay: tuple = field(default=None, init=False, repr=False)

    def record(self, gamma, residual, point, vectors=None):
        """Append one row: arrays as flat copies.

        A row whose signature (point length, vector lengths by key) is not
        row 0's is refused by a ParameterError naming it, and nothing of it
        is recorded; the order of its keys is free. The point is copied
        once, and a vector that is the point object itself is recorded as
        that copy, so write_csv formats it once. These copies are the only
        ones, so a point or vector may be a buffer its caller overwrites
        next.
        """
        flat = _values(point).flatten()
        flats = {}
        if vectors:
            for key, value in vectors.items():
                flats[key] = flat if value is point else _values(value).flatten()
        signature = (flat.size, {key: value.size for key, value in flats.items()})
        if not self.residuals:
            self.extra_vectors = {key: [] for key in flats}
            self._row0 = signature
        elif signature != self._row0:
            raise ParameterError(
                f"trace row {len(self)} has other fields than row 0 (point length, "
                f"vector lengths): {signature}, not {self._row0}")
        self.gammas.append(float(gamma))
        self.residuals.append(float(residual))
        self.points.append(flat)
        for key, value in flats.items():
            self.extra_vectors[key].append(value)

    def __len__(self):
        return len(self.residuals)

    @property
    def iterates(self):
        if self._iterates is None:
            if self._replay is None:
                raise RelosplitError("this trace has no replay, so no iterates: no run "
                                     "built it (relocated_loop gives a trace its replay)")
            replay, x0, wrap = self._replay
            # the replay's arithmetic may meet an overflowed row, as the run did
            with np.errstate(over="ignore", invalid="ignore"):
                xs = replay(x0, self.gammas, self.points, self.extra_vectors)
                self._iterates = [wrap(x) for x in islice(xs, len(self))]
        return self._iterates

    @property
    def solution_residuals(self):
        return _PointColumn(self.points, self.oracle)

    @property
    def extra_scalars(self):
        return {key: _PointColumn(self.points, fn) for key, fn in self.point_columns.items()}

    @property
    def iterations(self):
        """Index of the last recorded iteration."""
        return len(self.residuals) - 1

    @property
    def final_residual(self):
        return self.residuals[-1] if self.residuals else math.nan

    @property
    def final_gamma(self):
        return self.gammas[-1] if self.gammas else math.nan

    def summary(self):
        out = {
            "status": self.status,
            "iters": self.iterations,
            "final_residual": self.final_residual,
            "final_gamma": self.final_gamma,
            "sum_pos_increments": self.sum_pos_increments,
        }
        if self.relocated_to_limit_at is not None:
            out["relocated_to_limit_at"] = self.relocated_to_limit_at
        if self.budget_exceeded_at is not None:
            out["budget_exceeded_at"] = self.budget_exceeded_at
        if self.points:
            out["final_point"] = [float(v) for v in self.points[-1]]
        if self.residuals:
            solution = self.solution_residuals[-1]
            if not math.isnan(solution):
                out["final_solution_residual"] = solution
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def _csv_header(self):
        header = ["n", "gamma", "residual", "solution_residual"]
        if not self.points:
            return header, 0
        point_dim = len(self.points[0])
        header += [f"point_{i}" for i in range(point_dim)]
        header += list(self.extra_scalars)
        for key, series in self.extra_vectors.items():
            header += [f"{key}_{i}" for i in range(len(series[0]))]
        return header, point_dim

    def write_csv(self, path_or_file):
        """Serialize the trace; floats carry 17 significant digits (``%.17g``).

        Lines end in CRLF, as csv.writer writes them. Rows are streamed,
        never built as a table. Each row formats its point once; a vector
        entry that is the point's own array (see record) reuses that text.
        The oracle, and each point column, is called once per row, as the
        row is written, so an error it raises stops the file after the rows
        before it.
        """
        header, point_dim = self._csv_header()
        point_format = ",".join(["%.17g"] * point_dim)
        columns = [series.at for series in self.extra_scalars.values()]
        vectors = [(series, ",".join(["%.17g"] * len(series[0])))
                   for series in self.extra_vectors.values()]
        # the point and each vector enter the row as one preformatted field
        row_format = ("%d,%.17g,%.17g,%.17g" + ",%s" * (point_dim > 0)
                      + ",%.17g" * len(columns) + ",%s" * len(vectors) + "\r\n")

        solution_residual = self.solution_residuals.at

        def rows():
            for n in range(len(self.residuals)):
                point = self.points[n]
                row = [n, self.gammas[n], self.residuals[n], solution_residual(point)]
                point_text = point_format % tuple(_floats(point))
                if point_dim:
                    row.append(point_text)
                for column in columns:
                    row.append(column(point))
                for series, vector_format in vectors:
                    row.append(point_text if series[n] is point
                               else vector_format % tuple(_floats(series[n])))
                yield row_format % tuple(row)

        def emit(fh):
            csv.writer(fh).writerow(header)
            # the oracle may meet an overflowed point, as the run did
            with np.errstate(over="ignore", invalid="ignore"):
                fh.writelines(rows())

        if hasattr(path_or_file, "write"):
            emit(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                emit(fh)


def relocated_loop(step, feedback, relocate, replay, schedule, x0, stop,
                   solution_residual=None, stepsize_free=False, point_columns=None):
    """The relocated iteration x_{n+1} = Q_{g_{n+1}<-g_n} T_{g_n} x_n.

    Every runner is this loop plus four hooks, in the order
    graphs.graph_hooks returns them. They take and return plain float
    arrays: the loop copies x_0's array once (see _values) and hands step
    that copy, so no iterate or final_x is the caller's x_0; trace.iterates
    and final_x hold objects of x_0's type, so a run started from a
    BlockVector gets BlockVectors back.

    * step(gamma, x, carry) -> (T_gamma x, shadow, vectors): the monitored
      point, or None to monitor x, and a dict of vectors to record, or
      None. The trace copies both (see ConvergenceTrace.record), so they
      may be buffers the next step overwrites. carry is what the previous
      relocate handed on (None at n = 0).
    * feedback(gamma, w) -> (pair, pre), called only for adaptive schedules:
      pair is the (z, w_ref) fed to the schedule, pre the resolvent of w
      that it evaluated, passed on to relocate (None otherwise).
    * relocate(gamma, delta, w, pre) -> (x_next, carry). It may reuse pre,
      and may hand the next step a resolvent it has already evaluated.
    * replay(x0, gammas, points, vectors) yields x_0, x_1, ..., at least
      one per row, from the loop's copy of x_0's array and the trace's
      columns: the arithmetic of step and relocate on what their rows
      recorded, calling no resolvent. The trace keeps that copy and no
      iterate per row, and builds trace.iterates from the replay's first
      len(trace) points on its first read (see ConvergenceTrace). The loop
      makes one object of x_0's type, for final_x.

    Every iteration, the last one included, asks the schedule for
    gamma_{n+1} and applies the whole stop rule: a run that reaches max_iters
    with a small residual but a moving stepsize ends "max_iters". With
    stepsize_free, which a runner passes when no resolvent it calls reads
    gamma, the stop rule is the residual test alone: T_gamma and its
    fixed-point set are then the same at every gamma, so waiting for the
    stepsize to settle cannot change the answer. gamma_{n+1} is still asked
    for first, so a rejected one still ends the run. One
    ScheduleBudgetWarning is raised once the summed positive increments
    exceed POS_INCREMENT_BUDGET * gamma_0; the trace names its row in
    budget_exceeded_at.

    The first time the residual is within tolerance while gamma_{n+1} has
    not settled, a schedule that declares a positive limit (see
    StepsizeSchedule.limit) gets gamma_{n+1} = limit in place of its next
    value: the relocator maps Fix T_{gamma_n} onto Fix T at the limit for
    any pair of stepsizes, so one relocation makes the trip that following
    the schedule makes along the moving fixed-point curve. From then on the
    schedule is not asked again and gamma stays at the limit, so the next
    iteration settles, and the stop rule ends the run "converged" there or
    keeps iterating at the constant limit. The trace names that row in
    relocated_to_limit_at. The budget's last iteration does not relocate,
    so a run whose budget ends at that crossing still ends "max_iters".

    The finiteness test of each relocated iterate is the divergence
    detector: the hooks' block arithmetic does not re-check, so an overflow
    ends the run with status "diverged", and numpy's overflow and invalid
    warnings are silenced for the run. A rejected gamma_{n+1} also ends it
    "diverged" when the step's output T_gamma x_n is not finite, since an
    adaptive rule fed an overflowed point rejects it; that test runs only
    on the rejection.

    The loop calls no solution_residual: the trace keeps it as its oracle
    and calls it on a row's recorded point, the flat copy of the shadow (or
    of x when the step has none), only when that row of solution_residuals
    is read (see ConvergenceTrace). An error it raises comes at that read.
    point_columns, a dict of name -> function of that flat copy, adds
    scalar columns computed the same way (ConvergenceTrace.point_columns).
    """
    x = _values(x0).copy()
    wrap = BlockVector._wrap if isinstance(x0, BlockVector) else (lambda x: x)
    trace = ConvergenceTrace(oracle=solution_residual, point_columns=point_columns or {})
    trace._replay = (replay, x, wrap)
    schedule.reset()
    gamma = schedule.gamma_at(0)
    if gamma <= 0 or not math.isfinite(gamma):
        trace.status = STATUS_SCHEDULE_REJECTED
        trace.final_x = wrap(x)
        return trace
    budget = POS_INCREMENT_BUDGET * float(gamma)

    carry = None
    # what every iteration looks up, bound once
    record, gamma_at, adaptive = trace.record, schedule.gamma_at, schedule.is_adaptive
    # only a positive, finite limit is a stepsize to relocate to
    limit = schedule.limit
    if limit is not None and not 0.0 < limit < math.inf:
        limit = None
    tol, settled, max_iters = stop.residual_tol, stop.settled, stop.max_iters
    # a finite but huge iterate may overflow a norm on its way to the
    # finiteness test, which reports it as "diverged"
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iters + 1):
            w, shadow, vectors = step(gamma, x, carry)
            # ambient_norm's arithmetic on a fresh C-ordered difference
            gap = (x - w).ravel()
            residual = math.sqrt(gap.dot(gap))
            record(gamma, residual, x if shadow is None else shadow, vectors)

            pair, pre = feedback(gamma, w) if adaptive else (None, None)
            gamma_next = gamma_at(n + 1, feedback=pair)
            if gamma_next <= 0 or not math.isfinite(gamma_next):
                # an adaptive rule fed an overflowed step rejects it: the
                # step diverged, not the schedule
                trace.status = (STATUS_SCHEDULE_REJECTED if _all_finite(w)
                                else STATUS_DIVERGED)
                break
            if residual <= tol:
                if stepsize_free or settled(gamma, gamma_next):
                    trace.status = STATUS_CONVERGED
                    break
                if limit is not None and n < max_iters:
                    # relocate straight onto Fix T at the limit and hold
                    # gamma there: the next iteration settles, so this runs
                    # once
                    trace.relocated_to_limit_at = n
                    gamma_next = limit
                    gamma_at = lambda index, feedback=None: limit
            if n == max_iters:
                break
            # the sum never decreases, so crossing the budget happens at most once
            if gamma_next > gamma:
                before = trace.sum_pos_increments
                trace.sum_pos_increments += gamma_next - gamma
                if before <= budget < trace.sum_pos_increments:
                    trace.budget_exceeded_at = n
                    warnings.warn(
                        f"positive stepsize increments exceeded budget {budget:.3e}; "
                        "the schedule may not satisfy the summability condition",
                        ScheduleBudgetWarning,
                        # relocated_loop <- runner <- the runner's caller
                        stacklevel=3,
                    )

            x, carry = relocate(gamma, gamma_next, w, pre)
            if not _all_finite(x):
                trace.status = STATUS_DIVERGED
                break
            gamma = gamma_next

    # a diverged run's final_x is the overflowed iterate, which no row records
    trace.final_x = wrap(x)
    return trace


def run_relocated(family, relocator, schedule, x0, stop, solution_residual=None):
    """Run the naive relocated composition of a family and a relocator.

    Every step evaluates T_gamma and Q in full and reuses nothing; the
    efficient runners are checked against it. solution_residual is as in
    relocated_loop: the trace calls it on the flat copy of a row's monitored
    point when that row is read. A stepsize-free family stops as its runner
    does. The family and the relocator see points of x0's type, as the
    loop's plain arrays are wrapped back (unchecked) for them. The family
    and the relocator are opaque, so nothing can be recomputed from the
    rows: the run keeps each point its relocator returned, and its replay
    hands them back as they are.
    """
    wrap = BlockVector._wrap if isinstance(x0, BlockVector) else (lambda x: x)
    relocated = []

    def step(gamma, x, carry):
        w, aux = family.apply(gamma, wrap(x))
        return _values(w), aux.get("shadow"), aux.get("vectors")

    def feedback(gamma, w):
        z_fb, w_fb = family.feedback(gamma, wrap(w))
        return (ambient_flat(z_fb), ambient_flat(w_fb)), None

    def relocate(gamma, delta, w, pre):
        relocated.append(_values(relocator.apply(gamma, delta, wrap(w))))
        return relocated[-1], None

    return relocated_loop(step, feedback, relocate,
                          lambda x0, gammas, points, vectors: [x0, *relocated],
                          schedule, x0, stop, solution_residual=solution_residual,
                          stepsize_free=family.stepsize_free)
