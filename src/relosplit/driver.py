"""Generic relocated fixed-point iteration x_{n+1} = Q_{g_{n+1}<-g_n} T_{g_n} x_n.

The driver is agnostic to the ambient space: iterates may be plain 1-D
arrays or BlockVectors. Families bundle the parametrized operator T_gamma
with its averagedness constant; relocators bundle Q with a Lipschitz bound.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedPointError, ParameterError, ScheduleError
from .linalg import BlockVector

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_DIVERGED = "diverged"
STATUS_SCHEDULE_REJECTED = "schedule_rejected"


#: Budget of the summed positive stepsize increments, in units of gamma_0: a
#: practical tripwire, since the summability hypothesis is asymptotic.
POS_INCREMENT_BUDGET = 1e3

#: Grid size of the continuity check in check_relocator_axioms.
CONTINUITY_POINTS = 60


class ScheduleBudgetWarning(RuntimeWarning):
    """The accumulated positive stepsize increments exceeded their budget."""


def _values(x):
    """The float array of a point; a BlockVector's own (k, d) array, no copy."""
    return x.data if isinstance(x, BlockVector) else np.asarray(x, dtype=float)


def ambient_norm(x):
    # np.linalg.norm's own arithmetic without its wrapper, so bit-identical
    v = _values(x).ravel(order="K")
    return math.sqrt(v.dot(v))


def ambient_flat(x):
    return _values(x).flatten()


def ambient_isfinite(x):
    v = _values(x)
    return bool(np.count_nonzero(np.isfinite(v)) == v.size)


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
    """

    residual_tol: float
    max_iters: int

    def __post_init__(self):
        if not math.isfinite(self.residual_tol) or self.residual_tol <= 0:
            raise ParameterError("residual_tol must be positive and finite")
        if self.max_iters < 1:
            raise ParameterError("max_iters must be >= 1")

    def settled(self, gamma, gamma_next):
        return abs(gamma_next - gamma) <= self.residual_tol * max(1.0, abs(gamma))


class OperatorFamily:
    """A stepsize-parametrized family (T_gamma) of averaged operators.

    apply(gamma, x) returns (T_gamma x, aux) where aux is a dict that may
    name the monitored shadow point under "shadow". feedback(gamma, w), when
    provided, computes the pair (z, w_ref) fed to the adaptive stepsize
    rule.
    """

    def __init__(self, apply, averagedness_alpha, feedback=None, name=""):
        if not 0.0 < averagedness_alpha < 1.0:
            raise ParameterError("averagedness_alpha must lie in (0, 1)")
        self._apply = apply
        self.averagedness_alpha = float(averagedness_alpha)
        self._feedback = feedback
        self.name = name

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

    lipschitz_bound(gamma, delta) must return a global Lipschitz constant
    for Q_{delta<-gamma}; it equals 1 when delta == gamma.
    """

    def __init__(self, apply, lipschitz_bound, name=""):
        self._apply = apply
        self._bound = lipschitz_bound
        self.name = name

    def apply(self, gamma, delta, x):
        if gamma <= 0 or delta <= 0:
            raise ParameterError("relocator stepsizes must be positive")
        return self._apply(gamma, delta, x)

    def lipschitz_bound(self, gamma, delta):
        return float(self._bound(gamma, delta))


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a run.

    residuals[n] is ||x_n - T_{gamma_n} x_n||; points[n] holds the flattened
    monitored (shadow) point when the family produces one. iterates keeps the
    governing x_n themselves for programmatic use; they are not serialized.
    A recorded vector that is the monitored point itself shares its array:
    points[n] is extra_vectors[key][n] (dr2's "z").
    """

    gammas: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    solution_residuals: list = field(default_factory=list)
    points: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    extra_scalars: dict = field(default_factory=dict)
    extra_vectors: dict = field(default_factory=dict)
    status: str = STATUS_MAX_ITERS
    sum_pos_increments: float = 0.0
    final_x: object = None
    seed: int | None = None

    def record(self, gamma, residual, solution_residual=None, point=None,
               iterate=None, scalars=None, vectors=None):
        """Append one iteration: scalars as floats, arrays as flat copies.

        The point is copied once. A vector that is the point object itself
        is recorded as that same copy, so it is stored once and formatted
        once by write_csv; any other vector gets its own copy. The iterate
        is kept as given.
        """
        self.gammas.append(float(gamma))
        self.residuals.append(float(residual))
        self.solution_residuals.append(
            float(solution_residual) if solution_residual is not None else math.nan
        )
        flat = None if point is None else ambient_flat(point)
        self.points.append(flat)
        self.iterates.append(iterate)
        for key, value in (scalars or {}).items():
            self.extra_scalars.setdefault(key, []).append(float(value))
        for key, value in (vectors or {}).items():
            self.extra_vectors.setdefault(key, []).append(
                flat if flat is not None and value is point else ambient_flat(value))

    def __len__(self):
        return len(self.residuals)

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
        if self.points and self.points[-1] is not None:
            out["final_point"] = [float(v) for v in self.points[-1]]
        last_solution = self.solution_residuals[-1] if self.solution_residuals else math.nan
        if not math.isnan(last_solution):
            out["final_solution_residual"] = last_solution
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def _csv_header(self):
        header = ["n", "gamma", "residual", "solution_residual"]
        point_dim = 0
        for p in self.points:
            if p is not None:
                point_dim = len(p)
                break
        header += [f"point_{i}" for i in range(point_dim)]
        for key in self.extra_scalars:
            header.append(key)
        for key, series in self.extra_vectors.items():
            header += [f"{key}_{i}" for i in range(len(series[0]))]
        return header, point_dim

    def write_csv(self, path_or_file):
        """Serialize the trace; floats carry 17 significant digits (``%.17g``).

        Lines end in CRLF, as csv.writer writes them. Rows are streamed,
        never built as a table. Each row formats its point once; a vector
        entry that is the point's own array (see record) reuses that text.
        """
        header, point_dim = self._csv_header()
        point_format = ",".join(["%.17g"] * point_dim)
        nan_point = point_format % ((math.nan,) * point_dim)
        scalars = list(self.extra_scalars.values())
        vectors = []
        for series in self.extra_vectors.values():
            vector_format = ",".join(["%.17g"] * len(series[0]))
            vectors.append((series, vector_format,
                            vector_format % ((math.nan,) * len(series[0]))))
        # the point and each vector enter the row as one preformatted field
        row_format = ("%d,%.17g,%.17g,%.17g" + ",%s" * (point_dim > 0)
                      + ",%.17g" * len(scalars) + ",%s" * len(vectors) + "\r\n")

        def rows():
            for n in range(len(self.residuals)):
                point = self.points[n]
                point_text = (nan_point if point is None
                              else point_format % tuple(_floats(point)))
                row = [n, self.gammas[n], self.residuals[n], self.solution_residuals[n]]
                if point_dim:
                    row.append(point_text)
                # step-indexed series (e.g. relocator bounds) are one entry
                # shorter than the trace; pad the missing tail with nan
                for series in scalars:
                    row.append(series[n] if n < len(series) else math.nan)
                for series, vector_format, pad in vectors:
                    if n >= len(series):
                        row.append(pad)
                    elif series[n] is point:
                        row.append(point_text)
                    else:
                        row.append(vector_format % tuple(_floats(series[n])))
                yield row_format % tuple(row)

        def emit(fh):
            csv.writer(fh).writerow(header)
            fh.writelines(rows())

        if hasattr(path_or_file, "write"):
            emit(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                emit(fh)


def relocated_loop(step, relocate, feedback, schedule, x0, stop,
                   solution_residual=None):
    """The relocated iteration x_{n+1} = Q_{g_{n+1}<-g_n} T_{g_n} x_n.

    Every runner is this loop plus three hooks:

    * step(gamma, x, carry) -> (T_gamma x, aux). aux may name the monitored
      "shadow" point and extra "scalars"/"vectors" to record. carry is what
      the previous relocate handed on (None at n = 0).
    * feedback(gamma, w) -> (pair, pre), called only for adaptive schedules:
      pair is the (z, w_ref) fed to the schedule, pre the resolvent of w
      that it evaluated, passed on to relocate (None otherwise).
    * relocate(gamma, delta, w, pre) -> (x_next, carry). It may reuse pre,
      and may hand the next step a resolvent it has already evaluated.

    Every iteration, the last one included, asks the schedule for
    gamma_{n+1} and applies the whole stop rule: a run that reaches max_iters
    with a small residual but a moving stepsize ends "max_iters". One
    ScheduleBudgetWarning is raised once the summed positive increments
    exceed POS_INCREMENT_BUDGET * gamma_0.

    The finiteness test of each relocated iterate is the only divergence
    detector: the hooks' block arithmetic does not re-check, so an overflow
    ends the run with status "diverged", and numpy's overflow and invalid
    warnings are silenced for the run.

    solution_residual is called on the shadow (or on x when the step has
    none).
    """
    schedule.reset()
    gamma = schedule.gamma_at(0)
    trace = ConvergenceTrace(final_x=x0)
    if gamma <= 0 or not math.isfinite(gamma):
        trace.status = STATUS_SCHEDULE_REJECTED
        return trace
    budget = POS_INCREMENT_BUDGET * float(gamma)

    x = x0
    carry = None
    # a finite but huge iterate may overflow a norm on its way to the
    # finiteness test, which reports it as "diverged"
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(stop.max_iters + 1):
            w, aux = step(gamma, x, carry)
            residual = ambient_norm(x - w)
            shadow = aux.get("shadow")
            monitored = shadow if shadow is not None else x
            sol = None
            if solution_residual is not None:
                sol = solution_residual(monitored)
            trace.record(gamma, residual, sol, point=monitored,
                         iterate=x, scalars=aux.get("scalars"), vectors=aux.get("vectors"))

            pair, pre = feedback(gamma, w) if schedule.is_adaptive else (None, None)
            gamma_next = schedule.gamma_at(n + 1, feedback=pair)
            if gamma_next <= 0 or not math.isfinite(gamma_next):
                trace.status = STATUS_SCHEDULE_REJECTED
                break
            if residual <= stop.residual_tol and stop.settled(gamma, gamma_next):
                trace.status = STATUS_CONVERGED
                break
            if n == stop.max_iters:
                break
            # the sum never decreases, so crossing the budget happens at most once
            before = trace.sum_pos_increments
            trace.sum_pos_increments += max(gamma_next - gamma, 0.0)
            if before <= budget < trace.sum_pos_increments:
                warnings.warn(
                    f"positive stepsize increments exceeded budget {budget:.3e}; "
                    "the schedule may not satisfy the summability condition",
                    ScheduleBudgetWarning,
                    # relocated_loop <- runner <- the runner's caller
                    stacklevel=3,
                )

            x, carry = relocate(gamma, gamma_next, w, pre)
            if not ambient_isfinite(x):
                trace.status = STATUS_DIVERGED
                break
            gamma = gamma_next

    trace.final_x = x
    return trace


def run_relocated(family, relocator, schedule, x0, stop, solution_residual=None,
                  anchor0=None):
    """Run the naive relocated composition of a family and a relocator.

    Every step evaluates T_gamma and Q in full and reuses nothing; the
    efficient runners are checked against it. solution_residual is as in
    relocated_loop. anchor0, a fixed point of T_{gamma_0}, is moved by the
    relocator alongside the run: ||x_n - c_n|| is recorded as
    "anchor_distance" and the relocator bounds as "relocator_bound",
    mirroring the decrease inequality of the convergence proof.
    """
    anchor = anchor0
    bounds = []

    def step(gamma, x, carry):
        w, aux = family.apply(gamma, x)
        if anchor is not None:
            aux["scalars"] = {**(aux.get("scalars") or {}),
                              "anchor_distance": ambient_norm(x - anchor)}
        return w, aux

    def feedback(gamma, w):
        z_fb, w_fb = family.feedback(gamma, w)
        return (ambient_flat(z_fb), ambient_flat(w_fb)), None

    def relocate(gamma, delta, w, pre):
        nonlocal anchor
        if anchor is not None:
            bounds.append(relocator.lipschitz_bound(gamma, delta))
            anchor = relocator.apply(gamma, delta, anchor)
        return relocator.apply(gamma, delta, w), None

    trace = relocated_loop(step, relocate, feedback, schedule, x0, stop,
                           solution_residual=solution_residual)
    if bounds:
        trace.extra_scalars["relocator_bound"] = bounds
    return trace


@dataclass
class RelocatorAxiomReport:
    """Outcome of the fixed-point relocator axiom harness."""

    bijection_ok: bool
    continuity_ok: bool
    semigroup_ok: bool
    lipschitz_ok: bool
    continuity_modulus: float
    max_lipschitz_ratio_excess: float
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return (self.bijection_ok and self.continuity_ok and self.semigroup_ok
                and self.lipschitz_ok)


def _perturb(x, rng, scale):
    if isinstance(x, BlockVector):
        return BlockVector(x.data + scale * rng.standard_normal(x.data.shape))
    return np.asarray(x, dtype=float) + scale * rng.standard_normal(np.shape(x))


def check_relocator_axioms(family, relocator, fixed_points, gammas, tol=1e-9,
                           rng=None, lipschitz_samples=40):
    """Check the four fixed-point relocator axioms on sampled data.

    fixed_points is a list of pairs (gamma, x) with x in Fix T_gamma; each is
    verified against the residual test up front (FixedPointError otherwise).
    The checks performed over the gamma grid are: relocated points are fixed
    points and the reverse relocation inverts (bijection); delta -> Q x has a
    finite difference quotient on a fine grid (continuity); compositions
    collapse (semigroup); and sampled Lipschitz ratios stay within the
    declared bound (up to tol).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    gammas = [float(g) for g in gammas]
    if not gammas or not fixed_points:
        raise ParameterError("need at least one gamma and one fixed point")

    for g, x in fixed_points:
        w, _ = family.apply(g, x)
        resid = ambient_norm(x - w)
        if resid > tol:
            raise FixedPointError(
                f"supplied pair (gamma={g}, x={ambient_flat(x)}) has "
                f"fixed-point residual {resid:.3e} > {tol}"
            )

    violations = []
    bijection_ok = True
    semigroup_ok = True
    lipschitz_ok = True
    continuity_modulus = 0.0
    max_excess = -math.inf

    for g, x in fixed_points:
        for d in gammas:
            y = relocator.apply(g, d, x)
            resid = ambient_norm(y - family.apply(d, y)[0])
            if resid > tol:
                bijection_ok = False
                violations.append(
                    f"Q_({d}<-{g}) image has fixed-point residual {resid:.3e}"
                )
            back = relocator.apply(d, g, y)
            if ambient_norm(back - x) > tol:
                bijection_ok = False
                violations.append(
                    f"Q_({g}<-{d}) Q_({d}<-{g}) differs from identity at gamma={g}"
                )
            for e in gammas:
                composed = relocator.apply(d, e, y)
                direct = relocator.apply(g, e, x)
                if ambient_norm(composed - direct) > tol:
                    semigroup_ok = False
                    violations.append(
                        f"semigroup fails for ({e}<-{d})({d}<-{g}) vs ({e}<-{g})"
                    )

        grid = np.linspace(min(gammas), max(gammas), CONTINUITY_POINTS)
        images = [relocator.apply(g, float(d), x) for d in grid]
        for a, b, da, db in zip(images, images[1:], grid, grid[1:]):
            slope = ambient_norm(b - a) / (db - da)
            continuity_modulus = max(continuity_modulus, slope)
    continuity_ok = math.isfinite(continuity_modulus)
    if not continuity_ok:
        violations.append("delta -> Q x is not finitely Lipschitz on the grid")

    base_points = [x for _, x in fixed_points]
    for g in sorted({g for g, _ in fixed_points}):
        for d in gammas:
            bound = relocator.lipschitz_bound(g, d)
            for _ in range(lipschitz_samples):
                base = base_points[rng.integers(len(base_points))]
                u = _perturb(base, rng, scale=2.0)
                v = _perturb(base, rng, scale=2.0)
                denom = ambient_norm(u - v)
                if denom == 0.0:
                    continue
                ratio = ambient_norm(relocator.apply(g, d, u) - relocator.apply(g, d, v)) / denom
                max_excess = max(max_excess, ratio - bound)
                if ratio > bound + tol:
                    lipschitz_ok = False
                    violations.append(
                        f"Lipschitz ratio {ratio:.6f} exceeds bound {bound:.6f} "
                        f"for ({d}<-{g})"
                    )

    return RelocatorAxiomReport(
        bijection_ok=bijection_ok,
        continuity_ok=continuity_ok,
        semigroup_ok=semigroup_ok,
        lipschitz_ok=lipschitz_ok,
        continuity_modulus=continuity_modulus,
        max_lipschitz_ratio_excess=max_excess,
        violations=violations,
    )
