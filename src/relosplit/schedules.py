"""Stepsize schedules (gamma_n) and validation of their summability conditions.

Convergence of the relocated iterations needs inf_n gamma_n > 0 together with
a finite sum of positive increments sum (gamma_{n+1} - gamma_n)_+. The
validator certifies this analytically for the families whose limit is known,
audits finite explicit lists, and declines to certify the state-dependent
adaptive rule (which is instead monitored at runtime).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ParameterError, ScheduleError
from .kinds import INTEGER, NUMBER, NUMBERS, checked


def kappa_ratio(z, w_prev):
    """Adaptive stepsize ratio ||z|| / ||z - w_prev||.

    Returns None when z == w_prev (a fixed point was reached; the caller
    keeps the previous stepsize) and 0.0 when z == 0.
    """
    z = np.asarray(z, dtype=float).ravel()
    w = np.asarray(w_prev, dtype=float).ravel()
    if z.size != w.size:
        raise ParameterError("feedback points have different dimensions")
    # np.linalg.norm's own arithmetic without its wrapper, so bit-identical
    gap = z - w
    denom = math.sqrt(gap.dot(gap))
    if denom == 0.0:
        return None
    num = math.sqrt(z.dot(z))
    if num == 0.0:
        return 0.0
    return num / denom


@dataclass
class ScheduleReport:
    """Outcome of validate_schedule, with audit sums for the increments."""

    accepted: bool
    inf_estimate: float
    pos_increment_sum: float = 0.0
    abs_increment_sum: float = 0.0
    limit_estimate: float | None = None
    reasons: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


class StepsizeSchedule:
    """Base class: a policy producing gamma_n for n = 0, 1, 2, ..."""

    is_adaptive = False
    #: The positive value gamma_n tends to, when the kind knows it before the
    #: run, else None. Once a run's residual is within tolerance while gamma
    #: still moves, relocated_loop relocates straight to this limit and holds
    #: gamma there; with None it follows the schedule until gamma settles.
    #: validate_schedule reports it as limit_estimate.
    limit = None

    def gamma_at(self, n, feedback=None):
        raise NotImplementedError

    def reset(self):
        """Clear per-run state (no-op for stateless policies)."""

    def report(self, horizon):
        """This kind's ScheduleReport; validate_schedule is the checked entry point."""
        raise ParameterError(f"unknown schedule type {type(self).__name__}")


class Constant(StepsizeSchedule):
    """gamma_n = gamma for all n."""

    def __init__(self, gamma):
        gamma = checked(NUMBER, gamma, "gamma")
        if not np.isfinite(gamma) or gamma <= 0:
            raise ParameterError(f"gamma must be positive, got {gamma}")
        self.gamma = gamma

    def gamma_at(self, n, feedback=None):
        if n < 0:
            raise ScheduleError("index must be >= 0")
        return self.gamma

    @property
    def limit(self):
        return self.gamma

    def report(self, horizon):
        return ScheduleReport(accepted=True, inf_estimate=self.gamma,
                              limit_estimate=self.limit,
                              reasons=["constant schedule accepted analytically"])


class GeometricToLimit(StepsizeSchedule):
    """gamma_n = limit + (start - limit) * ratio^n with ratio in (0, 1)."""

    def __init__(self, limit, start, ratio):
        limit = checked(NUMBER, limit, "limit")
        start = checked(NUMBER, start, "start")
        ratio = checked(NUMBER, ratio, "ratio")
        if not (np.isfinite(limit) and np.isfinite(start)) or limit <= 0 or start <= 0:
            raise ParameterError(f"limit and start must be positive and finite, "
                                 f"got {limit} and {start}")
        if not 0.0 < ratio < 1.0:
            raise ParameterError(f"ratio must lie in (0, 1), got {ratio}")
        self.gamma_limit = limit
        self.start = start
        self.ratio = ratio

    def gamma_at(self, n, feedback=None):
        if n < 0:
            raise ScheduleError("index must be >= 0")
        return self.gamma_limit + (self.start - self.gamma_limit) * self.ratio ** n

    @property
    def limit(self):
        return self.gamma_limit

    def report(self, horizon):
        gap = self.gamma_limit - self.start
        return ScheduleReport(accepted=True, inf_estimate=min(self.start, self.gamma_limit),
                              pos_increment_sum=max(gap, 0.0), abs_increment_sum=abs(gap),
                              limit_estimate=self.limit,
                              reasons=["geometric schedule accepted analytically"])


class ExplicitList(StepsizeSchedule):
    """A finite list of values; after the list the last value repeats forever.

    Nonpositive entries are allowed at construction so that the validator can
    inspect and reject them; producing one at runtime aborts the run with a
    schedule_rejected status.
    """

    def __init__(self, values):
        vals = checked(NUMBERS, values, "values")
        if not vals:
            raise ParameterError("explicit schedule needs at least one value")
        if not all(np.isfinite(v) for v in vals):
            raise ParameterError("schedule values must be finite")
        self.values = vals

    @property
    def tail(self):
        return self.values[-1]

    @property
    def limit(self):
        """The tail, when every value is positive. A list with a nonpositive
        value declares none, so a run cannot relocate past the value that
        ends it schedule_rejected."""
        return self.tail if min(self.values) > 0 else None

    def gamma_at(self, n, feedback=None):
        if n < 0:
            raise ScheduleError("index must be >= 0")
        return self.values[n] if n < len(self.values) else self.tail

    def report(self, horizon):
        values = [self.gamma_at(n) for n in range(max(horizon, len(self.values)))]
        reasons = []
        accepted = True
        for i, v in enumerate(values):
            if v <= 0:
                accepted = False
                reasons.append(f"nonpositive value {v} at index {i}")
                break
        increments = np.diff(values)
        pos_sum = float(np.sum(np.maximum(increments, 0.0)))
        abs_sum = float(np.sum(np.abs(increments)))
        if accepted:
            reasons.append("finite positive list accepted; increment sums audited")
        return ScheduleReport(accepted=accepted, inf_estimate=float(min(values)),
                              pos_increment_sum=pos_sum, abs_increment_sum=abs_sum,
                              limit_estimate=self.limit,
                              reasons=reasons)


class AdaptiveKappa(StepsizeSchedule):
    """gamma_n = clamp(kappa_n * gamma_{n-1}) with kappa_n = ||z_n|| / ||z_n - w_{n-1}||.

    The clamp interval keeps the sequence bounded away from 0 and infinity;
    whether the positive increments are summable is not known a priori and is
    monitored by the run driver.
    """

    is_adaptive = True

    def __init__(self, gamma0, clamp_lo=1e-4, clamp_hi=1e4):
        gamma0 = checked(NUMBER, gamma0, "gamma0")
        clamp_lo = checked(NUMBER, clamp_lo, "clamp_lo")
        clamp_hi = checked(NUMBER, clamp_hi, "clamp_hi")
        if gamma0 <= 0:
            raise ParameterError(f"gamma0 must be positive, got {gamma0}")
        if not 0 < clamp_lo <= clamp_hi < np.inf:
            raise ParameterError("need 0 < clamp_lo <= clamp_hi < inf")
        if not clamp_lo <= gamma0 <= clamp_hi:
            raise ParameterError("gamma0 must lie inside the clamp interval")
        self.gamma0 = gamma0
        self.clamp_lo = clamp_lo
        self.clamp_hi = clamp_hi
        self.reset()

    def reset(self):
        self._n = 0
        self._gamma = self.gamma0

    def gamma_at(self, n, feedback=None):
        if n < 0:
            raise ScheduleError("index must be >= 0")
        if n == 0:
            self.reset()
            return self._gamma
        if n == self._n:
            return self._gamma
        if n != self._n + 1:
            raise ScheduleError(
                f"adaptive schedule queried at n={n} but last index was {self._n}"
            )
        if feedback is None:
            raise ScheduleError("adaptive schedule needs (z_n, w_prev) feedback for n >= 1")
        z, w_prev = feedback
        kappa = kappa_ratio(z, w_prev)
        if kappa is not None:
            self._gamma = min(max(kappa * self._gamma, self.clamp_lo), self.clamp_hi)
        self._n = n
        return self._gamma

    def report(self, horizon):
        return ScheduleReport(accepted=False, inf_estimate=self.clamp_lo,
                              reasons=["state-dependent; monitored at runtime"])


def validate_schedule(schedule, horizon):
    """Decide whether a schedule satisfies the convergence conditions.

    Constant and geometric families are accepted analytically with exact
    increment sums. Explicit lists are accepted iff every value is positive
    (the sums over a finite list are always finite and are reported for
    audit). The adaptive rule is never certified here: its increments depend
    on the iterates, so the report marks it as runtime-monitored. Each kind
    builds its own report; a kind without one raises ParameterError.
    """
    if checked(INTEGER, horizon, "horizon") < 2:
        raise ParameterError(f"horizon must be >= 2, got {horizon}")
    return schedule.report(horizon)


def remark_counterexample_values(count=8):
    """The divergent construction with gamma_1 = 1 and alternating increments.

    Increments are (1/2)^n for odd n and -1 for even n; the sequence has a
    finite positive-increment sum yet leaves the positive half-line, so the
    validator must reject it.
    """
    values = [1.0]
    for n in range(1, count):
        a_n = 0.5 ** n if n % 2 == 1 else -1.0
        values.append(values[-1] + a_n)
    return values
