import re

import numpy as np
import pytest

from relosplit import graphs, malitsky_tam as mt, schedules as sch
from relosplit.driver import StopRule
from relosplit.errors import ConstructionError, ParameterError, ScheduleError
from relosplit.operators import Zero


class TestGammaAt:
    def test_constant(self):
        assert sch.Constant(1.0).gamma_at(17) == 1.0

    def test_geometric_formula(self):
        schedule = sch.GeometricToLimit(limit=0.5, start=1.5, ratio=0.5)
        assert schedule.gamma_at(2) == pytest.approx(0.75, abs=0.0)

    def test_geometric_exact_gap(self):
        schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
        for n in range(40):
            assert abs(schedule.gamma_at(n) - 1.0) == pytest.approx(
                1.0 * 0.5 ** n, abs=0.0)

    def test_explicit_tail(self):
        schedule = sch.ExplicitList([2.0, 1.0, 0.5])
        assert schedule.gamma_at(1) == 1.0
        assert schedule.gamma_at(99) == 0.5

    def test_all_positive_long_horizon(self):
        for schedule in (sch.Constant(2.0),
                         sch.GeometricToLimit(1.0, 2.0, 0.9),
                         sch.ExplicitList([1.0, 0.5])):
            for n in (0, 1, 10, 10**3, 10**6):
                assert schedule.gamma_at(n) > 0

    def test_negative_index_rejected(self):
        with pytest.raises(ScheduleError):
            sch.Constant(1.0).gamma_at(-1)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            sch.Constant(0.0)
        with pytest.raises(ParameterError):
            sch.GeometricToLimit(limit=1.0, start=2.0, ratio=1.0)
        with pytest.raises(ParameterError):
            sch.ExplicitList([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["limit", "start"])
    def test_geometric_rejects_nonfinite(self, field, bad):
        params = {"limit": 1.0, "start": 2.0, "ratio": 0.5, field: bad}
        with pytest.raises(ParameterError, match="positive and finite"):
            sch.GeometricToLimit(**params)


class TestAdaptiveKappa:
    def test_hand_example(self):
        # z=(1), w=(3): kappa = 1/2, gamma_1 = 0.5
        schedule = sch.AdaptiveKappa(gamma0=1.0)
        assert schedule.gamma_at(0) == 1.0
        assert schedule.gamma_at(1, feedback=([1.0], [3.0])) == pytest.approx(0.5)

    def test_fixed_point_keeps_gamma(self):
        schedule = sch.AdaptiveKappa(gamma0=2.0)
        schedule.gamma_at(0)
        assert schedule.gamma_at(1, feedback=([1.0], [1.0])) == 2.0

    def test_zero_numerator_clamps_low(self):
        schedule = sch.AdaptiveKappa(gamma0=1.0, clamp_lo=1e-3)
        schedule.gamma_at(0)
        assert schedule.gamma_at(1, feedback=([0.0, 0.0], [1.0, 0.0])) == 1e-3

    def test_clamping_high(self):
        schedule = sch.AdaptiveKappa(gamma0=1.0, clamp_hi=2.0)
        schedule.gamma_at(0)
        assert schedule.gamma_at(1, feedback=([100.0], [99.0])) == 2.0

    def test_missing_feedback(self):
        schedule = sch.AdaptiveKappa(gamma0=1.0)
        schedule.gamma_at(0)
        with pytest.raises(ScheduleError):
            schedule.gamma_at(1)

    def test_non_consecutive_query(self):
        schedule = sch.AdaptiveKappa(gamma0=1.0)
        schedule.gamma_at(0)
        with pytest.raises(ScheduleError):
            schedule.gamma_at(5, feedback=([1.0], [2.0]))

    def test_repeat_query_cached(self):
        schedule = sch.AdaptiveKappa(gamma0=1.0)
        schedule.gamma_at(0)
        g1 = schedule.gamma_at(1, feedback=([1.0], [3.0]))
        assert schedule.gamma_at(1) == g1


def reference_kappa(z, w):
    """kappa_ratio as np.linalg.norm computes it."""
    z, w = np.ravel(z), np.ravel(w)
    denom = np.linalg.norm(z - w)
    if denom == 0.0:
        return None
    num = np.linalg.norm(z)
    return 0.0 if num == 0.0 else float(num / denom)


class TestKappaRatio:
    def test_matches_np_linalg_norm(self, rng):
        cases = [(z, z.copy()) for z in (np.zeros(3), rng.standard_normal(3))]
        cases += [(np.zeros(4), rng.standard_normal(4)), (np.array([-0.0]), np.array([0.0]))]
        cases += [(rng.standard_normal(d) * s, rng.standard_normal(d) * t)
                  for d in (1, 2, 16, 33) for s in (1e-150, 1.0, 1e150) for t in (1e-3, 1e3)]
        for z, w in cases:
            assert sch.kappa_ratio(z, w) == reference_kappa(z, w)
        assert sch.kappa_ratio(cases[0][0], cases[0][1]) is None
        assert sch.kappa_ratio(*cases[2]) == 0.0

    def test_adaptive_clamp_matches_np_clip(self, rng):
        lo, hi = 0.5, 2.0
        schedule = sch.AdaptiveKappa(gamma0=1.0, clamp_lo=lo, clamp_hi=hi)
        gamma = schedule.gamma_at(0)
        gammas = []
        for n in range(1, 200):
            z = rng.standard_normal(3)
            w = z + rng.standard_normal(3) * 10.0 ** rng.uniform(-1.5, 1.5)
            expected = float(np.clip(reference_kappa(z, w) * gamma, lo, hi))
            gamma = schedule.gamma_at(n, feedback=(z, w))
            assert type(gamma) is float and gamma == expected
            gammas.append(gamma)
        assert lo in gammas and hi in gammas
        assert any(lo < g < hi for g in gammas)


    def test_hand_value(self):
        assert sch.kappa_ratio([1.0], [3.0]) == pytest.approx(0.5)

    def test_zero_numerator(self):
        assert sch.kappa_ratio([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_converged_signal(self):
        assert sch.kappa_ratio([1.0, 2.0], [1.0, 2.0]) is None

    def test_dim_mismatch(self):
        with pytest.raises(ParameterError):
            sch.kappa_ratio([1.0], [1.0, 2.0])


class TestValidateSchedule:
    def test_constant_accepted(self):
        report = sch.validate_schedule(sch.Constant(2.0), horizon=100)
        assert report.accepted
        assert report.pos_increment_sum == 0.0
        assert report.limit_estimate == 2.0

    def test_counterexample_rejected(self):
        values = sch.remark_counterexample_values(8)
        # gamma_1=1, increments (1/2)^n for odd n and -1 for even n leave R++
        assert min(values) <= 0
        report = sch.validate_schedule(sch.ExplicitList(values), horizon=8)
        assert not report.accepted
        assert any("nonpositive" in r for r in report.reasons)

    def test_increasing_geometric_sum(self):
        schedule = sch.GeometricToLimit(limit=1.0, start=0.5, ratio=0.5)
        report = sch.validate_schedule(schedule, horizon=200)
        assert report.accepted
        # partial-sum oracle: increments are (1 - 0.5) * (r^n - r^{n+1})
        oracle = sum(max(schedule.gamma_at(n + 1) - schedule.gamma_at(n), 0.0)
                     for n in range(200))
        assert report.pos_increment_sum == pytest.approx(0.5, abs=1e-12)
        assert report.pos_increment_sum == pytest.approx(oracle, abs=1e-12)

    def test_decreasing_geometric_sums(self):
        report = sch.validate_schedule(
            sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5), horizon=50)
        assert report.accepted
        assert report.pos_increment_sum == 0.0
        assert report.abs_increment_sum == pytest.approx(1.0)
        assert report.inf_estimate == 1.0

    def test_adaptive_not_certified(self):
        report = sch.validate_schedule(sch.AdaptiveKappa(1.0), horizon=10)
        assert not report.accepted
        assert report.reasons == ["state-dependent; monitored at runtime"]
        assert report.inf_estimate > 0

    def test_explicit_report_reads_the_list_alone(self, monkeypatch):
        # past the list the tail repeats, so a long horizon adds zero
        # increments only: horizon 10^9 must not build 10^9 values
        schedule = sch.ExplicitList([2.0, 0.5, 1.5, 1.0])
        expected = sch.validate_schedule(schedule, horizon=2)

        def gamma_at(n, feedback=None):
            raise AssertionError(f"the report asked for gamma_{n}")

        monkeypatch.setattr(schedule, "gamma_at", gamma_at)
        assert sch.validate_schedule(schedule, horizon=10**9) == expected
        assert expected.pos_increment_sum == 1.0 and expected.abs_increment_sum == 3.0

    def test_horizon_too_short(self):
        with pytest.raises(ParameterError):
            sch.validate_schedule(sch.Constant(1.0), horizon=1)

    def test_unknown_schedule_type_rejected(self):
        class Halving(sch.StepsizeSchedule):
            def gamma_at(self, n, feedback=None):
                return 0.5 ** n

        with pytest.raises(ParameterError, match="unknown schedule type Halving"):
            sch.validate_schedule(Halving(), horizon=10)

    def test_cross_inequality_on_accepted_lists(self, rng):
        # sum |a_k| <= gamma_0 - gamma_low + 2 sum (a_k)_+ on accepted prefixes
        for _ in range(50):
            values = np.abs(rng.standard_normal(30)) + 0.05
            report = sch.validate_schedule(sch.ExplicitList(values), horizon=30)
            assert report.accepted
            gamma_low = report.inf_estimate
            bound = values[0] - gamma_low + 2.0 * report.pos_increment_sum
            assert report.abs_increment_sum <= bound + 1e-12

    def test_bounded_equivalence_both_directions(self, rng):
        # bounded-below + finite positive part iff bounded + finite absolute sum,
        # witnessed on finite prefixes by the two audited sums being finite and
        # consistent: abs = 2 * pos - (last - first)
        for _ in range(25):
            values = np.abs(rng.standard_normal(20)) + 0.1
            report = sch.validate_schedule(sch.ExplicitList(values), horizon=20)
            identity = 2.0 * report.pos_increment_sum - (values[-1] - values[0])
            assert report.abs_increment_sum == pytest.approx(identity, abs=1e-12)


class TestLimit:
    """Each kind declares the value gamma_n tends to; validate_schedule
    reports that declaration as limit_estimate."""

    def test_each_kind_declares_its_limit(self):
        assert sch.Constant(2.0).limit == 2.0
        assert sch.GeometricToLimit(limit=0.5, start=1.5, ratio=0.5).limit == 0.5
        assert sch.ExplicitList([2.0, 0.5, 1.5]).limit == 1.5
        assert sch.AdaptiveKappa(1.0).limit is None
        assert sch.StepsizeSchedule.limit is None

    @pytest.mark.parametrize("values", [[1.0, 2.0, 0.0], [1.0, -1.0], [1.0, -1.0, 2.0]],
                             ids=["zero-tail", "negative-tail", "negative-inside"])
    def test_a_list_with_a_nonpositive_value_declares_none(self, values):
        assert sch.ExplicitList(values).limit is None

    @pytest.mark.parametrize("schedule, expected", [
        (sch.Constant(2.0),
         {"accepted": True, "inf_estimate": 2.0, "pos_increment_sum": 0.0,
          "abs_increment_sum": 0.0, "limit_estimate": 2.0,
          "reasons": ["constant schedule accepted analytically"]}),
        (sch.GeometricToLimit(limit=1.0, start=0.5, ratio=0.5),
         {"accepted": True, "inf_estimate": 0.5, "pos_increment_sum": 0.5,
          "abs_increment_sum": 0.5, "limit_estimate": 1.0,
          "reasons": ["geometric schedule accepted analytically"]}),
        (sch.ExplicitList([2.0, 0.5, 1.5, 1.0]),
         {"accepted": True, "inf_estimate": 0.5, "pos_increment_sum": 1.0,
          "abs_increment_sum": 3.0, "limit_estimate": 1.0,
          "reasons": ["finite positive list accepted; increment sums audited"]}),
        (sch.ExplicitList([1.0, -1.0, 2.0]),
         {"accepted": False, "inf_estimate": -1.0, "pos_increment_sum": 3.0,
          "abs_increment_sum": 5.0, "limit_estimate": None,
          "reasons": ["nonpositive value -1.0 at index 1"]}),
        (sch.ExplicitList([1.0, 2.0, 0.0]),
         {"accepted": False, "inf_estimate": 0.0, "pos_increment_sum": 1.0,
          "abs_increment_sum": 3.0, "limit_estimate": None,
          "reasons": ["nonpositive value 0.0 at index 2"]}),
        (sch.AdaptiveKappa(1.0),
         {"accepted": False, "inf_estimate": 0.0001, "pos_increment_sum": 0.0,
          "abs_increment_sum": 0.0, "limit_estimate": None,
          "reasons": ["state-dependent; monitored at runtime"]}),
    ], ids=["constant", "geometric", "explicit", "explicit-negative-inside",
            "explicit-zero-tail", "adaptive"])
    def test_validate_schedule_reports_the_declared_limit(self, schedule, expected):
        report = sch.validate_schedule(schedule, horizon=6)
        assert report.to_dict() == expected
        assert report.limit_estimate == schedule.limit


def _number_entries():
    """(entry, the slot its error names, a call that hands it one number)."""
    ops = (Zero(1), Zero(1))
    ring = mt.mt_graph(2)
    return [
        ("Constant", "gamma", lambda v: sch.Constant(v)),
        ("GeometricToLimit", "limit", lambda v: sch.GeometricToLimit(v, 2.0, 0.5)),
        ("GeometricToLimit", "start", lambda v: sch.GeometricToLimit(1.0, v, 0.5)),
        ("GeometricToLimit", "ratio", lambda v: sch.GeometricToLimit(1.0, 2.0, v)),
        ("ExplicitList", "values[1]", lambda v: sch.ExplicitList([1.0, v])),
        ("AdaptiveKappa", "gamma0", lambda v: sch.AdaptiveKappa(v)),
        ("AdaptiveKappa", "clamp_lo", lambda v: sch.AdaptiveKappa(1.0, clamp_lo=v)),
        ("AdaptiveKappa", "clamp_hi", lambda v: sch.AdaptiveKappa(1.0, clamp_hi=v)),
        ("MTProblem", "theta", lambda v: mt.MTProblem(ops, v)),
        ("graph_relocated_run", "theta", lambda v: graphs.graph_relocated_run(
            ops, ring, v, sch.Constant(1.0), np.zeros((1, 1)), StopRule(1e-10, 5))),
        ("graph_dr_apply", "theta", lambda v: graphs.graph_dr_apply(ops, ring, 1.0, v,
                                                                    np.zeros((1, 1)))),
    ]


NOT_NUMBERS = ["1", True, None, [1.0], np.array([1.0]), 1 + 0j]


HORIZON = ("validate_schedule", "horizon",
           lambda v: sch.validate_schedule(sch.Constant(1.0), horizon=v))


@pytest.mark.parametrize("slot, call, bad", [
    pytest.param(slot, call, bad, id=f"{entry}.{slot}={bad!r}")
    for (entry, slot, call), values in [*[(e, NOT_NUMBERS) for e in _number_entries()],
                                        (HORIZON, ["2", None, 2.5, True])]
    for bad in values])
def test_a_python_callers_number_is_checked_as_a_config_number(slot, call, bad):
    # the schedules' and relaxations' numbers go through the kinds a config's
    # fields go through, so a value that is not a real number (an integer
    # for horizon) is refused by a ConstructionError naming its slot, not
    # taken by float() or leaked as numpy's TypeError
    with pytest.raises(ConstructionError, match=rf"^{re.escape(slot)}: must be an? "):
        call(bad)
