import csv
import gc
import io
import math
import os
import warnings
import weakref

import numpy as np
import pytest

from conftest import (EXTREME_FINITE, GOLDEN_DIR, Case, WaitingGeometric,
                      nonfinite_points, run, strided_real)
from relosplit import cli, dr2, malitsky_tam as mt, problems, schedules as sch
from relosplit.driver import (
    ConvergenceTrace,
    OperatorFamily,
    Relocator,
    ScheduleBudgetWarning,
    StopRule,
    ambient_norm,
    run_relocated,
)
from relosplit.errors import ConstructionError, FixedPointError, ParameterError, RelosplitError
from relosplit.graphs import graph_relocated_run
from relosplit.linalg import BlockVector, _all_finite
from relosplit.operators import AffineMonotone, NegLog, NormalConeBox, NormalConePoint
from relosplit.selftest import check_relocator_axioms, chorded_path


def identity_family():
    return OperatorFamily(lambda gamma, x: (x, {}), name="identity")


def identity_relocator():
    return Relocator(lambda gamma, delta, x: x, lambda gamma, delta: 1.0,
                     name="identity")


class TestRunRelocated:
    def test_identity_family_fixed_immediately(self):
        trace = run_relocated(identity_family(), identity_relocator(),
                              sch.Constant(1.0), np.array([2.0, -1.0]),
                              StopRule(residual_tol=1e-12, max_iters=10))
        assert trace.status == "converged"
        assert trace.iterations == 0
        assert trace.residuals == [0.0]
        assert np.allclose(trace.final_x, [2.0, -1.0])

    def test_max_iters_status(self):
        # contraction towards 1 never reaches a 1e-30-ish residual in 5 steps
        family = OperatorFamily(lambda g, x: (0.5 * x, {}))
        trace = run_relocated(family, identity_relocator(), sch.Constant(1.0),
                              np.array([8.0]), StopRule(1e-12, 5))
        assert trace.status == "max_iters"
        assert trace.iterations == 5
        assert len(trace) == 6

    def test_schedule_rejected(self):
        schedule = sch.ExplicitList([1.0, -1.0])
        family = OperatorFamily(lambda g, x: (0.5 * x, {}))
        trace = run_relocated(family, identity_relocator(), schedule,
                              np.array([8.0]), StopRule(1e-12, 50))
        assert trace.status == "schedule_rejected"
        assert [x.tolist() for x in trace.iterates] == [[8.0]] and len(trace) == 1

    def test_diverged(self):
        def blow_up(gamma, x):
            with np.errstate(over="ignore"):
                return 1e200 * x, {}

        family = OperatorFamily(blow_up)
        trace = run_relocated(family, identity_relocator(), sch.Constant(1.0),
                              np.array([1.0]), StopRule(1e-12, 10))
        assert trace.status == "diverged"
        # x_2 = 1e400 overflowed: no row records it, and final_x is it
        assert [x.tolist() for x in trace.iterates] == [[1.0], [1e200]] and len(trace) == 2
        assert trace.final_x.tolist() == [math.inf]

    @pytest.mark.parametrize("runner", ["run_relocated", "algorithm1_run",
                                        "algorithm2_run", "graph_relocated_run"])
    def test_writing_into_x0_after_the_run_changes_nothing_it_handed_back(self, runner):
        # from a plain array: a run that steps, and one whose gamma_0 is
        # rejected, whose trace has no row and no iterate. x0 = 3 lies in Fix
        # T_2, so the first row relocates to the limit 1 and the next converges
        ops = (NormalConePoint([1.0]), NegLog(1))
        problem = dr2.DRProblem(*ops)
        stop = StopRule(1e-12, 20)

        def run(schedule, x0):
            if runner == "run_relocated":
                return run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                                     schedule, x0, stop)
            if runner == "algorithm1_run":
                return dr2.algorithm1_run(problem, schedule, x0, stop)
            if runner == "algorithm2_run":
                return mt.algorithm2_run(mt.MTProblem(ops, 0.5), schedule, x0[None], stop)
            return graph_relocated_run(ops, mt.mt_graph(2), 1.0, schedule, x0[None], stop)

        def handed_back(trace):
            return [x.tobytes() for x in [*trace.iterates, trace.final_x]]

        for schedule, rows in ((sch.GeometricToLimit(1.0, 2.0, 0.5), 2),
                               (sch.ExplicitList([-1.0]), 0)):
            fresh = run(schedule, np.array([3.0]))
            x0 = np.array([3.0])
            trace = run(schedule, x0)
            x0[0] = 7.0
            assert len(trace) == rows and len(trace.iterates) == rows
            assert handed_back(trace) == handed_back(fresh)

    def test_budget_warning(self):
        family = OperatorFamily(lambda g, x: (0.9 * x, {}))
        growing = sch.ExplicitList([1.0 + 50.0 * n for n in range(30)])
        with pytest.warns(ScheduleBudgetWarning):
            run_relocated(family, identity_relocator(), growing,
                          np.array([1.0]), StopRule(1e-12, 25))

    @pytest.mark.parametrize("runner", ["run_relocated", "algorithm1_run",
                                        "algorithm2_run", "graph_relocated_run"])
    def test_budget_warning_points_at_caller(self, runner):
        # the budget is 1e3 * gamma_0; increments of 50 cross it at step 21.
        # The runners call relocated_loop directly: a frame in between would
        # point the warning into the library
        ops = (NormalConePoint([1.0]), NegLog(1))
        problem = dr2.DRProblem(*ops)
        growing = sch.ExplicitList([1.0 + 50.0 * n for n in range(30)])
        stop = StopRule(1e-12, 25)
        with pytest.warns(ScheduleBudgetWarning) as records:
            if runner == "run_relocated":
                run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                              growing, np.array([3.0]), stop)
            elif runner == "algorithm1_run":
                dr2.algorithm1_run(problem, growing, np.array([3.0]), stop)
            elif runner == "algorithm2_run":
                mt.algorithm2_run(mt.MTProblem(ops, 0.5), growing,
                                  BlockVector([[3.0]]), stop)
            else:
                graph_relocated_run(ops, mt.mt_graph(2), 1.0, growing,
                                    BlockVector([[3.0]]), stop)
        budget = [r for r in records if r.category is ScheduleBudgetWarning]
        assert len(budget) == 1
        assert budget[0].filename == __file__

    def test_budget_row_in_summary(self):
        # increments of 50 cross the budget 1e3 * gamma_0 with gamma_21, the
        # stepsize that row 20 asks for
        family = OperatorFamily(lambda g, x: (0.9 * x, {}))
        growing = sch.ExplicitList([1.0 + 50.0 * n for n in range(30)])
        with pytest.warns(ScheduleBudgetWarning):
            trace = run_relocated(family, identity_relocator(), growing,
                                  np.array([1.0]), StopRule(1e-12, 25))
        assert trace.budget_exceeded_at == trace.summary()["budget_exceeded_at"] == 20
        assert trace.iterations == 25
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScheduleBudgetWarning)
            within = run_relocated(family, identity_relocator(), growing,
                                   np.array([1.0]), StopRule(1e-12, 20))
        assert within.budget_exceeded_at is None
        assert "budget_exceeded_at" not in within.summary()
        # the key is added after the ones a summary had before
        keys = list(trace.summary())
        assert keys[:keys.index("budget_exceeded_at")] == [
            "status", "iters", "final_residual", "final_gamma", "sum_pos_increments"]

    def test_sum_pos_increments(self):
        family = OperatorFamily(lambda g, x: (0.9 * x, {}))
        schedule = sch.ExplicitList([1.0, 2.0, 1.5, 3.0])
        trace = run_relocated(family, identity_relocator(), schedule,
                              np.array([1.0]), StopRule(1e-14, 3))
        assert trace.sum_pos_increments == pytest.approx(1.0 + 1.5)

    def test_a_moving_gamma_relocates_straight_to_the_limit(self):
        # every residual is 0: at n = 0 gamma_1 = 1.5 still moves, so the
        # relocation goes to the tail 2 and the next iteration settles there
        trace = run_relocated(identity_family(), identity_relocator(),
                              sch.ExplicitList([1.0, 1.5, 2.0]), np.array([1.0]),
                              StopRule(1e-12, 10))
        assert trace.status == "converged"
        assert trace.gammas == [1.0, 2.0]
        assert trace.relocated_to_limit_at == 0
        assert trace.summary()["relocated_to_limit_at"] == 0
        assert trace.sum_pos_increments == 1.0

    @pytest.mark.parametrize("values", [[1.0, 1.5, 2.0, -1.0, 3.0], [1.0, 1.5, 2.0, 0.0]],
                             ids=["nonpositive-inside", "nonpositive-tail"])
    def test_a_list_with_a_nonpositive_value_is_not_skipped(self, values):
        # such a list declares no limit, so the run reaches the value that
        # rejects it, as a run that never meets a small residual does
        schedule = sch.ExplicitList(values)
        assert schedule.limit is None
        trace = run_relocated(identity_family(), identity_relocator(), schedule,
                              np.array([1.0]), StopRule(1e-12, 10))
        assert trace.status == "schedule_rejected"
        assert trace.gammas == [1.0, 1.5, 2.0]
        assert "relocated_to_limit_at" not in trace.summary()

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_a_declared_limit_that_is_no_stepsize_is_not_relocated_to(self, bad):
        class Declared(sch.ExplicitList):
            limit = bad

        trace = run_relocated(identity_family(), identity_relocator(),
                              Declared([1.0, 1.5, 2.0]), np.array([1.0]), StopRule(1e-12, 10))
        assert trace.status == "converged"
        assert trace.gammas == [1.0, 1.5, 2.0]
        assert trace.relocated_to_limit_at is None

    def test_adaptive_requires_feedback_hook(self):
        from relosplit.errors import ScheduleError

        family = OperatorFamily(lambda g, x: (0.5 * x, {}))  # no hook
        with pytest.raises(ScheduleError):
            run_relocated(family, identity_relocator(), sch.AdaptiveKappa(1.0),
                          np.array([1.0]), StopRule(1e-12, 5))

    def test_adaptive_with_feedback_hook(self):
        family = OperatorFamily(
            lambda g, x: (0.5 * x, {}),
            feedback=lambda g, w: (0.5 * w, w),
        )
        trace = run_relocated(family, identity_relocator(), sch.AdaptiveKappa(1.0),
                              np.array([1.0]), StopRule(1e-9, 200))
        assert trace.status == "converged"
        assert all(g > 0 for g in trace.gammas)


class TestConvergenceTrace:
    def test_summary_keys(self):
        trace = run_relocated(identity_family(), identity_relocator(),
                              sch.Constant(2.0), np.array([1.0]),
                              StopRule(1e-12, 4))
        summary = trace.summary()
        for key in ("status", "iters", "final_residual", "final_gamma",
                    "sum_pos_increments"):
            assert key in summary
        assert summary["final_gamma"] == 2.0

    def test_csv_roundtrip_17_digits(self):
        # the oracle reads each row's value back from its point
        trace = ConvergenceTrace(oracle=lambda point: point[0])
        values = [1.0 / 3.0, math.pi, 1e-17, 123456.789012345678]
        for v in values:
            trace.record(gamma=v, residual=v,
                         point=np.array([v, -v]), vectors={"z": np.array([v])})
        buffer = io.StringIO()
        trace.write_csv(buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert [r["n"] for r in rows] == ["0", "1", "2", "3"]
        for row, v in zip(rows, values):
            assert float(row["gamma"]) == v
            assert float(row["residual"]) == v
            assert float(row["solution_residual"]) == v
            assert float(row["point_0"]) == v
            assert float(row["point_1"]) == -v
            assert float(row["z_0"]) == v

    def test_csv_header_order(self):
        trace = ConvergenceTrace(point_columns={"consensus_residual": lambda point: 0.1})
        trace.record(1.0, 0.5, point=np.array([1.0]), vectors={"z": np.array([1.0, 2.0])})
        buffer = io.StringIO()
        trace.write_csv(buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header == "n,gamma,residual,solution_residual,point_0,consensus_residual,z_0,z_1"

    def test_missing_solution_residual_is_nan(self):
        trace = ConvergenceTrace()
        trace.record(1.0, 0.5, point=np.array([1.0]))
        buffer = io.StringIO()
        trace.write_csv(buffer)
        row = next(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert math.isnan(float(row["solution_residual"]))

    def test_a_trace_no_run_built_has_no_iterates(self):
        trace = ConvergenceTrace()
        trace.record(1.0, 0.5, point=np.array([1.0]))
        with pytest.raises(RelosplitError, match="no replay.*no run built it"):
            trace.iterates


def reference_csv(trace):
    """The trace CSV as csv.writer writes it, one float at a time."""
    header, point_dim = trace._csv_header()

    def fmt(v):
        return format(float(v), ".17g")

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for n in range(len(trace.residuals)):
        row = [str(n), fmt(trace.gammas[n]), fmt(trace.residuals[n]),
               fmt(trace.solution_residuals[n])]
        if point_dim:
            row += [fmt(v) for v in trace.points[n]]
        row += [fmt(series[n]) for series in trace.extra_scalars.values()]
        for series in trace.extra_vectors.values():
            row += [fmt(v) for v in series[n]]
        writer.writerow(row)
    return buffer.getvalue()


class TestCsvFormat:
    def test_exact_text(self):
        tiny, huge, third = 5e-324, 1.7976931348623157e308, 1.0 / 3.0
        # each row's two point columns, by the bytes of its point
        columns = {np.array([math.inf, -math.inf]).tobytes(): (tiny, third),
                   np.array([math.nan, 0.0]).tobytes(): (-math.inf, math.nan)}
        # no oracle: the solution_residual column reads nan
        trace = ConvergenceTrace(point_columns={
            "a,b": lambda point: columns[point.tobytes()][0],
            "bound": lambda point: columns[point.tobytes()][1]})
        trace.record(0.0, -0.0, point=np.array([math.inf, -math.inf]),
                     vectors={"u": np.array([huge]), "v": np.array([-0.0, third])})
        trace.record(third, tiny, point=np.array([math.nan, 0.0]),
                     vectors={"u": np.array([0.0]), "v": np.array([1.0, -huge])})
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert buffer.getvalue() == (
            'n,gamma,residual,solution_residual,point_0,point_1,"a,b",bound,u_0,v_0,v_1\r\n'
            "0,0,-0,nan,inf,-inf,4.9406564584124654e-324,0.33333333333333331,"
            "1.7976931348623157e+308,-0,0.33333333333333331\r\n"
            "1,0.33333333333333331,4.9406564584124654e-324,nan,nan,0,-inf,nan,"
            "0,1,-1.7976931348623157e+308\r\n"
        )

    def test_shared_and_equal_vectors_print_the_same_text(self, rng):
        # in row 0 "z" is the point object itself (as dr2 records its
        # shadow), in row 1 an array of its own; "c" is always an equal but
        # distinct array
        trace = ConvergenceTrace()
        for shared in (True, False):
            point = rng.standard_normal(3)
            z = point if shared else rng.standard_normal(3)
            trace.record(1.0, 0.5, point=point, vectors={"z": z, "c": z.copy()})
        assert trace.extra_vectors["z"][0] is trace.points[0]
        assert trace.extra_vectors["z"][1] is not trace.points[1]
        assert trace.extra_vectors["c"][0] is not trace.points[0]
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert buffer.getvalue() == reference_csv(trace)
        row = buffer.getvalue().splitlines()[1].split(",")
        assert row[4:7] == row[7:10] == row[10:13]

    def test_empty_trace_is_header_only(self):
        buffer = io.StringIO()
        ConvergenceTrace().write_csv(buffer)
        assert buffer.getvalue() == "n,gamma,residual,solution_residual\r\n"

    @pytest.mark.parametrize(
        "name", sorted(f[:-len(".json")] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json"))
    )
    def test_golden_traces_match_reference(self, tmp_path, name):
        with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
            cfg = cli.parse_config(fh.read())
        with warnings.catch_warnings():
            # the budget configs may trip ScheduleBudgetWarning; only the
            # written text is under test here
            warnings.simplefilter("ignore")
            trace = cli.run_experiment(cfg)
        expected = reference_csv(trace)
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert buffer.getvalue() == expected
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        with open(path, newline="") as fh:
            assert fh.read() == expected


class CountingOracle:
    """An oracle that counts its calls: the norm of the point it is handed,
    or a ValueError with fail."""

    def __init__(self, fail=False):
        self.calls, self.fail = 0, fail

    def __call__(self, point):
        self.calls += 1
        if self.fail:
            raise ValueError("the oracle failed")
        return ambient_norm(point)


def oracle_runs(oracle):
    """A finished run of each runner (dr2, MT, graph and run_relocated on the
    DR family), on boxes that share the unit box, each handed oracle."""
    rng = np.random.default_rng(5)
    ops = [NormalConeBox(-1.0 - rng.uniform(size=2), 1.0 + rng.uniform(size=2))
           for _ in range(4)]
    x0 = 4.0 * rng.standard_normal((3, 2))
    schedule, stop = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5), StopRule(1e-10, 500)
    pair = Case("dr2", tuple(ops[:2]), schedule, x0[0] + 2.0, stop)
    ring = Case("mt", tuple(ops), schedule, x0, stop, 0.5)
    graph = ring._replace(method="graph", theta=1.0, graph=chorded_path(4))
    runs = {"dr2": pair, "mt": ring, "graph": graph, "run_relocated": pair}
    return {name: run(case, case.ops, name == "run_relocated", solution_residual=oracle)
            for name, case in runs.items()}


class TestLazySolutionResidual:
    """The loop calls no oracle: the trace calls it on a recorded point when
    a row of its solution-residual column is read."""

    @pytest.mark.parametrize("name", ["dr2", "mt", "graph", "run_relocated"])
    def test_calls_are_counted_where_the_column_is_read(self, name):
        oracle = CountingOracle()
        trace = oracle_runs(oracle)[name]
        assert trace.status == "converged" and len(trace) > 2
        assert oracle.calls == 0
        assert len(trace.solution_residuals) == len(trace) and oracle.calls == 0
        summary = trace.summary()
        assert oracle.calls == 1
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert oracle.calls == 1 + len(trace)
        # the graph runners hand the oracle the blockwise mean of the sweep
        points = [p.reshape(-1, 2).mean(axis=0) for p in trace.points]
        column = [float(row["solution_residual"])
                  for row in csv.DictReader(io.StringIO(buffer.getvalue()))]
        assert column == pytest.approx([ambient_norm(p) for p in points], rel=1e-15)
        assert summary["final_solution_residual"] == column[-1]
        assert trace.solution_residuals[0] == column[0] and oracle.calls == 2 + len(trace)

    def test_without_an_oracle_the_column_reads_nan(self):
        trace = oracle_runs(None)["graph"]
        assert "final_solution_residual" not in trace.summary()
        assert all(math.isnan(v) for v in trace.solution_residuals)
        assert math.isnan(trace.solution_residuals[-1])

    @pytest.mark.parametrize("name", ["dr2", "mt", "graph", "run_relocated"])
    def test_a_failing_oracle_raises_where_the_column_is_read(self, name):
        oracle = CountingOracle(fail=True)
        trace = oracle_runs(oracle)[name]
        # the run itself completes and reports its usual status
        assert trace.status == "converged" and oracle.calls == 0
        assert len(trace.solution_residuals) == len(trace)
        with pytest.raises(ValueError, match="^the oracle failed$"):
            trace.summary()
        with pytest.raises(ValueError, match="^the oracle failed$"):
            trace.write_csv(io.StringIO())
        for n in (0, -1):
            with pytest.raises(ValueError, match="^the oracle failed$"):
                trace.solution_residuals[n]
        assert oracle.calls == 4


class TestPointColumns:
    """Columns computed where they are read from a row's recorded point, as
    the solution-residual column is: the graph runners' consensus_residual."""

    def test_a_point_column_is_called_where_it_is_read(self):
        column = CountingOracle()
        trace = ConvergenceTrace(point_columns={"c": column})
        for n in range(3):
            trace.record(1.0, 0.5, point=np.array([0.0, n]))
        assert column.calls == 0
        assert list(trace.extra_scalars) == ["c"]
        assert len(trace.extra_scalars["c"]) == 3 and column.calls == 0
        assert trace.extra_scalars["c"][-1] == 2.0 and column.calls == 1
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert column.calls == 4
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == ["n", "gamma", "residual", "solution_residual", "point_0",
                           "point_1", "c"]
        assert [row[-1] for row in rows[1:]] == ["0", "1", "2"]
        assert trace.extra_scalars["c"][:] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("name, graph", [("mt", mt.mt_graph(4)),
                                             ("graph", chorded_path(4))])
    def test_graph_runs_read_consensus_from_the_recorded_sweep(self, name, graph):
        trace = oracle_runs(None)[name]
        column = trace.extra_scalars["consensus_residual"]
        assert not isinstance(column, list) and len(column) == len(trace)
        z_t = graph.matrices.Z.T
        assert column[:] == [ambient_norm(z_t.dot(p.reshape(4, -1))) for p in trace.points]
        buffer = io.StringIO()
        trace.write_csv(buffer)
        header = buffer.getvalue().split("\r\n", 1)[0]
        assert header.endswith(",consensus_residual")

    def test_a_trace_is_freed_without_the_cyclic_collector(self):
        # a column that held its trace would make a cycle, and every row of a
        # finished run would wait for the collector
        gc.disable()
        try:
            runs = oracle_runs(CountingOracle())
            assert runs["graph"].extra_scalars["consensus_residual"][0] >= 0.0
            refs = [weakref.ref(trace) for trace in runs.values()]
            del runs
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestRecord:
    def test_copies_the_callers_arrays(self):
        point, vector = np.array([1.0, 2.0]), np.array([3.0])
        trace = ConvergenceTrace()
        trace.record(1.0, 0.0, point=point, vectors={"p": point, "v": vector})
        point[0] = vector[0] = 9.0
        assert trace.points[0].tolist() == [1.0, 2.0]
        assert trace.extra_vectors["p"][0] is trace.points[0]
        assert trace.extra_vectors["v"][0].tolist() == [3.0]

    def test_flattens_a_block_vector_point(self):
        trace = ConvergenceTrace()
        blocks = BlockVector([[1.0, 2.0], [3.0, 4.0]])
        trace.record(1.0, 0.0, point=blocks, vectors={"z": blocks})
        assert trace.points[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert trace.points[0].flags.writeable
        assert trace.extra_vectors["z"][0] is trace.points[0]


    def test_a_row_with_its_keys_in_another_order_lands_in_row_0s_columns(self):
        trace = ConvergenceTrace()
        trace.record(1.0, 0.5, point=np.array([1.0]),
                     vectors={"u": np.array([3.0]), "v": np.array([4.0, 5.0])})
        trace.record(1.0, 0.25, point=np.array([6.0]),
                     vectors={"v": np.array([10.0, 11.0]), "u": np.array([9.0])})
        assert list(trace.extra_vectors) == ["u", "v"]
        assert [v.tolist() for v in trace.extra_vectors["u"]] == [[3.0], [9.0]]
        assert [v.tolist() for v in trace.extra_vectors["v"]] == [[4.0, 5.0], [10.0, 11.0]]
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert buffer.getvalue() == reference_csv(trace)
        assert buffer.getvalue().splitlines()[2] == "1,1,0.25,nan,6,9,10,11"

    @pytest.mark.parametrize("first, second", [
        ({"point": np.array([1.0]), "vectors": {"z": np.array([1.0])}},
         {"point": np.array([1.0])}),
        ({"point": np.array([1.0, 2.0])}, {"point": np.array([1.0, 2.0, 3.0])}),
        ({"point": np.array([1.0]), "vectors": {"v": np.array([1.0])}},
         {"point": np.array([1.0]), "vectors": {"v": np.array([1.0, 2.0])}}),
    ], ids=["vector-left-out", "point-longer", "vector-longer"])
    def test_a_row_with_other_fields_is_refused(self, first, second):
        trace = ConvergenceTrace()
        trace.record(1.0, 0.5, **first)
        with pytest.raises(ParameterError, match="^trace row 1 has other fields than row 0"):
            trace.record(1.0, 0.25, **second)
        assert len(trace) == 1
        assert all(len(series) == 1 for series in trace.extra_vectors.values())
        # the refused row left nothing behind: the table is still whole
        buffer = io.StringIO()
        trace.write_csv(buffer)
        assert buffer.getvalue() == reference_csv(trace)
        assert len(buffer.getvalue().splitlines()) == 2

    def test_run_refuses_a_step_that_leaves_a_vector_out(self):
        # the family leaves "v" out of iteration 1 only: a trace that took
        # the row would print iteration 2's "v" in row 1
        steps = []

        def apply(gamma, x):
            steps.append(x)
            return 0.5 * x, {"vectors": {} if len(steps) == 2 else {"v": 2.0 * x}}

        with pytest.raises(ParameterError, match="^trace row 1 "):
            run_relocated(OperatorFamily(apply), identity_relocator(),
                          sch.Constant(1.0), np.array([8.0]), StopRule(1e-12, 5))


class TestAmbientKernels:
    # _all_finite is the loop's divergence test of each relocated iterate
    def test_isfinite_accepts_extreme_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _all_finite(np.array(EXTREME_FINITE))
            assert _all_finite(np.array([EXTREME_FINITE, EXTREME_FINITE]))

    @pytest.mark.parametrize("point", nonfinite_points())
    def test_isfinite_rejects_nonfinite_at_any_position(self, point):
        assert _all_finite(point) is False
        assert _all_finite(point.reshape(1, -1)) is False
        assert _all_finite(np.stack([np.zeros(point.size), point])) is False

    def test_isfinite_strided_view_extreme_finite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _all_finite(strided_real(EXTREME_FINITE)) is True
            assert _all_finite(strided_real([EXTREME_FINITE, EXTREME_FINITE])) is True

    @pytest.mark.parametrize("point", nonfinite_points())
    def test_isfinite_strided_view_rejects_nonfinite_at_any_position(self, point):
        assert _all_finite(strided_real(point)) is False
        assert _all_finite(strided_real(np.stack([np.zeros(point.size), point]))) is False

    def test_norm_is_np_linalg_norm(self, rng):
        arrays = [rng.standard_normal(d) * scale
                  for d in (1, 2, 8, 32, 513) for scale in (1e-300, 1e-3, 1.0, 1e150)]
        arrays += [rng.standard_normal((k, d)) for k, d in ((1, 8), (15, 8), (5, 32))]
        arrays += [np.zeros(4), np.array([-0.0]), np.array([5e-324, 5e-324])]
        for a in arrays:
            assert ambient_norm(a) == float(np.linalg.norm(a))
            if a.ndim == 2:
                assert ambient_norm(BlockVector(a)) == float(np.linalg.norm(a))
        # non-contiguous input: norm sums the raveled array in memory order
        a = rng.standard_normal((6, 9))
        assert ambient_norm(a.T) == float(np.linalg.norm(a.T))

    def test_norm_overflow_is_inf_like_np_linalg_norm(self):
        blocks = BlockVector([EXTREME_FINITE, EXTREME_FINITE])
        with np.errstate(over="ignore"):
            assert ambient_norm(blocks) == float(np.linalg.norm(np.asarray(blocks))) == math.inf
            assert ambient_norm(np.array(EXTREME_FINITE)) == math.inf


class TestStopRule:
    def test_validation(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                StopRule(residual_tol=tol, max_iters=5)
        with pytest.raises(ParameterError):
            StopRule(residual_tol=1e-6, max_iters=0)

    @pytest.mark.parametrize("residual_tol, max_iters, message", [
        (1e-8, 2.5, "max_iters: must be an integer, got 2.5"),
        (1e-8, True, "max_iters: must be an integer, got True"),
        (1e-8, "10", "max_iters: must be an integer, got '10'"),
        ("1", 10, "residual_tol: must be a number, got '1'"),
        (True, 10, "residual_tol: must be a number, got True"),
    ], ids=["iters-float", "iters-bool", "iters-text", "tol-text", "tol-bool"])
    def test_field_kinds(self, residual_tol, max_iters, message):
        with pytest.raises(ConstructionError) as info:
            StopRule(residual_tol, max_iters)
        assert str(info.value) == message

    def test_settled(self):
        rule = StopRule(residual_tol=1e-6, max_iters=5)
        assert rule.settled(1.0, 1.0 + 1e-7)
        assert not rule.settled(1.0, 1.1)


class WaitingBox(NormalConeBox):
    """A box with the same arithmetic that does not declare its resolvent
    stepsize free, so a run on it waits for the stepsize to settle."""

    stepsize_free = False


def box_run(method, box=NormalConeBox, affine=False, geometric=sch.GeometricToLimit):
    """(the runner's trace, run_relocated's trace) on boxes planted around one
    point, under the moving schedule 2 -> 1 at ratio 0.9. With affine, the
    last operator is A x = x - c instead, c the point the boxes share."""
    rng = np.random.default_rng(3)
    count, dim = {"mt": (5, 3), "graph": (4, 3), "dr2": (2, 3)}[method]
    center = rng.standard_normal(dim)
    ops = [box(center - rng.uniform(0.05, 1.0, dim), center + rng.uniform(0.05, 1.0, dim))
           for _ in range(count)]
    lo = np.max([op.lo for op in ops], axis=0)
    hi = np.min([op.hi for op in ops], axis=0)
    if affine:
        ops[-1] = AffineMonotone(np.eye(dim), -center)

    def oracle(z):
        # the distance to the boxes' intersection, or to c with the affine operator
        return float(np.linalg.norm(z - (center if affine else np.clip(z, lo, hi))))

    x0 = 3.0 * rng.standard_normal(dim if method == "dr2" else (count - 1, dim))
    case = Case(method, tuple(ops), geometric(limit=1.0, start=2.0, ratio=0.9), x0,
                StopRule(1e-10, 5000), 0.5 if method == "mt" else 1.0,
                chorded_path(count) if method == "graph" else None)
    return run(case, case.ops, solution_residual=oracle), run(case, case.ops, naive=True)


def csv_lines(trace):
    buffer = io.StringIO()
    trace.write_csv(buffer)
    return buffer.getvalue().splitlines()


def iterate_values(trace):
    return [np.asarray(x.data if isinstance(x, BlockVector) else x) for x in trace.iterates]


class TestStepsizeFreeStop:
    """A run whose every operator is stepsize free stops at its first residual
    within tolerance; one with a stepsize-dependent operator waits for gamma."""

    @pytest.mark.parametrize("method", ["mt", "graph", "dr2"])
    def test_stops_at_the_first_small_residual_while_gamma_moves(self, method):
        trace, naive = box_run(method)
        # on a schedule without a declared limit, so this run follows gamma
        # until it settles rather than relocating straight to the limit
        waiting, _ = box_run(method, box=WaitingBox, geometric=WaitingGeometric)
        n, tol = trace.iterations, 1e-10
        assert trace.status == waiting.status == "converged"
        assert trace.residuals[n] <= tol < min(trace.residuals[:n])
        # gamma_{n+1} is still moving: the settle test would not have stopped
        assert abs(waiting.gammas[n + 1] - trace.gammas[n]) > tol * max(1.0, trace.gammas[n])
        assert trace.solution_residuals[n] <= 1e-8
        # the naive composition of the family and relocator stops there too
        assert naive.status == "converged" and naive.iterations == n
        for a, b in zip(iterate_values(trace), iterate_values(naive)):
            assert np.max(np.abs(a - b)) <= 1e-12
        # the run is, row for row, the head of the run that waits for gamma
        assert waiting.iterations > n
        assert csv_lines(trace) == csv_lines(waiting)[:n + 2]
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(iterate_values(trace), iterate_values(waiting)))

    def test_one_stepsize_dependent_operator_waits_for_gamma(self):
        trace, naive = box_run("mt", affine=True)
        n = trace.iterations
        assert trace.status == naive.status == "converged"
        assert (n, naive.iterations) == (258, 258)
        assert StopRule(1e-10, 1).settled(trace.gammas[n], 1.0 + 0.9 ** (n + 1))


def affine_run(method, schedule, stop=StopRule(1e-10, 5000)):
    """(the runner's trace, run_relocated's trace) on an affine problem from
    x0 = 0, each on a fresh schedule()."""
    if method == "dr2":
        pair = problems.make_problem("affine_random", {"count": 2, "dim": 3}, seed=3).dr_problem()
        ops, x0 = (pair.op_a, pair.op_b), np.zeros(3)
    else:
        ops = tuple(problems.make_problem("affine_consensus", {"count": 4, "dim": 2}, seed=0).ops)
        x0 = np.zeros((3, 2))
    case = Case(method, ops, None, x0, stop, 0.5 if method == "mt" else 1.0,
                chorded_path(4) if method == "graph" else None)
    return tuple(run(case._replace(schedule=schedule()), ops, naive) for naive in (False, True))


def moving():
    """The limit relocation tests' moving schedule: 2 -> 1 geometric."""
    return sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.95)


class TestLimitRelocation:
    """Once the residual is within tolerance while gamma moves, the run
    relocates straight onto Fix T at the schedule's limit and holds gamma
    there; the unchanged stop rule decides at the next iteration."""

    @pytest.mark.parametrize("method", ["dr2", "mt", "graph"])
    def test_a_budget_at_the_crossing_ends_max_iters(self, method):
        trace, _ = affine_run(method, moving)
        jump = trace.relocated_to_limit_at
        stopped, naive = affine_run(method, moving, StopRule(1e-10, jump))
        assert stopped.status == naive.status == "max_iters"
        assert stopped.iterations == jump
        assert stopped.final_residual <= 1e-10
        assert stopped.final_gamma == trace.gammas[jump] != 1.0
        assert stopped.relocated_to_limit_at is None
        assert "relocated_to_limit_at" not in stopped.summary()

    @pytest.mark.parametrize("method", ["dr2", "mt", "graph"])
    def test_adaptive_runs_ask_the_schedule_every_iteration(self, method, monkeypatch):
        # an adaptive rule declares no limit, so its run follows the rule to
        # the end, as it did before the limit relocation
        asked = []
        gamma_at = sch.AdaptiveKappa.gamma_at

        def counted(self, n, feedback=None):
            asked.append(n)
            return gamma_at(self, n, feedback)

        monkeypatch.setattr(sch.AdaptiveKappa, "gamma_at", counted)
        trace, naive = affine_run(method, lambda: sch.AdaptiveKappa(1.0))
        n = trace.iterations
        assert trace.status == naive.status == "converged"
        assert naive.iterations == n
        assert asked == [*range(n + 2)] * 2
        assert trace.relocated_to_limit_at is naive.relocated_to_limit_at is None
        assert "relocated_to_limit_at" not in trace.summary()
        for a, b in zip(iterate_values(trace), iterate_values(naive)):
            assert np.max(np.abs(a - b)) <= 1e-10


class TestAxiomHarness:
    def test_identity_relocator_with_constant_family(self):
        # T independent of gamma, Q = Id: all axioms trivially pass
        family = OperatorFamily(lambda g, x: (0.5 * x, {}))
        fixed_points = [(g, np.zeros(2)) for g in (0.5, 1.0, 2.0)]
        report = check_relocator_axioms(family, identity_relocator(),
                                        fixed_points, (0.5, 1.0, 2.0))
        assert report.passed
        assert report.continuity_modulus == 0.0

    def test_shifted_relocator_flagged(self):
        family = OperatorFamily(lambda g, x: (0.5 * x, {}))
        broken = Relocator(lambda g, d, x: x + 0.1, lambda g, d: 1.0)
        fixed_points = [(1.0, np.zeros(2))]
        report = check_relocator_axioms(family, broken, fixed_points,
                                        (0.5, 1.0, 2.0))
        assert not report.bijection_ok
        assert not report.semigroup_ok
        assert not report.passed
        assert report.violations

    def test_non_fixed_point_rejected(self):
        family = OperatorFamily(lambda g, x: (0.5 * x, {}))
        with pytest.raises(FixedPointError):
            check_relocator_axioms(family, identity_relocator(),
                                   [(1.0, np.array([1.0, 1.0]))], (1.0,))
