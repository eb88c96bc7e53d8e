"""The benchmark still runs on the library, and its tracer still sees the
library's layers.

perfbench/workloads.py builds, solves and checks each workload through the
library's public names, and perfbench/tracer.py counts calls by wrapping
them from outside. A refactor that renames what a workload uses would stop
the benchmark, and one that stops calling a wrapped name (say, a runner that
bypasses ``MonotoneOperator.resolvent``) would make the per-layer counts
read 0 without any error. These tests run the tiny workloads through their
own checks, install the tracer, run a tiny solve and pin the counts the
paper's cost model predicts.
"""

import os
import sys

import numpy as np
import pytest

import relosplit as rs
import relosplit.cli  # noqa: F401  the tracer wraps cli functions as well

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _from_source(monkeypatch, name):
    """The namespace of perfbench/<name>.py, executed from source, so
    nothing is written under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = os.path.join(PERFBENCH, f"{name}.py")
    namespace = {"__name__": f"perfbench_{name}", "__file__": path}
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), namespace)
    return namespace


@pytest.fixture
def tracer_module(monkeypatch):
    return _from_source(monkeypatch, "tracer")


@pytest.fixture
def workloads_module(monkeypatch):
    return _from_source(monkeypatch, "workloads")


def _checked(workload, staged):
    """The failures of each instance of a workload, solved as the benchmark
    solves it."""
    built = workload.build(rs, staged)
    outcomes = [outcome for unit in workload.units(built)
                for outcome in workload.outcomes(rs, unit, workload.solve(rs, unit))]
    return outcomes, workload.check(rs, built, outcomes)


@pytest.mark.parametrize("name", ["ring-box", "graph-affine", "cli-dr2"])
def test_tiny_workloads_pass_their_checks(workloads_module, tmp_path, name):
    # cli-dr2 writes its configs, traces and summaries into tmp_path
    workload = workloads_module["make_workload"](name, tiny=True)
    outcomes, failures = _checked(workload, workload.stage(workload.generate(3), str(tmp_path)))
    assert len(outcomes) == len(failures) == workload.count
    assert failures == [[]] * workload.count


def test_a_perturbed_iterate_fails_the_ring_box_check(workloads_module):
    # as perfbench/smoke.py perturbs it: 1e-9 on one entry of iterate 5
    class PerturbedRing(workloads_module["RingBox"]):
        def solve(self, rs, item):
            trace = super().solve(rs, item)
            trace.iterates[5] = rs.BlockVector(trace.iterates[5].data + 1e-9)
            return trace

    workload = PerturbedRing(tiny=True)
    _, failures = _checked(workload, workload.generate(3))
    assert failures[0] == ["iterate 5 differs from the naive run by 1.000e-09"]


def _bindings():
    """Every module attribute and class attribute the tracer may rebind."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if mod is not None and (name == "relosplit" or name.startswith("relosplit."))}
    classes = {cls: dict(vars(cls)) for mod in (rs.operators, rs.linalg, rs.driver,
                                                rs.schedules)
               for cls in vars(mod).values() if isinstance(cls, type)}
    return modules, classes


def _same(before, after):
    return all(after[key].get(attr) is value
               for key, attrs in before.items() for attr, value in attrs.items())


def test_resolvent_count_and_uninstall(tracer_module):
    n_ops, dim = 4, 2
    instance = rs.make_problem("affine_consensus", {"count": n_ops, "dim": dim}, seed=0)
    problem = rs.MTProblem(tuple(instance.ops), theta=0.5)
    modules, classes = _bindings()

    tracer = tracer_module["Tracer"]()
    tracer.install(rs)
    try:
        assert not _same(modules, _bindings()[0])
        trace = rs.algorithm2_run(problem, rs.GeometricToLimit(1.0, 2.0, 0.9),
                                  rs.BlockVector(np.zeros((n_ops - 1, dim))),
                                  rs.StopRule(residual_tol=1e-10, max_iters=5000))
    finally:
        tracer.uninstall()

    assert trace.status == "converged"
    assert trace.iterations == 184
    # one resolvent per operator per iteration, the paper's cost model
    assert tracer.calls("operators.resolvent") == n_ops * (trace.iterations + 1) == 740
    # one sweep per step; the relocation reuses its first resolvent
    assert tracer.calls("graphs.sweep") == trace.iterations + 1
    assert tracer.calls("malitsky_tam.run") == 1
    assert tracer.calls("driver.trace_record") == trace.iterations + 1
    modules_after, classes_after = _bindings()
    assert _same(modules, modules_after)
    assert _same(classes, classes_after)


def _chorded_six():
    tree = [(i, i + 1) for i in range(1, 6)]
    return rs.build_graph(6, tree + [(1, 3), (2, 5), (4, 6)], tree)


@pytest.mark.parametrize("runner, span, n_ops, iterations", [
    (lambda inst, schedule, stop: rs.algorithm1_run(inst.dr_problem(), schedule,
                                                    [0.0, 0.0], stop), "dr2.run", 2, 125),
    (lambda inst, schedule, stop: rs.graph_relocated_run(
        inst.ops, _chorded_six(), 1.0, schedule, rs.BlockVector(np.zeros((5, 2))), stop),
     "graphs.run", 6, 422),
], ids=["dr2", "chorded-graph"])
def test_resolvent_count_of_dr2_and_graph_runs(tracer_module, runner, span, n_ops, iterations):
    # a geometric schedule: an adaptive run adds one feedback resolvent on
    # its last iteration
    instance = rs.make_problem("affine_random", {"count": n_ops, "dim": 2}, seed=0)
    tracer = tracer_module["Tracer"]()
    tracer.install(rs)
    try:
        trace = runner(instance, rs.GeometricToLimit(1.0, 2.0, 0.9),
                       rs.StopRule(residual_tol=1e-10, max_iters=5000))
    finally:
        tracer.uninstall()

    assert trace.status == "converged"
    assert trace.iterations == iterations
    assert tracer.calls("operators.resolvent") == n_ops * (iterations + 1)
    assert tracer.calls("graphs.sweep") == iterations + 1
    assert tracer.calls(span) == 1
    assert tracer.calls("driver.trace_record") == iterations + 1
