"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; all
tolerances are fixed here, nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from conftest import GAMMA_GRID, operator_zoo, random_affine
from relosplit import dr2, graphs, malitsky_tam as mt, problems, schedules as sch
from relosplit.driver import StopRule, check_relocator_axioms, run_relocated
from relosplit.linalg import BlockVector
from relosplit.selftest import run_selftest


def report(number, description, failures):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:>2}: {description}")
    assert ok, f"criterion {number}: {description}: " + "; ".join(failures[:5])


def neglog_setup():
    inst = problems.make_problem("indicator_neglog")
    return inst.dr_problem(), inst.dr_certificate


def chorded_path():
    tree = [(1, 2), (2, 3), (3, 4)]
    return graphs.build_graph(4, tree + [(1, 3), (2, 4)], tree)


def test_criterion_1_resolvent_scaling_identity():
    rng = np.random.default_rng(1)
    failures = []
    for op in operator_zoo(rng):
        for _ in range(200):
            x = 4.0 * rng.standard_normal(op.dim)
            alpha, beta = rng.choice(GAMMA_GRID, size=2)
            jx = op.resolvent(alpha, x)
            moved = (beta / alpha) * x + (1.0 - beta / alpha) * jx
            err = np.linalg.norm(op.resolvent(beta, moved) - jx)
            if err > 1e-10:
                failures.append(f"{op.kind}: {err:.2e}")
    report(1, "resolvent scaling identity, 200 samples per catalog kind "
              "at 1e-10", failures)


def test_criterion_2_dr_relocator_axioms():
    rng = np.random.default_rng(2)
    problem, cert = neglog_setup()
    failures = []
    for g in GAMMA_GRID:
        for d in GAMMA_GRID:
            out = dr2.dr_relocator_apply(problem.op_a, g, d, np.array([1.0 + g]))
            if abs(out[0] - (1.0 + d)) > 1e-12:
                failures.append(f"Q_({d}<-{g})(1+{g}) off by "
                                f"{abs(out[0] - (1.0 + d)):.2e}")
    fixed_points = [(g, dr2.dr_fixed_point(cert, g)) for g in GAMMA_GRID]
    harness = check_relocator_axioms(dr2.dr_family(problem),
                                     dr2.dr_relocator(problem),
                                     fixed_points, GAMMA_GRID, tol=1e-9, rng=rng)
    if not harness.bijection_ok:
        failures.append("two-sided inverse failed")
    if not harness.semigroup_ok:
        failures.append("semigroup failed")
    for g in GAMMA_GRID:
        for d in GAMMA_GRID:
            bound = max(1.0, d / g)
            for _ in range(40):
                u = rng.uniform(-6.0, 6.0, size=1)
                v = rng.uniform(-6.0, 6.0, size=1)
                if u[0] == v[0]:
                    continue
                qu = dr2.dr_relocator_apply(problem.op_a, g, d, u)
                qv = dr2.dr_relocator_apply(problem.op_a, g, d, v)
                ratio = abs(qu[0] - qv[0]) / abs(u[0] - v[0])
                if ratio > bound + 1e-10:
                    failures.append(f"Lipschitz ratio {ratio:.6f} > {bound}")
    report(2, "DR relocator axioms on the 1-D instance (grid map exact to "
              "1e-12, Lipschitz within max{1, d/g} + 1e-10)", failures)


def test_criterion_3_algorithm1_convergence():
    problem, _ = neglog_setup()
    schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
    trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]),
                               StopRule(residual_tol=1e-10, max_iters=500))
    failures = []
    hit = [n for n, (x, z) in enumerate(zip(trace.iterates, trace.points))
           if abs(x[0] - 2.0) <= 1e-6 and abs(z[0] - 1.0) <= 1e-6]
    if not hit or hit[0] > 500:
        failures.append(f"targets not reached within 500 iterations "
                        f"(final x={trace.iterates[-1][0]})")
    report(3, "relocated DR reaches |x-2|<=1e-6 and |z-1|<=1e-6 within 500 "
              "iterations", failures)


def test_criterion_4_stationary_reduction():
    rng = np.random.default_rng(4)
    failures = []
    problem, _ = neglog_setup()
    trace = dr2.algorithm1_run(problem, sch.Constant(1.0), np.array([3.0]),
                               StopRule(residual_tol=1e-16, max_iters=100))
    x = np.array([3.0])
    for n, iterate in enumerate(trace.iterates):
        if np.max(np.abs(iterate - x)) > 1e-12:
            failures.append(f"DR mismatch at n={n}")
            break
        x, _, _ = dr2.dr_apply(problem, 1.0, x)

    mt_problem = mt.MTProblem(
        tuple(random_affine(rng, 2) for _ in range(4)), theta=0.5)
    x0 = BlockVector(rng.standard_normal((3, 2)))
    trace = mt.algorithm2_run(mt_problem, sch.Constant(1.0), x0,
                              StopRule(residual_tol=1e-16, max_iters=100))
    xb = x0
    for n, iterate in enumerate(trace.iterates):
        if np.max(np.abs(iterate.data - xb.data)) > 1e-12:
            failures.append(f"MT mismatch at n={n}")
            break
        xb, _ = mt.mt_apply(mt_problem, 1.0, xb)
    report(4, "constant-stepsize runs equal the classical DR and MT iterates "
              "to 1e-12 over 100 iterations", failures)


def test_criterion_5_efficient_equals_naive():
    rng = np.random.default_rng(5)
    failures = []
    schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
    problem, _ = neglog_setup()
    stop = StopRule(residual_tol=1e-14, max_iters=60)
    eff = dr2.algorithm1_run(problem, schedule, np.array([3.0]), stop)
    naive = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                          schedule, np.array([3.0]), stop)
    for n, (a, b) in enumerate(zip(eff.iterates, naive.iterates)):
        if np.max(np.abs(a - b)) > 1e-12:
            failures.append(f"DR iterate mismatch at n={n}")
            break

    mt_problem = mt.MTProblem(
        tuple(random_affine(rng, 2) for _ in range(5)), theta=0.5)
    x0 = BlockVector(rng.standard_normal((4, 2)))
    eff = mt.algorithm2_run(mt_problem, schedule, x0, stop)
    naive = run_relocated(mt.mt_family(mt_problem), mt.mt_relocator(mt_problem),
                          schedule, x0, stop)
    for n, (a, b) in enumerate(zip(eff.iterates, naive.iterates)):
        if np.max(np.abs(a.data - b.data)) > 1e-12:
            failures.append(f"MT iterate mismatch at n={n}")
            break
    report(5, "efficient runners match the naive relocated iteration "
              "per-iterate to 1e-12", failures)


def test_criterion_6_graph_algebra():
    failures = []
    for g in [mt.mt_graph(n) for n in (3, 4, 5, 6)] + [chorded_path()]:
        m = g.matrices
        n = g.n_nodes
        checks = {
            "L=ZZ^T": np.max(np.abs(m.L - m.Z @ m.Z.T)),
            "M=CC^T": np.max(np.abs(m.M - m.C @ m.C.T)),
            "R skew": np.max(np.abs(m.R + m.R.T)),
            "Z^T 1=0": np.max(np.abs(m.Z.T @ np.ones(n))),
        }
        for label, err in checks.items():
            if err > 1e-12:
                failures.append(f"{g!r} {label}: {err:.2e}")
        if int(g.deg.sum()) != 2 * len(g.arcs):
            failures.append(f"{g!r}: sum d_i != 2|E|")
        if int(g.indeg.sum()) != len(g.arcs) or int(g.outdeg.sum()) != len(g.arcs):
            failures.append(f"{g!r}: in/out degree sums != |E|")
        if g.indeg[0] != 0:
            failures.append(f"{g!r}: node 1 has incoming arcs")
    report(6, "graph algebra identities (L=ZZ^T, M=CC^T, R skew, Z^T 1=0, "
              "degree identities) to 1e-12", failures)


def test_criterion_7_graph_relocator_correctness():
    rng = np.random.default_rng(7)
    failures = []
    for g in (mt.mt_graph(3), mt.mt_graph(4), chorded_path()):
        ops = [random_affine(rng, 2) for _ in range(g.n_nodes)]
        for _ in range(100):
            x = BlockVector(3.0 * rng.standard_normal((g.n_nodes - 1, 2)))
            gamma, delta = rng.choice(GAMMA_GRID, size=2)
            resid = graphs.relocator_system_residual(ops, g, gamma, delta, x)
            if resid > 1e-10:
                failures.append(f"{g!r}: system residual {resid:.2e}")
        for gamma in (0.5, 1.0, 2.0):
            x_fix, _ = graphs.fix_point_oracle_affine(ops, g, gamma)
            for delta in GAMMA_GRID:
                y = graphs.graph_relocator_apply(ops, g, gamma, delta, x_fix)
                w, _ = graphs.graph_dr_apply(ops, g, delta, 1.0, y)
                if (y - w).norm() > 1e-8:
                    failures.append(
                        f"{g!r}: transport {gamma}->{delta} residual "
                        f"{(y - w).norm():.2e}")
    report(7, "graph relocator: system residual <= 1e-10 on 100 random x per "
              "graph; fixed-point transport residual <= 1e-8", failures)


def test_criterion_8_lipschitz_bounds():
    rng = np.random.default_rng(8)
    failures = []
    g3 = mt.mt_graph(3)
    bound = graphs.graph_relocator_lipschitz_bound(g3, 1.0, 2.0)
    if abs(bound - 6.526) > 1e-3:
        failures.append(f"hand-derived N=3 bound mismatch: {bound}")
    ops = [random_affine(rng, 2) for _ in range(3)]
    for _ in range(1000):
        u = BlockVector(4.0 * rng.standard_normal((2, 2)))
        v = BlockVector(4.0 * rng.standard_normal((2, 2)))
        qu = graphs.graph_relocator_apply(ops, g3, 1.0, 2.0, u)
        qv = graphs.graph_relocator_apply(ops, g3, 1.0, 2.0, v)
        if (qu - qv).norm() > bound * (u - v).norm():
            failures.append("graph relocator ratio exceeded the bound")
            break
    for n in (3, 5):
        problem = mt.MTProblem(tuple(random_affine(rng, 2) for _ in range(n)),
                               theta=0.5)
        for gamma, delta in ((1.0, 2.0), (2.0, 0.5)):
            bound_mt = mt.mt_lipschitz(n, gamma, delta)
            for _ in range(1000):
                u = BlockVector(4.0 * rng.standard_normal((n - 1, 2)))
                v = BlockVector(4.0 * rng.standard_normal((n - 1, 2)))
                qu = mt.mt_relocator_apply(problem, gamma, delta, u)
                qv = mt.mt_relocator_apply(problem, gamma, delta, v)
                if (qu - qv).norm() > bound_mt * (u - v).norm() + 1e-9:
                    failures.append(f"cheap relocator ratio exceeded bound at N={n}")
                    break
    report(8, "empirical Lipschitz ratios (1000 pairs) never exceed the "
              "derived bounds (graph N=3 bound ~ 6.526)", failures)


def test_criterion_9_change_of_variables():
    rng = np.random.default_rng(9)
    failures = []
    for n in (3, 4):
        for instance in range(10):
            problem = mt.MTProblem(
                tuple(random_affine(rng, 2) for _ in range(n)),
                theta=float(rng.uniform(0.1, 0.9)))
            for _ in range(10):
                x = BlockVector(rng.standard_normal((n - 1, 2)))
                gamma = float(rng.choice((0.5, 1.0, 2.0)))
                rep = mt.mt_vs_graph_equivalence(problem, gamma, x, tol=1e-10)
                if not rep.passed:
                    failures.append(
                        f"N={n} instance {instance}: operator diff "
                        f"{rep.max_operator_diff:.2e}, sweep diff "
                        f"{rep.max_sweep_diff:.2e}")
    report(9, "ring-graph change of variables: half-scaled graph step equals "
              "the MT step and sweeps coincide, to 1e-10", failures)


def test_criterion_10_n_operator_convergence():
    inst = problems.make_problem("affine_consensus",
                                 {"count": 4, "dim": 8, "spread": 2.0}, seed=10)
    problem = mt.MTProblem(tuple(inst.ops), theta=0.5)
    schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
    trace = mt.algorithm2_run(
        problem, schedule, BlockVector.zeros(3, 8),
        StopRule(residual_tol=1e-12, max_iters=5000),
        solution_residual=lambda z: problems.solution_residual(inst, z))
    failures = []
    if trace.iterations > 5000:
        failures.append("exceeded 5000 iterations")
    if trace.extra_scalars["consensus_residual"][-1] > 1e-8:
        failures.append(
            f"consensus residual {trace.extra_scalars['consensus_residual'][-1]:.2e}")
    if trace.solution_residuals[-1] > 1e-6:
        failures.append(f"solution residual {trace.solution_residuals[-1]:.2e}")
    report(10, "variable-stepsize MT on the N=4, d=8 consensus problem: "
               "consensus residual <= 1e-8 and solution residual <= 1e-6 "
               "within 5000 iterations", failures)


def test_criterion_11_schedule_validation():
    rng = np.random.default_rng(11)
    failures = []
    bad = sch.ExplicitList(sch.remark_counterexample_values(8))
    if sch.validate_schedule(bad, horizon=8).accepted:
        failures.append("divergent counterexample accepted")
    const = sch.validate_schedule(sch.Constant(2.0), horizon=100)
    if not (const.accepted and const.pos_increment_sum == 0.0
            and const.abs_increment_sum == 0.0):
        failures.append("constant schedule sums not exact")
    geo = sch.validate_schedule(
        sch.GeometricToLimit(limit=1.0, start=0.5, ratio=0.5), horizon=100)
    if not (geo.accepted and abs(geo.pos_increment_sum - 0.5) <= 1e-12):
        failures.append("geometric schedule sums not exact")
    for _ in range(50):
        values = np.abs(rng.standard_normal(25)) + 0.05
        rep = sch.validate_schedule(sch.ExplicitList(values), horizon=25)
        if not rep.accepted:
            failures.append("positive list rejected")
            continue
        bound = values[0] - rep.inf_estimate + 2.0 * rep.pos_increment_sum
        if rep.abs_increment_sum > bound + 1e-12:
            failures.append("cross-inequality violated")
    report(11, "schedule validation: counterexample rejected, exact sums for "
               "constant/geometric, increment cross-inequality on accepted "
               "prefixes", failures)


def test_criterion_12_negative_controls():
    result = run_selftest(seed=0)
    failures = []
    controls = next(g for g in result.groups if g.name == "negative_controls")
    if not controls.passed:
        failures.extend(controls.failures)
    if not result.passed:
        failures.extend(f"group {g.name} failed" for g in result.groups
                        if not g.passed)
    report(12, "selftest detects the shifted relocator and the sign-flipped "
               "relocation vector (negative controls)", failures)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
