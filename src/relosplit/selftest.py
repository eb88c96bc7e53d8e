"""Built-in invariant suite, runnable from the CLI.

Each group re-verifies one family of identities at reduced sample sizes and
reports machine-readable pass/fail. The negative-control group inverts the
logic: it injects known defects (a shifted relocator, a sign-flipped
relocation vector) and fails if the corresponding checks do NOT flag them.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dr2, graphs, malitsky_tam as mt, operators, problems, schedules
from .driver import Relocator, StopRule, check_relocator_axioms, run_relocated
from .linalg import BlockVector, kron_apply

GAMMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class GroupResult:
    name: str
    checks: int
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        return {
            "name": self.name,
            "checks": self.checks,
            "failures": list(self.failures),
            "passed": self.passed,
        }


@dataclass
class SelftestReport:
    groups: list

    @property
    def passed(self):
        return all(g.passed for g in self.groups)

    def to_dict(self):
        return {"groups": [g.to_dict() for g in self.groups], "passed": self.passed}


def _operator_zoo(rng, dim=3):
    skew = rng.standard_normal((dim, dim))
    skew = skew - skew.T
    root = rng.standard_normal((dim, dim))
    return [
        operators.Zero(dim),
        operators.ScaledIdentity(1.5, dim),
        operators.AffineMonotone(root @ root.T + skew, rng.standard_normal(dim)),
        operators.NormalConePoint(rng.standard_normal(dim)),
        operators.NormalConeBox(-np.ones(dim), np.ones(dim)),
        operators.NormalConeBall(rng.standard_normal(dim), 1.5),
        operators.NegLog(dim),
    ]


def _resolvent_identities(rng):
    checks, failures = 0, []
    for op in _operator_zoo(rng):
        for _ in range(20):
            x = 3.0 * rng.standard_normal(op.dim)
            y = 3.0 * rng.standard_normal(op.dim)
            alpha, beta = rng.choice(GAMMA_GRID, size=2)
            jx = op.resolvent(alpha, x)
            relocated = (beta / alpha) * x + (1.0 - beta / alpha) * jx
            checks += 1
            if np.linalg.norm(op.resolvent(beta, relocated) - jx) > 1e-10:
                failures.append(f"scaling identity fails for {op!r}")
            jy = op.resolvent(alpha, y)
            lhs = (np.linalg.norm(jx - jy) ** 2
                   + np.linalg.norm((x - jx) - (y - jy)) ** 2)
            checks += 1
            if lhs > np.linalg.norm(x - y) ** 2 + 1e-10:
                failures.append(f"firm nonexpansiveness fails for {op!r}")
    return GroupResult("resolvent_identities", checks, failures)


def _relocator_axioms(rng):
    checks, failures = 0, []
    inst = problems.make_problem("indicator_neglog")
    problem = inst.dr_problem()
    cert = inst.dr_certificate
    fixed_points = [(g, dr2.dr_fixed_point(cert, g)) for g in GAMMA_GRID]
    report = check_relocator_axioms(
        dr2.dr_family(problem), dr2.dr_relocator(problem), fixed_points,
        GAMMA_GRID, tol=1e-9, rng=rng, lipschitz_samples=20,
    )
    checks += 4
    if not report.passed:
        failures.extend(report.violations[:4] or ["relocator axiom failure"])
    for g in GAMMA_GRID:
        for d in GAMMA_GRID:
            checks += 1
            moved = dr2.dr_relocator_apply(problem.op_a, g, d, np.array([1.0 + g]))
            if abs(moved[0] - (1.0 + d)) > 1e-12:
                failures.append(f"Q_({d}<-{g})(1+{g}) != 1+{d}")
    return GroupResult("relocator_axioms", checks, failures)


def _schedule_checks(rng):
    checks, failures = 0, []
    report = schedules.validate_schedule(schedules.Constant(2.0), horizon=100)
    checks += 1
    if not (report.accepted and report.pos_increment_sum == 0.0):
        failures.append("constant schedule not accepted cleanly")
    report = schedules.validate_schedule(
        schedules.GeometricToLimit(limit=1.0, start=0.5, ratio=0.5), horizon=100)
    checks += 1
    if not (report.accepted and abs(report.pos_increment_sum - 0.5) < 1e-12):
        failures.append("increasing geometric schedule mis-audited")
    bad = schedules.ExplicitList(schedules.remark_counterexample_values(8))
    report = schedules.validate_schedule(bad, horizon=8)
    checks += 1
    if report.accepted:
        failures.append("divergent counterexample list was accepted")
    good_vals = [1.0 + 0.5 ** n for n in range(20)]
    report = schedules.validate_schedule(schedules.ExplicitList(good_vals), horizon=20)
    checks += 1
    gamma_low = min(good_vals)
    bound = good_vals[0] - gamma_low + 2.0 * report.pos_increment_sum
    if not (report.accepted and report.abs_increment_sum <= bound + 1e-12):
        failures.append("increment cross-inequality violated on accepted list")
    return GroupResult("schedules", checks, failures)


def _chorded_path_graph():
    tree = [(1, 2), (2, 3), (3, 4)]
    return graphs.build_graph(4, tree + [(1, 3), (2, 4)], tree)


def _graph_algebra(rng):
    checks, failures = 0, []
    graph_list = [mt.mt_graph(n) for n in (3, 4, 5, 6)] + [_chorded_path_graph()]
    for g in graph_list:
        m = g.matrices
        n = g.n_nodes
        identities = {
            "L=ZZ^T": np.max(np.abs(m.L - m.Z @ m.Z.T)),
            "M=CC^T": np.max(np.abs(m.M - m.C @ m.C.T)),
            "R skew": np.max(np.abs(m.R + m.R.T)),
            "Z^T 1": np.max(np.abs(m.Z.T @ np.ones(n))),
            "Zdag Z = I": np.max(np.abs(m.Zdag @ m.Z - np.eye(n - 1))),
        }
        for label, err in identities.items():
            tol = 1e-10 if label == "Zdag Z = I" else 1e-12
            checks += 1
            if err > tol:
                failures.append(f"{g!r}: {label} off by {err:.2e}")
        checks += 1
        if int(g.deg.sum()) != 2 * len(g.arcs) or int(g.indeg.sum()) != len(g.arcs):
            failures.append(f"{g!r}: degree identities violated")
    return GroupResult("graph_algebra", checks, failures)


def _graph_relocator(rng):
    checks, failures = 0, []
    for g in (mt.mt_graph(3), _chorded_path_graph()):
        n, d = g.n_nodes, 2
        ops = [_random_affine(rng, d) for _ in range(n)]
        for _ in range(20):
            x = BlockVector(rng.standard_normal((n - 1, d)))
            gamma, delta = rng.choice(GAMMA_GRID, size=2)
            resid = graphs.relocator_system_residual(ops, g, gamma, delta, x)
            checks += 1
            if resid > 1e-10:
                failures.append(f"system residual {resid:.2e} on {g!r}")
        x_fix, _ = graphs.fix_point_oracle_affine(ops, g, 1.0)
        for delta in GAMMA_GRID:
            y = graphs.graph_relocator_apply(ops, g, 1.0, delta, x_fix)
            w, _ = graphs.graph_dr_apply(ops, g, delta, 1.0, y)
            checks += 1
            if (y - w).norm() > 1e-8:
                failures.append(f"transported point not fixed at delta={delta}")
    return GroupResult("graph_relocator", checks, failures)


def _random_affine(rng, dim):
    root = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    skew = rng.standard_normal((dim, dim))
    return operators.AffineMonotone(root @ root.T + (skew - skew.T),
                                    rng.standard_normal(dim))


def _lipschitz_bounds(rng):
    checks, failures = 0, []
    g = mt.mt_graph(3)
    d = 2
    ops = [_random_affine(rng, d) for _ in range(3)]
    for (gamma, delta) in ((1.0, 2.0), (2.0, 1.0), (0.5, 2.0)):
        bound = graphs.graph_relocator_lipschitz_bound(g, gamma, delta)
        for _ in range(100):
            u = BlockVector(3.0 * rng.standard_normal((2, d)))
            v = BlockVector(3.0 * rng.standard_normal((2, d)))
            denom = (u - v).norm()
            if denom == 0.0:
                continue
            qu = graphs.graph_relocator_apply(ops, g, gamma, delta, u)
            qv = graphs.graph_relocator_apply(ops, g, gamma, delta, v)
            checks += 1
            if (qu - qv).norm() / denom > bound + 1e-9:
                failures.append(f"graph relocator ratio exceeds bound at {gamma}->{delta}")
    problem = mt.MTProblem(tuple(ops), theta=0.5)
    for (gamma, delta) in ((1.0, 2.0), (2.0, 0.5)):
        bound = mt.mt_lipschitz(3, gamma, delta)
        for _ in range(100):
            u = BlockVector(3.0 * rng.standard_normal((2, d)))
            v = BlockVector(3.0 * rng.standard_normal((2, d)))
            denom = (u - v).norm()
            if denom == 0.0:
                continue
            qu = mt.mt_relocator_apply(problem, gamma, delta, u)
            qv = mt.mt_relocator_apply(problem, gamma, delta, v)
            checks += 1
            if (qu - qv).norm() / denom > bound + 1e-9:
                failures.append(f"cheap relocator ratio exceeds bound at {gamma}->{delta}")
    return GroupResult("lipschitz_bounds", checks, failures)


def _equivalences(rng):
    checks, failures = 0, []
    inst = problems.make_problem("indicator_neglog")
    problem = inst.dr_problem()
    schedule = schedules.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
    stop = StopRule(residual_tol=1e-14, max_iters=60)
    efficient = dr2.algorithm1_run(problem, schedule, np.array([3.0]), stop)
    naive = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                          schedule, np.array([3.0]), stop)
    checks += 1
    diff = max(float(np.linalg.norm(a - b))
               for a, b in zip(efficient.iterates, naive.iterates))
    if diff > 1e-12:
        failures.append(f"relocated DR naive/efficient mismatch {diff:.2e}")

    d = 2
    ops = tuple(_random_affine(rng, d) for _ in range(4))
    problem_mt = mt.MTProblem(ops, theta=0.5)
    x0 = BlockVector(rng.standard_normal((3, d)))
    stop = StopRule(residual_tol=1e-14, max_iters=40)
    eff = mt.algorithm2_run(problem_mt, schedule, x0, stop)
    nai = run_relocated(mt.mt_family(problem_mt), mt.mt_relocator(problem_mt),
                        schedule, x0, stop)
    checks += 1
    diff = max((a - b).norm() for a, b in zip(eff.iterates, nai.iterates))
    if diff > 1e-12:
        failures.append(f"MT naive/efficient mismatch {diff:.2e}")

    for n in (3, 4):
        ops_n = tuple(_random_affine(rng, d) for _ in range(n))
        problem_n = mt.MTProblem(ops_n, theta=0.4)
        for _ in range(5):
            x = BlockVector(rng.standard_normal((n - 1, d)))
            report = mt.mt_vs_graph_equivalence(problem_n, 0.8, x)
            checks += 1
            if not report.passed:
                failures.append(f"ring change-of-variables mismatch at N={n}")
    return GroupResult("equivalences", checks, failures)


def _convergence(rng):
    checks, failures = 0, []
    inst = problems.make_problem("indicator_neglog")
    schedule = schedules.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
    trace = dr2.algorithm1_run(inst.dr_problem(), schedule, np.array([3.0]),
                               StopRule(residual_tol=1e-10, max_iters=500))
    checks += 1
    if not (trace.status == "converged"
            and abs(trace.iterates[-1][0] - 2.0) <= 1e-6
            and abs(trace.points[-1][0] - 1.0) <= 1e-6):
        failures.append("1-D instance did not reach its fixed point")

    inst = problems.make_problem("affine_consensus",
                                 {"count": 4, "dim": 3, "spread": 2.0}, seed=11)
    problem_mt = mt.MTProblem(tuple(inst.ops), theta=0.5)
    trace = mt.algorithm2_run(
        problem_mt, schedule, BlockVector.zeros(3, 3),
        StopRule(residual_tol=1e-10, max_iters=2000),
        solution_residual=lambda z: problems.solution_residual(inst, z),
    )
    checks += 1
    if not (trace.extra_scalars["consensus_residual"][-1] <= 1e-8
            and trace.solution_residuals[-1] <= 1e-6):
        failures.append("consensus run missed its residual targets")
    return GroupResult("convergence", checks, failures)


def _negative_controls(rng):
    checks, failures = 0, []
    inst = problems.make_problem("indicator_neglog")
    problem = inst.dr_problem()
    cert = inst.dr_certificate
    fixed_points = [(g, dr2.dr_fixed_point(cert, g)) for g in GAMMA_GRID]
    broken = Relocator(
        lambda g, d, x: dr2.dr_relocator_apply(problem.op_a, g, d, x) + 0.1,
        dr2.dr_lipschitz,
        name="shifted",
    )
    report = check_relocator_axioms(
        dr2.dr_family(problem), broken, fixed_points, GAMMA_GRID,
        tol=1e-9, rng=rng, lipschitz_samples=5,
    )
    checks += 1
    if report.bijection_ok or report.semigroup_ok:
        failures.append("shifted relocator was NOT flagged by the axiom harness")

    g = mt.mt_graph(3)
    ops = [_random_affine(rng, 2) for _ in range(3)]
    x = BlockVector(rng.standard_normal((2, 2)))
    gamma, delta = 1.0, 2.0
    z = graphs.graph_z_sweep(ops, g, gamma, x)
    e = graphs.relocation_vector_e(g, z)
    flipped = (delta / gamma) * x + (1.0 - delta / gamma) * kron_apply(
        g.matrices.Zdag, -1.0 * e)
    resid = graphs.relocator_system_residual(ops, g, gamma, delta, x, y=flipped)
    checks += 1
    if resid <= 1e-10:
        failures.append("sign-flipped relocation vector passed the system check")
    return GroupResult("negative_controls", checks, failures)


_GROUPS = (
    _resolvent_identities,
    _relocator_axioms,
    _schedule_checks,
    _graph_algebra,
    _graph_relocator,
    _lipschitz_bounds,
    _equivalences,
    _convergence,
    _negative_controls,
)


def run_selftest(seed=0):
    """Run every invariant group and return a SelftestReport."""
    results = []
    for group in _GROUPS:
        rng = np.random.default_rng(seed)
        results.append(group(rng))
    return SelftestReport(groups=results)
