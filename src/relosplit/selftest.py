"""The invariant suite, runnable from the CLI, and the code only it runs.

Each group checks one family of the paper's invariants on sampled data and
reports machine-readable pass/fail. The acceptance criteria
(tests/test_acceptance.py) run these same groups, so the sample counts,
ranges and tolerances fixed here are the acceptance criteria's. The
negative-control group inverts the logic: it injects known defects (a
shifted relocator, a sign-flipped relocation vector) and fails if the
corresponding checks do NOT flag them.

The verification-only functions live here too: the graph algebra of a
splitting graph, the pseudo-inverse graph relocator with its system
residual and Lipschitz bound, the affine fixed-point oracle, the relocator
axiom harness and the ring change-of-variables check. No run executes them.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import dr2, graphs, malitsky_tam as mt, operators, problems, schedules as sch
from .driver import Relocator, StopRule, ambient_flat, ambient_norm, run_relocated
from .errors import ConsistencyError, FixedPointError, InfeasibleError, ParameterError
from .linalg import as_stepsize, kron_apply

GAMMA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

#: Tolerance of the consistency, consensus and fixed-point tests in
#: fix_point_oracle_affine.
ORACLE_TOL = 1e-8

#: Grid size of the continuity check in check_relocator_axioms.
CONTINUITY_POINTS = 60

#: Sampled pairs per (gamma, delta) of the Lipschitz check in
#: check_relocator_axioms.
LIPSCHITZ_SAMPLES = 40


# -- the graph algebra, the pseudo-inverse relocator and the affine oracle ----


#: Bredies, Chenchene & Naldi's graph algebra of a splitting graph, which the
#: analysis reads and no run does (see graph_matrices)
GraphAlgebra = namedtuple("GraphAlgebra", "L R P C M Zdag Zdag_norm outdeg")


def _zdag(z):
    """The pseudo-inverse (Z^T Z)^{-1} Z^T of a tree incidence matrix Z, by a
    solve: Z has full column rank on a tree."""
    return np.linalg.solve(z.T @ z, z.T)


def graph_matrices(g):
    """The GraphAlgebra of g, derived from its tree incidence Z and its arcs.

    L = Z Z^T is the Laplacian of the spanning tree, so its diagonal carries
    the tree degrees, while the sweep uses the degrees d_i in the full graph:
    the only assignment under which the ring specialization (all d_i = 2)
    and L = Z Z^T hold together. R: the skew part of the off-tree coupling;
    P: the chord correction; C^T = [Z^T  I] and M = C C^T; Zdag: the
    pseudo-inverse of Z, and Zdag_norm = 1 / sqrt(lambda_min(Z^T Z)) its
    operator norm; outdeg: the out-degrees.
    """
    z, n = g.matrices.Z, g.n_nodes
    lap, eye = z @ z.T, np.eye(n - 1)
    p = np.zeros((n, n))
    for i, j in set(g.arcs) - set(g.tree_arcs):
        p[i - 1, i - 1] += 1.0
        p[j - 1, j - 1] += 1.0
        p[j - 1, i - 1] = -2.0
    return GraphAlgebra(
        L=lap, R=np.tril(lap, -1) - np.triu(lap, 1), P=p, C=np.vstack([z, eye]),
        M=np.block([[lap, z], [z.T, eye]]), Zdag=_zdag(z),
        Zdag_norm=float(1.0 / np.sqrt(np.linalg.eigvalsh(z.T @ z)[0])),
        outdeg=np.bincount([i for i, _ in g.arcs], minlength=n + 1)[1:])


def graph_relocator_apply(ops, g, gamma, delta, x):
    """Q_{delta<-gamma} x = (delta/gamma) x + (1 - delta/gamma) Zdag e(x).

    e(x) is built from the sweep of x at gamma, so a relocation costs one
    full sweep (N resolvents) unless delta == gamma, where Q is the identity.
    The runners use the one-resolvent relocator of graphs.graph_hooks, which
    agrees with this one on Fix T_gamma. Returns an (N - 1, d) array.
    """
    gamma, delta = as_stepsize(gamma), as_stepsize(delta, "delta")
    x = graphs._check_x(x, ops, g)
    ratio = delta / gamma
    if ratio == 1.0:
        return x.data
    e = graphs.relocation_vector_e(g, graphs.graph_z_sweep(ops, g, gamma, x))
    return ratio * x.data + (1.0 - ratio) * kron_apply(_zdag(g.matrices.Z), e)


def relocator_system_residual(ops, g, gamma, delta, x, y=None):
    """Residual of the relocation system Z y = (delta/gamma) Z x + (1 - delta/gamma) e(x).

    When y is omitted it is computed with graph_relocator_apply; the residual
    then measures how exactly the pseudo-inverse solves the system.
    """
    gamma, delta = as_stepsize(gamma), as_stepsize(delta, "delta")
    x = graphs._check_x(x, ops, g)
    y = (graph_relocator_apply(ops, g, gamma, delta, x) if y is None
         else graphs._check_x(y, ops, g))
    ratio = delta / gamma
    e = graphs.relocation_vector_e(g, graphs.graph_z_sweep(ops, g, gamma, x))
    z_mat = g.matrices.Z
    return ambient_norm(kron_apply(z_mat, y) - ratio * kron_apply(z_mat, x) - (1.0 - ratio) * e)


def graph_relocator_lipschitz_bound(g, gamma, delta):
    """Upper bound on the Lipschitz constant of the graph relocator.

    Uses the sweep recursion L_1 = ||Z row 1||, L_i = 2 sum_{(h,i) in E}
    L_h / d_h + ||Z row i||, then
    delta/gamma + |1 - delta/gamma| * ||Zdag|| * sqrt(sum ((d_i - 2 d_i^+)^2
    / d_i^2) L_i^2).
    """
    gamma, delta = as_stepsize(gamma), as_stepsize(delta, "delta")
    row_norms = np.linalg.norm(g.matrices.Z, axis=1)
    lips = []
    for i in range(1, g.n_nodes + 1):
        acc = row_norms[i - 1]
        for h in (h for (h, j) in g.arcs if j == i):
            acc += 2.0 * lips[h - 1] / g.deg[h - 1]
        lips.append(acc)
    coeff = (g.deg - 2 * g.indeg).astype(float) / g.deg
    radicand = float(np.sum((coeff * np.array(lips)) ** 2))
    ratio = delta / gamma
    return ratio + abs(1.0 - ratio) * graph_matrices(g).Zdag_norm * np.sqrt(radicand)


def fix_point_oracle_affine(ops, g, gamma):
    """A fixed point of T_gamma for affine instances, plus the consensus zero.

    Solves the stacked linear system gamma (M_i z_i + b_i) + ((R + P) z)_i
    = (Z v)_i, Z^T z = 0 in the least-squares sense (minimum-norm member
    when the solution set has positive dimension), returns (x, z_star) with
    x = v and z_star the consensus block, and verifies the fixed-point
    residual via graph_dr_apply. Raises InfeasibleError when the system is
    inconsistent, i.e. the operators have no common zero. x is an
    (N - 1, d) array.
    """
    gamma = as_stepsize(gamma)
    graphs._check_ops(ops, g)
    n = g.n_nodes
    d = ops[0].dim
    parts = [op.affine_parts() for op in ops]
    eye_d = np.eye(d)
    algebra, z_mat = graph_matrices(g), g.matrices.Z

    size = (2 * n - 1) * d
    system = np.zeros((size, size))
    rhs = np.zeros(size)
    system[: n * d, : n * d] = np.kron(algebra.R + algebra.P, eye_d)
    for i, (m_i, b_i) in enumerate(parts):
        system[i * d:(i + 1) * d, i * d:(i + 1) * d] += gamma * m_i
        rhs[i * d:(i + 1) * d] = -gamma * b_i
    system[: n * d, n * d:] = -np.kron(z_mat, eye_d)
    system[n * d:, : n * d] = np.kron(z_mat.T, eye_d)

    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = np.linalg.norm(system @ solution - rhs)
    if residual > ORACLE_TOL * (1.0 + np.linalg.norm(rhs)):
        raise InfeasibleError(
            f"stacked system residual {residual:.3e}: the operators admit no "
            "common zero"
        )

    z_blocks = solution[: n * d].reshape(n, d)
    z_star = z_blocks.mean(axis=0)
    spread = np.max(np.abs(z_blocks - z_star[None, :]))
    if spread > ORACLE_TOL * (1.0 + np.linalg.norm(z_star)):
        raise ConsistencyError(
            f"zero of the stacked system is not consensus (spread {spread:.3e})"
        )

    x = solution[n * d:].reshape(n - 1, d)
    w, _ = graphs.graph_dr_apply(ops, g, gamma, 1.0, x)
    fix_resid = np.linalg.norm(x - w)
    if fix_resid > ORACLE_TOL:
        raise ConsistencyError(
            f"oracle point fails the fixed-point test (residual {fix_resid:.3e})"
        )
    return x, z_star


# -- the relocator axiom harness ---------------------------------------------


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


def check_relocator_axioms(family, relocator, fixed_points, gammas, tol=1e-9, rng=None):
    """Check the four fixed-point relocator axioms on sampled data.

    fixed_points is a list of pairs (gamma, x) with x in Fix T_gamma; each is
    verified against the residual test up front (FixedPointError otherwise).
    The checks performed over the gamma grid are: relocated points are fixed
    points and the reverse relocation inverts (bijection); delta -> Q x has a
    finite difference quotient on a fine grid (continuity); compositions
    collapse (semigroup); and sampled Lipschitz ratios stay within the
    declared bound (up to tol). The points, a BlockVector's included, are
    handled as float arrays, and the family and the relocator must return
    arrays.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    gammas = [float(g) for g in gammas]
    if not gammas or not fixed_points:
        raise ParameterError("need at least one gamma and one fixed point")
    fixed_points = [(g, np.asarray(x, dtype=float)) for g, x in fixed_points]

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
            for _ in range(LIPSCHITZ_SAMPLES):
                base = base_points[rng.integers(len(base_points))]
                u = base + 2.0 * rng.standard_normal(base.shape)
                v = base + 2.0 * rng.standard_normal(base.shape)
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


# -- the ring change of variables --------------------------------------------


@dataclass
class EquivalenceReport:
    """Result of the ring-graph vs MT operator comparison."""

    max_operator_diff: float
    max_sweep_diff: float
    tol: float

    @property
    def passed(self):
        return self.max_operator_diff <= self.tol and self.max_sweep_diff <= self.tol


def mt_vs_graph_equivalence(problem, gamma, x, tol=1e-10):
    """Check the half-scaling equivalence with the ring graph for N >= 3.

    Applying the graph-DR operator at stepsize 2 gamma, relaxation 2 theta
    and iterate 2x, then halving, must reproduce mt_apply; the resolvent
    sweeps must agree without any scaling. For N = 2 compare with the
    two-operator DR step directly instead.
    """
    if problem.n_ops < 3:
        raise ParameterError("the ring comparison needs N >= 3")
    gamma = as_stepsize(gamma)
    x = mt._check_x(problem, x).data
    g = mt.mt_graph(problem.n_ops)
    w_graph, z_graph = graphs.graph_dr_apply(list(problem.ops), g, 2.0 * gamma,
                                             2.0 * problem.theta, 2.0 * x)
    tx, z_mt = mt.mt_apply(problem, gamma, x)
    op_diff = float(np.max(np.abs(0.5 * w_graph - tx)))
    sweep_diff = float(np.max(np.abs(z_graph - z_mt)))
    return EquivalenceReport(max_operator_diff=op_diff, max_sweep_diff=sweep_diff,
                             tol=tol)


# -- sample instances, shared with the tests ---------------------------------


def random_affine(rng, dim):
    """A random monotone affine operator: PSD symmetric part plus skew."""
    root = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    skew = rng.standard_normal((dim, dim))
    return operators.AffineMonotone(root @ root.T + (skew - skew.T),
                                    rng.standard_normal(dim))


def operator_zoo(rng, dim=3):
    """One instance of every catalog kind, including the nested wrappers."""
    inner = operators.NegLog(dim)
    return [
        operators.Zero(dim),
        operators.ScaledIdentity(1.5, dim),
        random_affine(rng, dim),
        operators.NormalConePoint(rng.standard_normal(dim)),
        operators.NormalConeBox(-np.ones(dim), np.ones(dim)),
        operators.NormalConeBall(rng.standard_normal(dim), 1.5),
        operators.NegLog(dim),
        operators.Translated(inner, rng.standard_normal(dim)),
        operators.Scaled(inner, 2.0),
    ]


def chorded_path(n=4):
    """The path spanning tree 1-2-...-n plus the chords (1, 3) and (2, 4)."""
    tree = [(i, i + 1) for i in range(1, n)]
    return graphs.build_graph(n, tree + [(1, 3), (2, 4)], tree)


def _neglog():
    """The 1-D instance's DR problem and its fixed points (gamma, 1 + gamma)
    over GAMMA_GRID: Fix T_gamma = {z + gamma w} = {1 + gamma}, as w = 1 lies
    in the normal cone at z = 1 and -1 = (-ln)'(1)."""
    fixed_points = [(g, np.array([1.0 + g])) for g in GAMMA_GRID]
    return problems.make_problem("indicator_neglog").dr_problem(), fixed_points


class _WaitingGeometric(sch.GeometricToLimit):
    """A geometric schedule that declares no limit: a run on it follows the
    moving stepsize until it settles, never relocating straight to the limit
    (x = 3 on the 1-D instance is on the moving fixed-point curve, so the
    limit relocation would end its run after one step)."""

    limit = None


def _max_gap(xs, ys):
    """The largest distance between paired iterates of two runs started from
    the same array, which hand their iterates back as arrays."""
    return max(ambient_norm(x - y) for x, y in zip(xs, ys))


def _stationary(step, x, count):
    """The first count iterates x, step(x), step(step(x)), ... of a classical method."""
    out = [x]
    while len(out) < count:
        out.append(step(out[-1]))
    return out


# -- the groups --------------------------------------------------------------


@dataclass
class GroupResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, failure):
        """Count one check; record failure, a message, unless ok."""
        self.checks += 1
        if not ok:
            self.failures.append(failure)

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


def resolvent_identities(rng):
    """Every catalog kind, 200 samples at 4 sigma: the scaling identity
    J_b((b/a) x + (1 - b/a) J_a x) = J_a x and firm nonexpansiveness, to 1e-10,
    the unchecked resolvent (check=False), returned or written into a
    row (out=row), equal to the checked one bit for bit, the affine kind's
    factored resolvent against a dense solve of (I + a M) y = x - a b, to
    1e-12 relative, and unchanged by a second call at another stepsize, and
    the kind's stepsize_free declaration: a kind that
    declares it gives J_{2a} x = J_a x bit for bit, and a nested kind reports
    its inner operator's value."""
    result = GroupResult("resolvent_identities")
    for op in operator_zoo(rng):
        for _ in range(200):
            x = 4.0 * rng.standard_normal(op.dim)
            y = 4.0 * rng.standard_normal(op.dim)
            alpha, beta = rng.choice(GAMMA_GRID, size=2)
            jx = op.resolvent(alpha, x)
            result.check(op.resolvent(alpha, x, check=False).tobytes() == jx.tobytes(),
                         f"{op.kind}: the unchecked resolvent differs from the checked one")
            row = np.full(op.dim, np.nan)
            result.check(op.resolvent(alpha, x, check=False, out=row) is row
                         and row.tobytes() == jx.tobytes(),
                         f"{op.kind}: the resolvent written into a row differs from the "
                         "checked one")
            if op.kind == "affine":
                m, b = op.affine_parts()
                dense = np.linalg.solve(np.eye(op.dim) + alpha * m, x - alpha * b)
                err = np.linalg.norm(jx - dense)
                result.check(err <= 1e-12 * np.linalg.norm(dense),
                             f"affine: the factored resolvent is off a dense solve by {err:.2e}")
                # the kind keeps scratch buffers between calls; a result must
                # not be one of them
                kept = jx.tobytes()
                op.resolvent(beta, y)
                result.check(jx.tobytes() == kept,
                             "affine: a second call at another stepsize changed a result")
            inner = getattr(op, "inner", op)
            result.check(op.stepsize_free == inner.stepsize_free
                         and (not op.stepsize_free
                              or op.resolvent(2.0 * alpha, x).tobytes() == jx.tobytes()),
                         f"{op.kind}: declares stepsize_free={op.stepsize_free}, but its "
                         "resolvent reads the stepsize or its inner operator says otherwise")
            moved = (beta / alpha) * x + (1.0 - beta / alpha) * jx
            err = np.linalg.norm(op.resolvent(beta, moved) - jx)
            result.check(err <= 1e-10, f"{op.kind}: scaling identity off by {err:.2e}")
            jy = op.resolvent(alpha, y)
            excess = (np.linalg.norm(jx - jy) ** 2 + np.linalg.norm((x - jx) - (y - jy)) ** 2
                      - np.linalg.norm(x - y) ** 2)
            result.check(excess <= 1e-10,
                         f"{op.kind}: firm nonexpansiveness off by {excess:.2e}")
    return result


def relocator_axioms(rng):
    """DR's relocator on the 1-D instance: it maps 1 + g to 1 + d to 1e-12,
    passes the axiom harness at 1e-9, and 40 sampled pairs per (g, d) on
    [-6, 6] stay within max{1, d/g} + 1e-10."""
    result = GroupResult("relocator_axioms")
    problem, fixed_points = _neglog()
    relocator = dr2.dr_relocator(problem)
    for g in GAMMA_GRID:
        for d in GAMMA_GRID:
            out = relocator.apply(g, d, np.array([1.0 + g]))
            err = abs(out[0] - (1.0 + d))
            result.check(err <= 1e-12, f"Q_({d}<-{g})(1+{g}) off by {err:.2e}")
    harness = check_relocator_axioms(dr2.dr_family(problem), relocator,
                                     fixed_points, GAMMA_GRID, tol=1e-9, rng=rng)
    for axiom in ("bijection", "continuity", "semigroup", "lipschitz"):
        result.check(getattr(harness, f"{axiom}_ok"),
                     f"{axiom} axiom fails: {'; '.join(harness.violations[:2])}")
    for g in GAMMA_GRID:
        for d in GAMMA_GRID:
            bound = max(1.0, d / g)
            for _ in range(40):
                u = rng.uniform(-6.0, 6.0, size=1)
                v = rng.uniform(-6.0, 6.0, size=1)
                gap = abs(relocator.apply(g, d, u)[0] - relocator.apply(g, d, v)[0])
                result.check(gap <= (bound + 1e-10) * abs(u[0] - v[0]),
                             f"Lipschitz ratio at ({d}<-{g}) exceeds {bound}")
    return result


def schedules(rng):
    """Exact increment sums for constant and geometric schedules, the
    divergent counterexample rejected, and the cross-inequality
    sum |increments| <= g_0 - inf g + 2 sum positive increments on a
    summable list and on 50 random positive lists."""
    result = GroupResult("schedules")
    const = sch.validate_schedule(sch.Constant(2.0), horizon=100)
    result.check(const.accepted and const.pos_increment_sum == 0.0
                 and const.abs_increment_sum == 0.0, "constant schedule sums not exact")
    geo = sch.validate_schedule(
        sch.GeometricToLimit(limit=1.0, start=0.5, ratio=0.5), horizon=100)
    result.check(geo.accepted and abs(geo.pos_increment_sum - 0.5) <= 1e-12,
                 "geometric schedule sums not exact")
    bad = sch.ExplicitList(sch.remark_counterexample_values(8))
    result.check(not sch.validate_schedule(bad, horizon=8).accepted,
                 "divergent counterexample accepted")
    lists = [[1.0 + 0.5 ** n for n in range(20)]]
    lists += [np.abs(rng.standard_normal(25)) + 0.05 for _ in range(50)]
    for values in lists:
        rep = sch.validate_schedule(sch.ExplicitList(values), horizon=len(values))
        bound = values[0] - rep.inf_estimate + 2.0 * rep.pos_increment_sum
        result.check(rep.accepted and rep.abs_increment_sum <= bound + 1e-12,
                     "positive list rejected or cross-inequality violated")
    return result


def graph_algebra(rng):
    """On the rings N = 3..6 and the chorded path, the graph_matrices of
    the graph: L = Z Z^T, M = C C^T, R skew and Z^T 1 = 0 to 1e-12,
    Zdag Z = I to 1e-10, and the degree identities (sum d_i = 2|E|, in- and
    out-degrees sum to |E|, node 1 a source). L and M are held to their
    definitions, L the tree's degree matrix minus its adjacency matrix, both
    read from the tree's arcs, and M = [[L, Z], [Z^T, I]], so a wrong
    incidence matrix Z fails them."""
    result = GroupResult("graph_algebra")
    for g in [mt.mt_graph(n) for n in (3, 4, 5, 6)] + [chorded_path()]:
        z, m = g.matrices.Z, graph_matrices(g)
        n = g.n_nodes
        lap = np.diag(np.bincount(np.ravel(g.tree_arcs), minlength=n + 1)[1:].astype(float))
        for i, j in g.tree_arcs:
            lap[i - 1, j - 1] = lap[j - 1, i - 1] = -1.0
        blocks = np.block([[lap, z], [z.T, np.eye(n - 1)]])
        identities = {
            "L=ZZ^T": (np.max(np.abs(m.L - lap)), 1e-12),
            "M=CC^T": (np.max(np.abs([m.M - blocks, m.C @ m.C.T - blocks])), 1e-12),
            "R skew": (np.max(np.abs(m.R + m.R.T)), 1e-12),
            "Z^T 1=0": (np.max(np.abs(z.T @ np.ones(n))), 1e-12),
            "Zdag Z=I": (np.max(np.abs(m.Zdag @ z - np.eye(n - 1))), 1e-10),
        }
        for label, (err, tol) in identities.items():
            result.check(err <= tol, f"{g!r} {label}: {err:.2e}")
        arcs = len(g.arcs)
        result.check(int(g.deg.sum()) == 2 * arcs, f"{g!r}: sum d_i != 2|E|")
        result.check(int(g.indeg.sum()) == arcs and int(m.outdeg.sum()) == arcs,
                     f"{g!r}: in/out degree sums != |E|")
        result.check(g.indeg[0] == 0, f"{g!r}: node 1 has incoming arcs")
    return result


def graph_relocator(rng):
    """The pseudo-inverse relocator on the rings N = 3, 4 and the chorded
    path: relocation-system residual <= 1e-10 at 100 random x (3 sigma) per
    graph, and fixed points of T_g, g in {0.5, 1, 2}, transported onto
    Fix T_d to 1e-8."""
    result = GroupResult("graph_relocator")
    for g in (mt.mt_graph(3), mt.mt_graph(4), chorded_path()):
        ops = [random_affine(rng, 2) for _ in range(g.n_nodes)]
        for _ in range(100):
            x = 3.0 * rng.standard_normal((g.n_nodes - 1, 2))
            gamma, delta = rng.choice(GAMMA_GRID, size=2)
            resid = relocator_system_residual(ops, g, gamma, delta, x)
            result.check(resid <= 1e-10, f"{g!r}: system residual {resid:.2e}")
        for gamma in (0.5, 1.0, 2.0):
            x_fix, _ = fix_point_oracle_affine(ops, g, gamma)
            for delta in GAMMA_GRID:
                y = graph_relocator_apply(ops, g, gamma, delta, x_fix)
                w, _ = graphs.graph_dr_apply(ops, g, delta, 1.0, y)
                gap = np.linalg.norm(y - w)
                result.check(gap <= 1e-8,
                             f"{g!r}: transport {gamma}->{delta} residual {gap:.2e}")
    return result


def lipschitz_bounds(rng):
    """The graph relocator's derived bound (6.526 on the 3-ring at 1 -> 2)
    and MT's max{1, r} + (N - 2)|1 - r| against 1000 sampled pairs at
    4 sigma per stepsize pair."""
    result = GroupResult("lipschitz_bounds")
    g3 = mt.mt_graph(3)
    bound = graph_relocator_lipschitz_bound(g3, 1.0, 2.0)
    result.check(abs(bound - 6.526) <= 1e-3, f"hand-derived N=3 bound mismatch: {bound}")
    ops = [random_affine(rng, 2) for _ in range(3)]
    for gamma, delta in ((1.0, 2.0), (2.0, 1.0), (0.5, 2.0)):
        bound = graph_relocator_lipschitz_bound(g3, gamma, delta)
        for _ in range(1000):
            u = 4.0 * rng.standard_normal((2, 2))
            v = 4.0 * rng.standard_normal((2, 2))
            gap = np.linalg.norm(graph_relocator_apply(ops, g3, gamma, delta, u)
                                 - graph_relocator_apply(ops, g3, gamma, delta, v))
            result.check(gap <= bound * np.linalg.norm(u - v),
                         f"graph relocator ratio exceeds its bound at {gamma}->{delta}")
    for n in (3, 5):
        relocator = mt.mt_relocator(
            mt.MTProblem(tuple(random_affine(rng, 2) for _ in range(n)), theta=0.5))
        for gamma, delta in ((1.0, 2.0), (2.0, 0.5)):
            bound = relocator.lipschitz_bound(gamma, delta)
            for _ in range(1000):
                u = 4.0 * rng.standard_normal((n - 1, 2))
                v = 4.0 * rng.standard_normal((n - 1, 2))
                gap = np.linalg.norm(relocator.apply(gamma, delta, u)
                                     - relocator.apply(gamma, delta, v))
                result.check(gap <= bound * np.linalg.norm(u - v) + 1e-9,
                             f"cheap relocator ratio exceeds its bound at N={n}, "
                             f"{gamma}->{delta}")
    return result


def equivalences(rng):
    """Constant-stepsize runs equal classical DR and MT over 100 iterations,
    and the efficient runners the naive relocated iteration, per iterate to
    1e-12; the ring change of variables (10 instances x 10 points per
    N = 3, 4, theta ~ U(0.1, 0.9)) holds to 1e-10."""
    result = GroupResult("equivalences")
    problem, _ = _neglog()
    x0 = np.array([3.0])
    trace = dr2.algorithm1_run(problem, sch.Constant(1.0), x0,
                               StopRule(residual_tol=1e-16, max_iters=100))
    classical = _stationary(lambda x: dr2.dr_apply(problem, 1.0, x)[0], x0, len(trace.iterates))
    gap = _max_gap(trace.iterates, classical)
    result.check(gap <= 1e-12, f"constant-stepsize DR off classical DR by {gap:.2e}")
    problem_mt = mt.MTProblem(tuple(random_affine(rng, 2) for _ in range(4)), theta=0.5)
    x0_mt = rng.standard_normal((3, 2))
    trace = mt.algorithm2_run(problem_mt, sch.Constant(1.0), x0_mt,
                              StopRule(residual_tol=1e-16, max_iters=100))
    classical = _stationary(lambda x: mt.mt_apply(problem_mt, 1.0, x)[0], x0_mt,
                            len(trace.iterates))
    gap = _max_gap(trace.iterates, classical)
    result.check(gap <= 1e-12, f"constant-stepsize MT off classical MT by {gap:.2e}")

    schedule = _WaitingGeometric(limit=1.0, start=2.0, ratio=0.5)
    stop = StopRule(residual_tol=1e-14, max_iters=60)
    efficient = dr2.algorithm1_run(problem, schedule, x0, stop)
    naive = run_relocated(dr2.dr_family(problem), dr2.dr_relocator(problem),
                          schedule, x0, stop)
    gap = _max_gap(efficient.iterates, naive.iterates)
    result.check(gap <= 1e-12, f"relocated DR naive/efficient mismatch {gap:.2e}")
    for n in (4, 5):
        problem_mt = mt.MTProblem(tuple(random_affine(rng, 2) for _ in range(n)), theta=0.5)
        x0_mt = rng.standard_normal((n - 1, 2))
        efficient = mt.algorithm2_run(problem_mt, schedule, x0_mt, stop)
        naive = run_relocated(mt.mt_family(problem_mt), mt.mt_relocator(problem_mt),
                              schedule, x0_mt, stop)
        gap = _max_gap(efficient.iterates, naive.iterates)
        result.check(gap <= 1e-12, f"MT naive/efficient mismatch {gap:.2e} at N={n}")

    for n in (3, 4):
        for instance in range(10):
            problem_n = mt.MTProblem(tuple(random_affine(rng, 2) for _ in range(n)),
                                     theta=float(rng.uniform(0.1, 0.9)))
            for _ in range(10):
                x = rng.standard_normal((n - 1, 2))
                gamma = float(rng.choice((0.5, 0.8, 1.0, 2.0)))
                rep = mt_vs_graph_equivalence(problem_n, gamma, x, tol=1e-10)
                result.check(rep.passed, f"N={n} instance {instance}: operator diff "
                                         f"{rep.max_operator_diff:.2e}, sweep diff "
                                         f"{rep.max_sweep_diff:.2e}")
    return result


def convergence(rng):
    """Relocated DR on the 1-D instance, following the moving stepsize from
    x = 3, reaches x = 2, z = 1 (1e-6) within 500 iterations; from the same
    start, on the moving fixed-point curve, a schedule that declares its
    limit 1 relocates straight there, landing on Fix T_1 = {2} (1e-12) and
    ending converged; variable-stepsize MT on a random N = 4, d = 8 consensus
    problem, run to 1e-12, ends within 5000 iterations at consensus residual
    <= 1e-8 and solution residual <= 1e-6."""
    result = GroupResult("convergence")
    problem, _ = _neglog()
    stop = StopRule(residual_tol=1e-10, max_iters=500)
    trace = dr2.algorithm1_run(problem, _WaitingGeometric(limit=1.0, start=2.0, ratio=0.5),
                               np.array([3.0]), stop)
    result.check(trace.status == "converged"
                 and abs(trace.iterates[-1][0] - 2.0) <= 1e-6
                 and abs(trace.points[-1][0] - 1.0) <= 1e-6,
                 f"1-D instance ended {trace.status} at x={trace.iterates[-1][0]}")
    schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
    trace = dr2.algorithm1_run(problem, schedule, np.array([3.0]), stop)
    jump = trace.relocated_to_limit_at
    result.check(trace.status == "converged" and jump is not None
                 and trace.gammas[jump + 1] == schedule.limit
                 and abs(trace.iterates[jump + 1][0] - 2.0) <= 1e-12,
                 f"the relocation to the limit {schedule.limit} did not land on "
                 f"Fix T = {{2}} (relocated at row {jump}, ended {trace.status})")

    inst = problems.make_problem("affine_consensus", {"count": 4, "dim": 8, "spread": 2.0},
                                 seed=int(rng.integers(2 ** 32)))
    trace = mt.algorithm2_run(
        mt.MTProblem(tuple(inst.ops), theta=0.5), schedule, np.zeros((3, 8)),
        StopRule(residual_tol=1e-12, max_iters=5000),
        solution_residual=lambda z: problems.solution_residual(inst, z))
    consensus = trace.extra_scalars["consensus_residual"][-1]
    solution = trace.solution_residuals[-1]
    result.check(consensus <= 1e-8 and solution <= 1e-6,
                 f"consensus run ended at consensus residual {consensus:.2e}, "
                 f"solution residual {solution:.2e}")
    return result


def negative_controls(rng):
    """Planted defects must be caught: the axiom harness flags a relocator
    shifted by 0.1, and the relocation-system check flags a sign-flipped
    relocation vector."""
    result = GroupResult("negative_controls")
    problem, fixed_points = _neglog()
    relocator = dr2.dr_relocator(problem)
    broken = Relocator(lambda g, d, x: relocator.apply(g, d, x) + 0.1,
                       relocator.lipschitz_bound, name="shifted")
    report = check_relocator_axioms(dr2.dr_family(problem), broken, fixed_points,
                                    GAMMA_GRID, tol=1e-9, rng=rng)
    result.check(not (report.bijection_ok or report.semigroup_ok),
                 "shifted relocator was NOT flagged by the axiom harness")

    g = mt.mt_graph(3)
    ops = [random_affine(rng, 2) for _ in range(3)]
    x = rng.standard_normal((2, 2))
    gamma, delta = 1.0, 2.0
    e = graphs.relocation_vector_e(g, graphs.graph_z_sweep(ops, g, gamma, x))
    flipped = (delta / gamma) * x + (1.0 - delta / gamma) * kron_apply(
        _zdag(g.matrices.Z), -1.0 * e)
    resid = relocator_system_residual(ops, g, gamma, delta, x, y=flipped)
    result.check(resid > 1e-10, "sign-flipped relocation vector passed the system check")
    return result


#: The suite, in report order. run_selftest hands each group its own
#: generator, seeded alike, so a group's samples do not depend on the others.
GROUPS = (
    resolvent_identities,
    relocator_axioms,
    schedules,
    graph_algebra,
    graph_relocator,
    lipschitz_bounds,
    equivalences,
    convergence,
    negative_controls,
)


def run_selftest(seed=0):
    """Run every invariant group and return a SelftestReport."""
    return SelftestReport([group(np.random.default_rng(seed)) for group in GROUPS])
