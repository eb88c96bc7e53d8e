import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import GAMMA_GRID, Case, random_affine, run as run_case
from relosplit import graphs, linalg, problems, schedules as sch, selftest
from relosplit.dr2 import dr_relocator_apply
from relosplit.driver import StopRule
from relosplit.errors import (
    ConstructionError,
    DimensionError,
    InfeasibleError,
    ParameterError,
)
from relosplit.linalg import BlockVector
from relosplit.malitsky_tam import (
    MTProblem,
    algorithm2_run,
    mt_family,
    mt_graph,
    mt_relocator_apply,
)
from relosplit.operators import (
    AffineMonotone,
    CountingOperator,
    NegLog,
    NormalConeBall,
    NormalConeBox,
    NormalConePoint,
    Scaled,
    Translated,
    Zero,
)
from relosplit.selftest import (
    check_relocator_axioms,
    chorded_path,
    fix_point_oracle_affine,
    graph_relocator_apply,
    graph_relocator_lipschitz_bound,
    relocator_system_residual,
)


def affine_ops(rng, g, dim=2):
    return [random_affine(rng, dim) for _ in range(g.n_nodes)]


class TestBuildGraph:
    def test_mt_degrees(self):
        g = graphs.build_graph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3)])
        assert list(g.deg) == [2, 2, 2]
        assert list(g.indeg) == [0, 1, 2]
        assert list(g.outdeg) == [2, 1, 0]
        assert list(g.tree_deg) == [1, 2, 1]
        assert list(g.chord_deg) == [1, 0, 1]

    def test_tree_not_spanning(self):
        with pytest.raises(ConstructionError, match="spanning|N-1"):
            graphs.build_graph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2)])

    def test_backward_arc(self):
        with pytest.raises(ConstructionError, match="ordering"):
            graphs.build_graph(3, [(2, 1), (2, 3)], [(2, 3)])

    def test_tree_must_be_subset(self):
        with pytest.raises(ConstructionError, match="subset"):
            graphs.build_graph(3, [(1, 2), (2, 3)], [(1, 3), (1, 2)])

    def test_duplicate_arc(self):
        with pytest.raises(ConstructionError, match="duplicate"):
            graphs.build_graph(3, [(1, 2), (1, 2), (2, 3)], [(1, 2), (2, 3)])

    def test_disconnected_tree(self):
        with pytest.raises(ConstructionError):
            graphs.build_graph(4, [(1, 2), (3, 4), (1, 4)], [(1, 2), (3, 4)])

    def test_too_few_nodes(self):
        with pytest.raises(ConstructionError):
            graphs.build_graph(1, [], [])


class TestGraphMatrices:
    def test_mt3_hand_values(self):
        g = mt_graph(3)
        m = g.matrices
        assert np.array_equal(m.Z, [[1, 0], [-1, 1], [0, -1]])
        assert np.array_equal(m.L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.array_equal(m.R, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        assert np.array_equal(m.P, [[1, 0, 0], [0, 0, 0], [-2, 0, 1]])
        expected_zdag = np.array([[2.0, -1.0, -1.0], [1.0, 1.0, -2.0]]) / 3.0
        assert np.max(np.abs(m.Zdag - expected_zdag)) < 1e-14
        assert m.Zdag_norm == pytest.approx(1.0)

    def test_identities_across_graphs(self):
        for g in [mt_graph(n) for n in (3, 4, 5, 6)] + [chorded_path()]:
            m = g.matrices
            n = g.n_nodes
            assert np.max(np.abs(m.L - m.Z @ m.Z.T)) <= 1e-12
            assert np.max(np.abs(m.M - m.C @ m.C.T)) <= 1e-12
            assert np.max(np.abs(m.R + m.R.T)) <= 1e-12
            assert np.max(np.abs(m.Z.T @ np.ones(n))) <= 1e-12
            assert np.max(np.abs(m.Zdag @ m.Z - np.eye(n - 1))) <= 1e-10
            assert int(g.deg.sum()) == 2 * len(g.arcs)
            assert int(g.indeg[1:].sum()) == len(g.arcs)
            assert int(g.outdeg[:-1].sum()) == len(g.arcs)

    def test_graph_algebra_catches_a_miswired_incidence_matrix(self, monkeypatch):
        build = graphs._build_matrices

        def miswired(g):
            # the first tree arc leaves its head for another node, and L, M
            # and C are formed from that Z as _build_matrices forms them
            m = build(g)
            z = m.Z.copy()
            i, j = g.tree_arcs[0]
            z[j - 1, 0] = 0.0
            z[next(v for v in range(g.n_nodes) if v not in (i - 1, j - 1)), 0] = -1.0
            lap = z @ z.T
            return dataclasses.replace(
                m, Z=z, L=lap, C=np.vstack([z, np.eye(g.n_nodes - 1)]),
                M=np.block([[lap, z], [z.T, np.eye(g.n_nodes - 1)]]))

        monkeypatch.setattr(graphs, "_build_matrices", miswired)
        failures = selftest.graph_algebra(np.random.default_rng(6)).failures
        for label in ("L=ZZ^T", "M=CC^T"):
            assert sum(label in failure for failure in failures) == 5


class TestGraphDRApply:
    def test_zero_ops_hand_sweep(self):
        g = mt_graph(3)
        ops = [Zero(1)] * 3
        w, z = graphs.graph_dr_apply(ops, g, 1.0, 1.0, BlockVector([[2.0], [0.0]]))
        assert z.allclose(BlockVector([[1.0], [0.0], [1.0]]))
        assert w.allclose(BlockVector([[1.0], [1.0]]))

    def test_consensus_is_fixed(self):
        g = mt_graph(3)
        ops = [Zero(1)] * 3
        x = BlockVector([[1.0], [1.0]])
        w, z = graphs.graph_dr_apply(ops, g, 1.0, 1.0, x)
        assert z.allclose(BlockVector([[0.5], [0.5], [0.5]]))
        assert w.allclose(x)

    def test_normal_cone_point_everything_fixed(self, rng):
        g = mt_graph(4)
        p = rng.standard_normal(2)
        ops = [NormalConePoint(p)] * 4
        x = BlockVector(rng.standard_normal((3, 2)))
        w, z = graphs.graph_dr_apply(ops, g, 1.7, 0.9, x)
        for block in z:
            assert np.allclose(block, p)
        assert w.allclose(x, tol=1e-12)

    def test_theta_range(self):
        g = mt_graph(3)
        with pytest.raises(ParameterError):
            graphs.graph_dr_apply([Zero(1)] * 3, g, 1.0, 2.0, BlockVector([[0.0], [0.0]]))

    def test_averagedness(self, rng):
        # theta/2-averaged: ||Tu-Tv||^2 + ((1-a)/a)||(I-T)u-(I-T)v||^2 <= ||u-v||^2
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        for theta in (0.5, 1.0, 1.5):
            alpha = theta / 2.0
            for _ in range(30):
                u = BlockVector(3.0 * rng.standard_normal((2, 2)))
                v = BlockVector(3.0 * rng.standard_normal((2, 2)))
                tu, _ = graphs.graph_dr_apply(ops, g, 1.3, theta, u)
                tv, _ = graphs.graph_dr_apply(ops, g, 1.3, theta, v)
                lhs = (tu - tv).norm() ** 2 + ((1 - alpha) / alpha) * (
                    (u - tu) - (v - tv)).norm() ** 2
                assert lhs <= (u - v).norm() ** 2 + 1e-9


class TestRelocationVector:
    def test_hand_values(self):
        g = mt_graph(3)
        e = graphs.relocation_vector_e(g, BlockVector([[0.5], [0.5], [0.5]]))
        assert e.allclose(BlockVector([[1.0], [0.0], [-1.0]]))

    def test_zero(self):
        g = mt_graph(3)
        e = graphs.relocation_vector_e(g, BlockVector.zeros(3, 2))
        assert e.norm() == 0.0

    def test_blocks_sum_to_zero(self, rng):
        for g in (mt_graph(4), chorded_path()):
            z = BlockVector(rng.standard_normal((g.n_nodes, 3)))
            e = graphs.relocation_vector_e(g, z)
            assert np.max(np.abs(e.data.sum(axis=0))) <= 1e-12


class TestGraphRelocator:
    def test_identity_when_equal(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        x = BlockVector(rng.standard_normal((2, 2)))
        assert graph_relocator_apply(ops, g, 1.3, 1.3, x).allclose(x)

    def test_zero_ops_fixed_point(self):
        # consensus x = ((1),(1)) stays put: Zdag e = ((1),(1))
        g = mt_graph(3)
        ops = [Zero(1)] * 3
        x = BlockVector([[1.0], [1.0]])
        for delta in (0.5, 2.0, 4.0):
            y = graph_relocator_apply(ops, g, 1.0, delta, x)
            assert y.allclose(x, tol=1e-12)

    def test_system_residual_random(self, rng):
        for g in (mt_graph(3), mt_graph(5), chorded_path()):
            ops = affine_ops(rng, g)
            for _ in range(100):
                x = BlockVector(3.0 * rng.standard_normal((g.n_nodes - 1, 2)))
                gamma, delta = rng.choice(GAMMA_GRID, size=2)
                resid = relocator_system_residual(ops, g, gamma, delta, x)
                assert resid <= 1e-10

    def test_fixed_point_transport(self, rng):
        for g in (mt_graph(3), mt_graph(4), chorded_path()):
            ops = affine_ops(rng, g)
            for gamma in (0.5, 1.0, 2.0):
                x_fix, _ = fix_point_oracle_affine(ops, g, gamma)
                for delta in GAMMA_GRID:
                    y = graph_relocator_apply(ops, g, gamma, delta, x_fix)
                    w, _ = graphs.graph_dr_apply(ops, g, delta, 1.0, y)
                    assert (y - w).norm() <= 1e-8

    def test_semigroup_on_fixed_points(self, rng):
        g = mt_graph(4)
        ops = affine_ops(rng, g)
        x_fix, _ = fix_point_oracle_affine(ops, g, 1.0)
        for d in GAMMA_GRID:
            for e in GAMMA_GRID:
                step = graph_relocator_apply(ops, g, 1.0, d, x_fix)
                two_step = graph_relocator_apply(ops, g, d, e, step)
                direct = graph_relocator_apply(ops, g, 1.0, e, x_fix)
                assert (two_step - direct).norm() <= 1e-9


def bench_graph():
    """The chorded 6-node graph of the graph-affine benchmark workload."""
    tree = [(i, i + 1) for i in range(1, 6)]
    return graphs.build_graph(6, tree + [(1, 3), (2, 5), (4, 6)], tree)


def reference_sweep(ops, g, gamma, x, z1=None):
    """The sweep loop as it was before GraphMatrices.sweep_rows, kept as reference.

    It takes the dense row Kz[i] and g.deg.tolist() afresh on every sweep and
    adds node i's share of Kx x after the Kz product; graph_z_sweep forms the
    same input as one product over the stacked [z; Kx x].
    """
    x = x.data
    shares = g.matrices.Kx.dot(x)
    kz = g.matrices.Kz
    z = np.zeros((g.n_nodes, x.shape[1]))
    start = 0
    if z1 is not None:
        z[0], start = z1, 1
    for i, d_i in enumerate(g.deg.tolist()[start:], start):
        z[i] = ops[i].resolvent(gamma / d_i, shares[i] + kz[i].dot(z))
    return z


def signed_zeros(rng, a):
    """A copy of ``a`` with about half its entries replaced by +0 or -0."""
    out = np.array(a, dtype=float)
    mask = rng.random(out.shape) < 0.5
    out[mask] = np.where(rng.random(out.shape) < 0.5, 0.0, -0.0)[mask]
    return out


def reference_step(ops, g, theta, scale, gamma, blocks, z1=None):
    """graph_hooks' step as it was before the unit folds, kept as reference,
    on a (k, d) block array: scale and theta are products. Returns (w, z)."""
    z = graphs.graph_z_sweep(ops, g, scale * gamma, BlockVector(scale * blocks), z1).data
    return blocks - theta * g.matrices.Z.T.dot(z), z


def reference_relocate(ops, g, scale, gamma, delta, blocks):
    """graph_hooks' relocation as it was before the unit folds, kept as
    reference, on a (k, d) block array: u_1 = (s Kx[0]) x and the shift
    (Zdag c / s) z_1 are products. Returns (Q x, z_1, u_1)."""
    u = (scale * g.matrices.Kx[0]).dot(blocks)
    z1 = ops[0].resolvent(scale * gamma / float(g.deg[0]), u)
    ratio = delta / gamma
    if ratio == 1.0:
        return blocks, z1, u
    column = (g.matrices.Zdag_c / scale)[:, None]
    return ratio * blocks + (1.0 - ratio) * (column * z1), z1, u


def random_graph(rng, n):
    """A random arc-ordered graph on n nodes: a random tree plus random chords."""
    tree = [(int(rng.integers(1, j)), j) for j in range(2, n + 1)]
    chords = [(i, j) for j in range(2, n + 1) for i in range(1, j)
              if (i, j) not in tree and rng.random() < 0.3]
    return graphs.build_graph(n, tree + chords, tree)


class TestSweepRows:
    """graph_z_sweep forms each node's input as one row, built once per graph,
    times one buffer holding z and Kx x."""

    def ring_boxes(self, rng):
        # the ring-box workload's shape: 16 boxes in R^8, swept at scale 2
        g = mt_graph(16)
        centers = rng.standard_normal((16, 8))
        ops = [NormalConeBox(c - rng.uniform(0.05, 1.0, 8), c + rng.uniform(0.05, 1.0, 8))
               for c in centers]
        return g, ops, float(g.deg[0])

    def cases(self, rng):
        two = graphs.build_graph(2, [(1, 2)], [(1, 2)])
        yield self.ring_boxes(rng)
        yield two, affine_ops(rng, two, dim=3), 1.0
        # boxes around 0: a clip keeps a signed zero of its input
        yield two, [NormalConeBox(-np.ones(3), np.ones(3)) for _ in range(2)], 1.0
        yield bench_graph(), affine_ops(rng, bench_graph(), dim=32), 1.0
        for g in (mt_graph(3), mt_graph(5), chorded_path()):
            for dim in (2, 8, 32):
                yield g, affine_ops(rng, g, dim=dim), 1.0

    def sweeps(self, rng, g, ops, scale):
        """(gamma, x, z1) triples, z1 None or node 1's resolvent as the hooks hand it on,
        and the last pair again with +0 and -0 entries in x and z1."""
        d_1 = float(g.deg[0])
        for gamma in GAMMA_GRID:
            x = BlockVector(scale * 3.0 * rng.standard_normal((g.n_nodes - 1, ops[0].dim)))
            yield scale * gamma, x, None
            z1 = ops[0].resolvent(scale * gamma / d_1, g.matrices.Kx[0].dot(x.data))
            yield scale * gamma, x, z1
            yield scale * gamma, BlockVector(signed_zeros(rng, x.data)), signed_zeros(rng, z1)

    def test_rows_are_degrees_and_kz_rows(self):
        for g in (mt_graph(16), bench_graph()):
            rows = g.matrices.sweep_rows
            n = g.n_nodes
            assert [d for d, _ in rows] == g.deg.tolist()
            for i, (_, row) in enumerate(rows):
                assert row.shape == (2 * n,)
                assert row[:n].tobytes() == g.matrices.Kz[i].tobytes()
                assert row[n:].tobytes() == np.eye(n)[i].tobytes()

    def test_bit_identical_to_reference_loop(self, rng):
        # each input here has at most two nonzero terms, or three or more that
        # the BLAS kernels tried so far group as the reference does
        for g, ops, scale in self.cases(rng):
            for gamma, x, z1 in self.sweeps(rng, g, ops, scale):
                swept = graphs.graph_z_sweep(ops, g, gamma, x, z1)
                assert swept.data.tobytes() == reference_sweep(ops, g, gamma, x, z1).tobytes()

    def test_swept_array_is_read_only(self, rng):
        g = bench_graph()
        ops = affine_ops(rng, g, dim=4)
        swept = graphs.graph_z_sweep(ops, g, 1.0, BlockVector(rng.standard_normal((5, 4))))
        data = swept.data
        assert not data.flags.writeable
        assert data.base is None or not data.base.flags.writeable
        with pytest.raises(ValueError):
            data[0, 0] = 1.0

    def test_random_graphs_match_reference_to_rounding(self, rng):
        # where three or more terms meet in one node's input, the BLAS may
        # group the product differently from the reference's Kz product plus
        # share, so the two may differ in the last bits; agreement is then
        # demanded to 1e-12 relative, about 4500 ulps
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(2, 14)))
            ops = affine_ops(rng, g, dim=int(rng.choice([2, 8])))
            for gamma, x, z1 in self.sweeps(rng, g, ops, 1.0):
                swept = graphs.graph_z_sweep(ops, g, gamma, x, z1).data
                expected = reference_sweep(ops, g, gamma, x, z1)
                bound = 1e-12 * max(1.0, float(np.max(np.abs(expected))))
                assert np.max(np.abs(swept - expected)) <= bound


class TestSweepWorkspace:
    """A runner's sweep writes into the one sweep_workspace of its run, sweep
    after sweep, checks nothing and returns the workspace's own z rows; every
    sweep gives the bytes of the public, checked sweep, whatever the buffer
    held before."""

    def boxes(self, rng, n, dim=4):
        # boxes around 0: a clip keeps a signed zero of its input
        return [NormalConeBox(-rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim))
                for _ in range(n)]

    def cases(self, rng):
        """(graph, ops, scale): the 2-node graph, the 3-, 5- and 16-rings at
        MT's scale 2 and at scale 1, and the chorded benchmark graph."""
        yield graphs.build_graph(2, [(1, 2)], [(1, 2)]), self.boxes(rng, 2), 1.0
        for n in (3, 5, 16):
            for scale in (2.0, 1.0):
                yield mt_graph(n), self.boxes(rng, n), scale
        yield bench_graph(), self.boxes(rng, 6), 1.0

    def sweeps(self, rng, g, ops, scale):
        """Three (gamma, x, z1) in a row, as a runner makes them: the first
        without z1, then with the z1 that node 1's resolvent hands on; x and
        z1 hold +0 and -0 entries."""
        d_1 = float(g.deg[0])
        z1 = None
        for _ in range(3):
            gamma = scale * float(rng.choice(GAMMA_GRID))
            x = scale * signed_zeros(rng, 3.0 * rng.standard_normal((g.n_nodes - 1,
                                                                     ops[0].dim)))
            yield gamma, x, z1
            z1 = signed_zeros(rng, ops[0].resolvent(gamma / d_1, g.matrices.Kx[0].dot(x)))

    @pytest.mark.parametrize("stale", [0.0, -1.0, np.nan], ids=["zeros", "negative", "nan"])
    def test_reused_workspace_gives_the_checked_sweeps_bytes(self, rng, stale):
        for g, ops, scale in self.cases(rng):
            work = graphs.sweep_workspace(ops, g)
            # what an earlier run, or a sweep that overflowed, may have left
            work[0].fill(stale)
            for gamma, x, z1 in self.sweeps(rng, g, ops, scale):
                swept = graphs.graph_z_sweep(ops, g, gamma, x, z1, work=work)
                checked = graphs.graph_z_sweep(ops, g, gamma, BlockVector(x), z1)
                # a runner's sweep is the workspace's z rows, the checked one
                # a BlockVector of its own
                assert swept is work[1]
                assert swept.tobytes() == checked.data.tobytes()
                assert not np.shares_memory(checked.data, work[0])

    def test_a_workspace_sweep_allocates_no_array(self, rng):
        # numpy reports each array's data to tracemalloc in a domain of its
        # own, so the filter keeps arrays and drops Python objects
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        for g, ops, scale in self.cases(rng):
            work = graphs.sweep_workspace(ops, g)
            sweeps = list(self.sweeps(rng, g, ops, scale))
            tracemalloc.start()
            try:
                for gamma, x, z1 in sweeps:
                    before = tracemalloc.take_snapshot().filter_traces(arrays)
                    swept = graphs.graph_z_sweep(ops, g, gamma, x, z1, work=work)
                    after = tracemalloc.take_snapshot().filter_traces(arrays)
                    assert [d for d in after.compare_to(before, "filename")
                            if d.count_diff or d.size_diff] == []
                    assert swept is work[1]
            finally:
                tracemalloc.stop()


class TestTraceRows:
    """A runner's sweep is overwritten by the next step, so the trace's record
    makes the one copy of each row: no recorded row is the workspace's memory
    or another row's, and a later run on the same operators changes none."""

    def cases(self, rng):
        """dr2, MT on the 4-ring and the chorded graph, on affine operators,
        whose resolvents hand z1 on from buffers of their own."""
        two = graphs.build_graph(2, [(1, 2)], [(1, 2)])
        for method, g, theta in (("dr2", two, 1.0), ("mt", mt_graph(4), 0.5),
                                 ("graph", bench_graph(), 1.0)):
            shape = (3,) if method == "dr2" else (g.n_nodes - 1, 3)
            yield Case(method, tuple(affine_ops(rng, g, dim=3)),
                       sch.GeometricToLimit(1.0, 2.0, 0.9), rng.standard_normal(shape),
                       StopRule(1e-10, 300), theta, None if method == "mt" else g)

    def test_rows_are_copies_a_later_run_leaves_alone(self, rng, monkeypatch):
        workspaces = []
        build = graphs.sweep_workspace
        monkeypatch.setattr(graphs, "sweep_workspace",
                            lambda ops, g: workspaces.append(build(ops, g)) or workspaces[-1])
        for case in self.cases(rng):
            workspaces.clear()
            trace = run_case(case, case.ops)
            (buf, *_), = workspaces
            assert len(trace) > 20
            vectors = trace.extra_vectors
            rows = [*trace.points, *(v for key, series in vectors.items() if key != "z"
                                     for v in series)]
            # dr2's "z" is the recorded point itself (see ConvergenceTrace)
            assert all(z is point for z, point in zip(vectors.get("z", ()), trace.points))
            # each row owns its data, so no two rows share memory
            assert all(row.flags.owndata for row in rows)
            assert len({id(row) for row in rows}) == len(rows)
            iterates = [np.asarray(x) for x in trace.iterates]
            assert not any(np.shares_memory(a, buf) for a in rows + iterates)
            recorded = [a.tobytes() for a in rows + iterates]
            run_case(case._replace(x0=-3.0 * case.x0), case.ops)
            assert [a.tobytes() for a in rows + iterates] == recorded


class TestHookFolds:
    """graph_hooks folds the coefficients that are exactly 1 (scale, theta and the
    2-node graph's relocator column); every hook gives the bytes of
    reference_step's and reference_relocate's products, in the shape of the
    iterate it is handed."""

    def cases(self, rng):
        """(graph, ops, theta, scale, shape): the 2-node graph as dr2, on a
        plain vector, and as a graph, on one block; rings as MT (scale 2) and
        as graphs, the chorded benchmark graph. shape is the iterate's."""
        two = graphs.build_graph(2, [(1, 2)], [(1, 2)])
        yield two, affine_ops(rng, two, dim=3), 1.0, 1.0, (3,)
        yield two, affine_ops(rng, two, dim=3), 0.5, 1.0, (1, 3)
        for n in (3, 5, 16):
            g = mt_graph(n)
            # boxes around 0: a clip keeps a signed zero, so z_1 carries -0 too
            boxes = [NormalConeBox(-rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 4))
                     for _ in range(n)]
            yield g, boxes, 0.5, float(g.deg[0]), (n - 1, 4)
            yield g, affine_ops(rng, g, dim=4), 1.0, 1.0, (n - 1, 4)
        yield bench_graph(), affine_ops(rng, bench_graph(), dim=4), 1.0, 1.0, (5, 4)

    def test_hooks_give_the_reference_bytes(self, rng):
        for g, ops, theta, scale, shape in self.cases(rng):
            step, feedback, relocate = graphs.graph_hooks(ops, g, theta, scale)
            for _ in range(10):
                blocks = signed_zeros(rng, 3.0 * rng.standard_normal((g.n_nodes - 1,
                                                                      ops[0].dim)))
                # the hooks take the loop's plain arrays
                x = blocks.reshape(shape)
                gamma, delta = (float(v) for v in rng.choice(GAMMA_GRID, size=2))
                ref_next, ref_z1, ref_u = reference_relocate(ops, g, scale, gamma, delta,
                                                             blocks)
                for carry in (None, ref_z1):
                    w, shadow, vectors = step(gamma, x, carry)
                    ref_w, ref_z = reference_step(ops, g, theta, scale, gamma, blocks, carry)
                    assert w.shape == shape and w.tobytes() == ref_w.tobytes()
                    assert shadow.tobytes() == ref_z.tobytes() and vectors is None
                (z1, u), pre = feedback(gamma, x)
                assert pre is z1
                assert (z1.tobytes(), u.tobytes()) == (ref_z1.tobytes(), ref_u.tobytes())
                for handed in (None, pre):
                    x_next, z1_next = relocate(gamma, delta, x, handed)
                    assert x_next.shape == shape and x_next.tobytes() == ref_next.tobytes()
                    assert z1_next.tobytes() == ref_z1.tobytes()
            # s Kx[0] is e_1 on the 2-node graph and on MT's rings, 0.5 e_1 on
            # the rest; either way u_1 is the product, which turns -0 into +0
            weights = scale * g.matrices.Kx[0]
            assert weights.tolist() == [scale / g.deg[0]] + [0.0] * (g.n_nodes - 2)
            blocks = np.full((g.n_nodes - 1, ops[0].dim), -0.0)
            u = feedback(1.0, blocks.reshape(shape))[0][1]
            assert not np.signbit(u).any()


class TestOneResolventRelocator:
    """graph_relocator: Q x = r x + (1 - r) (Zdag c) kron z_1, A_1 only."""

    def test_axioms_on_chorded_six_node_graph(self, rng):
        g = bench_graph()
        ops = affine_ops(rng, g)
        fixed_points = [(gamma, fix_point_oracle_affine(ops, g, gamma)[0])
                        for gamma in (0.5, 1.0, 2.0)]
        report = check_relocator_axioms(graphs.graph_family(ops, g, 1.0),
                                        graphs.graph_relocator(ops, g),
                                        fixed_points, GAMMA_GRID, tol=1e-8, rng=rng)
        assert report.passed, report.violations

    def test_agrees_with_pseudo_inverse_relocator_on_fix(self, rng):
        for g in (mt_graph(3), mt_graph(5), chorded_path(), bench_graph()):
            ops = affine_ops(rng, g)
            relocator = graphs.graph_relocator(ops, g)
            for gamma in (0.5, 1.0, 2.0):
                x_fix, _ = fix_point_oracle_affine(ops, g, gamma)
                for delta in GAMMA_GRID:
                    cheap = relocator.apply(gamma, delta, x_fix)
                    full = graph_relocator_apply(ops, g, gamma, delta, x_fix)
                    assert (cheap - full).norm() <= 1e-12

    def test_half_scaled_ring_is_mt_relocator(self, rng):
        # at random points, not only on Fix: Q_graph(sg, sd, sx) = s Q_mt(g, d, x)
        # with s the ring degree, 2 for N >= 3 (half-scaling) and 1 for N = 2
        for n in (2, 3, 4, 7):
            g = mt_graph(n)
            s = float(g.deg[0])
            ops = affine_ops(rng, g)
            problem = MTProblem(tuple(ops), 0.5)
            relocator = graphs.graph_relocator(ops, g)
            for _ in range(20):
                x = BlockVector(3.0 * rng.standard_normal((n - 1, 2)))
                gamma, delta = rng.choice(GAMMA_GRID, size=2)
                graph = relocator.apply(s * gamma, s * delta, s * x)
                cheap = mt_relocator_apply(problem, gamma, delta, x)
                assert ((1.0 / s) * graph - cheap).norm() <= 1e-12

    def test_two_node_graph_is_dr_relocator(self, rng):
        g = graphs.build_graph(2, [(1, 2)], [(1, 2)])
        ops = affine_ops(rng, g, dim=3)
        relocator = graphs.graph_relocator(ops, g)
        for _ in range(20):
            v = 3.0 * rng.standard_normal(3)
            gamma, delta = rng.choice(GAMMA_GRID, size=2)
            graph = relocator.apply(gamma, delta, BlockVector([v]))
            dr = dr_relocator_apply(ops[0], gamma, delta, v)
            assert np.max(np.abs(graph[0] - dr)) <= 1e-12

    def test_one_resolvent_of_first_operator(self, rng):
        g = bench_graph()
        ops = [CountingOperator(op) for op in affine_ops(rng, g)]
        graphs.graph_relocator(ops, g).apply(1.0, 2.0, BlockVector.zeros(5, 2))
        assert [op.calls for op in ops] == [1] + [0] * 5

    def test_bound_and_empirical_ratio(self, rng):
        g = bench_graph()
        ops = affine_ops(rng, g)
        relocator = graphs.graph_relocator(ops, g)
        m = g.matrices
        c = g.deg - 2 * g.indeg
        spread = np.linalg.norm(m.Zdag @ c) * np.linalg.norm(m.Z[0]) / g.deg[0]
        for gamma, delta in ((1.0, 2.0), (2.0, 0.5), (0.5, 4.0)):
            ratio = delta / gamma
            bound = relocator.lipschitz_bound(gamma, delta)
            assert bound == pytest.approx(ratio + abs(1.0 - ratio) * spread, abs=1e-12)
            # 3.7 to 5.2 times tighter here than the pseudo-inverse bound
            assert bound < graph_relocator_lipschitz_bound(g, gamma, delta)
            for _ in range(100):
                u = BlockVector(4.0 * rng.standard_normal((5, 2)))
                v = BlockVector(4.0 * rng.standard_normal((5, 2)))
                qu = relocator.apply(gamma, delta, u)
                qv = relocator.apply(gamma, delta, v)
                assert (qu - qv).norm() <= bound * (u - v).norm() + 1e-9
        assert relocator.lipschitz_bound(1.3, 1.3) == 1.0


class TestEntryChecks:
    """The runners resolve with check=False, so each public entry that reaches
    those resolvents checks its own arguments, once, before any resolvent."""

    GRAPHS = {"2-node": lambda: graphs.build_graph(2, [(1, 2)], [(1, 2)]),
              "3-ring": lambda: mt_graph(3)}

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_sweep_refuses_gamma(self, rng, graph, gamma):
        g = self.GRAPHS[graph]()
        ops = [CountingOperator(op) for op in affine_ops(rng, g)]
        with pytest.raises(ParameterError, match="^gamma must be positive"):
            graphs.graph_z_sweep(ops, g, gamma, BlockVector.zeros(g.n_nodes - 1, 2),
                                 np.zeros(2))
        assert [op.calls for op in ops] == [0] * g.n_nodes

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("z1, error, message", [
        ([np.inf, 0.0], ParameterError, "^vector entries must be finite$"),
        ([0.0, np.nan], ParameterError, "^vector entries must be finite$"),
        ([0.0, 0.0, 0.0], DimensionError, "^z1 must lie in R\\^2, got dimension 3$"),
        ([0.0], DimensionError, "^z1 must lie in R\\^2, got dimension 1$"),
    ], ids=["inf", "nan", "too-long", "too-short"])
    def test_sweep_refuses_z1(self, rng, graph, z1, error, message):
        g = self.GRAPHS[graph]()
        ops = [CountingOperator(op) for op in affine_ops(rng, g)]
        with pytest.raises(error, match=message):
            graphs.graph_z_sweep(ops, g, 1.0, BlockVector.zeros(g.n_nodes - 1, 2), z1)
        assert [op.calls for op in ops] == [0] * g.n_nodes

    @pytest.mark.parametrize("gamma, delta, name", [
        (np.nan, 1.0, "gamma"), (np.inf, 1.0, "gamma"),
        (1.0, np.nan, "delta"), (1.0, np.inf, "delta"), (1.0, 0.0, "delta"),
    ])
    def test_relocator_refuses_stepsizes(self, rng, gamma, delta, name):
        g = bench_graph()
        ops = [CountingOperator(op) for op in affine_ops(rng, g)]
        with pytest.raises(ParameterError, match=f"^{name} must be positive"):
            graphs.graph_relocator(ops, g).apply(gamma, delta, BlockVector.zeros(5, 2))
        assert [op.calls for op in ops] == [0] * 6

    @pytest.mark.parametrize("gamma, w, error", [
        (np.nan, np.zeros((5, 2)), ParameterError),
        (np.inf, np.zeros((5, 2)), ParameterError),
        (1.0, [[np.inf, 0.0]] + [[0.0, 0.0]] * 4, ParameterError),
        (1.0, np.zeros((4, 2)), DimensionError),
    ], ids=["nan-gamma", "inf-gamma", "inf-w", "short-w"])
    def test_family_feedback_refuses(self, rng, gamma, w, error):
        g = bench_graph()
        ops = [CountingOperator(op) for op in affine_ops(rng, g)]
        with pytest.raises(error):
            graphs.graph_family(ops, g, 1.0).feedback(gamma, w)
        assert [op.calls for op in ops] == [0] * 6


@pytest.fixture
def as_vector_calls(monkeypatch):
    """A one-entry list counting linalg.as_vector calls, under every name a
    relosplit module binds it to."""
    calls = [0]
    original = linalg.as_vector

    def counted(x):
        calls[0] += 1
        return original(x)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "relosplit" or name.startswith("relosplit.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("n_ops, run", [
    (4, lambda ops, schedule, stop: algorithm2_run(MTProblem(tuple(ops), 0.5), schedule,
                                                   BlockVector.zeros(3, 2), stop)),
    (6, lambda ops, schedule, stop: graphs.graph_relocated_run(
        ops, bench_graph(), 1.0, schedule, BlockVector.zeros(5, 2), stop)),
], ids=["mt", "chorded-graph"])
def test_runs_check_points_once_per_run_not_per_iteration(as_vector_calls, n_ops, run):
    # the runner checks x0 at its entry (a BlockVector, checked when it was
    # built), and the sweep, handed the run's workspace, checks nothing: no
    # point check, after 20 iterations or to convergence
    instance = problems.make_problem("affine_consensus", {"count": n_ops, "dim": 2}, seed=0)
    calls = []
    for max_iters in (20, 5000):
        as_vector_calls[0] = 0
        trace = run(instance.ops, sch.GeometricToLimit(1.0, 2.0, 0.9),
                    StopRule(residual_tol=1e-10, max_iters=max_iters))
        calls.append(as_vector_calls[0])
    assert trace.status == "converged"
    assert trace.iterations > 100
    assert calls == [0, 0]


@pytest.fixture
def wrap_calls(monkeypatch):
    """A one-entry list counting BlockVector._wrap calls."""
    calls = [0]
    original = vars(BlockVector)["_wrap"].__func__

    def counted(cls, arr):
        calls[0] += 1
        return original(cls, arr)

    monkeypatch.setattr(BlockVector, "_wrap", classmethod(counted))
    return calls


@pytest.mark.parametrize("n_ops, run", [
    (4, lambda ops, schedule, stop: algorithm2_run(MTProblem(tuple(ops), 0.5), schedule,
                                                   BlockVector.zeros(3, 2), stop)),
    (6, lambda ops, schedule, stop: graphs.graph_relocated_run(
        ops, bench_graph(), 1.0, schedule, BlockVector.zeros(5, 2), stop)),
], ids=["mt", "chorded-graph"])
def test_runs_wrap_one_block_vector_per_relocated_iterate(wrap_calls, n_ops, run):
    # the hooks and the loop carry plain arrays; the loop wraps each
    # relocated iterate once, for trace.iterates and final_x
    instance = problems.make_problem("affine_consensus", {"count": n_ops, "dim": 2}, seed=0)
    for schedule in (sch.GeometricToLimit(1.0, 2.0, 0.9), sch.AdaptiveKappa(1.0)):
        wrap_calls[0] = 0
        trace = run(instance.ops, schedule, StopRule(residual_tol=1e-10, max_iters=5000))
        assert trace.status == "converged"
        assert trace.iterations > 100
        assert wrap_calls[0] == trace.iterations
        assert all(type(x) is BlockVector for x in trace.iterates)
        assert trace.final_x is trace.iterates[-1]


class TestInputRows:
    """The sweep writes each node's input into its operator's input row, where
    a factored affine resolvent reads it in place; one object at two nodes
    shares one row. test_differential checks that runs are unchanged by it."""

    def test_one_operator_at_two_nodes_shares_its_row(self, rng):
        # the chorded graph with node 5 sharing node 1's operator, and the
        # 4-ring with node 3 sharing node 2's
        for g, node, shared in ((bench_graph(), 4, 0), (mt_graph(4), 2, 1)):
            ops = affine_ops(rng, g, dim=3)
            ops[node] = ops[shared]
            rows = [node_i[3] for node_i in graphs.sweep_workspace(ops, g)[3]]
            assert rows[node] is rows[shared]
            assert np.shares_memory(rows[node], ops[shared]._factors.xa)
            assert not any(np.shares_memory(rows[i], rows[j])
                           for i in range(len(ops)) for j in range(i)
                           if {i, j} != {node, shared})


class TestLipschitzBound:
    def test_equal_stepsizes_give_one(self):
        g = mt_graph(3)
        assert graph_relocator_lipschitz_bound(g, 1.3, 1.3) == 1.0

    def test_mt3_hand_recursion(self):
        # L_1 = 1, L_2 = 1 + sqrt(2), L_3 = 3 + sqrt(2); norm(Zdag) = 1
        g = mt_graph(3)
        bound = graph_relocator_lipschitz_bound(g, 1.0, 2.0)
        expected = 2.0 + np.sqrt(1.0 + (3.0 + np.sqrt(2.0)) ** 2)
        assert bound == pytest.approx(expected, abs=1e-12)
        assert bound == pytest.approx(6.526, abs=1e-3)

    def test_empirical_ratio_below_bound(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        for gamma, delta in ((1.0, 2.0), (2.0, 0.5), (0.5, 4.0)):
            bound = graph_relocator_lipschitz_bound(g, gamma, delta)
            for _ in range(200):
                u = BlockVector(4.0 * rng.standard_normal((2, 2)))
                v = BlockVector(4.0 * rng.standard_normal((2, 2)))
                denom = (u - v).norm()
                qu = graph_relocator_apply(ops, g, gamma, delta, u)
                qv = graph_relocator_apply(ops, g, gamma, delta, v)
                assert (qu - qv).norm() <= bound * denom + 1e-9


def test_at_consensus_point_is_blockwise_mean(rng):
    assert graphs.at_consensus(None, 2) is None
    for nblocks, dim in ((2, 1), (3, 8), (6, 32), (16, 8), (17, 5)):
        # handed the flat copy a trace records of the sweep
        point_of = graphs.at_consensus(lambda point: point, nblocks)
        z = BlockVector(rng.standard_normal((nblocks, dim)) * 10.0 ** rng.integers(-8, 8))
        assert point_of(z.data.flatten()).tobytes() == z.data.mean(axis=0).tobytes()


class TestAffineOracle:
    def test_zero_ops(self):
        g = mt_graph(3)
        x_fix, z_star = fix_point_oracle_affine([Zero(1)] * 3, g, 1.0)
        w, _ = graphs.graph_dr_apply([Zero(1)] * 3, g, 1.0, 1.0, x_fix)
        assert (x_fix - w).norm() <= 1e-10

    def test_translation_consensus_mean(self):
        # A_i x = x - c_i: the consensus zero is the mean of the c_i
        g = mt_graph(3)
        cs = [np.array([1.0]), np.array([3.0]), np.array([5.0])]
        ops = [AffineMonotone(np.eye(1), -c) for c in cs]
        x_fix, z_star = fix_point_oracle_affine(ops, g, 1.0)
        assert z_star[0] == pytest.approx(3.0, abs=1e-10)
        w, z = graphs.graph_dr_apply(ops, g, 1.0, 1.0, x_fix)
        assert (x_fix - w).norm() <= 1e-8
        for block in z:
            assert block[0] == pytest.approx(3.0, abs=1e-8)

    def test_infeasible_detected(self):
        # constant fields b_i with a nonzero total have no common zero
        g = mt_graph(3)
        ops = [AffineMonotone(np.zeros((1, 1)), [float(b)]) for b in (1.0, 1.0, 1.0)]
        with pytest.raises(InfeasibleError):
            fix_point_oracle_affine(ops, g, 1.0)

    def test_non_affine_rejected(self):
        g = mt_graph(3)
        with pytest.raises(ParameterError):
            fix_point_oracle_affine([NegLog(1)] * 3, g, 1.0)

    @pytest.mark.parametrize("make", [
        lambda: NormalConePoint([0.5]),
        lambda: NormalConeBox([-1.0], [1.0]),
        lambda: NormalConeBall([0.0], 1.0),
        lambda: Scaled(Translated(NegLog(1), [1.0]), 2.0),
        lambda: CountingOperator(NormalConeBox([-1.0], [1.0])),
    ], ids=["point", "box", "ball", "scaled-translated-neglog", "counting-box"])
    def test_non_affine_kind_among_affine_rejected(self, make):
        ops = [AffineMonotone(np.eye(1), [1.0]), make(), Zero(1)]
        with pytest.raises(ParameterError, match="affine operators"):
            fix_point_oracle_affine(ops, mt_graph(3), 1.0)


class TestGraphRelocatedRun:
    def test_normal_cone_points_consensus_in_one_sweep(self, rng):
        g = mt_graph(3)
        p = rng.standard_normal(2)
        ops = [NormalConePoint(p)] * 3
        x0 = BlockVector(rng.standard_normal((2, 2)))
        trace = graphs.graph_relocated_run(ops, g, 1.0, sch.Constant(1.0), x0,
                                           StopRule(residual_tol=1e-10, max_iters=5))
        z_first = trace.points[0].reshape(3, 2)
        assert np.max(np.abs(z_first - p[None, :])) <= 1e-12

    def test_affine_convergence_to_known_zero(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        # independent linear-solve oracle for the common zero
        m_total = sum(op.matrix for op in ops)
        b_total = sum(op.offset for op in ops)
        z_star = np.linalg.solve(m_total, -b_total)
        schedule = sch.GeometricToLimit(limit=1.0, start=2.0, ratio=0.5)
        trace = graphs.graph_relocated_run(
            ops, g, 1.0, schedule, BlockVector.zeros(2, 2),
            StopRule(residual_tol=1e-12, max_iters=3000))
        assert trace.status == "converged"
        z_final = trace.points[-1].reshape(3, 2)
        for block in z_final:
            assert np.linalg.norm(block - z_star) <= 1e-6

    def test_x0_block_dimension_checked_before_any_resolvent(self, rng):
        g = chorded_path(4)
        ops = [CountingOperator(op) for op in affine_ops(rng, g, dim=2)]
        # the entry check names the expected shape; a resolvent would only
        # report a dimension mismatch of its own point
        for shape in ((3, 3), (2, 2)):
            with pytest.raises(DimensionError, match="3 blocks of dimension 2"):
                graphs.graph_relocated_run(ops, g, 1.0, sch.Constant(1.0),
                                           BlockVector.zeros(*shape),
                                           StopRule(residual_tol=1e-9, max_iters=5))
        assert [op.calls for op in ops] == [0] * g.n_nodes

    def test_consensus_residual_recorded(self, rng):
        g = mt_graph(3)
        ops = affine_ops(rng, g)
        trace = graphs.graph_relocated_run(
            ops, g, 1.0, sch.Constant(1.0), BlockVector.zeros(2, 2),
            StopRule(residual_tol=1e-9, max_iters=500))
        cons = trace.extra_scalars["consensus_residual"]
        assert len(cons) == len(trace.residuals)
        # residual = theta * consensus for theta = 1
        for r, c in zip(trace.residuals, cons):
            assert r == pytest.approx(c, abs=1e-13)


class TestAdaptiveFeedback:
    def test_pair_matches_mt_under_half_scaling(self, rng):
        # the ring graph at (2 gamma, 2 theta, 2 w) and MT at (gamma, theta, w)
        # feed the adaptive rule the same (z_1, input of node 1's resolvent)
        g = mt_graph(4)
        ops = affine_ops(rng, g)
        theta, gamma = 0.4, 0.7
        w = BlockVector(rng.standard_normal((3, 2)))
        graph_pair = graphs.graph_family(ops, g, 2.0 * theta).feedback(2.0 * gamma, 2.0 * w)
        mt_pair = mt_family(MTProblem(tuple(ops), theta)).feedback(gamma, w)
        for a, b in zip(graph_pair, mt_pair):
            assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12

    def test_chorded_graph_converges(self):
        # with block 0 of w as the reference point this run drove gamma down
        # to the 1e-4 clamp and ended max_iters with an oracle residual of 3.9
        inst = problems.make_problem("affine_random", {"count": 5, "dim": 3}, seed=8)
        tree = [(1, 2), (2, 3), (3, 4), (4, 5)]
        g = graphs.build_graph(5, tree + [(1, 3), (2, 5)], tree)
        trace = graphs.graph_relocated_run(
            inst.ops, g, 1.0, sch.AdaptiveKappa(1.0), BlockVector.zeros(4, 3),
            StopRule(residual_tol=1e-8, max_iters=20000),
            solution_residual=lambda z: problems.solution_residual(inst, z))
        assert trace.status == "converged"
        assert trace.iterations < 1000
        assert min(trace.gammas) > 1e-4
        assert trace.solution_residuals[-1] <= 1e-6
