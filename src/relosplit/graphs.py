"""Graph-based Douglas-Rachford splitting for N >= 2 operators.

A splitting graph is a connected arc-ordered digraph G = (nodes, E) together
with a spanning tree G' = (nodes, E'); arcs always point from the smaller to
the larger node index, which makes the resolvent sweep below well defined
(node i only consumes z_h with h < i).

Conventions used throughout (the degree symbol is overloaded in parts of the
literature, so they are pinned here):

* the sweep, the relocation vector e and the Lipschitz recursion use the
  degree d_i of node i in the FULL graph G;
* the Laplacian is that of the spanning tree, L = Z Z^T with Z the incidence
  matrix of E' (columns in lexicographic arc order), so its diagonal carries
  the tree degrees.

This is the only assignment under which the ring specialization (all d_i = 2)
and the identity L = Z Z^T hold simultaneously.
"""

from dataclasses import dataclass

import numpy as np

from .driver import OperatorFamily, Relocator, ambient_norm, relocated_loop
from .errors import ConstructionError, DimensionError, ParameterError
from .linalg import (BlockVector, as_block_vector, as_stepsize, as_vector, kron_apply,
                     pseudo_inverse)
from .operators import stepsize_free

@dataclass(frozen=True)
class GraphMatrices:
    """Matrices derived from a splitting graph.

    Z: tree incidence (N x N-1); L = Z Z^T; Zdag: pseudo-inverse of Z with
    operator norm Zdag_norm; R: skew part of the off-tree coupling; P: chord
    correction; M = C C^T with C^T = [Z^T  I]; Kx, Kz: (Kx x + Kz z)_i is
    the input of node i's resolvent in the sweep; Zdag_c: Zdag c with
    c_i = d_i - 2 d_i^+, integral since c is and Z is the incidence matrix
    of a tree; sweep_rows: the pair (d_i, [row i of Kz | e_i]) of each node,
    in node order, e_i the i-th unit vector of length N. The sweep forms
    node i's input as that length-2N row times the stacked [z; Kx x], one
    product per node, on every graph.
    """

    Z: np.ndarray
    L: np.ndarray
    Zdag: np.ndarray
    Zdag_norm: float
    R: np.ndarray
    P: np.ndarray
    M: np.ndarray
    C: np.ndarray
    Kx: np.ndarray
    Kz: np.ndarray
    Zdag_c: np.ndarray
    sweep_rows: tuple


class SplittingGraph:
    """Validated splitting graph with cached degrees and matrices.

    Nodes are 1-based in the public interface. Construction raises
    ConstructionError naming the violated invariant: backward or duplicate
    arcs, E' not a subset of E, E' not a spanning tree, or a disconnected G.
    """

    def __init__(self, n_nodes, arcs, tree_arcs):
        n = int(n_nodes)
        if n < 2:
            raise ConstructionError(f"need at least 2 nodes, got {n}")
        arcs = _normalize_arcs(n, arcs, "E")
        tree = _normalize_arcs(n, tree_arcs, "E'")
        if not set(tree) <= set(arcs):
            raise ConstructionError("E' must be a subset of E")
        if len(tree) != n - 1:
            raise ConstructionError(
                f"E' must contain exactly N-1 = {n - 1} arcs, got {len(tree)}"
            )
        if not _is_connected(n, tree):
            raise ConstructionError("E' is not spanning: (nodes, E') is disconnected")
        if not _is_connected(n, arcs):
            raise ConstructionError("(nodes, E) is disconnected")

        self.n_nodes = n
        self.arcs = arcs
        self.tree_arcs = tree
        self.deg = _degree_vector(n, arcs)
        self.indeg = np.array([sum(1 for (_, j) in arcs if j == i) for i in _nodes(n)])
        self.outdeg = np.array([sum(1 for (i_, _) in arcs if i_ == i) for i in _nodes(n)])
        self.tree_deg = _degree_vector(n, tree)
        chords = tuple(a for a in arcs if a not in set(tree))
        self.chord_arcs = chords
        self.chord_deg = _degree_vector(n, chords)
        self.matrices = _build_matrices(self)

    def __repr__(self):
        return (f"SplittingGraph(N={self.n_nodes}, |E|={len(self.arcs)}, "
                f"|E'|={len(self.tree_arcs)})")


def _nodes(n):
    return range(1, n + 1)


def _degree_vector(n, arcs):
    deg = np.zeros(n, dtype=int)
    for (i, j) in arcs:
        deg[i - 1] += 1
        deg[j - 1] += 1
    return deg


def _normalize_arcs(n, arcs, label):
    seen = set()
    out = []
    for arc in arcs:
        arc = tuple(int(v) for v in arc)
        if len(arc) != 2:
            raise ConstructionError(f"{label}: arc {arc} is not a pair")
        i, j = arc
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConstructionError(f"{label}: arc {arc} references a node outside 1..{n}")
        if i >= j:
            raise ConstructionError(
                f"{label}: arc {arc} violates the ordering rule i < j"
            )
        if arc in seen:
            raise ConstructionError(f"{label}: duplicate arc {arc}")
        seen.add(arc)
        out.append(arc)
    return tuple(sorted(out))


def _is_connected(n, arcs):
    if n == 1:
        return True
    adjacency = [[] for _ in range(n)]
    for (i, j) in arcs:
        adjacency[i - 1].append(j - 1)
        adjacency[j - 1].append(i - 1)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def build_graph(n_nodes, arcs, tree_arcs):
    """Validate and build a splitting graph from 1-based arc lists."""
    return SplittingGraph(n_nodes, arcs, tree_arcs)


def _build_matrices(g):
    n = g.n_nodes
    z = np.zeros((n, n - 1))
    for col, (i, j) in enumerate(g.tree_arcs):
        z[i - 1, col] = 1.0
        z[j - 1, col] = -1.0
    lap = z @ z.T

    r = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            r[i, j] = lap[i, j] if i > j else -lap[i, j]

    p = np.diag(g.chord_deg.astype(float))
    for (i, j) in g.chord_arcs:
        p[j - 1, i - 1] = -2.0

    c = np.vstack([z, np.eye(n - 1)])
    m = np.block([[lap, z], [z.T, np.eye(n - 1)]])

    kz = np.zeros((n, n))
    for (h, i) in g.arcs:
        kz[i - 1, h - 1] = 2.0

    kz /= g.deg[:, None]
    kx = z / g.deg[:, None]
    zdag, zdag_norm = pseudo_inverse(z)
    return GraphMatrices(Z=z, L=lap, Zdag=zdag, Zdag_norm=zdag_norm, R=r, P=p, M=m, C=c,
                         Kx=kx, Kz=kz, Zdag_c=np.rint(zdag @ (g.deg - 2 * g.indeg)),
                         sweep_rows=tuple(zip(g.deg.tolist(), np.hstack([kz, np.eye(n)]))))


def _check_ops(ops, g):
    if len(ops) != g.n_nodes:
        raise DimensionError(
            f"graph has {g.n_nodes} nodes but {len(ops)} operators were given"
        )
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionError(f"operators act on mixed dimensions {sorted(dims)}")


def _check_x(x, ops, g):
    _check_ops(ops, g)
    return as_block_vector(x, g.n_nodes - 1, ops[0].dim)


def sweep_workspace(ops, g):
    """A sweep's working memory, built once for a run of many sweeps.

    Returns (buf, z_rows, kx_rows, nodes): the (2N, d) buffer that stacks z
    and Kx x, its two halves, and per node i the tuple (resolvent of A_i,
    d_i, its row of GraphMatrices.sweep_rows, A_i's input row, row i of
    buf). The input row is MonotoneOperator.input_row(): the sweep writes
    node i's input there and the resolvent reads it in place, so a factored
    affine operator copies no input. One operator object at two nodes gives
    both the same row, which is safe because the sweep fills each node's
    row just before that node's call. Each resolvent is bound here, so a
    wrapper around MonotoneOperator.resolvent that is installed before the
    workspace is built sees every call.
    """
    n = g.n_nodes
    buf = np.zeros((2 * n, ops[0].dim))
    nodes = tuple((op.resolvent, d_i, row_i, op.input_row(), buf[i])
                  for i, (op, (d_i, row_i)) in enumerate(zip(ops, g.matrices.sweep_rows)))
    return buf, buf[:n], buf[n:], nodes


def graph_z_sweep(ops, g, gamma, x, z1=None, work=None):
    """The forward resolvent sweep z_1, ..., z_N driven by x.

    z_i = J_{(gamma/d_i) A_i}( (2/d_i) sum_{(h,i) in E} z_h
                               + (1/d_i) sum_j Z_ij x_j ),
    evaluated in node order; the arc ordering guarantees every needed z_h is
    already available. Exactly one resolvent per operator, or A_2..A_N only
    when z1, the first entry, is given (see graph_hooks).

    Node i's input is one product, of its row in GraphMatrices.sweep_rows
    and a buffer stacking z and Kx x, written into A_i's input row (see
    sweep_workspace); the node's resolvent reads it there and writes z_i
    into its buffer row (out=). A given z1 is written into the first z row
    and the sweep starts at node 2. Every graph, dr2's 2-node graph
    included, runs this one body.

    Without work, gamma, x and z1 are checked here, once, the workspace is
    built for this call, and the result is a BlockVector of its own. work, a
    sweep_workspace of ops and g, is a runner's: its sweep checks nothing,
    so the runner vouches for a float gamma > 0, which may be inf once
    scaled, a float (N - 1, d) array x and a float z1 of R^d, and the
    result is the workspace's own (N, d) z rows, valid until the next sweep
    on that workspace: a caller that keeps a sweep copies it. An iterate or
    a stepsize that has overflowed then yields a non-finite sweep, which
    the runners' loop reports as "diverged". The resolvents are called with
    check=False either way. A sweep writes its operators' input rows, so it
    is not reentrant: two sweeps on one workspace, or on operators they
    share, must not overlap.
    """
    checked = work is None
    if checked:
        gamma = as_stepsize(gamma)
        x = _check_x(x, ops, g).data
        if z1 is not None:
            z1 = as_vector(z1)
            if z1.size != x.shape[1]:
                raise DimensionError(f"z1 must lie in R^{x.shape[1]}, got dimension {z1.size}")
        work = sweep_workspace(ops, g)
    buf, z, kx_rows, nodes = work
    # rows 0..N-1 hold z, rows N..2N-1 hold Kx x. Row i of Kz weighs the
    # z_h with h < i only, and the z rows are zeroed first: a zero weight
    # times an entry an earlier sweep left is nan where that entry is not
    # finite, and may carry its sign into a zero input. The node's own
    # share comes last in its row, after every z term
    z.fill(0.0)
    np.dot(g.matrices.Kx, x, out=kx_rows)
    if z1 is not None:
        buf[0], nodes = z1, nodes[1:]
    for resolvent, d_i, row_i, input_i, out in nodes:
        row_i.dot(buf, out=input_i)
        resolvent(gamma / d_i, input_i, check=False, out=out)
    return BlockVector._wrap(z.copy()) if checked else z


def graph_dr_apply(ops, g, gamma, theta, x):
    """One graph-DR step T_gamma x = x - theta (Z^T kron I) z; returns (w, z)."""
    if not 0.0 < theta < 2.0:
        raise ParameterError(f"theta must lie in (0, 2), got {theta}")
    x = _check_x(x, ops, g)
    z = graph_z_sweep(ops, g, gamma, x)
    w = x - theta * kron_apply(g.matrices.Z.T, z)
    return w, z


def relocation_vector_e(g, z):
    """The mean-free relocation vector built from a sweep output.

    Component i is (d_i - 2 d_i^+) z_i minus the blockwise mean of those
    terms, so the blocks always sum to zero and the vector lies in Im(Z).
    For node 1 the coefficient equals d_1 because d_1^+ = 0.
    """
    if not isinstance(z, BlockVector):
        z = BlockVector(z)
    if z.nblocks != g.n_nodes:
        raise DimensionError(f"expected {g.n_nodes} blocks, got {z.nblocks}")
    coeff = (g.deg - 2 * g.indeg).astype(float)
    raw = coeff[:, None] * z.data
    mean = raw.sum(axis=0) / g.n_nodes
    return BlockVector._wrap(raw - mean[None, :])


def at_consensus(solution_residual, nblocks):
    """solution_residual at the blockwise mean of a sweep of nblocks blocks,
    given as the flat copy a trace records of it; None stays None. The trace
    calls it only when its solution-residual column is read."""
    if solution_residual is None:
        return None
    # mean's own arithmetic without its wrappers, so bit-identical
    return lambda z: solution_residual(
        np.add.reduce(z.reshape(nblocks, -1), axis=0) / nblocks)


def consensus_columns(g):
    """The trace column consensus_residual, ||Z^T z|| of a sweep z of g, as a
    function of the flat copy a trace records of z (see
    driver.ConvergenceTrace.point_columns). The trace calls it only when the
    column is read; its bytes are those of the norm of the step's own
    product Z^T z."""
    z_t, nblocks = g.matrices.Z.T, g.n_nodes
    return {"consensus_residual": lambda z: ambient_norm(z_t.dot(z.reshape(nblocks, -1)))}


def _record_sweep(z, w):
    return z, None


def graph_hooks(ops, g, theta=1.0, scale=1.0, record=_record_sweep):
    """The step, feedback and relocate hooks that every runner loops on.

    They work in the running method's coordinates x = X / scale: scale 1 for
    graph DR and dr2 (the 2-node graph, theta = 1), the ring degree for MT
    (the ring under half-scaling), so the step is the graph step at
    (scale gamma, scale x) divided by scale, exactly. relocate is the
    one-resolvent relocator Q x = r x + (1 - r) (Zdag c / scale) kron z_1,
    r = delta / gamma, z_1 = J_{(scale gamma/d_1) A_1} u_1 with input
    u_1 = (scale/d_1) sum_j Z_1j x_j; on Fix T_gamma it equals the
    pseudo-inverse relocator, selftest.graph_relocator_apply. feedback
    feeds (z_1, u_1) to the adaptive rule. By the resolvent scaling
    identity z_1 is the first entry of the next sweep, at delta driven by
    Q x, so it is handed on: N resolvents per iteration.

    The hooks take and return plain float arrays, as relocated_loop carries
    them: the iterate is an (N - 1, d) array or, on the 2-node graph, dr2's
    plain (d,) vector as well, and the step's sweep is the workspace's
    (N, d) z rows, which the next step overwrites; the trace's record copies
    them. On the 2-node graph the hooks read the one row of Z^T and of the
    relocator's column as 1-D arrays, so the disagreement and the shift
    broadcast to the iterate's own shape, (d,) or (1, d), with the same
    products. The loop makes the one BlockVector of each relocated iterate
    that the trace keeps.

    Nothing is checked after the runner's entry. The hooks build one
    sweep_workspace for the run and hand the step's sweep the (scaled)
    iterate array, the scaled gamma and the z_1 that relocate computed,
    with that workspace, so the sweep re-checks none of them, writes each
    node's input into its operator's input row and each z_i into its own
    buffer row. Every resolvent is called with check=False. This is safe:
    the runner checked x_0, the loop tests gamma and every relocated
    iterate, and z_1 is the hooks' own output. An overflow, of the iterate
    or of scale * gamma, reaches the loop's finiteness test as a non-finite
    sweep. Since the workspace and the operators' input rows are written
    by every step, the hooks of one run are not reentrant.

    record(z, w) returns the step's (shadow, vectors) for the trace from the
    sweep and T x: the monitored point and a dict of vectors, or None.

    What is fixed for the run is decided here, once: which array
    coefficients are exactly 1 and so are not multiplied by: scale (graph
    DR, dr2, and MT for N = 2), theta (dr2, and graph DR when theta = 1) and
    the relocator's column Zdag c / scale = [1] (the 2-node graph). A
    product by 1 returns its operand bit for bit, so the folds change no
    result. u_1 stays the product (s Kx[0]) x even
    where s Kx[0] is the unit vector e_1 (the 2-node graph, and MT's rings):
    the product turns a -0 entry of x_1 into +0, and the block itself does
    not.
    """
    z_t = g.matrices.Z.T
    d_1 = float(g.deg[0])
    weights = scale * g.matrices.Kx[0]
    column = (g.matrices.Zdag_c / scale)[:, None]
    unit_scale, unit_theta = scale == 1.0, theta == 1.0
    unit_column = column.shape == (1, 1) and column[0, 0] == 1.0
    # the sweep and u_1 read the iterate as N - 1 blocks, a view
    blocks = (g.n_nodes - 1, ops[0].dim)
    if g.n_nodes == 2:
        # one row each, so T x and Q x take the shape of the iterate
        z_t, column = z_t[0], column[0]

    work = sweep_workspace(ops, g)
    resolvent_1, _, _, input_1, _ = work[3][0]

    def first(gamma, x, u=None):
        # u, when given, is A_1's input row: the relocation keeps no u_1
        u = weights.dot(x.reshape(blocks), out=u)
        return resolvent_1(scale * gamma / d_1, u, check=False), u

    def step(gamma, x, z1):
        point = x.reshape(blocks)
        if not unit_scale:
            gamma, point = scale * gamma, scale * point
        z = graph_z_sweep(ops, g, gamma, point, z1, work=work)
        disagreement = z_t.dot(z)
        w = x - disagreement if unit_theta else x - theta * disagreement
        return (w, *record(z, w))

    def feedback(gamma, w):
        z1, u = first(gamma, w)
        return (z1, u), z1

    def relocate(gamma, delta, w, z1):
        if z1 is None:
            z1 = first(gamma, w, input_1)[0]
        ratio = delta / gamma
        if ratio == 1.0:
            return w, z1
        return ratio * w + (1.0 - ratio) * (z1 if unit_column else column * z1), z1

    return step, feedback, relocate


def graph_family(ops, g, theta):
    """The graph-DR operators (a fresh sweep) as a theta/2-averaged driver family,
    stepsize free when every operator is."""
    _, feedback, _ = graph_hooks(ops, g, theta)

    def apply(gamma, x):
        w, z = graph_dr_apply(ops, g, gamma, theta, x)
        return w, {"shadow": z}

    def checked_feedback(gamma, w):
        # the hooks' feedback resolves unchecked, so gamma and w are checked here
        return feedback(as_stepsize(gamma), _check_x(w, ops, g).data)[0]

    return OperatorFamily(apply, feedback=checked_feedback, name="graph_dr",
                          stepsize_free=stepsize_free(ops))


def graph_relocator(ops, g):
    """The one-resolvent relocator of graph_hooks as a driver relocator.

    Bound r + |1 - r| ||Zdag c|| ||Z_1|| / d_1: J_{(gamma/d_1) A_1} is nonexpansive.
    """
    _, _, relocate = graph_hooks(ops, g)
    spread = np.linalg.norm(g.matrices.Zdag_c) * np.linalg.norm(g.matrices.Z[0]) / g.deg[0]

    def apply(gamma, delta, x):
        return BlockVector._wrap(relocate(gamma, delta, _check_x(x, ops, g).data, None)[0])

    return Relocator(apply, lambda gamma, delta: delta / gamma + abs(1.0 - delta / gamma) * spread,
                     name="graph_dr")


def graph_relocated_run(ops, g, theta, schedule, x0, stop, solution_residual=None):
    """Relocated graph-DR run: N resolvents per iteration.

    Matches run_relocated(graph_family, graph_relocator) per iterate. The
    trace records the sweep points; its consensus_residual column
    ||Z^T z_n|| and the solution residual, when requested, at the blockwise
    mean of the sweep are computed from them when they are read. When every
    operator is stepsize free, the run stops at its first residual within
    tolerance (see driver.StopRule).
    """
    if not 0.0 < theta < 2.0:
        raise ParameterError(f"theta must lie in (0, 2), got {theta}")
    step, feedback, relocate = graph_hooks(ops, g, theta)
    return relocated_loop(step, relocate, feedback, schedule, _check_x(x0, ops, g), stop,
                          solution_residual=at_consensus(solution_residual, g.n_nodes),
                          stepsize_free=stepsize_free(ops), point_columns=consensus_columns(g))
