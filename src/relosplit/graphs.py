"""Graph-based Douglas-Rachford splitting for N >= 2 operators.

A splitting graph is a connected arc-ordered digraph G = (nodes, E) together
with a spanning tree G' = (nodes, E'); arcs always point from the smaller to
the larger node index, which makes the resolvent sweep below well defined
(node i only consumes z_h with h < i).

The sweep, the relocation vector e and the relocator's Lipschitz bound use
the degree d_i of node i in the FULL graph G, and Z is the incidence matrix
of the spanning tree E' (columns in lexicographic arc order). A graph holds
only what a run reads; the graph algebra of the analysis (the Laplacian
L = Z Z^T and the matrices built on it) is derived from Z and the arcs by
the invariant suite, selftest.graph_matrices.
"""

from dataclasses import dataclass

import numpy as np

from .driver import OperatorFamily, Relocator, ambient_norm, relocated_loop
from .errors import ConstructionError, DimensionError, ParameterError
from .kinds import INTEGER, NUMBER, ListOf, checked
from .linalg import BlockVector, as_block_iterate, as_block_vector, as_stepsize, as_vector
from .operators import stepsize_free

@dataclass(frozen=True)
class GraphMatrices:
    """The arrays a run reads from its splitting graph.

    Z: tree incidence (N x N-1); Kx, Kz: (Kx x + Kz z)_i is the input of
    node i's resolvent in the sweep; Zdag_c: Zdag c, Zdag the pseudo-inverse
    of Z and c_i = d_i - 2 d_i^+, integral since c is and Z is the incidence
    matrix of a tree; sweep_rows: the pair (d_i, [row i of Kz | e_i]) of
    each node, in node order, e_i the i-th unit vector of length N. The
    sweep forms node i's input as that length-2N row times the stacked
    [z; Kx x], one product per node, on every graph.
    """

    Z: np.ndarray
    Kx: np.ndarray
    Kz: np.ndarray
    Zdag_c: np.ndarray
    sweep_rows: tuple


class SplittingGraph:
    """Validated splitting graph with cached degrees and matrices.

    Nodes are 1-based in the public interface. Construction raises
    ConstructionError naming the violated invariant: N or a node id that
    is not an integer (named by its slot, ``E[1][1]: must be an integer,
    got 3.9``), backward or duplicate arcs, E' not a subset of E, E' not a
    spanning tree, or a disconnected G.
    """

    def __init__(self, n_nodes, arcs, tree_arcs):
        n = checked(INTEGER, n_nodes, "N")
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
        self.indeg = np.array([sum(1 for (_, j) in arcs if j == i) for i in range(1, n + 1)])
        self.matrices = _build_matrices(self)

    def __repr__(self):
        return (f"SplittingGraph(N={self.n_nodes}, |E|={len(self.arcs)}, "
                f"|E'|={len(self.tree_arcs)})")


def _degree_vector(n, arcs):
    deg = np.zeros(n, dtype=int)
    for (i, j) in arcs:
        deg[i - 1] += 1
        deg[j - 1] += 1
    return deg


#: The kind of an arc: its node ids, which must be integers
_NODE_IDS = ListOf(INTEGER)


def _normalize_arcs(n, arcs, label):
    seen = set()
    out = []
    for k, arc in enumerate(arcs):
        arc = tuple(checked(_NODE_IDS, arc, f"{label}[{k}]"))
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
    kz = np.zeros((n, n))
    for (h, i) in g.arcs:
        kz[i - 1, h - 1] = 2.0

    kz /= g.deg[:, None]
    # Zdag = (Z^T Z)^{-1} Z^T by a solve: Z has full column rank on a tree.
    # tests/test_graphs.py pins the bytes of this rounded product, signed
    # zeros included; a least-squares solve or exact leaf peeling gives
    # other bytes on some graphs
    zdag_c = np.rint(np.linalg.solve(z.T @ z, z.T) @ (g.deg - 2 * g.indeg))
    return GraphMatrices(Z=z, Kx=z / g.deg[:, None], Kz=kz, Zdag_c=zdag_c,
                         sweep_rows=tuple(zip(g.deg.tolist(), np.hstack([kz, np.eye(n)]))))


def _check_ops(ops, g):
    if len(ops) != g.n_nodes:
        raise DimensionError(
            f"graph has {g.n_nodes} nodes but {len(ops)} operators were given"
        )
    dims = {op.dim for op in ops}
    if len(dims) != 1:
        raise DimensionError(f"operators act on mixed dimensions {sorted(dims)}")


def _check_theta(theta):
    theta = checked(NUMBER, theta, "theta")
    if not 0.0 < theta < 2.0:
        raise ParameterError(f"theta must lie in (0, 2), got {theta}")
    return theta


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
    built for this call, and the result is an (N, d) array of its own. work, a
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
    return z.copy() if checked else z


def graph_dr_apply(ops, g, gamma, theta, x):
    """One graph-DR step T_gamma x = x - theta (Z^T kron I) z; returns the
    arrays (w, z)."""
    theta = _check_theta(theta)
    x = _check_x(x, ops, g)
    z = graph_z_sweep(ops, g, gamma, x)
    return x.data - theta * (g.matrices.Z.T @ z), z


def relocation_vector_e(g, z):
    """The mean-free relocation vector built from a sweep output.

    Component i is (d_i - 2 d_i^+) z_i minus the blockwise mean of those
    terms, so the blocks always sum to zero and the vector lies in Im(Z).
    For node 1 the coefficient equals d_1 because d_1^+ = 0. Returns an
    (N, d) array.
    """
    z = BlockVector(z).data
    if z.shape[0] != g.n_nodes:
        raise DimensionError(f"expected {g.n_nodes} blocks, got {z.shape[0]}")
    coeff = (g.deg - 2 * g.indeg).astype(float)
    raw = coeff[:, None] * z
    mean = raw.sum(axis=0) / g.n_nodes
    return raw - mean[None, :]


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
    """The step, feedback, relocate and replay hooks that every runner loops on.

    They work in the running method's coordinates x = X / scale: scale 1 for
    graph DR and dr2 (the 2-node graph, theta = 1), the ring degree for MT
    (the ring under half-scaling), so the step is the graph step at
    (scale gamma, scale x) divided by scale, exactly. relocate is the
    one-resolvent relocator Q x = r x + (1 - r) (Zdag c / scale) kron z_1,
    r = delta / gamma, z_1 = J_{(scale gamma/d_1) A_1} u_1 with input
    u_1 = (scale/d_1) sum_j Z_1j x_j; on Fix T_gamma it equals the
    pseudo-inverse relocator, selftest.graph_relocator_apply. feedback
    feeds (z_1, u_1), fresh arrays, to the adaptive rule. By the resolvent
    scaling identity z_1 is the first entry of the next sweep, at delta
    driven by Q x, so it is handed on: N resolvents per iteration. A z_1
    that relocate evaluates itself is written into one row the hooks hold,
    which the next sweep copies into its own first row.

    The hooks take and return plain float arrays, as relocated_loop carries
    them: the iterate is an (N - 1, d) array or, on the 2-node graph, dr2's
    plain (d,) vector as well, and the step's sweep is the workspace's
    (N, d) z rows, which the next step overwrites; the trace's record copies
    them. On the 2-node graph the hooks read the one row of Z^T and of the
    relocator's column as 1-D arrays, so the disagreement and the shift
    broadcast to the iterate's own shape, (d,) or (1, d), with the same
    products.

    replay rebuilds a run's iterates from its trace (see
    driver.relocated_loop): w_n = x_n - theta Z^T z_n from the recorded
    sweep z_n, or the recorded w_n itself when record keeps T x under "w"
    (dr2's does), and x_{n+1} = r w_n + (1 - r) (Zdag c / scale) z_1 with r
    = gammas[n + 1] / gammas[n] and z_1 the first block of the sweep
    recorded at row n + 1, which by the scaling identity is the z_1 that
    relocate computed; x_{n+1} is w_n when r is 1. These are step's and
    relocate's expressions in their order, so the bytes are the run's, and
    no resolvent is called. It reads the recorded point as the sweep, so it
    holds for a record whose point is the sweep's flat copy (the default)
    or, when it keeps T x under "w", the sweep's first row (dr2's z).

    Nothing is checked after the runner's entry. The hooks build one
    sweep_workspace for the run and hand the step's sweep the (scaled)
    iterate array, the scaled gamma and the z_1 that relocate computed,
    with that workspace, so the sweep re-checks none of them, writes each
    node's input into its operator's input row and each z_i into its own
    buffer row. Every resolvent is called with check=False. This is safe:
    the runner checked x_0, the loop tests gamma and every relocated
    iterate, and z_1 is the hooks' own output. An overflow, of the iterate
    or of scale * gamma, reaches the loop's finiteness test as a non-finite
    sweep. Since the workspace, the operators' input rows and the held z_1
    row are written by every iteration, the hooks of one run are not
    reentrant.

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
    z1_row = np.empty(ops[0].dim)

    def first(gamma, x, u=None, z1=None):
        # u and z1, when given, are A_1's input row and z1_row: the
        # relocation keeps no u_1, and its z_1 lives until the next sweep
        u = weights.dot(x.reshape(blocks), out=u)
        return resolvent_1(scale * gamma / d_1, u, check=False, out=z1), u

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
            z1 = first(gamma, w, input_1, z1_row)[0]
        return relocation(delta / gamma, w, z1), z1

    def relocation(ratio, w, z1):
        if ratio == 1.0:
            return w
        return ratio * w + (1.0 - ratio) * (z1 if unit_column else column * z1)

    def replay(x, gammas, sweeps, vectors):
        ws = vectors.get("w")
        yield x
        for n in range(1, len(gammas)):
            if ws is None:
                disagreement = z_t.dot(sweeps[n - 1].reshape(-1, blocks[1]))
                w = x - disagreement if unit_theta else x - theta * disagreement
            else:
                # a copy: an iterate shares no array with a recorded column
                w = ws[n - 1].copy()
            x = relocation(gammas[n] / gammas[n - 1], w, sweeps[n][:blocks[1]])
            yield x

    return step, feedback, relocate, replay


def graph_family(ops, g, theta):
    """The graph-DR operators (a fresh sweep) as a theta/2-averaged driver family,
    stepsize free when every operator is."""
    feedback = graph_hooks(ops, g, theta)[1]

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
    apply returns an (N - 1, d) array.
    """
    relocate = graph_hooks(ops, g)[2]
    spread = np.linalg.norm(g.matrices.Zdag_c) * np.linalg.norm(g.matrices.Z[0]) / g.deg[0]

    def apply(gamma, delta, x):
        return relocate(gamma, delta, _check_x(x, ops, g).data, None)[0]

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
    theta = _check_theta(theta)
    _check_ops(ops, g)
    return relocated_loop(*graph_hooks(ops, g, theta), schedule,
                          as_block_iterate(x0, g.n_nodes - 1, ops[0].dim), stop,
                          solution_residual=at_consensus(solution_residual, g.n_nodes),
                          stepsize_free=stepsize_free(ops), point_columns=consensus_columns(g))
