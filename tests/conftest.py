"""Shared graph builders, corpus fixtures and reference helpers."""

from __future__ import annotations

import math
import random
import warnings

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from mirrorcrit.graphs import FIXED, LEFT, RIGHT, Multigraph, SymmetricGraph
from mirrorcrit.lattice import _ADD, _NEGATE, _SWAP, FpAbelianGroup, IntMatrix, smith_normal_form
from mirrorcrit.modp import ModpSubspace, kernel
from mirrorcrit.randgraph import random_symmetric_graph

# After a failing test, hypothesis' pytest plugin imports its patch
# writer, which (through libcst) imports mypy_extensions, and that emits
# a DeprecationWarning; `filterwarnings = error` would turn it into an
# INTERNALERROR that ends the session.  Importing it here first, with
# only that warning ignored, leaves the plugin a cached module.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def exact_det(m) -> int:
    """Determinant of a square IntMatrix, as sympy's exact fraction-free
    (Bareiss) determinant over ZZ."""
    rows = [[ZZ(x) for x in row] for row in m.rows]
    return int(DomainMatrix(rows, m.shape, ZZ).det())


def apply(matrix, vec) -> list:
    """The integer matrix times the vector `vec`, as the textbook sum."""
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix.rows]


def from_columns(columns, n_rows) -> IntMatrix:
    """The dense matrix with these columns (integer sequences)."""
    return IntMatrix([[c[i] for c in columns] for i in range(n_rows)],
                     shape=(n_rows, len(columns)))


def dense(columns, n_rows) -> IntMatrix:
    """The dense matrix with these column supports ({row: value})."""
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return IntMatrix(rows, shape=(n_rows, len(columns)))


def supports(m) -> tuple:
    """The column supports of the dense matrix m: its nonzero entries."""
    return tuple({i: x for i, x in enumerate(col) if x} for col in m.transpose().rows)


def dense_f(maps) -> IntMatrix:
    """f of an analysis as a dense |E| x |E+ u E-| matrix."""
    return dense(maps.f_columns, maps.graph.graph.n_edges)


def incidence(graph) -> IntMatrix:
    """The signed incidence matrix d of a multigraph, built from its
    edges: +1 at the head, -1 at the tail, a zero column for a loop."""
    rows = [[0] * graph.n_edges for _ in range(graph.n_vertices)]
    for j, e in enumerate(graph.edges):
        if not e.is_loop:
            rows[graph.vertex_index(e.head)][j] += 1
            rows[graph.vertex_index(e.tail)][j] -= 1
    return IntMatrix(rows, shape=(graph.n_vertices, graph.n_edges))


def matrix_kernel(m) -> ModpSubspace:
    """ker(M mod 2) of the dense integer matrix M."""
    return kernel(m.transpose().rows, m.n_rows)


def row_space(m) -> ModpSubspace:
    """The row space of the dense integer matrix M mod 2."""
    return ModpSubspace.from_rows(m.n_cols, m.rows)


def identity(n, k=1) -> IntMatrix:
    """k times the n x n identity matrix."""
    return IntMatrix([[k * (i == j) for j in range(n)] for i in range(n)], shape=(n, n))


def is_identity(m) -> bool:
    return m.n_rows == m.n_cols and all(
        x == int(i == j) for i, row in enumerate(m.rows) for j, x in enumerate(row)
    )


def verify_decomposition(group) -> bool:
    """Entry-exact check of a group's decomposition U A V = S, row by
    row: each row and each column of S holds at most one nonzero entry,
    row i's entry is the modulus the group records for row i (1 for a
    row not in `moduli`), so a zero row has modulus 0, and U U^-1 =
    V V^-1 = 1 (which certifies unimodularity with no determinant)."""
    s = group.left @ group.matrix @ group.right
    moduli = group.moduli
    for i, row in enumerate(s.rows):
        entries = [x for x in row if x] or [0]
        if len(entries) > 1 or entries[0] != moduli.get(i, 1):
            return False
    if any(sum(map(bool, col)) > 1 for col in s.transpose().rows):
        return False
    return is_identity(group.left @ group.left_inv) and is_identity(group.right @ group.right_inv)


def verify_smith(snf) -> bool:
    """`verify_decomposition`, with S's entries on its main diagonal,
    `diagonal`, and that diagonal a nonnegative divisibility chain."""
    (m, n), diag = snf.matrix.shape, snf.diagonal
    smith = IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(m)],
                      shape=(m, n))
    if not verify_decomposition(snf) or snf.left @ snf.matrix @ snf.right != smith:
        return False
    if any(d < 0 for d in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def integer_kernel(a) -> IntMatrix:
    """Basis of the integer kernel lattice, as columns.

    With U A V = S, the columns of V beyond the rank satisfy
    A (V e_j) = d_j U^{-1} e_j = 0 and form a basis of ker(A).
    """
    snf = smith_normal_form(a)
    return from_columns(snf.right.transpose().rows[snf.rank:], a.n_cols)


def _reference_first_min(values):
    """(|x|, index) of the first nonzero entry of minimal |x|, or None:
    the reference's own copy, so that it does not move with the kernel."""
    mags = list(map(abs, values))
    low = min(filter(None, mags), default=0)
    return (low, mags.index(low)) if low else None


def reference_smith_normal_form(a: IntMatrix) -> FpAbelianGroup:
    """The Smith form by the general step alone, kept as the reference
    that `smith_normal_form` must match entry for entry: the same pivot
    rule (the trailing block's first entry of least |x|, row-major), the
    same diagonal and the same row and column logs.

    Every pivot, a unit included, is found by a min-|x| scan of each
    row and cleared by floor division, with its column operations
    applied and the remainder and divisibility checks run, so a shortcut
    that changes a pivot or a log entry shows against it.
    """
    m, n = a.n_rows, a.n_cols
    s = [list(row) for row in a.rows]
    row_ops = []
    col_ops = []

    def promote(t, i, j):
        # bring s[i][j] to (t, t) and make it positive
        if i != t:
            s[t], s[i] = s[i], s[t]
            row_ops.append((_SWAP, t, i))
        if j != t:
            for row in s[t:]:
                row[t], row[j] = row[j], row[t]
            col_ops.append((_SWAP, t, j))
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            row_ops.append((_NEGATE, t))

    def pick_pivot(t):
        # the trailing block in row-major order; nothing beats |x| = 1
        best = None
        for i in range(t, m):
            found = _reference_first_min(s[i])
            if found and (best is None or found[0] < best[0]):
                best = (found[0], i, found[1])
                if best[0] == 1:
                    break
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        best = pick_pivot(t)
        if best is None:
            break
        promote(t, best[1], best[2])
        while True:
            prow = s[t]
            pivot = prow[t]
            support = [(j, prow[j]) for j in range(t, n) if prow[j]]
            dirty = False
            for i in range(t + 1, m):
                row = s[i]
                q = -(row[t] // pivot)
                if q:
                    for j, y in support:
                        row[j] += q * y
                    row_ops.append((_ADD, i, t, q))
                if row[t]:
                    dirty = True
            adds = [(j, q) for j in range(t + 1, n) if (q := -(prow[j] // pivot))]
            if adds:
                col_ops.extend((_ADD, j, t, q) for j, q in adds)
                for row in s[t:]:
                    x = row[t]
                    if x:
                        for j, q in adds:
                            row[j] += q * x
            if dirty or any(prow[t + 1:]):
                # promote the smallest remainder (column t first), go again
                col = _reference_first_min([s[i][t] for i in range(t, m)])
                row = _reference_first_min(prow[t:])
                if row[0] < col[0]:
                    promote(t, t, t + row[1])
                else:
                    promote(t, t + col[1], t)
                continue
            if pivot == 1:
                break
            bad = next(
                (i for i in range(t + 1, m) if any(x % pivot for x in s[i])), None
            )
            if bad is None:
                break
            # drag a non-divisible entry into row t, forcing a smaller pivot
            for j, y in enumerate(s[bad]):
                if y:
                    prow[j] += y
            row_ops.append((_ADD, t, bad, 1))
        t += 1

    return FpAbelianGroup(
        matrix=a,
        diagonal=tuple(s[i][i] for i in range(min(m, n))),
        row_ops=tuple(row_ops),
        col_ops=tuple(col_ops),
    )


def same_smith_logs(a) -> bool:
    """True iff `smith_normal_form` gives a the reference's diagonal,
    row log and column log, entry for entry."""
    got, want = smith_normal_form(a), reference_smith_normal_form(a)
    return (got.diagonal, got.row_ops, got.col_ops) == (
        want.diagonal, want.row_ops, want.col_ops
    )


def element_order(group, vec):
    """Order of the class of `vec` in the presented group, or None when
    infinite, read off its coordinates in the rows of S that have a
    modulus other than 1 (see `FpAbelianGroup.moduli`)."""
    w = apply(group.left, vec)
    order = 1
    for i, d in group.moduli.items():
        x = w[i]
        if d:
            order = math.lcm(order, d // math.gcd(d, x % d))
        elif x:
            return None
    return order


def contains_relation(group, vec) -> bool:
    """True iff `vec` lies in the group's relation lattice."""
    return element_order(group, vec) == 1


def mask_to_row(mask, n) -> tuple:
    """The 0/1 tuple of length n with bit j of `mask` at position j."""
    return tuple((mask >> j) & 1 for j in range(n))


def basis(space) -> tuple:
    """The reduced echelon basis of a GF(2) subspace, as 0/1 row tuples."""
    return tuple(mask_to_row(r, space.ambient_dim) for r in space.rows)


def random_multigraph(seed=None, *, max_vertices=6, max_edges=12, rng=None) -> Multigraph:
    """Plain random multigraph (loops and parallels allowed)."""
    if rng is None:
        rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        (f"e{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(m)
    ]
    return Multigraph(vertices, edges)


def running_example() -> SymmetricGraph:
    """K4 minus one edge, mirrored through the two shared vertices.

    Vertices a (left), d (right), b and c on the axis; edges ab, ac,
    dc, db and the axis edge cb.  K(G) = Z/8, K(G+) = Z/4, K(G-) = Z/2.
    """
    graph = Multigraph(
        ["a", "b", "c", "d"],
        [
            ("ab", "a", "b"),
            ("ac", "a", "c"),
            ("dc", "d", "c"),
            ("db", "d", "b"),
            ("cb", "c", "b"),
        ],
    )
    vphi = {"a": "d", "d": "a", "b": "b", "c": "c"}
    ephi = {"ab": "db", "db": "ab", "ac": "dc", "dc": "ac", "cb": "cb"}
    vside = {"a": LEFT, "b": FIXED, "c": FIXED, "d": RIGHT}
    eside = {"ab": LEFT, "ac": LEFT, "dc": RIGHT, "db": RIGHT, "cb": FIXED}
    return SymmetricGraph(graph, vphi, ephi, vside, eside)


def mirror_cycle(n: int) -> SymmetricGraph:
    """2n-cycle with two antipodal fixed vertices b and c.

    G+ is a path on n+1 vertices, G- an n-cycle; K(G) = Z/2n.
    """
    left = [f"u{i}" for i in range(1, n)]
    right = [f"w{i}" for i in range(1, n)]
    vertices = ["b"] + left + ["c"] + right
    chain_l = ["b"] + left + ["c"]
    chain_r = ["b"] + right + ["c"]
    edges = [(f"l{i}", chain_l[i], chain_l[i + 1]) for i in range(n)]
    edges += [(f"r{i}", chain_r[i], chain_r[i + 1]) for i in range(n)]
    vphi = {"b": "b", "c": "c"}
    for a, w in zip(left, right):
        vphi[a] = w
        vphi[w] = a
    ephi = {}
    for i in range(n):
        ephi[f"l{i}"] = f"r{i}"
        ephi[f"r{i}"] = f"l{i}"
    vside = {"b": FIXED, "c": FIXED}
    vside.update({v: LEFT for v in left})
    vside.update({v: RIGHT for v in right})
    eside = {f"l{i}": LEFT for i in range(n)}
    eside.update({f"r{i}": RIGHT for i in range(n)})
    return SymmetricGraph(Multigraph(vertices, edges), vphi, ephi, vside, eside)


def single_fixed_edge() -> SymmetricGraph:
    """One axis edge between two fixed vertices: the smallest instance."""
    graph = Multigraph(["b", "c"], [("bc", "b", "c")])
    return SymmetricGraph(
        graph,
        {"b": "b", "c": "c"},
        {"bc": "bc"},
        {"b": FIXED, "c": FIXED},
        {"bc": FIXED},
    )


def identity_mirror_triangle() -> SymmetricGraph:
    """phi = identity on a triangle: valid input whose axis has a cycle.

    The factorization hypotheses fail here (the fixed subgraph is not a
    forest), which makes it the canonical gating test case.
    """
    graph = Multigraph(
        ["x", "y", "z"], [("e1", "x", "y"), ("e2", "y", "z"), ("e3", "z", "x")]
    )
    ids = {"x": "x", "y": "y", "z": "z"}
    ide = {"e1": "e1", "e2": "e2", "e3": "e3"}
    return SymmetricGraph(
        graph, ids, ide, {v: FIXED for v in ids}, {e: FIXED for e in ide}
    )


def empty_axis() -> SymmetricGraph:
    """An edge and its mirror, with no fixed vertex: the axis is empty."""
    graph = Multigraph(
        ["u1", "u2", "w1", "w2"],
        [("a", "u1", "u2"), ("b", "w1", "w2")],
    )
    return SymmetricGraph(
        graph,
        {"u1": "w1", "w1": "u1", "u2": "w2", "w2": "u2"},
        {"a": "b", "b": "a"},
        {"u1": LEFT, "u2": LEFT, "w1": RIGHT, "w2": RIGHT},
        {"a": LEFT, "b": RIGHT},
    )


def disconnected_plus() -> SymmetricGraph:
    """Two separate axis edges with phi the identity: G+ is disconnected."""
    two = Multigraph(
        ["b", "c", "b2", "c2"],
        [("e", "b", "c"), ("e2", "b2", "c2")],
    )
    return SymmetricGraph(
        two,
        {v: v for v in two.vertices},
        {"e": "e", "e2": "e2"},
        {v: FIXED for v in two.vertices},
        {"e": FIXED, "e2": FIXED},
    )


# an even cycle on the axis: x + y is a phi-fixed bicycle, yet f* is onto
CYCLIC_AXIS = """
v a F
v b F
e x a b
e y a b
efix x
efix y
"""


def relabel(g: SymmetricGraph, vertices: dict, edges: dict) -> SymmetricGraph:
    """A copy of g with the vertex and edge ids in `vertices` and
    `edges` renamed; every other id is kept."""

    def v(x):
        return vertices.get(x, x)

    def e(x):
        return edges.get(x, x)

    return SymmetricGraph(
        Multigraph(
            map(v, g.graph.vertices),
            [(e(x.id), v(x.tail), v(x.head)) for x in g.graph.edges],
        ),
        {v(a): v(b) for a, b in g.vertex_involution.items()},
        {e(a): e(b) for a, b in g.edge_involution.items()},
        {v(a): side for a, side in g.vertex_side.items()},
        {e(a): side for a, side in g.edge_side.items()},
    )


def corpus_params(rng: random.Random):
    n_fixed = rng.randint(1, 3)
    n_left = rng.randint(0, 3)
    n_fixed_edges = rng.randint(0, n_fixed - 1)
    max_left_edges = (14 - n_fixed_edges) // 2
    n_left_edges = rng.randint(0, min(6, max_left_edges))
    return dict(
        n_left=n_left,
        n_fixed=n_fixed,
        n_left_edges=n_left_edges,
        n_fixed_edges=n_fixed_edges,
    )


def symmetric_corpus(size: int, *, connected_plus: bool, start_seed: int = 0):
    """Deterministic corpus of valid symmetric graphs with <= 14 edges."""
    out = []
    seed = start_seed
    while len(out) < size:
        rng = random.Random(seed)
        seed += 1
        try:
            g = random_symmetric_graph(rng=rng, **corpus_params(rng))
        except ValueError:
            continue
        if g.graph.n_edges > 14:
            continue
        if connected_plus and not g.decompose().plus.is_connected():
            continue
        out.append(g)
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """60 connected-plus instances for module-level property tests."""
    return symmetric_corpus(60, connected_plus=True)


@pytest.fixture(scope="session")
def mixed_corpus():
    """40 instances with no connectivity filtering (disconnected allowed)."""
    return symmetric_corpus(40, connected_plus=False, start_seed=10_000)
