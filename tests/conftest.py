"""Shared graph builders and corpus fixtures."""

from __future__ import annotations

import random
import warnings

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from mirrorcrit.graphs import FIXED, LEFT, RIGHT, Multigraph, SymmetricGraph
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
