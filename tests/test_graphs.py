"""Multigraphs, mirror involutions, validation, derived graphs."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mirrorcrit

from mirrorcrit.cli import report_document
from mirrorcrit.critical import AdjointPair
from mirrorcrit.factorization import main_theorem_verdict
from mirrorcrit.graphs import (
    AXIS_VERTEX,
    FIXED,
    LEFT,
    RIGHT,
    Edge,
    InvalidSymmetricGraph,
    Multigraph,
    SymmetricGraph,
    half_edges,
    subdivision_vertex,
)
from mirrorcrit.lattice import IntMatrix, smith_normal_form
from mirrorcrit.randgraph import random_symmetric_graph

from conftest import (
    dense,
    mirror_cycle,
    relabel,
    running_example,
    single_fixed_edge,
    supports,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"


def boundary_matrix(g):
    """d of g, dense, from the supports of its columns that AdjointPair
    holds."""
    return dense(AdjointPair(g).boundary, g.n_vertices)


class TestMultigraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(["a", "a"], [])
        with pytest.raises(ValueError):
            Multigraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Multigraph(["a"], [("e", "a", "zz")])

    def test_components(self):
        g = Multigraph(["a", "b", "c"], [("e", "a", "b")])
        count, labels = g.components()
        assert count == 2
        assert labels["a"] == labels["b"] != labels["c"]
        assert not g.is_connected()

    def test_boundary_matrix_single_edge(self):
        g = Multigraph(["u", "v"], [("e", "u", "v")])
        assert boundary_matrix(g).rows == ((-1,), (1,))

    def test_boundary_matrix_loop_column_zero(self):
        g = Multigraph(["u"], [("e", "u", "u")])
        assert boundary_matrix(g).rows == ((0,),)

    def test_boundary_columns_sum_to_zero(self):
        for seed in range(10):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng).graph
            b = boundary_matrix(g)
            for column in b.transpose().rows:
                assert sum(column) == 0

    def test_running_example_boundary_rank(self):
        g = running_example().graph
        assert smith_normal_form(boundary_matrix(g)).rank == 3


class TestBondVectors:
    # row v of the boundary matrix is the signed cut of v
    def test_single_vertex_signs(self):
        # +1 where the vertex is a head, -1 where it is a tail
        g = running_example().graph
        rows = boundary_matrix(g).rows
        assert rows[g.vertex_index("a")] == (-1, -1, 0, 0, 0)
        assert rows[g.vertex_index("b")] == (1, 0, 0, 1, 1)
        assert AdjointPair(g).cuts == supports(IntMatrix(rows).transpose())

    def test_bond_rank_is_vertices_minus_components(self):
        for seed in range(12):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng).graph
            rank = smith_normal_form(boundary_matrix(g)).rank
            assert rank == g.n_vertices - g.components()[0]


def rebuilt(g, edges=None):
    """A graph with g's maps, built on `edges` (g's own by default)."""
    graph = g.graph if edges is None else Multigraph(g.graph.vertices, edges)
    return SymmetricGraph(
        graph, g.vertex_involution, g.edge_involution, g.vertex_side, g.edge_side
    )


def analysis_document(g):
    doc = report_document(main_theorem_verdict(g), "g.sg", b"")
    doc.pop("generated_at")
    return doc


class TestValidation:
    # construction is the only gate: an invalid graph is never built, and
    # InvalidSymmetricGraph lists every violated condition
    def test_running_example_valid(self):
        assert isinstance(running_example(), SymmetricGraph)
        for name in ("validate", "is_valid", "canonical_orientation"):
            assert not hasattr(SymmetricGraph, name)

    def test_maps_must_cover_the_graph_with_known_sides(self):
        g = running_example()
        vside = dict(g.vertex_side)
        cases = [
            (dict(vside, zz=LEFT), g.edge_side, "vertex maps must cover exactly the vertex set"),
            (vside, {"ab": LEFT}, "edge maps must cover exactly the edge set"),
            (dict(vside, a="X"), g.edge_side, "bad side 'X' for vertex 'a'"),
            (vside, dict(g.edge_side, cb="X"), "bad side 'X' for edge 'cb'"),
        ]
        for vertex_side, edge_side, message in cases:
            with pytest.raises(InvalidSymmetricGraph) as exc:
                SymmetricGraph(
                    g.graph, g.vertex_involution, g.edge_involution, vertex_side, edge_side
                )
            assert exc.value.violations == [message]
            assert isinstance(exc.value, ValueError)

    def test_involution_incompatible_with_endpoints(self):
        g = running_example()
        ephi = dict(g.edge_involution)
        # declare phi(cb) = ab: endpoints no longer mirror
        ephi["cb"] = "ab"
        ephi["ab"] = "cb"
        ephi.pop("db", None)
        ephi["db"] = "db"
        eside = dict(g.edge_side)
        eside["cb"] = LEFT
        eside["ab"] = RIGHT
        eside["db"] = FIXED
        with pytest.raises(InvalidSymmetricGraph) as exc:
            SymmetricGraph(g.graph, g.vertex_involution, ephi, g.vertex_side, eside)
        assert exc.value.violations == [
            f"edge involution incompatible with endpoints at {e!r}" for e in ("ab", "db", "cb")
        ]

    def test_fixed_edge_not_pointwise_fixed(self):
        # one edge between the two swapped vertices, declared fixed
        graph = Multigraph(["u", "w"], [("e", "u", "w")])
        with pytest.raises(InvalidSymmetricGraph) as exc:
            SymmetricGraph(
                graph,
                {"u": "w", "w": "u"},
                {"e": "e"},
                {"u": LEFT, "w": RIGHT},
                {"e": FIXED},
            )
        assert exc.value.violations == [
            "fixed edge not fixed point-wise: 'e' has endpoint 'u'",
            "fixed edge not fixed point-wise: 'e' has endpoint 'w'",
        ]

    def test_crossing_edge_rejected(self):
        # parallel edges between mirror-partner vertices, paired by phi:
        # every side assignment puts a Left edge on a Right vertex
        graph = Multigraph(["u", "w"], [("e1", "u", "w"), ("e2", "w", "u")])
        with pytest.raises(InvalidSymmetricGraph) as exc:
            SymmetricGraph(
                graph,
                {"u": "w", "w": "u"},
                {"e1": "e2", "e2": "e1"},
                {"u": LEFT, "w": RIGHT},
                {"e1": LEFT, "e2": RIGHT},
            )
        assert exc.value.violations == [
            "edge 'e1' on side L touches vertex 'w' on side R",
            "edge 'e2' on side R touches vertex 'u' on side L",
        ]

    def test_side_mismatch(self):
        g = running_example()
        vside = dict(g.vertex_side)
        vside["a"] = FIXED
        with pytest.raises(InvalidSymmetricGraph) as exc:
            SymmetricGraph(g.graph, g.vertex_involution, g.edge_involution, vside, g.edge_side)
        assert exc.value.violations == SIDE_MISMATCH

    def test_edge_involution_squares_to_identity(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng)
            for e in g.graph.edges:
                assert g.edge_involution[g.edge_involution[e.id]] == e.id


    @pytest.mark.parametrize(
        "vertices, edges",
        [
            ({"a": subdivision_vertex("cb")}, {}),
            ({"a": AXIS_VERTEX}, {}),
            ({"d": subdivision_vertex("cb")}, {}),
            ({}, {"db": half_edges("cb")[0]}),
        ],
    )
    def test_reserved_ids_rejected(self, vertices, edges):
        # each renamed id equals one that decompose makes for G+ or G-
        # (the running example's Left vertex a, Right vertex d and Right
        # edge db; cb is its fixed edge)
        (taken,) = {**vertices, **edges}.values()
        with pytest.raises(InvalidSymmetricGraph) as exc:
            relabel(running_example(), vertices, edges)
        assert exc.value.violations == [f"id {taken!r} is reserved for the derived graphs"]


# the violations of the running example with its Left vertex a marked Fixed
SIDE_MISMATCH = [
    "vertex 'a' is marked Fixed but phi moves it to 'd'",
    "vertex sides of 'a' and 'd' are not mirrored",
    "vertex sides of 'd' and 'a' are not mirrored",
]


class TestCanonicalOrientation:
    # construction turns each Right edge to mirror its Left partner, so a
    # graph built with other Right orientations analyzes identically
    def test_right_edge_reoriented(self):
        g = running_example()
        flipped = rebuilt(
            g, [Edge("db", "b", "d") if e.id == "db" else e for e in g.graph.edges]
        )
        assert flipped.graph.edge("db").tail == "d"
        assert flipped.graph.edge("db").head == "b"
        assert flipped.graph.edges == g.graph.edges
        ours, canonical = flipped.decompose(), g.decompose()
        for part in ("plus", "minus"):
            assert getattr(ours, part).vertices == getattr(canonical, part).vertices
            assert getattr(ours, part).edges == getattr(canonical, part).edges
        assert analysis_document(flipped) == analysis_document(g)

    def test_already_equivariant_unchanged(self):
        g = running_example()
        assert rebuilt(g).graph.edges == g.graph.edges

    def test_idempotent(self):
        for seed in range(15):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng)
            once = rebuilt(g)
            twice = rebuilt(once)
            assert once.graph.edges == twice.graph.edges == g.graph.edges

    def test_hexagon_mirror(self):
        # C6 with arbitrary stored right-side orientations: all three
        # right edges flip to mirror the left ones
        g = mirror_cycle(3)
        scrambled = rebuilt(
            g,
            [
                Edge(e.id, e.head, e.tail) if g.edge_side[e.id] == RIGHT else e
                for e in g.graph.edges
            ],
        )
        for e in scrambled.graph.edges:
            if scrambled.edge_side[e.id] == RIGHT:
                partner = scrambled.graph.edge(scrambled.edge_involution[e.id])
                assert e.tail == scrambled.vertex_involution[partner.tail]
                assert e.head == scrambled.vertex_involution[partner.head]
        ours, canonical = scrambled.decompose(), g.decompose()
        for part in ("plus", "minus"):
            assert getattr(ours, part).edges == getattr(canonical, part).edges
        assert analysis_document(scrambled) == analysis_document(g)


class TestDecompose:
    def test_running_example(self):
        dec = running_example().decompose()
        # plus: 4-cycle on a, b, c and the subdivision vertex
        assert dec.plus.n_vertices == 4
        assert dec.plus.n_edges == 4
        assert subdivision_vertex("cb") in dec.plus.vertices
        # minus: two parallel edges between the contracted vertex and d
        assert dec.minus.n_vertices == 2
        assert dec.minus.n_edges == 2
        assert all(
            {e.tail, e.head} == {AXIS_VERTEX, "d"} for e in dec.minus.edges
        )

    def test_mirror_cycle(self):
        for n in (2, 3, 5):
            dec = mirror_cycle(n).decompose()
            # plus: path on n+1 vertices; minus: n-cycle, loop-free
            assert dec.plus.n_vertices == n + 1
            assert dec.plus.n_edges == n
            assert dec.plus.is_connected()
            assert dec.minus.n_vertices == n
            assert dec.minus.n_edges == n
            assert not any(e.is_loop for e in dec.minus.edges)

    def test_single_fixed_edge(self):
        dec = single_fixed_edge().decompose()
        assert dec.plus.n_vertices == 3
        assert dec.plus.n_edges == 2
        assert dec.minus.n_vertices == 1
        assert dec.minus.n_edges == 0

    def test_invalid_input_rejected(self):
        g = running_example()
        vside = dict(g.vertex_side)
        vside["a"] = FIXED
        # an invalid graph is never built, so decompose never sees one
        with pytest.raises(InvalidSymmetricGraph) as exc:
            SymmetricGraph(g.graph, g.vertex_involution, g.edge_involution, vside, g.edge_side)
        assert exc.value.violations == SIDE_MISMATCH

    def test_cardinalities_and_regluing(self):
        # the plus edges are E_L and the two half_edges of each edge of
        # E^phi, and the minus edges are E_R, each under its own id
        for seed in range(25):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng)
            dec = g.decompose()
            n_l, n_f, n_r = len(g.left_edges), len(g.fixed_edges), len(g.right_edges)
            assert dec.plus.n_edges == n_l + 2 * n_f
            assert dec.minus.n_edges == n_r
            assert dec.plus.n_vertices == len(g.left_vertices) + len(g.fixed_vertices) + n_f
            assert dec.minus.n_vertices == len(g.right_vertices) + 1

            halves = {h: e.id for e in g.fixed_edges for h in half_edges(e.id)}
            plus_ids = [e.id for e in dec.plus.edges]
            left_origins = [eid for eid in plus_ids if eid not in halves]
            assert sorted(left_origins) == sorted(e.id for e in g.left_edges)
            half_origins = [eid for eid in plus_ids if eid in halves]
            assert sorted(half_origins) == sorted(
                h for e in g.fixed_edges for h in half_edges(e.id)
            )
            assert sorted(e.id for e in dec.minus.edges) == sorted(
                e.id for e in g.right_edges
            )
            for e in g.fixed_edges:
                h1, h2 = half_edges(e.id)
                assert h1 != h2
                assert halves[h1] == halves[h2] == e.id

    def test_orientations_inherited(self):
        g = running_example()
        dec = g.decompose()
        left = {e.id for e in g.left_edges}
        for e in dec.plus.edges:
            if e.id in left:
                src = g.graph.edge(e.id)
                assert (e.tail, e.head) == (src.tail, src.head)
        for e in dec.minus.edges:
            src = g.graph.edge(e.id)
            fixed = set(g.fixed_vertices)
            expect_tail = AXIS_VERTEX if src.tail in fixed else src.tail
            expect_head = AXIS_VERTEX if src.head in fixed else src.head
            assert (e.tail, e.head) == (expect_tail, expect_head)

    def test_fixed_edge_halves_share_subdivision_vertex(self):
        dec = running_example().decompose()
        h1, h2 = (dec.plus.edge(h) for h in half_edges("cb"))
        s = subdivision_vertex("cb")
        assert h1.head == s and h2.tail == s
        assert h1.tail == "c" and h2.head == "b"

    def test_contracted_loop_from_fixed_endpoints(self):
        # a Left/Right edge pair between two fixed vertices contracts
        # to a loop in the minus graph
        graph = Multigraph(
            ["b", "c"], [("e1", "b", "c"), ("e2", "b", "c")]
        )
        g = SymmetricGraph(
            graph,
            {"b": "b", "c": "c"},
            {"e1": "e2", "e2": "e1"},
            {"b": FIXED, "c": FIXED},
            {"e1": LEFT, "e2": RIGHT},
        )
        dec = g.decompose()
        assert dec.minus.n_edges == 1
        assert dec.minus.edges[0].is_loop

    def test_tampered_decomposition_raises_under_optimize(self):
        # `python -O` strips assert statements; the size check must
        # survive it and still raise AssertionError
        code = (
            "import dataclasses\n"
            "from mirrorcrit.graphfile import parse\n"
            f"dec = parse(open({str(SAMPLES / 'k4minus.sg')!r}).read()).decompose()\n"
            "try:\n"
            "    dataclasses.replace(dec, minus=dec.plus)._check_cardinalities()\n"
            "except AssertionError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(mirrorcrit.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
        assert result.returncode == 0


class TestFixedSubgraph:
    def test_running_example(self):
        g = running_example()
        count, labels = g.fixed_subgraph_components()
        assert count == 1
        assert set(labels) == {"b", "c"}
        assert g.two_power_exponent() == 0
        # a forest: |V^phi| - |E^phi| components
        assert count == len(g.fixed_vertices) - len(g.fixed_edges)

    def test_mirror_cycle(self):
        g = mirror_cycle(4)
        count, _ = g.fixed_subgraph_components()
        assert count == 2
        assert g.two_power_exponent() == 1

    def test_empty_fixed_set(self):
        graph = Multigraph(
            ["u", "w"], [("a", "u", "u"), ("b", "w", "w")]
        )
        g = SymmetricGraph(
            graph,
            {"u": "w", "w": "u"},
            {"a": "b", "b": "a"},
            {"u": LEFT, "w": RIGHT},
            {"a": LEFT, "b": RIGHT},
        )
        count, labels = g.fixed_subgraph_components()
        assert count == 0 and labels == {}

    def test_forest_count_matches_exponent_when_acyclic(self):
        for seed in range(20):
            rng = random.Random(seed)
            g = random_symmetric_graph(rng=rng)
            count, _ = g.fixed_subgraph_components()
            assert count == len(g.fixed_vertices) - len(g.fixed_edges)
            assert count - 1 == g.two_power_exponent()
