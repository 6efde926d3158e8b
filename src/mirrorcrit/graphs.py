"""Multigraphs with a mirror involution and their derived graphs.

A multigraph here is an ordered vertex list plus an ordered list of
directed edges (loops and parallel edges allowed); the stored order
fixes every matrix layout downstream.  A mirror-symmetric graph adds an
involution on vertices and edges together with Left/Fixed/Right side
labels, subject to the usual compatibility conditions; the key one is
that an involution-fixed edge must have both endpoints fixed.

Construction is the one gate into the pipeline: it raises
`InvalidSymmetricGraph` with every violated condition, and otherwise
keeps its own copy of the graph in which each Right edge mirrors its
Left partner, so a constructed graph is valid and phi-equivariant.
From it `decompose` derives two graphs: the plus graph (left plus fixed
edges, every fixed edge subdivided at a fresh vertex) and the minus
graph (right edges with all fixed vertices identified to a single
vertex).  The ids of the derived pieces say where each came from
(`subdivision_vertex`, `half_edges`, `AXIS_VERTEX`), and construction
reserves them, so no separate provenance map is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

LEFT = "L"
FIXED = "F"
RIGHT = "R"
SIDES = (LEFT, FIXED, RIGHT)

# the vertex of G- that all fixed vertices are identified to
AXIS_VERTEX = ("axis",)


def subdivision_vertex(x):
    """The vertex of G+ that subdivides the fixed edge x."""
    return ("s", x)


def half_edges(x):
    """The two edges of G+ that the fixed edge x is cut into: from its
    tail to `subdivision_vertex(x)`, then on to its head."""
    return (x, 1), (x, 2)


class InvalidSymmetricGraph(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Edge:
    id: object
    tail: object
    head: object

    @property
    def is_loop(self):
        return self.tail == self.head


class Multigraph:
    """Ordered multigraph; loops and parallel edges are first-class."""

    __slots__ = ("vertices", "edges", "_vindex", "_eindex")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        elist = []
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            elist.append(e)
        self.edges = tuple(elist)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        if len(self._vindex) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        self._eindex = {e.id: i for i, e in enumerate(self.edges)}
        if len(self._eindex) != len(self.edges):
            raise ValueError("duplicate edge id")
        for e in self.edges:
            if e.tail not in self._vindex or e.head not in self._vindex:
                raise ValueError(f"edge {e.id!r} references a missing vertex")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    def vertex_index(self, v):
        return self._vindex[v]

    def edge_index(self, eid):
        return self._eindex[eid]

    def edge(self, eid):
        return self.edges[self._eindex[eid]]

    def components(self):
        """(count, {vertex: component index}); indices follow vertex order."""
        label = {}
        count = 0
        adj = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        for v in self.vertices:
            if v in label:
                continue
            stack = [v]
            label[v] = count
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in label:
                        label[y] = count
                        stack.append(y)
            count += 1
        return count, label

    def is_connected(self):
        return self.components()[0] <= 1

    def __repr__(self):
        return f"Multigraph({self.n_vertices} vertices, {self.n_edges} edges)"


class SymmetricGraph:
    """Multigraph plus a mirror involution with side labels."""

    __slots__ = ("graph", "vertex_involution", "edge_involution", "vertex_side", "edge_side")

    def __init__(self, graph, vertex_involution, edge_involution, vertex_side, edge_side):
        """Raises InvalidSymmetricGraph; otherwise `self.graph` is a copy
        of `graph` with each Right edge turned to mirror its Left partner."""
        self.graph = graph
        self.vertex_involution = dict(vertex_involution)
        self.edge_involution = dict(edge_involution)
        self.vertex_side = dict(vertex_side)
        self.edge_side = dict(edge_side)
        vset = set(graph.vertices)
        eset = {e.id for e in graph.edges}
        if set(self.vertex_involution) != vset or set(self.vertex_side) != vset:
            raise InvalidSymmetricGraph(["vertex maps must cover exactly the vertex set"])
        if set(self.edge_involution) != eset or set(self.edge_side) != eset:
            raise InvalidSymmetricGraph(["edge maps must cover exactly the edge set"])
        for v, s in self.vertex_side.items():
            if s not in SIDES:
                raise InvalidSymmetricGraph([f"bad side {s!r} for vertex {v!r}"])
        for e, s in self.edge_side.items():
            if s not in SIDES:
                raise InvalidSymmetricGraph([f"bad side {s!r} for edge {e!r}"])
        bad = self._violations()
        if bad:
            raise InvalidSymmetricGraph(bad)
        pv = self.vertex_involution
        edges = []
        for e in graph.edges:
            if self.edge_side[e.id] == RIGHT:
                partner = graph.edge(self.edge_involution[e.id])
                e = Edge(e.id, pv[partner.tail], pv[partner.head])
            edges.append(e)
        self.graph = Multigraph(graph.vertices, edges)

    # --- ordered side slices (graph order) ---

    def vertices_on(self, side):
        return [v for v in self.graph.vertices if self.vertex_side[v] == side]

    def edges_on(self, side):
        return [e for e in self.graph.edges if self.edge_side[e.id] == side]

    @property
    def left_vertices(self):
        return self.vertices_on(LEFT)

    @property
    def fixed_vertices(self):
        return self.vertices_on(FIXED)

    @property
    def right_vertices(self):
        return self.vertices_on(RIGHT)

    @property
    def left_edges(self):
        return self.edges_on(LEFT)

    @property
    def fixed_edges(self):
        return self.edges_on(FIXED)

    @property
    def right_edges(self):
        return self.edges_on(RIGHT)

    # --- validation ---

    def _violations(self):
        """Every violated invariant, with the offending id.  Empty = valid.

        Orientation is not checked: `__init__` orients every Right edge.
        """
        g = self.graph
        out = []
        mirror = {LEFT: RIGHT, FIXED: FIXED, RIGHT: LEFT}
        # the ids `decompose` makes for the plus and minus graphs
        fixed = [x for x, side in self.edge_side.items() if side == FIXED]
        vertex_ids = {AXIS_VERTEX, *map(subdivision_vertex, fixed)}
        edge_ids = {h for x in fixed for h in half_edges(x)}
        taken = [v for v in g.vertices if v in vertex_ids]
        taken += [e.id for e in g.edges if e.id in edge_ids]
        out += [f"id {x!r} is reserved for the derived graphs" for x in taken]
        for v in g.vertices:
            w = self.vertex_involution[v]
            if w not in g._vindex:
                out.append(f"vertex involution image {w!r} of {v!r} is not a vertex")
                continue
            if self.vertex_involution[w] != v:
                out.append(f"vertex involution is not an involution at {v!r}")
            fixed = w == v
            side = self.vertex_side[v]
            if fixed and side != FIXED:
                out.append(f"vertex {v!r} is fixed by phi but marked {side}")
            if not fixed and side == FIXED:
                out.append(f"vertex {v!r} is marked Fixed but phi moves it to {w!r}")
            if not fixed and self.vertex_side.get(w) != mirror[side]:
                out.append(f"vertex sides of {v!r} and {w!r} are not mirrored")
        for e in g.edges:
            fid = self.edge_involution[e.id]
            if fid not in g._eindex:
                out.append(f"edge involution image {fid!r} of {e.id!r} is not an edge")
                continue
            f = g.edge(fid)
            if self.edge_involution[fid] != e.id:
                out.append(f"edge involution is not an involution at {e.id!r}")
            fixed = fid == e.id
            side = self.edge_side[e.id]
            if fixed and side != FIXED:
                out.append(f"edge {e.id!r} is fixed by phi but marked {side}")
            if not fixed and side == FIXED:
                out.append(f"edge {e.id!r} is marked Fixed but phi moves it to {fid!r}")
            if not fixed and self.edge_side.get(fid) != mirror[side]:
                out.append(f"edge sides of {e.id!r} and {fid!r} are not mirrored")
            pv = self.vertex_involution
            if pv.get(e.tail) is None or pv.get(e.head) is None:
                continue
            if {pv[e.tail], pv[e.head]} != {f.tail, f.head}:
                out.append(f"edge involution incompatible with endpoints at {e.id!r}")
                continue
            if fixed:
                for v in (e.tail, e.head):
                    if self.vertex_side[v] != FIXED:
                        out.append(
                            f"fixed edge not fixed point-wise: {e.id!r} has endpoint {v!r}"
                        )
            else:
                # a Left edge may not touch the Right side and vice versa
                forbidden = mirror[side]
                for v in (e.tail, e.head):
                    if self.vertex_side[v] == forbidden:
                        out.append(
                            f"edge {e.id!r} on side {side} touches vertex {v!r} "
                            f"on side {forbidden}"
                        )
        return out

    # --- the axis subgraph ---

    def fixed_subgraph_components(self):
        """(component count, {fixed vertex: component index}) of (V^phi, E^phi)."""
        return Multigraph(self.fixed_vertices, self.fixed_edges).components()

    def two_power_exponent(self):
        """|V^phi| - |E^phi| - 1, the exponent in the factorization theorem."""
        return len(self.fixed_vertices) - len(self.fixed_edges) - 1

    # --- decomposition ---

    def decompose(self) -> "Decomposition":
        """Build the plus and minus graphs of this (valid, oriented) graph.

        Left and Right edges keep their ids and orientations; the fixed
        edge x becomes `half_edges(x)` through `subdivision_vertex(x)`,
        and every fixed vertex becomes `AXIS_VERTEX` in G-.
        """
        plus_vertices = [
            v for v in self.graph.vertices if self.vertex_side[v] in (LEFT, FIXED)
        ] + [subdivision_vertex(e.id) for e in self.fixed_edges]

        plus_edges = []
        for e in self.graph.edges:
            side = self.edge_side[e.id]
            if side == LEFT:
                plus_edges.append(e)
            elif side == FIXED:
                s = subdivision_vertex(e.id)
                h1, h2 = half_edges(e.id)
                plus_edges += [Edge(h1, e.tail, s), Edge(h2, s, e.head)]

        fixed_set = set(self.fixed_vertices)

        def squash(v):
            return AXIS_VERTEX if v in fixed_set else v

        minus_edges = [
            Edge(e.id, squash(e.tail), squash(e.head)) for e in self.right_edges
        ]
        dec = Decomposition(
            source=self,
            plus=Multigraph(plus_vertices, plus_edges),
            minus=Multigraph(self.right_vertices + [AXIS_VERTEX], minus_edges),
        )
        dec._check_cardinalities()
        return dec

    def __repr__(self):
        return (
            f"SymmetricGraph({self.graph.n_vertices} vertices, {self.graph.n_edges} edges, "
            f"{len(self.fixed_vertices)} fixed vertices, {len(self.fixed_edges)} fixed edges)"
        )


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The plus and minus graphs of `source`.

    Their ids tie them back to G (see `SymmetricGraph.decompose`): a
    plus edge is a Left edge of G or one of `half_edges(x)` of a fixed
    edge x, and a minus edge is the Right edge of G with its id.
    """

    source: SymmetricGraph
    plus: Multigraph
    minus: Multigraph

    def _check_cardinalities(self):
        g = self.source
        n_left_e = len(g.left_edges)
        n_fixed_e = len(g.fixed_edges)
        plus, minus = self.plus, self.minus
        sizes = (plus.n_edges, minus.n_edges, plus.n_vertices, minus.n_vertices)
        expected = (
            n_left_e + 2 * n_fixed_e,
            len(g.right_edges),
            len(g.left_vertices) + len(g.fixed_vertices) + n_fixed_e,
            len(g.right_vertices) + 1,
        )
        if sizes != expected:
            raise AssertionError(
                f"plus/minus graph sizes {sizes} do not match the source graph's {expected}"
            )

    def union_graph(self) -> Multigraph:
        """Disjoint union of the plus and minus graphs, plus edges first.

        Construction rejects an input id equal to a derived one, so the
        vertex and edge ids of the two parts never collide: the union is
        a plain concatenation, and its vertex and edge indices are the
        block layout of the mirror map matrices.
        """
        return Multigraph(
            self.plus.vertices + self.minus.vertices,
            self.plus.edges + self.minus.edges,
        )
