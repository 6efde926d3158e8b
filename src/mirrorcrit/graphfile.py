"""Line-oriented text format for mirror-symmetric graphs.

Grammar (whitespace-separated tokens, `#` starts a comment):

    v <id> L|F|R          vertex with its side
    phi <left> <right>    vertex involution pair (Fixed vertices omitted)
    e <id> <tail> <head>  edge; endpoint order is the stored orientation
                          for Left and Fixed edges
    epair <left> <right>  explicit edge involution pair
    efix <id>             explicit involution-fixed edge

`epair`/`efix` lines may be omitted when the involution is inferable,
i.e. when there is a single edge between the mirrored endpoint pair;
parallel edges require explicit lines.  Parsing applies the canonical
(phi-equivariant) orientation, so Right edge orientations in the file
are cosmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import FIXED, LEFT, RIGHT, Multigraph, SymmetricGraph


class ParseError(ValueError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _tokenize(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield line_no, line.split()


@dataclass
class _FileData:
    vertices: list = field(default_factory=list)   # (id, side or None)
    vertex_line: dict = field(default_factory=dict)
    phi_pairs: list = field(default_factory=list)  # (line, left, right)
    edges: list = field(default_factory=list)      # (id, tail, head)
    edge_line: dict = field(default_factory=dict)
    epairs: list = field(default_factory=list)     # (line, left, right)
    efixes: list = field(default_factory=list)     # (line, id)


def _collect(text, require_sides) -> _FileData:
    data = _FileData()
    for line_no, tokens in _tokenize(text):
        kind, args = tokens[0], tokens[1:]
        if kind == "v":
            if len(args) == 1 and not require_sides:
                vid, side = args[0], None
            elif len(args) == 2:
                vid, side = args
                if side not in (LEFT, FIXED, RIGHT):
                    raise ParseError(line_no, f"unknown side {side!r} (expected L, F or R)")
            else:
                want = "v <id> L|F|R" if require_sides else "v <id> [L|F|R]"
                raise ParseError(line_no, f"expected `{want}`")
            if vid in data.vertex_line:
                raise ParseError(line_no, f"duplicate vertex id {vid!r}")
            data.vertex_line[vid] = line_no
            data.vertices.append((vid, side))
        elif kind == "phi":
            if len(args) != 2:
                raise ParseError(line_no, "expected `phi <left-id> <right-id>`")
            data.phi_pairs.append((line_no, args[0], args[1]))
        elif kind == "e":
            if len(args) != 3:
                raise ParseError(line_no, "expected `e <id> <tail> <head>`")
            eid, tail, head = args
            if eid in data.edge_line:
                raise ParseError(line_no, f"duplicate edge id {eid!r}")
            for v in (tail, head):
                if v not in data.vertex_line:
                    raise ParseError(line_no, f"edge endpoint {v!r} is not a declared vertex")
            data.edge_line[eid] = line_no
            data.edges.append((eid, tail, head))
        elif kind == "epair":
            if len(args) != 2:
                raise ParseError(line_no, "expected `epair <left-id> <right-id>`")
            data.epairs.append((line_no, args[0], args[1]))
        elif kind == "efix":
            if len(args) != 1:
                raise ParseError(line_no, "expected `efix <id>`")
            data.efixes.append((line_no, args[0]))
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")
    return data


def parse_plain(text) -> Multigraph:
    """Parse just the multigraph, ignoring all symmetry records."""
    data = _collect(text, require_sides=False)
    return Multigraph([v for v, _ in data.vertices], data.edges)


def parse(text) -> SymmetricGraph:
    """Parse, infer what is inferable, validate, canonically orient."""
    data = _collect(text, require_sides=True)
    vertex_side = dict(data.vertices)
    graph = Multigraph([v for v, _ in data.vertices], data.edges)

    vphi = {v: v for v, side in data.vertices if side == FIXED}
    for line_no, a, b in data.phi_pairs:
        for v in (a, b):
            if v not in vertex_side:
                raise ParseError(line_no, f"phi references unknown vertex {v!r}")
        if vertex_side[a] != LEFT or vertex_side[b] != RIGHT:
            raise ParseError(
                line_no,
                f"phi expects a Left and a Right vertex, got {vertex_side[a]}/{vertex_side[b]}",
            )
        if a in vphi or b in vphi:
            raise ParseError(line_no, f"vertex in more than one phi pair: {a!r}/{b!r}")
        vphi[a] = b
        vphi[b] = a
    for v, side in data.vertices:
        if v not in vphi:
            raise ParseError(
                data.vertex_line[v], f"vertex {v!r} has side {side} but no phi pair"
            )

    ephi = {}
    epair_left = set()
    for line_no, eid in data.efixes:
        if eid not in data.edge_line:
            raise ParseError(line_no, f"efix references unknown edge {eid!r}")
        if eid in ephi:
            raise ParseError(line_no, f"edge {eid!r} declared twice")
        ephi[eid] = eid
    for line_no, a, b in data.epairs:
        for eid in (a, b):
            if eid not in data.edge_line:
                raise ParseError(line_no, f"epair references unknown edge {eid!r}")
            if eid in ephi:
                raise ParseError(line_no, f"edge {eid!r} declared twice")
        if a == b:
            raise ParseError(line_no, f"epair of {a!r} with itself (use efix)")
        ephi[a] = b
        ephi[b] = a
        epair_left.add(a)

    # infer the rest: unambiguous exactly when the mirrored endpoint
    # pair carries a single edge
    def endpoint_key(tail, head):
        return frozenset((tail, head))

    undeclared = [e for e in graph.edges if e.id not in ephi]
    by_endpoints = {}
    for e in undeclared:
        by_endpoints.setdefault(endpoint_key(e.tail, e.head), []).append(e.id)
    for e in undeclared:
        if e.id in ephi:
            continue
        line_no = data.edge_line[e.id]
        mirror_key = endpoint_key(vphi[e.tail], vphi[e.head])
        candidates = [x for x in by_endpoints.get(mirror_key, []) if x not in ephi]
        if mirror_key == endpoint_key(e.tail, e.head):
            if candidates == [e.id]:
                ephi[e.id] = e.id
                continue
            raise ParseError(
                line_no, f"edge {e.id!r}: parallel edges require explicit epair/efix lines"
            )
        if len(candidates) == 1:
            other = candidates[0]
            ephi[e.id] = other
            ephi[other] = e.id
        elif not candidates:
            raise ParseError(line_no, f"edge {e.id!r} has no mirror edge")
        else:
            raise ParseError(
                line_no, f"edge {e.id!r}: parallel edges require explicit epair/efix lines"
            )

    edge_side = {}
    for e in graph.edges:
        if ephi[e.id] == e.id:
            edge_side[e.id] = FIXED
        elif LEFT in (vertex_side[e.tail], vertex_side[e.head]):
            edge_side[e.id] = LEFT
        elif RIGHT in (vertex_side[e.tail], vertex_side[e.head]):
            edge_side[e.id] = RIGHT
        elif e.id in epair_left:
            edge_side[e.id] = LEFT
        elif ephi[e.id] in epair_left:
            edge_side[e.id] = RIGHT
        else:
            raise ParseError(
                data.edge_line[e.id],
                f"cannot infer the side of edge {e.id!r} between fixed vertices; "
                "use an epair line (first id = Left)",
            )

    return SymmetricGraph(graph, vphi, ephi, vertex_side, edge_side).canonical_orientation()


def serialize(g: SymmetricGraph) -> str:
    """Write a graph back out; parse(serialize(g)) reproduces
    g.canonical_orientation(), which is g for a parsed or generated graph.

    Raises ValueError on an id the format cannot carry: one that is not
    a non-empty str free of whitespace and `#`.
    """
    for x in (*g.graph.vertices, *(e.id for e in g.graph.edges)):
        if not (isinstance(x, str) and "#" not in x and x.split() == [x]):
            raise ValueError(f"id {x!r} cannot be written: not a non-empty str "
                             "free of whitespace and '#'")
    lines = []
    for v in g.graph.vertices:
        lines.append(f"v {v} {g.vertex_side[v]}")
    for v in g.graph.vertices:
        if g.vertex_side[v] == LEFT:
            lines.append(f"phi {v} {g.vertex_involution[v]}")
    for e in g.graph.edges:
        lines.append(f"e {e.id} {e.tail} {e.head}")
    for e in g.graph.edges:
        if g.edge_side[e.id] == LEFT:
            lines.append(f"epair {e.id} {g.edge_involution[e.id]}")
        elif g.edge_side[e.id] == FIXED:
            lines.append(f"efix {e.id}")
    return "\n".join(lines) + "\n"
