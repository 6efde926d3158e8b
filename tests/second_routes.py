"""Second routes that need nothing but the input: plain data in, plain
data out, and no import of mirrorcrit or of any third-party module, so
any checker can load this file beside any implementation.

A graph is described as plain data: `vertices` [[id, side]], `edges`
[[id, tail, head, side]] and `phi` [[left, right]], one pair per
mirrored vertex pair (a Fixed vertex is its own mirror), with sides
"L", "F" and "R".

**Fixed bicycles from the vertex space.**  A cut d(S) of a vertex set S
is a cycle exactly when every vertex meets it evenly, that is when
L 1_S = 0 mod 2 for the Laplacian L, and d(S) = 0 exactly when S is a
union of components (Godsil and Royle, Algebraic Graph Theory, 2001,
ch. 14; Bacher, de la Harpe and Nagnibeda, Bull. SMF 1997).  So each
dimension is one GF(2) nullity over vertex unknowns, with no edge-space
elimination:

  * phi-fixed bicycles of G = {S : L S = 0, S + phi(S) in C} / C, C the
    component space of G; S + phi(S) = sum of t_k times component k
    adds one unknown t_k per component;
  * psi-fixed bicycles of G+ u G- = {(S, T) : L+ S = 0, L- T = 0,
    S_a + S_b = T_a' + T_b' for each Left edge ab, S_a = S_b for each
    Fixed edge ab} / (C+ + C-), where a' is the mirror of a, or the axis
    vertex of G- when a is Fixed.

**Wedges.**  `wedge` glues two graph files at one Fixed vertex each.
The critical group of a wedge is the direct sum of the parts' groups,
and the plus and minus graphs of the wedge are the wedges of the parts'
(glued at the glued vertex, and at the axis vertex of the minus graphs).
So kappa of G, G+ and G- multiplies, K(G), K(G+) and K(G-) are direct
sums, the exponent |V^phi| - |E^phi| - 1 adds, and both fixed-bicycle
dimensions add.

**Relabelled and mirrored copies.**  `transformed` renames every id,
shuffles the lines within each kind and, to mirror the drawing, swaps
L and R and the arguments of every `phi` and `epair` line.  The
structured report of the copy must equal the original's except
`input_path`, `input_sha256` and `generated_at`.  Run as a script it
transforms a graph file:

    python tests/second_routes.py [--seed N] < in.sg > out.sg
"""

from __future__ import annotations

import random
import sys

AXIS = ("axis",)
KINDS = ("v", "phi", "e", "epair", "efix")


def _rank(rows):
    """Rank over GF(2) of rows given as bit sets."""
    pivots = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def _components(n, pairs):
    """(count, component label of each of the n vertices)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    roots = {}
    labels = [roots.setdefault(find(v), len(roots)) for v in range(n)]
    return len(roots), labels


def _laplacian_rows(n, pairs, offset=0):
    """The rows of L mod 2 on unknowns offset .. offset + n - 1."""
    rows = [0] * n
    for a, b in pairs:
        if a != b:
            bits = 1 << (offset + a) | 1 << (offset + b)
            rows[a] ^= bits
            rows[b] ^= bits
    return rows


def phi_fixed_bicycle_dim(desc) -> int:
    """dim of the phi-fixed bicycles of G, from G's vertex space."""
    names = [v for v, _ in desc["vertices"]]
    index = {v: i for i, v in enumerate(names)}
    mirror = {v: v for v in names}
    for a, b in desc["phi"]:
        mirror[a], mirror[b] = b, a
    n = len(names)
    pairs = [(index[t], index[h]) for _, t, h, _ in desc["edges"]]
    count, labels = _components(n, pairs)
    rows = _laplacian_rows(n, pairs)
    rows += [1 << v ^ 1 << index[mirror[names[v]]] ^ 1 << (n + labels[v]) for v in range(n)]
    # t is fixed by S, so the nullity over (S, t), n + count - rank, is
    # that over S; the quotient by C takes count off it
    return n - _rank(rows)


def psi_fixed_bicycle_dim(desc) -> int:
    """dim of the psi-fixed bicycles of G+ u G-, from their vertex
    spaces.  G+ keeps the Left and Fixed vertices and the Left edges,
    and cuts each Fixed edge at a new vertex; G- keeps the Right vertices
    and edges, with the Fixed vertices identified to one axis vertex."""
    side = dict(map(tuple, desc["vertices"]))
    mirror = {}
    for a, b in desc["phi"]:
        mirror[a], mirror[b] = b, a
    plus = [v for v, s in desc["vertices"] if s != "R"]
    plus += [("sub", eid) for eid, _, _, s in desc["edges"] if s == "F"]
    minus = [v for v, s in desc["vertices"] if s == "R"] + [AXIS]
    p_index = {v: i for i, v in enumerate(plus)}
    m_index = {v: i for i, v in enumerate(minus)}

    def minus_end(v):
        return m_index[AXIS if side[v] == "F" else v]

    plus_pairs, minus_pairs, psi_rows = [], [], []
    n_plus = len(plus)
    for eid, t, h, s in desc["edges"]:
        if s == "L":
            plus_pairs.append((p_index[t], p_index[h]))
            mt, mh = (minus_end(mirror.get(v, v)) for v in (t, h))
            psi_rows.append(
                1 << p_index[t] ^ 1 << p_index[h] ^ 1 << (n_plus + mt) ^ 1 << (n_plus + mh)
            )
        elif s == "F":
            mid = p_index[("sub", eid)]
            plus_pairs += [(p_index[t], mid), (mid, p_index[h])]
            psi_rows.append(1 << p_index[t] ^ 1 << p_index[h])
        else:
            minus_pairs.append((minus_end(t), minus_end(h)))
    c_plus, _ = _components(n_plus, plus_pairs)
    c_minus, _ = _components(len(minus), minus_pairs)
    rows = _laplacian_rows(n_plus, plus_pairs)
    rows += _laplacian_rows(len(minus), minus_pairs, offset=n_plus)
    rows += psi_rows
    return n_plus + len(minus) - _rank(rows) - c_plus - c_minus


def _lines(text) -> dict:
    """The arguments of each line of a graph file, by kind."""
    lines = {kind: [] for kind in KINDS}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines[tokens[0]].append(tokens[1:])
    return lines


def _write(lines) -> str:
    return "".join(" ".join((kind, *args)) + "\n" for kind in KINDS for args in lines[kind])


def wedge(text_a, text_b, vertex_a, vertex_b) -> str:
    """Two graph files glued into one, vertex_b of the second on
    vertex_a of the first; both must be Fixed.  The ids of the first
    file get the prefix `a.` and those of the second `b.`, and the glued
    vertex is `a.<vertex_a>`.  Each file must state its `epair` and
    `efix` lines, as `serialize` writes them: a loop at each glued vertex
    would make a parallel pair that no line can be inferred for."""
    out = {kind: [] for kind in KINDS}
    for prefix, text, glued in (("a", text_a, vertex_a), ("b", text_b, vertex_b)):
        lines = _lines(text)
        if [glued, "F"] not in lines["v"]:
            raise ValueError(f"{glued!r} is not a Fixed vertex")

        def v(x):
            return f"a.{vertex_a}" if x == glued else f"{prefix}.{x}"

        def e(x):
            return f"{prefix}.{x}"

        out["v"] += [(v(x), s) for x, s in lines["v"] if prefix == "a" or x != glued]
        out["phi"] += [(v(a), v(b)) for a, b in lines["phi"]]
        out["e"] += [(e(x), v(t), v(h)) for x, t, h in lines["e"]]
        out["epair"] += [(e(a), e(b)) for a, b in lines["epair"]]
        out["efix"] += [(e(x),) for (x,) in lines["efix"]]
    return _write(out)


def transformed(text, seed, mirror=True) -> str:
    """A copy of a graph file with every id renamed, the lines of each
    kind shuffled (the kinds keep their order, since each id is declared
    before its use) and, when `mirror`, the drawing mirrored."""
    rng = random.Random(seed)
    lines = _lines(text)
    vertex_ids = [args[0] for args in lines["v"]]
    edge_ids = [args[0] for args in lines["e"]]
    vertex_names = dict(zip(vertex_ids, rng.sample(range(len(vertex_ids)), len(vertex_ids))))
    edge_names = dict(zip(edge_ids, rng.sample(range(len(edge_ids)), len(edge_ids))))

    def v(x):
        return f"n{vertex_names[x]}"

    def e(x):
        return f"x{edge_names[x]}"

    flip = {"L": "R", "R": "L", "F": "F"} if mirror else {s: s for s in "LFR"}

    def pair(a, b):
        return (b, a) if mirror else (a, b)

    out = {
        "v": [(v(x), flip[s]) for x, s in lines["v"]],
        "phi": [pair(v(a), v(b)) for a, b in lines["phi"]],
        "e": [(e(x), v(t), v(h)) for x, t, h in lines["e"]],
        "epair": [pair(e(a), e(b)) for a, b in lines["epair"]],
        "efix": [(e(x),) for (x,) in lines["efix"]],
    }
    for kind in KINDS:
        rng.shuffle(out[kind])
    return _write(out)


if __name__ == "__main__":
    argv = sys.argv[1:]
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    sys.stdout.write(transformed(sys.stdin.read(), seed))
