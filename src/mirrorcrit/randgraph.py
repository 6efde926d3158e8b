"""Seeded random mirror-symmetric graphs for corpora and fuzzing.

A left half plus axis is sampled (random edges on V_L u V^phi, loops
and parallels welcome; fixed edges forming a random forest on V^phi)
and then mirrored.  Fixed edge sets are kept acyclic because a mirror
drawing lays fixed edges along the axis line, so the honest instances
of the construction have forest axes; cyclic fixed sets remain legal
*inputs* elsewhere, they are just never generated here.

`mirror_grid` is the deterministic plane family: a grid reflected in
its middle column.
"""

from __future__ import annotations

import random

from .graphfile import parse
from .graphs import FIXED, LEFT, RIGHT, InvalidSymmetricGraph, Multigraph, SymmetricGraph


def random_symmetric_graph(
    seed=None,
    *,
    n_left=3,
    n_fixed=2,
    n_left_edges=5,
    n_fixed_edges=1,
    rng=None,
) -> SymmetricGraph:
    """Deterministic under a fixed seed; raises ValueError when the
    requested sizes are infeasible.  A draw that fails construction is
    a bug of this generator, not bad input, and raises AssertionError."""
    if rng is None:
        rng = random.Random(seed)
    if n_left < 0 or n_fixed < 0 or n_left_edges < 0 or n_fixed_edges < 0:
        raise ValueError("sizes must be nonnegative")
    if n_fixed_edges > max(n_fixed - 1, 0):
        raise ValueError(
            f"infeasible: a forest on {n_fixed} fixed vertices has at most "
            f"{max(n_fixed - 1, 0)} edges (fixed edges need fixed endpoints)"
        )
    if n_left_edges > 0 and n_left + n_fixed == 0:
        raise ValueError("infeasible: left edges need left or fixed vertices")

    left = [f"L{i}" for i in range(1, n_left + 1)]
    fixed = [f"F{i}" for i in range(1, n_fixed + 1)]
    right = [f"R{i}" for i in range(1, n_left + 1)]
    vphi = {f: f for f in fixed}
    for a, b in zip(left, right):
        vphi[a] = b
        vphi[b] = a

    pool = left + fixed
    edges = []
    edge_side = {}
    ephi = {}
    for k in range(n_left_edges):
        tail = rng.choice(pool)
        head = rng.choice(pool)
        a, b = f"a{k}", f"b{k}"
        edges.append((a, tail, head))
        edge_side[a] = LEFT
        ephi[a] = b
        ephi[b] = a

    parent = {f: f for f in fixed}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    fixed_edges = []
    for k in range(n_fixed_edges):
        candidates = [
            (u, v)
            for i, u in enumerate(fixed)
            for v in fixed[i + 1 :]
            if find(u) != find(v)
        ]
        if not candidates:
            raise ValueError("infeasible: not enough room for an acyclic fixed edge")
        u, v = rng.choice(candidates)
        parent[find(u)] = find(v)
        eid = f"f{k}"
        fixed_edges.append((eid, u, v))
        edge_side[eid] = FIXED
        ephi[eid] = eid

    # each Right edge joins the mirrors of its Left partner's endpoints
    mirrored = []
    for k in range(n_left_edges):
        a, tail, head = edges[k]
        b = f"b{k}"
        mirrored.append((b, vphi[tail], vphi[head]))
        edge_side[b] = RIGHT

    all_edges = edges + fixed_edges + mirrored
    graph = Multigraph(left + fixed + right, all_edges)
    vertex_side = {v: LEFT for v in left}
    vertex_side.update({v: FIXED for v in fixed})
    vertex_side.update({v: RIGHT for v in right})
    try:
        return SymmetricGraph(graph, vphi, ephi, vertex_side, edge_side)
    except InvalidSymmetricGraph as exc:
        raise AssertionError(f"generated graph is not a valid symmetric graph: {exc}") from exc


def mirror_grid(rows, cols) -> SymmetricGraph:
    """The rows x cols grid graph, mirrored in its middle column.

    cols must be odd.  The middle column is the axis, and its vertical
    edges are the fixed edges, so the axis is a path and the plus graph
    is connected: every hypothesis of the factorization holds.
    """
    if rows < 1 or cols < 1 or cols % 2 == 0:
        raise ValueError(f"need rows >= 1 and an odd cols >= 1, got {rows} x {cols}")
    mid = cols // 2
    side = {c: LEFT if c < mid else FIXED if c == mid else RIGHT for c in range(cols)}
    lines = [f"v g{r}_{c} {side[c]}" for r in range(rows) for c in range(cols)]
    lines += [
        f"phi g{r}_{c} g{r}_{cols - 1 - c}" for r in range(rows) for c in range(mid)
    ]
    lines += [
        f"e h{r}_{c} g{r}_{c} g{r}_{c + 1}" for r in range(rows) for c in range(cols - 1)
    ]
    lines += [
        f"e u{r}_{c} g{r}_{c} g{r + 1}_{c}" for r in range(rows - 1) for c in range(cols)
    ]
    return parse("\n".join(lines))
