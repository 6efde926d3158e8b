"""Critical groups of multigraphs, through the adjoint pair of a boundary map.

The critical group of an adjoint pair (d, d^t) is C1 / (Z + B) where
Z = ker(d) and B = im(d^t).  For a graph's boundary map d this is the
usual critical group (sandpile/Jacobian group), whose order is the
number of maximal spanning forests.  The torsion of coker(d d^t), the
Laplacian's cokernel, is a second, independent presentation of the
same group.  The pair also holds its bicycle space over GF(2), whose
dimension is the number of even invariant factors.  An AdjointPair
holds its multigraph, and d and the fundamental cycles of one spanning
forest as signed supports (see `lattice`); the relation matrix [Z | B],
the input of a Smith form, is the one dense matrix built from them.
The Laplacian is read off the graph's degrees and adjacencies, never
off d, so it stays an independent second route.  The pair of a
disjoint union keeps its two parts, and its critical group is composed
from theirs.

This module also houses the brute-force oracles that the higher-level
checks are tested against, behind an enumeration guard: a frontier
search over spanning trees, which decides the bonds in a BFS order and
merges the branches that reach the same partition of the frontier,
and a Gray-code walk over the cuts of vertex bipartitions.  Both work
one biconnected block at a time, which is exact: every cycle lies in
one block, so the forest count is the product of the blocks' tree
counts, and the GF(2) cycle and cut spaces, hence the bicycle space,
are direct sums over the blocks.  Both stay enumerations and do no
linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graphs import Multigraph
from .lattice import (
    FpAbelianGroup,
    IntMatrix,
    combine,
    direct_sum,
    smith_normal_form,
    support_rows,
)
from .modp import ModpSubspace

DEFAULT_ORACLE_LIMIT = 1 << 20


class OracleLimitError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class AdjointPair:
    """The boundary map d: C1 -> C0 of a multigraph and its transpose dt.

    With the standard bases orthonormal, the adjoint of d *is* its
    transpose, so the cuts (dt's columns) are d's rows.  Every derived
    lattice, group
    and GF(2) space is computed once, on first use, and kept on the
    pair.  The pair of a disjoint union keeps the pairs of its two
    parts, in the union's vertex and edge order, as `parts`; its
    critical group is then read off theirs (see `critical_group`).
    """

    graph: Multigraph
    parts: tuple = ()

    @property
    def c1_rank(self):
        return self.graph.n_edges

    @property
    def c0_rank(self):
        return self.graph.n_vertices

    @cached_property
    def boundary(self) -> tuple:
        """d's columns: edge j as {head: 1, tail: -1}; a loop's is empty."""
        g = self.graph
        return tuple(
            {} if e.is_loop else {g.vertex_index(e.head): 1, g.vertex_index(e.tail): -1}
            for e in g.edges
        )

    @cached_property
    def cuts(self) -> tuple:
        """d's rows: the signed cut of each vertex, a column of dt."""
        return support_rows(self.boundary, self.c0_rank)

    @cached_property
    def spanning_forest(self) -> tuple:
        """(paths, cotree) of the spanning forest that union-find picks
        from the edges in order.

        paths[v] is the signed tree path from the first vertex of v's
        component to v, as {edge index: +-1}, so d of it is e_v - e_root;
        cotree lists the indices of the other edges, loops included.
        """
        g = self.graph
        n = g.n_vertices
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = [[] for _ in range(n)]  # (neighbour, edge, +1 along the edge)
        cotree = []
        for j, e in enumerate(g.edges):
            tail, head = g.vertex_index(e.tail), g.vertex_index(e.head)
            a, b = find(tail), find(head)
            if a == b:
                cotree.append(j)
            else:
                parent[a] = b
                tree[tail].append((head, j, 1))
                tree[head].append((tail, j, -1))

        paths = [None] * n
        for root in range(n):
            if paths[root] is not None:
                continue
            paths[root] = {}
            stack = [root]
            while stack:
                u = stack.pop()
                for w, j, sign in tree[u]:
                    if paths[w] is None:
                        paths[w] = {**paths[u], j: sign}
                        stack.append(w)
        return paths, tuple(cotree)

    @cached_property
    def cycles(self) -> tuple:
        """A basis of Z = ker(d), as supports: the fundamental cycles of
        `spanning_forest`, in cotree order.

        A non-tree edge j gives e_j plus the signed tree path between its
        ends (for a loop the two root paths cancel, leaving e_j).  These
        E - rank(d) vectors lie in ker(d) and are the identity on the
        non-tree coordinates, and a forest carries no cycle, so z - (sum
        of z_j times cycle j over the non-tree j) vanishes for every z
        in ker(d): they span ker(d) itself, not a sublattice (Bacher, de
        la Harpe and Nagnibeda, Bull. SMF 1997).
        """
        g = self.graph
        paths, cotree = self.spanning_forest
        # d of the tree path from head to tail is e_tail - e_head, which
        # cancels d e_j = e_head - e_tail
        ends = [(g.vertex_index(g.edges[j].tail), g.vertex_index(g.edges[j].head)) for j in cotree]
        return tuple(
            combine(((1, {j: 1}), (1, paths[tail]), (-1, paths[head])))
            for j, (tail, head) in zip(cotree, ends)
        )

    @cached_property
    def relation_matrix(self) -> IntMatrix:
        """[Z | B], dense for the Smith form: the cycle basis, then the
        vertex cuts (dt's columns)."""
        columns = self.cycles + self.cuts
        rows = [[0] * len(columns) for _ in range(self.c1_rank)]
        for k, col in enumerate(columns):
            for j, x in col.items():
                rows[j][k] = x
        return IntMatrix(rows, shape=(self.c1_rank, len(columns)))

    @cached_property
    def critical_group(self) -> FpAbelianGroup:
        """C1 / (Z + B).  For a disjoint union it is read off the parts'
        Smith decompositions: the parts' relation matrices, as a block
        diagonal, present the same group, and no Smith form of its size
        runs."""
        if not self.parts:
            return smith_normal_form(self.relation_matrix)
        first, second = self.parts
        return direct_sum(first.critical_group, second.critical_group)

    @cached_property
    def laplacian(self) -> IntMatrix:
        """d dt, read off the graph without d: the degrees (loops not
        counted) on the diagonal, minus the edges joining u and v off it."""
        g = self.graph
        n = g.n_vertices
        rows = [[0] * n for _ in range(n)]
        for e in g.edges:
            if not e.is_loop:
                a, b = g.vertex_index(e.tail), g.vertex_index(e.head)
                rows[a][a] += 1
                rows[b][b] += 1
                rows[a][b] -= 1
                rows[b][a] -= 1
        return IntMatrix(rows, shape=(n, n))

    @cached_property
    def laplacian_snf(self) -> FpAbelianGroup:
        """coker(d dt), whose invariant factors are those of K: an
        independent presentation of K's torsion.

        coker(d dt) = K + coker(d); dropping the free rank (= rank of
        coker(d)) leaves the invariant factors of K whenever coker(d) is
        torsion-free, which holds for every graph boundary map.
        """
        return smith_normal_form(self.laplacian)

    @cached_property
    def bicycle_space(self) -> ModpSubspace:
        """Z cap B over GF(2), Z = ker(d) being the span of the
        fundamental cycles and B = im(dt) that of the vertex cuts; its
        dimension is the number of even invariant factors of the critical
        group.  Only `oracle` and the tests read it."""
        n = self.c1_rank
        return ModpSubspace.from_rows(n, self.cycles).intersection(
            ModpSubspace.from_rows(n, self.cuts)
        )


def forest_count(pair: AdjointPair) -> int:
    """Number of maximal spanning forests of the graph with boundary pair
    `pair`, by the matrix-tree theorem.

    Equals the product of the nonzero invariant factors of the graph
    Laplacian, hence the order of the critical group.  The Laplacian's
    Smith form is `laplacian_snf`, whose invariant factors are K's.
    """
    return math.prod(d for d in pair.laplacian_snf.diagonal if d > 0)


def biconnected_blocks(g: Multigraph) -> list:
    """g's non-loop edges split into biconnected blocks, each given as
    its vertex count and its edges (index, tail, head), with the ends
    numbered within the block.  Tarjan's search with an explicit stack:
    each edge goes on `pending` when first seen, and when nothing below
    u reaches above its parent p, the edges from the tree edge p-u on
    are a block.  Only the tree edge into u is skipped when scanning u,
    so an edge parallel to it stays in its block.
    """
    n = g.n_vertices
    ends = [(g.vertex_index(e.tail), g.vertex_index(e.head)) for e in g.edges]
    adj = [[] for _ in range(n)]
    for j, (a, b) in enumerate(ends):
        if a != b:
            adj[a].append((b, j))
            adj[b].append((a, j))
    disc, low = [0] * n, [0] * n
    clock, pending, blocks = 0, [], []
    for root in range(n):
        if disc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        # (vertex, tree edge into it, its unscanned edges, where that
        # tree edge sits on `pending`)
        stack = [(root, None, iter(adj[root]), 0)]
        while stack:
            u, via, todo, mark = stack[-1]
            for w, j in todo:
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, j, iter(adj[w]), len(pending)))
                    pending.append(j)
                    break
                if j != via and disc[w] < disc[u]:
                    pending.append(j)
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    local = {}
                    edges = [
                        (j, local.setdefault(ends[j][0], len(local)),
                         local.setdefault(ends[j][1], len(local)))
                        for j in pending[mark:]
                    ]
                    blocks.append((len(local), edges))
                    del pending[mark:]
    return blocks


def _add_bond(bond, u, w, join, apart):
    """Merge into the bond of u and w, (0, 1) if there is none, a bond
    that joins them in `join` ways and leaves them apart in `apart` ways:
    the two join u and w when one joins and the other leaves them apart."""
    j, s = bond[u].get(w, (0, 1))
    bond[u][w] = bond[w][u] = (join * s + apart * j, apart * s)


def count_maximal_forests_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT, blocks=None) -> int:
    """Exhaustive forest count (the oracle route): the product of the
    biconnected blocks' spanning-tree counts.

    Every cycle lies in one block, so an edge set is a maximal spanning
    forest exactly when it meets each block in a spanning tree of it
    (loops lie in no block), and the counts multiply.  A block of two
    vertices, or a cycle, has one tree per edge.  In any other block a
    bond (the edges between two vertices) holds the ways it can join its
    ends in a tree and the ways it can leave them apart; parallel bonds
    merge, and a vertex with two neighbours is bypassed by one bond.
    The bonds left are counted by a frontier search (Kawahara et al.,
    IEICE Trans. Fundamentals E100-A(9), 2017), in the order of a BFS
    numbering of the vertices, each by its later end, which keeps the
    frontier narrow.  A state partitions the frontier (the vertices with
    decided and undecided bonds) into the components of the bonds taken
    and holds the number of edge subsets that reach it.  A bond is taken
    only when it joins two components, and a component whose last vertex
    leaves the frontier ends its branch unless it is the whole block.
    It enumerates and does no linear algebra, so it is independent of
    the matrix-tree route.  `blocks`, if given, is `biconnected_blocks(g)`,
    split once by a caller that runs both oracles on g.
    """
    m = g.n_edges
    if 2**m > limit:
        raise OracleLimitError(f"2^{m} subsets exceed the limit {limit}")
    count = 1
    for size, edges in biconnected_blocks(g) if blocks is None else blocks:
        if size == 2 or len(edges) == size:
            count *= len(edges)
            continue
        bond = [{} for _ in range(size)]  # bond[u][w] = (join, apart)
        for _, a, b in edges:
            _add_bond(bond, a, b, 1, 1)
        todo = list(range(size))
        while todo:
            v = todo.pop()
            if len(bond[v]) == 2:
                # in a tree v lies on the path from a to b or hangs on one
                (a, (j1, s1)), (b, (j2, s2)) = bond[v].items()
                bond[v] = {}
                del bond[a][v], bond[b][v]
                _add_bond(bond, a, b, j1 * j2, j1 * s2 + s1 * j2)
                todo += (a, b)
        root = next(v for v in range(size) if bond[v])
        if len(bond[root]) == 1:  # two vertices left
            [(join, _)] = bond[root].values()
            count *= join
            continue
        pos, order, steps = [-1] * size, [root], []
        pos[root] = 0
        for u in order:
            for w, ways in bond[u].items():
                if pos[w] < 0:
                    pos[w] = len(order)
                    order.append(w)
                elif pos[w] < pos[u]:
                    steps.append((u, w, ways))
        # a vertex is named 2k + 1 if it leaves the frontier after step k as
        # that step's later end, else 2k; a component is labelled by its
        # frontier member with the largest name, the one that leaves last
        name = [0] * size
        for k, (u, w, _) in enumerate(steps):
            name[u], name[w] = 2 * k + 1, 2 * k
        states, frontier = {(): 1}, []
        for k, (u, w, (join, apart)) in enumerate(steps):
            a, b = name[u], name[w]
            new = (() if a in frontier else (a,)) + (() if b in frontier else (b,))
            frontier += new
            ia, ib = frontier.index(a), frontier.index(b)
            leave = []
            for v in (b, a):  # if both leave, the later end labels their component
                if v >> 1 == k:
                    leave.append((frontier.index(v), v))
                    frontier.remove(v)
            nxt = {}
            for s, c in states.items():
                s += new
                x, y = s[ia], s[ib]
                branches = [(s, c * apart)]
                if x != y:
                    x, y = (x, y) if x < y else (y, x)
                    branches.append((tuple([y if z == x else z for z in s]), c * join))
                for t, c in branches:
                    for i, v in leave:
                        if t[i] == v and len(t) > 1:
                            break  # v's component leaves the frontier early
                        t = t[:i] + t[i + 1:]
                    else:
                        nxt[t] = nxt.get(t, 0) + c
            states = nxt
        count *= states.get((), 0)  # the walk ends on the empty frontier
    return count


def bicycle_masks_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT, blocks=None):
    """All bicycles of g as edge-subset bitmasks in increasing order, by
    direct inspection of each biconnected block.

    Over GF(2) the cut space is the direct sum of the blocks' cut spaces,
    and so is the cycle space once loops, which lie in no cut, are set
    aside; so g's bicycles are the ORs of one bicycle from each block
    (Godsil and Royle, Algebraic Graph Theory, ch. 14).  A block's walk
    visits the 2^(|V_B| - 1) bipartitions that keep its last vertex on
    one side (a bipartition and its complement share a cut) in Gray-code
    order: each step moves one vertex u across, XORing its incidence
    mask into the cut, and keeps the cuts that meet every vertex evenly
    (the cycles).  Which vertices the cut meets oddly is kept as a bit
    set beside it: the parity of |cut cap inc_w| is additive in the cut,
    so the step XORs in flips[u], the vertices w with |inc_u cap inc_w|
    odd, and a cut is kept when the set is empty.  Each kept cut is
    re-tested vertex by vertex.  This enumerates and does no linear
    algebra, so it is independent of the mod-2 route.  `blocks` is as in
    `count_maximal_forests_bruteforce`.
    """
    m = g.n_edges
    n = g.n_vertices
    if 2**m > limit or 2**n > limit:
        raise OracleLimitError(
            f"2^{m} edge subsets or 2^{n} vertex subsets exceed the limit {limit}"
        )
    bicycles = [0]
    for size, edges in biconnected_blocks(g) if blocks is None else blocks:
        incidence = [0] * size
        for j, tail, head in edges:
            incidence[tail] ^= 1 << j
            incidence[head] ^= 1 << j
        flips = [
            sum(1 << w for w, inc_w in enumerate(incidence) if (inc_u & inc_w).bit_count() & 1)
            for inc_u in incidence
        ]
        found = []
        cut = odd = 0
        for step in range(1 << (size - 1)):
            if step:
                # Gray code: each step flips the vertex at its lowest set bit
                u = (step & -step).bit_length() - 1
                cut ^= incidence[u]
                odd ^= flips[u]
            if not odd:
                if any((cut & inc).bit_count() & 1 for inc in incidence):
                    raise RuntimeError(f"cut {cut:#x} kept but meets a vertex oddly")
                found.append(cut)
        bicycles = [a | b for a in bicycles for b in found]
    return sorted(bicycles)


def subspace_masks(space: ModpSubspace, limit=DEFAULT_ORACLE_LIMIT):
    """All elements of a GF(2) subspace as bitmasks (for oracle diffs):
    the XOR combinations of its basis rows."""
    if 2**space.dim > limit:
        raise OracleLimitError(f"2^{space.dim} elements exceed the limit {limit}")
    masks = [0]
    for row in space.rows:
        masks += [m ^ row for m in masks]
    return masks
