"""Critical groups of multigraphs, through the adjoint pair of a boundary map.

The critical group of an adjoint pair (d, d^t) is C1 / (Z + B) where
Z = ker(d) and B = im(d^t).  For a graph's boundary map d this is the
usual critical group (sandpile/Jacobian group), whose order is the
number of maximal spanning forests.  The torsion of coker(d d^t), the
Laplacian's cokernel, is a second, independent presentation of the
same group.  The pair also holds its cycle, bond and bicycle spaces
over GF(2); the bicycle space's dimension is the number of even
invariant factors.  An AdjointPair holds its multigraph, and d and the
fundamental cycles of one spanning forest as signed supports (see
`lattice`); the relation matrix [Z | B], the input of a Smith form, is
the one dense matrix built from them.  The Laplacian is read off the
graph's degrees and adjacencies, never off d, so it stays an
independent second route.  The pair of a disjoint union keeps its two
parts, and its critical group is composed from theirs.

This module also houses the brute-force oracles that the higher-level
checks are tested against, behind an enumeration guard: a backtracking
walk over spanning trees and a Gray-code walk over the cuts of vertex
bipartitions.  Both walk one biconnected block at a time, which is
exact: every cycle lies in one block, so the forest count is the
product of the blocks' tree counts, and the GF(2) cycle and cut spaces,
hence the bicycle space, are direct sums over the blocks.  Both stay
enumerations and do no linear algebra.
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
    def cycle_space_mod2(self) -> ModpSubspace:
        """Z = ker(d) over GF(2): the span of the fundamental cycles."""
        return ModpSubspace.from_rows(self.c1_rank, self.cycles)

    @cached_property
    def bond_space_mod2(self) -> ModpSubspace:
        """B = im(dt) over GF(2): the span of the vertex cuts."""
        return ModpSubspace.from_rows(self.c1_rank, self.cuts)

    @cached_property
    def bicycle_space(self) -> ModpSubspace:
        """Z cap B over GF(2); its dimension is the number of even
        invariant factors of the critical group."""
        return self.cycle_space_mod2.intersection(self.bond_space_mod2)


def forest_count(pair: AdjointPair) -> int:
    """Number of maximal spanning forests of the graph with boundary pair
    `pair`, by the matrix-tree theorem.

    Equals the product of the nonzero invariant factors of the graph
    Laplacian, hence the order of the critical group.  The Laplacian's
    Smith form is `laplacian_snf`, whose invariant factors are K's.
    """
    return math.prod(d for d in pair.laplacian_snf.diagonal if d > 0)


def _blocks(g: Multigraph) -> list:
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


def count_maximal_forests_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT) -> int:
    """Exhaustive forest count (the oracle route): the product of the
    biconnected blocks' spanning-tree counts.

    Every cycle lies in one block, so an edge set is a maximal spanning
    forest exactly when it meets each block in a spanning tree of it
    (loops lie in no block), and the counts multiply.  A block's trees
    are the leaves with |V_B| - 1 edges of a backtracking walk that
    includes or excludes each edge in turn, includes one only when it
    joins two components of the forest so far, and drops a branch when
    too few edges remain.  The union-find has no path compression, so
    one assignment undoes a union, and the walk keeps its own stack, so
    its depth is not bounded by Python's recursion limit.  It enumerates
    and does no linear algebra, so it is independent of the matrix-tree
    route.
    """
    m = g.n_edges
    if 2**m > limit:
        raise OracleLimitError(f"2^{m} subsets exceed the limit {limit}")

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    count = 1
    for size, edges in _blocks(g):
        parent = list(range(size))
        trees = 0
        # (next edge, edges taken) to visit, or (None, root) to undo a
        # union; the include branch sits above its undo, which sits above
        # the exclude branch
        stack = [(0, 0)]
        while stack:
            j, taken = stack.pop()
            if j is None:
                parent[taken] = taken
            elif taken == size - 1:
                trees += 1
            elif len(edges) - j >= size - 1 - taken:
                stack.append((j + 1, taken))
                _, tail, head = edges[j]
                a, b = find(tail), find(head)
                if a != b:
                    parent[a] = b
                    stack += ((None, a), (j + 1, taken + 1))
        count *= trees
    return count


def bicycle_masks_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT):
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
    algebra, so it is independent of the mod-2 route.
    """
    m = g.n_edges
    n = g.n_vertices
    if 2**m > limit or 2**n > limit:
        raise OracleLimitError(
            f"2^{m} edge subsets or 2^{n} vertex subsets exceed the limit {limit}"
        )
    bicycles = [0]
    for size, edges in _blocks(g):
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
