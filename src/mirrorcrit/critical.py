"""Critical groups of graphs and of adjoint pairs of integer matrices.

The critical group of an adjoint pair (d, d^t) is C1 / (Z + B) where
Z = ker(d) and B = im(d^t).  For the pair of a graph boundary map this
is the usual critical group (sandpile/Jacobian group), whose order is
the number of maximal spanning forests.  The torsion of coker(d d^t),
the Laplacian's cokernel, is a second, independent presentation of the
same group.  The pair also holds its cycle, bond and bicycle spaces
over GF(2); the bicycle space's dimension is the number of even
invariant factors.  An AdjointPair's d must be a signed incidence
matrix (each column zero, or one +1 and one -1), as every graph's
boundary map is: the cycle lattice is read off a spanning forest of
its columns.

This module also houses the brute-force oracles (forest enumeration over
edge subsets of the forest size, bicycle enumeration over the cuts of
vertex bipartitions) that the higher-level checks are tested against,
behind an enumeration guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .graphs import Multigraph
from .lattice import (
    FpAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    direct_sum_smith,
    smith_normal_form,
)
from .modp import ModpSubspace, kernel, row_space

DEFAULT_ORACLE_LIMIT = 1 << 20


class OracleLimitError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class AdjointPair:
    """Mutually transpose maps d: C1 -> C0 and dt: C0 -> C1.

    With the standard bases orthonormal, the adjoint of d *is* its
    transpose, so dt is derived from d rather than passed in.  Every
    derived lattice, group and GF(2) space is computed once, on first
    use, and kept on the pair.  The pair of a disjoint union keeps the
    two pairs it is made of as `parts` (see `direct_sum`).
    """

    d: IntMatrix
    parts: tuple = ()

    @classmethod
    def from_graph(cls, g: Multigraph) -> "AdjointPair":
        return cls(g.boundary_matrix())

    @classmethod
    def direct_sum(cls, first: "AdjointPair", second: "AdjointPair") -> "AdjointPair":
        """The pair of a disjoint union: d is block diagonal, first's
        edges and vertices before second's, and the critical group is
        the direct sum of the parts' (see `critical_group`)."""
        (m1, n1), (m2, n2) = first.d.shape, second.d.shape
        rows = [row + (0,) * n2 for row in first.d.rows]
        rows += [(0,) * n1 + row for row in second.d.rows]
        return cls(IntMatrix(rows, shape=(m1 + m2, n1 + n2)), parts=(first, second))

    @property
    def c1_rank(self):
        return self.d.n_cols

    @property
    def c0_rank(self):
        return self.d.n_rows

    @cached_property
    def dt(self) -> IntMatrix:
        return self.d.transpose()

    @cached_property
    def cycle_lattice(self) -> IntMatrix:
        """Columns are a basis of Z = ker(d): the fundamental cycles of the
        spanning forest that union-find picks from d's columns in order.

        A non-tree column j gives e_j plus the signed tree path between
        its ends, and a loop gives e_j.  These E - rank(d) columns lie in
        ker(d) and are the identity on the non-tree coordinates, and a
        forest carries no cycle, so z - (sum of z_j times column j over
        the non-tree j) vanishes for every z in ker(d): they span ker(d)
        itself, not a sublattice (Bacher, de la Harpe and Nagnibeda,
        Bull. SMF 1997).  Raises ValueError on a column that is not a
        signed incidence column.
        """
        n = self.c0_rank
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = [[] for _ in range(n)]  # (neighbour, edge, +1 along the edge)
        cotree = []  # (edge, head, tail); a loop has no ends
        for j, col in enumerate(self.dt.rows):
            ends = sorted((x, v) for v, x in enumerate(col) if x)
            if not ends:
                cotree.append((j, None, None))
                continue
            if [x for x, _ in ends] != [-1, 1]:
                raise ValueError(f"column {j} of d is not a signed incidence column")
            (_, tail), (_, head) = ends
            a, b = find(tail), find(head)
            if a == b:
                cotree.append((j, head, tail))
            else:
                parent[a] = b
                tree[tail].append((head, j, 1))
                tree[head].append((tail, j, -1))

        # paths[v]: the signed tree path from v's root to v, as
        # {edge: +-1}, so d of it is e_v - e_root
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

        columns = []
        for j, head, tail in cotree:
            col = [0] * self.c1_rank
            col[j] = 1
            if head is not None:
                # d of the tree path from head to tail is e_tail - e_head,
                # which cancels d e_j = e_head - e_tail
                for k, sign in paths[tail].items():
                    col[k] += sign
                for k, sign in paths[head].items():
                    col[k] -= sign
            columns.append(col)
        return IntMatrix.from_columns(columns, self.c1_rank)

    @cached_property
    def bond_lattice(self) -> IntMatrix:
        """Columns generate B = im(dt): the cut vectors of the vertices."""
        return self.dt

    @cached_property
    def relation_matrix(self) -> IntMatrix:
        return self.cycle_lattice.hstack(self.bond_lattice)

    @cached_property
    def critical_group(self) -> FpAbelianGroup:
        """C1 / (Z + B).  For a direct sum it is read off the parts' Smith
        decompositions: union-find picks the parts' own spanning forests,
        so the relation matrix [Z1 Z2 | B1 B2] is the parts' block
        diagonal with its columns moved, and no Smith form of its size
        runs."""
        if not self.parts:
            return FpAbelianGroup.quotient(self.c1_rank, self.relation_matrix)
        first, second = self.parts
        z1, b1 = first.cycle_lattice.n_cols, first.c0_rank
        z = z1 + second.cycle_lattice.n_cols
        # column j of [R1 0; 0 R2] is column columns[j] of [Z1 Z2 | B1 B2]
        columns = [*range(z1), *range(z, z + b1), *range(z1, z)]
        columns += range(z + b1, self.relation_matrix.n_cols)
        return FpAbelianGroup.from_smith(direct_sum_smith(
            first.critical_group.witness, second.critical_group.witness,
            self.relation_matrix, columns,
        ))

    @cached_property
    def laplacian(self) -> IntMatrix:
        return self.d @ self.dt

    @cached_property
    def laplacian_snf(self) -> SmithDecomposition:
        return smith_normal_form(self.laplacian)

    @property
    def laplacian_invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors of the torsion of coker(d dt), an independent
        presentation of K.

        coker(d dt) = K + coker(d); dropping the free rank (= rank of
        coker(d)) leaves the invariant factors of K whenever coker(d) is
        torsion-free, which holds for every graph boundary map.  The
        Laplacian's Smith form already lists them.
        """
        return self.laplacian_snf.nontrivial_factors

    @cached_property
    def cycle_space_mod2(self) -> ModpSubspace:
        """Z = ker(d) over GF(2)."""
        return kernel(self.d)

    @cached_property
    def bond_space_mod2(self) -> ModpSubspace:
        """B = im(dt) over GF(2): the row space of d."""
        return row_space(self.d)

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
    Smith form is the one `laplacian_invariant_factors` reads.
    """
    return math.prod(d for d in pair.laplacian_snf.diagonal if d > 0)


def count_maximal_forests_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT) -> int:
    """Exhaustive forest count (the oracle route): walks the edge subsets
    of size |V| - #components(G), the size of every maximal spanning
    forest, and counts the acyclic ones.
    """
    m = g.n_edges
    if 2**m > limit:
        raise OracleLimitError(f"2^{m} subsets exceed the limit {limit}")
    n = g.n_vertices
    comp_count, _ = g.components()
    endpoints = [(g.vertex_index(e.tail), g.vertex_index(e.head)) for e in g.edges]
    count = 0
    for subset in itertools.combinations(endpoints, n - comp_count):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            count += 1
    return count


def bicycle_masks_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT):
    """All bicycles of g as edge-subset bitmasks in increasing order, by
    direct inspection.

    Walks the 2^(|V| - 1) bipartitions that keep the last vertex on one
    side (a bipartition and its complement share a cut) in Gray-code
    order: each step moves one vertex across, XORing its incidence mask
    into the cut (a loop's two ends cancel there), and keeps the cuts
    that meet every vertex evenly (the cycles).  No linear algebra is
    involved, so this is independent of the mod-2 route.
    """
    m = g.n_edges
    n = g.n_vertices
    if 2**m > limit or 2**n > limit:
        raise OracleLimitError(
            f"2^{m} edge subsets or 2^{n} vertex subsets exceed the limit {limit}"
        )
    incidence = [0] * n
    for j, e in enumerate(g.edges):
        incidence[g.vertex_index(e.tail)] ^= 1 << j
        incidence[g.vertex_index(e.head)] ^= 1 << j
    bicycles = set()
    cut = 0
    for step in range(1 << max(n - 1, 0)):
        if step:
            # Gray code: each step flips the vertex at its lowest set bit
            cut ^= incidence[(step & -step).bit_length() - 1]
        if not any((cut & inc).bit_count() & 1 for inc in incidence):
            bicycles.add(cut)
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


@dataclass(frozen=True)
class DualityReport:
    """Isomorphism-type comparison of ker/coker across a transpose pair."""

    ker_h: tuple[int, ...]
    coker_ht: tuple[int, ...]
    coker_h: tuple[int, ...]
    ker_ht: tuple[int, ...]
    kernel_matches_cokernel: bool
    cokernel_matches_kernel: bool

    @property
    def passed(self):
        return self.kernel_matches_cokernel and self.cokernel_matches_kernel


def duality_order_check(ker_h, coker_h, ker_ht, coker_ht) -> DualityReport:
    """ker(h) ~ coker(ht) and coker(h) ~ ker(ht), as invariant factors.

    Takes the four groups ker(h), coker(h), ker(ht), coker(ht) of a
    transpose pair of homs h, ht, computed once by the caller.
    """
    ker_h, coker_h, ker_ht, coker_ht = (
        grp.invariant_factors for grp in (ker_h, coker_h, ker_ht, coker_ht)
    )
    return DualityReport(
        ker_h=ker_h,
        coker_ht=coker_ht,
        coker_h=coker_h,
        ker_ht=ker_ht,
        kernel_matches_cokernel=(ker_h == coker_ht),
        cokernel_matches_kernel=(coker_h == ker_ht),
    )
