"""Critical groups of graphs and of adjoint pairs of integer matrices.

The critical group of an adjoint pair (d, d^t) is C1 / (Z + B) where
Z = ker(d) and B = im(d^t).  For the pair of a graph boundary map this
is the usual critical group (sandpile/Jacobian group), whose order is
the number of maximal spanning forests.

This module also houses the brute-force oracles (forest enumeration and
bicycle enumeration over edge subsets) that the higher-level checks are
tested against, behind an enumeration guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Multigraph
from .lattice import (
    FpAbelianGroup,
    GroupHom,
    IntMatrix,
    LatticeSolver,
    SmithDecomposition,
    block_diagonal,
    column_lattice_basis,
    integer_kernel,
    smith_normal_form,
)
from .modp import ModpMatrix, ModpSubspace, kernel, row_space

DEFAULT_ORACLE_LIMIT = 1 << 20


class OracleLimitError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class AdjointPair:
    """Mutually transpose maps d: C1 -> C0 and dt: C0 -> C1.

    With the standard bases orthonormal, the adjoint of d *is* its
    transpose, so the constructor derives dt and rejects anything else;
    keeping both fields documents intent at call sites.  Every derived
    lattice, group and GF(p) space is computed once, on first use, and
    kept on the pair.
    """

    d: IntMatrix
    dt: IntMatrix
    _spaces_mod: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.dt != self.d.transpose():
            raise ValueError("dt must be the transpose of d")

    @classmethod
    def from_matrix(cls, d: IntMatrix) -> "AdjointPair":
        return cls(d=d, dt=d.transpose())

    @classmethod
    def from_graph(cls, g: Multigraph) -> "AdjointPair":
        return cls.from_matrix(g.boundary_matrix())

    @property
    def c1_rank(self):
        return self.d.n_cols

    @property
    def c0_rank(self):
        return self.d.n_rows

    @cached_property
    def cycle_lattice(self) -> IntMatrix:
        """Columns generate Z = ker(d); this basis is saturated."""
        return integer_kernel(self.d)

    @cached_property
    def bond_lattice(self) -> IntMatrix:
        """Columns generate B = im(dt): the cut vectors of the vertices."""
        return self.dt

    @cached_property
    def relation_matrix(self) -> IntMatrix:
        return self.cycle_lattice.hstack(self.bond_lattice)

    @cached_property
    def critical_group(self) -> FpAbelianGroup:
        return FpAbelianGroup.quotient(self.c1_rank, self.relation_matrix)

    @cached_property
    def laplacian(self) -> IntMatrix:
        return self.d @ self.dt

    @cached_property
    def laplacian_snf(self) -> SmithDecomposition:
        return smith_normal_form(self.laplacian)

    @cached_property
    def bond_solver(self) -> LatticeSolver:
        return LatticeSolver(self.bond_lattice)

    @cached_property
    def boundary_solver(self) -> LatticeSolver:
        return LatticeSolver(self.d)

    def critical_group_via_laplacian(self) -> FpAbelianGroup:
        """Torsion of coker(d dt), an independent presentation of K.

        coker(d dt) = K + coker(d); stripping free rank (= rank of
        coker(d)) leaves the invariant factors of K whenever coker(d) is
        torsion-free, which holds for every graph boundary map.
        """
        factors = [d for d in self.laplacian_snf.diagonal if d > 0]
        rel = IntMatrix.from_columns(
            [[f if i == j else 0 for i in range(len(factors))] for j, f in enumerate(factors)],
            len(factors),
        )
        return FpAbelianGroup.quotient(len(factors), rel)

    def _spaces(self, p: int):
        """(Z, B, Z cap B) over Z/p, computed once per prime."""
        if p not in self._spaces_mod:
            d = ModpMatrix.from_int_matrix(self.d, p)
            z, b = kernel(d), row_space(d)
            self._spaces_mod[p] = (z, b, z.intersection(b))
        return self._spaces_mod[p]

    def cycle_space_mod(self, p: int) -> ModpSubspace:
        return self._spaces(p)[0]

    def bond_space_mod(self, p: int) -> ModpSubspace:
        return self._spaces(p)[1]

    def p_bicycle_space(self, p: int) -> ModpSubspace:
        """Z cap B over Z/p; its dimension is the number of invariant
        factors of the critical group divisible by p."""
        return self._spaces(p)[2]


def block_pair(a: AdjointPair, b: AdjointPair) -> AdjointPair:
    """Adjoint pair of a disjoint union: block-diagonal boundary."""
    return AdjointPair.from_matrix(block_diagonal(a.d, b.d))


def forest_count(pair: AdjointPair) -> int:
    """Number of maximal spanning forests of the graph with boundary pair
    `pair`, by the matrix-tree theorem.

    Equals the product of the nonzero invariant factors of the graph
    Laplacian, hence the order of the critical group.  The Laplacian's
    Smith form is the one `critical_group_via_laplacian` reads.
    """
    return math.prod(d for d in pair.laplacian_snf.diagonal if d > 0)


def count_maximal_forests_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT) -> int:
    """Exhaustive forest count over all edge subsets (the oracle route).

    A maximal spanning forest is an acyclic edge set of size
    |V| - #components(G).
    """
    m = g.n_edges
    if 2**m > limit:
        raise OracleLimitError(f"2^{m} subsets exceed the limit {limit}")
    n = g.n_vertices
    comp_count, _ = g.components()
    target = n - comp_count
    endpoints = [(g.vertex_index(e.tail), g.vertex_index(e.head)) for e in g.edges]
    count = 0
    for mask in range(1 << m):
        if mask.bit_count() != target:
            continue
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        rest = mask
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            a, b = endpoints[j]
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            count += 1
    return count


def bicycle_masks_bruteforce(g: Multigraph, limit=DEFAULT_ORACLE_LIMIT):
    """All bicycles of g as edge-subset bitmasks, by direct inspection.

    A subset qualifies iff every vertex meets an even number of its
    non-loop edges (a loop adds two to the degree) and it is exactly the
    edge set crossing some vertex bipartition.  No linear algebra is
    involved, so this is independent of the mod-2 route.
    """
    m = g.n_edges
    n = g.n_vertices
    if 2**m > limit or 2**n > limit:
        raise OracleLimitError("subset enumeration exceeds the limit")
    incidence = [0] * n
    for j, e in enumerate(g.edges):
        if not e.is_loop:
            incidence[g.vertex_index(e.tail)] ^= 1 << j
            incidence[g.vertex_index(e.head)] ^= 1 << j
    cuts = set()
    for vmask in range(1 << n):
        cut = 0
        for j, e in enumerate(g.edges):
            if e.is_loop:
                continue
            t = (vmask >> g.vertex_index(e.tail)) & 1
            h = (vmask >> g.vertex_index(e.head)) & 1
            if t != h:
                cut |= 1 << j
        cuts.add(cut)
    out = []
    for mask in range(1 << m):
        if any((mask & inc).bit_count() & 1 for inc in incidence):
            continue
        if mask in cuts:
            out.append(mask)
    return out


def subspace_masks(space: ModpSubspace, limit=DEFAULT_ORACLE_LIMIT):
    """All elements of a GF(2) subspace as bitmasks (for oracle diffs)."""
    if space.p != 2:
        raise ValueError("masks only make sense over GF(2)")
    out = []
    for vec in space.enumerate_elements(limit):
        mask = 0
        for j, x in enumerate(vec):
            if x:
                mask |= 1 << j
        out.append(mask)
    return out


@dataclass(frozen=True, eq=False)
class PairMorphism:
    """Morphism of adjoint pairs: f0 d = d' f1 and f1 dt = d't f0 mod B'.

    When `f0_image_basis` is set, f0 is expressed on that column basis
    of im(d) rather than on the ambient C0 basis; this is the shape
    produced by `complete_morphism` when f0 only exists on im(d).
    """

    source: AdjointPair
    target: AdjointPair
    f1: IntMatrix
    f0: IntMatrix
    f0_image_basis: IntMatrix | None = None

    def _image_coordinates(self) -> IntMatrix:
        """Coordinates of d's columns in the image basis."""
        solver = LatticeSolver(self.f0_image_basis)
        cols = []
        for j in range(self.source.d.n_cols):
            x = solver.solve(self.source.d.column(j))
            if x is None:
                raise AssertionError("columns of d must lie in the image basis lattice")
            cols.append(x)
        return IntMatrix.from_columns(cols, self.f0_image_basis.n_cols)

    def intertwines_boundary(self) -> bool:
        """Exact check of f0 d = d' f1."""
        rhs = self.target.d @ self.f1
        if self.f0_image_basis is None:
            return (self.f0 @ self.source.d) == rhs
        return (self.f0 @ self._image_coordinates()) == rhs

    def intertwines_coboundary(self) -> tuple[bool, bool]:
        """(holds mod B', holds exactly) for f1 dt = d't f0.

        With f0 on an image basis, dt is restricted to that basis.
        """
        if self.f0_image_basis is None:
            lhs = self.f1 @ self.source.dt
        else:
            lhs = self.f1 @ (self.source.dt @ self.f0_image_basis)
        rhs = self.target.dt @ self.f0
        strict = lhs == rhs
        solver = self.target.bond_solver
        mod_ok = all(
            solver.contains(
                [lhs.rows[i][j] - rhs.rows[i][j] for i in range(lhs.n_rows)]
            )
            for j in range(lhs.n_cols)
        )
        return mod_ok, strict

    def is_valid(self) -> bool:
        mod_ok, _ = self.intertwines_coboundary()
        return self.intertwines_boundary() and mod_ok


def preserves_lattices(f1: IntMatrix, source: AdjointPair, target: AdjointPair) -> bool:
    """f1 Z subset Z' and f1 B subset B', checked exactly on generators."""
    z_img = f1 @ source.cycle_lattice
    if not (target.d @ z_img).is_zero():
        return False
    b_img = f1 @ source.bond_lattice
    return target.bond_solver.contains_columns(b_img)


def complete_morphism(f1: IntMatrix, source: AdjointPair, target: AdjointPair) -> PairMorphism:
    """Extend a lattice-preserving f1 to a morphism of adjoint pairs.

    f0 is forced on im(d) by f0(d x) := d'(f1 x); the returned morphism
    restricts the source to (d: C1 -> im d).  When im(d) is saturated in
    C0 (always true for graph boundary maps) f0 is extended by zero on a
    complement, giving a morphism on the full ambient C0.
    """
    if f1.shape != (target.c1_rank, source.c1_rank):
        raise ValueError("f1 shape does not match the pairs")
    if not preserves_lattices(f1, source, target):
        raise ValueError("cycle lattice or bond lattice not preserved by f1")

    snf = smith_normal_form(source.d)
    dfv = target.d @ f1 @ snf.right  # column i = d'(f1(V e_i))
    r = snf.rank

    if all(x in (0, 1) for x in snf.diagonal):
        # im(d) is saturated: with w_i = U^{-1} e_i, im(d) = span(w_0..w_{r-1})
        # and d(V e_i) = w_i.  Send w_i (i < r) to d'(f1(V e_i)) and the
        # complement to zero; in ambient coordinates that is W @ U.
        w_cols = [
            dfv.column(i) if i < r else (0,) * target.c0_rank
            for i in range(source.c0_rank)
        ]
        f0_full = IntMatrix.from_columns(w_cols, target.c0_rank) @ snf.left
        return PairMorphism(source=source, target=target, f1=f1, f0=f0_full)

    basis = column_lattice_basis(source.d)
    solver = source.boundary_solver
    f0_cols = []
    for j in range(basis.n_cols):
        x = solver.solve(basis.column(j))
        if x is None:
            raise AssertionError("image basis must be solvable against d")
        f0_cols.append((target.d @ f1).mul_vector(x))
    f0_on_basis = IntMatrix.from_columns(f0_cols, target.c0_rank)
    return PairMorphism(
        source=source, target=target, f1=f1, f0=f0_on_basis, f0_image_basis=basis
    )


def induced_critical_hom(m: PairMorphism) -> GroupHom:
    """The map K -> K' induced by f1, with the f0 route cross-checked.

    Besides the intertwining conditions and well-definedness, for an
    ambient f0 the map induced by f0 on coker(d dt) is compared with the
    f1 route at the level of element orders on every ambient generator,
    through the embedding K -> coker(d dt), x -> class of d(x).  (The
    embedding is injective whenever coker(d) is torsion-free, so in
    particular for every graph pair.)
    """
    if not m.is_valid():
        raise ValueError("intertwining conditions violated")
    hom = GroupHom(
        source=m.source.critical_group, target=m.target.critical_group, matrix=m.f1
    )
    if not hom.is_well_defined():
        raise ValueError("induced map is not well defined on the presentations")
    if m.f0_image_basis is None:
        lap_src = FpAbelianGroup.quotient(m.source.c0_rank, m.source.laplacian)
        lap_tgt = FpAbelianGroup.quotient(m.target.c0_rank, m.target.laplacian)
        lap_hom = GroupHom(source=lap_src, target=lap_tgt, matrix=m.f0)
        if not lap_hom.is_well_defined():
            raise ValueError("f0 does not descend to the Laplacian cokernels")
        for j in range(m.source.c1_rank):
            e = [int(i == j) for i in range(m.source.c1_rank)]
            k_order = m.target.critical_group.element_order(m.f1.mul_vector(e))
            lap_order = lap_tgt.element_order(m.f0.mul_vector(m.source.d.mul_vector(e)))
            if lap_order != k_order:
                raise ValueError(
                    f"f0 and f1 induce different maps at generator {j}: "
                    f"order {lap_order} vs {k_order}"
                )
    return hom


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
