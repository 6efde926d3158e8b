"""The mirror-symmetry factorization pipeline.

From a valid symmetric graph this module builds the edge-space map

    f : Z(E+) + Z(E-) -> Z(E),

its transpose, and the involution psi on E+ u E- (phi acts on E), then
computes the induced map f* : K(G+) + K(G-) -> K(G) on critical groups
and verifies, in exact arithmetic:

  * f carries cycles to cycles and bonds to bonds (with the explicit
    cut-vector identities behind the proof);
  * ker(f*) and coker(f*) are 2-torsion, with the doubling witnesses;
  * coker(f*) is the space of phi-fixed bicycles of G and ker(f*) the
    psi-fixed bicycles of G+ u G-, plus the alternate quotient
    presentations of both;
  * the snake-style dimension bookkeeping relating the fixed cycle/bond
    spaces on the two sides;
  * the order factorization |K(G)| = 2^(|V^phi|-|E^phi|-1) |K(G+)| |K(G-)|
    and its spanning-forest corollary, when the hypotheses hold.

The factorization theorem needs three hypotheses, which are tracked as
applicability flags rather than assumed: the plus graph is connected,
the axis is nonempty (some vertex is fixed), and the fixed subgraph is
a forest (true for any honest mirror drawing, where fixed edges lie on
the axis line).  Checks whose proofs need a hypothesis are reported as
"not applicable" instead of pass/fail when it is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from .critical import AdjointPair, DualityReport, duality_order_check, forest_count
from .graphs import Decomposition, SymmetricGraph
from .lattice import FpAbelianGroup, GroupHom, IntMatrix
from .modp import (
    ModpSubspace,
    column_masks,
    fixed_ambient,
    fixed_subspace,
    is_involution,
    kernel,
    mask_to_row,
)


@dataclass(frozen=True, eq=False)
class SymmetryMaps:
    """The analysis of one decomposition: f, f^t, psi, phi and everything
    derived from them.

    Column/row order over E+ u E- is: plus edges in plus-graph order,
    then minus edges in minus-graph order.  psi (on E+ u E-) and phi (on
    the edges of G) are index tuples, i -> psi[i].  Every shared quantity
    (pairs, groups, induced homs and their kernels and cokernels, fixed
    GF(2) spaces, f mod 2) is computed once, on first use, and held here,
    so it lives exactly as long as this graph's analysis.  GF(2) vectors
    are bit sets, bit j = coordinate j.
    """

    dec: Decomposition
    f_matrix: IntMatrix
    psi: tuple
    phi: tuple

    @property
    def graph(self):
        return self.dec.source

    @property
    def n_plus(self):
        return self.dec.plus.n_edges

    @property
    def n_minus(self):
        return self.dec.minus.n_edges

    @property
    def n_block(self):
        return self.n_plus + self.n_minus

    @cached_property
    def ft_matrix(self) -> IntMatrix:
        return self.f_matrix.transpose()

    @cached_property
    def f_columns_mod2(self) -> list:
        """Column j of f mod 2, as a bit set over the edges of G."""
        return column_masks(self.f_matrix)

    def f_mod2(self, vec: int) -> int:
        """f(vec) mod 2 for a bit set over E+ u E-: the XOR of the
        columns at vec's set bits."""
        columns = self.f_columns_mod2
        out = 0
        while vec:
            low = vec & -vec
            out ^= columns[low.bit_length() - 1]
            vec ^= low
        return out

    @cached_property
    def pair_g(self) -> AdjointPair:
        return AdjointPair.from_graph(self.graph.graph)

    @cached_property
    def pair_plus(self) -> AdjointPair:
        return AdjointPair.from_graph(self.dec.plus)

    @cached_property
    def pair_minus(self) -> AdjointPair:
        return AdjointPair.from_graph(self.dec.minus)

    @cached_property
    def pair_union(self) -> AdjointPair:
        # the pair of G+ u G- (plus edges first) presents K(G+) + K(G-)
        # as one quotient of Z(E+ u E-), whose Smith decomposition is
        # read off the plus and minus groups' own
        return AdjointPair.direct_sum(self.pair_plus, self.pair_minus)

    @cached_property
    def f_star(self) -> GroupHom:
        """f* : K(G+) + K(G-) -> K(G), on the block presentation."""
        return _descend("f", self.f_matrix, self.pair_union, self.pair_g)

    @cached_property
    def ft_star(self) -> GroupHom:
        """(f^t)* : K(G) -> K(G+) + K(G-)."""
        return _descend("f^t", self.ft_matrix, self.pair_g, self.pair_union)

    @cached_property
    def ker_f(self) -> FpAbelianGroup:
        return self.f_star.kernel()

    @cached_property
    def coker_f(self) -> FpAbelianGroup:
        return self.f_star.cokernel()

    @cached_property
    def ker_ft(self) -> FpAbelianGroup:
        return self.ft_star.kernel()

    @cached_property
    def coker_ft(self) -> FpAbelianGroup:
        return self.ft_star.cokernel()

    @cached_property
    def z_phi(self) -> ModpSubspace:
        return fixed_subspace(self.phi, self.pair_g.cycle_space_mod2)

    @cached_property
    def b_phi(self) -> ModpSubspace:
        return fixed_subspace(self.phi, self.pair_g.bond_space_mod2)

    @cached_property
    def z_psi(self) -> ModpSubspace:
        return fixed_subspace(self.psi, self.pair_union.cycle_space_mod2)

    @cached_property
    def b_psi(self) -> ModpSubspace:
        return fixed_subspace(self.psi, self.pair_union.bond_space_mod2)

    @cached_property
    def sum_phi(self) -> ModpSubspace:
        return self.z_phi.plus(self.b_phi)

    @cached_property
    def sum_psi(self) -> ModpSubspace:
        return self.z_psi.plus(self.b_psi)

    @cached_property
    def phi_bicycles(self) -> ModpSubspace:
        """Bicycles of G fixed by the edge action of phi."""
        return fixed_subspace(self.phi, self.pair_g.bicycle_space)

    @cached_property
    def psi_bicycles(self) -> ModpSubspace:
        """Bicycles of G+ u G- fixed by psi."""
        return fixed_subspace(self.psi, self.pair_union.bicycle_space)


def _descend(name, matrix, source: AdjointPair, target: AdjointPair) -> GroupHom:
    """The hom of critical groups induced by `matrix`, checked well defined.

    `GroupHom` carries it in the Smith coordinates of the two critical
    groups; its well-definedness check covers every source generator, so
    an edge map that does not descend raises here.
    """
    hom = GroupHom(source.critical_group, target.critical_group, matrix)
    if not hom.well_defined:
        raise RuntimeError(f"{name} does not descend to the critical groups")
    return hom


def build_maps(dec: Decomposition) -> SymmetryMaps:
    """Populate f, psi and the edge action of phi; f^t is derived from f.

    Columns of f, per the case analysis of the mirror map: a plus edge
    from a Left edge e goes to e + phi(e); each half of a subdivided
    fixed edge goes to the fixed edge itself; a minus edge e goes to
    e - phi(e).  Signs are trivial because the orientation is
    phi-equivariant.  psi swaps the two halves of every subdivided edge
    and swaps each Left-origin plus edge with its mirror minus edge; it
    is not induced by any graph automorphism, so it exists only mod 2.
    """
    g = dec.source
    graph = g.graph
    ephi = g.edge_involution
    n_edges = graph.n_edges
    plus_edges = dec.plus.edges
    minus_edges = dec.minus.edges

    columns = []
    for e in plus_edges:
        origin = dec.plus_edge_origin[e.id]
        col = [0] * n_edges
        if origin[0] == "left":
            eid = origin[1]
            col[graph.edge_index(eid)] += 1
            col[graph.edge_index(ephi[eid])] += 1
        else:
            col[graph.edge_index(origin[1])] += 1
        columns.append(col)
    for e in minus_edges:
        eid = dec.minus_edge_origin[e.id]
        col = [0] * n_edges
        col[graph.edge_index(eid)] += 1
        col[graph.edge_index(ephi[eid])] -= 1
        columns.append(col)
    f_matrix = IntMatrix.from_columns(columns, n_edges)

    plus_pos = {e.id: i for i, e in enumerate(plus_edges)}
    minus_pos = {e.id: len(plus_edges) + i for i, e in enumerate(minus_edges)}
    psi = []
    for e in plus_edges:
        origin = dec.plus_edge_origin[e.id]
        if origin[0] == "left":
            psi.append(minus_pos[ephi[origin[1]]])
        else:
            psi.append(plus_pos[dec.half_pairing[e.id]])
    for e in minus_edges:
        psi.append(plus_pos[ephi[dec.minus_edge_origin[e.id]]])
    phi = tuple(graph.edge_index(ephi[e.id]) for e in graph.edges)

    if not is_involution(psi) or not is_involution(phi):
        raise AssertionError("psi and phi must square to the identity")
    return SymmetryMaps(
        dec=dec,
        f_matrix=f_matrix,
        psi=tuple(psi),
        phi=phi,
    )


# ---------------------------------------------------------------------------
# lattice preservation


@dataclass(frozen=True)
class LatticePreservationReport:
    cycles_into_cycles: bool
    bonds_into_bonds: bool
    subdivision_bonds_vanish: bool
    fixed_vertex_bonds_match: bool
    left_vertex_bonds_match: bool
    contracted_bond_matches: bool
    right_vertex_bonds_match: bool

    @property
    def passed(self):
        return all(
            (
                self.cycles_into_cycles,
                self.bonds_into_bonds,
                self.subdivision_bonds_vanish,
                self.fixed_vertex_bonds_match,
                self.left_vertex_bonds_match,
                self.contracted_bond_matches,
                self.right_vertex_bonds_match,
            )
        )


def verify_lattice_preservation(maps: SymmetryMaps) -> LatticePreservationReport:
    """f carries Z+ + Z- into Z and B+ + B- into B, exactly.

    Membership in B = im(d^t) needs no solver: d is a signed incidence
    matrix, hence totally unimodular, so its nonzero invariant factors
    are all 1 and B is saturated in Z^E (Bacher, de la Harpe and
    Nagnibeda, Bull. SMF 1997).  A saturated lattice is the orthogonal
    complement of its orthogonal complement, Z = ker(d), so a vector is
    in B exactly when it is orthogonal to every cycle.

    Bond preservation is refined into the five cut-vector identities
    that actually drive it: the cut at a subdivision vertex dies, cuts
    at fixed vertices map to the matching cut of G, cuts at left
    vertices symmetrize, the cut at the contracted vertex becomes
    b(V_L) - b(V_R), and cuts at right vertices antisymmetrize.  They
    are read off matrices already in hand: column k of f @ dt_union
    (the bond image above) is f of the cut of union vertex k, plus
    vertices first and then minus vertices, and row v of d is the
    signed cut of v in G (zero at a loop).
    """
    g = maps.graph
    dec = maps.dec
    f = maps.f_matrix

    z_image = maps.pair_g.d @ (f @ maps.pair_union.cycle_lattice)
    cycles_ok = z_image.is_zero()

    bond_image = f @ maps.pair_union.bond_lattice
    bonds_ok = (maps.pair_g.cycle_lattice.transpose() @ bond_image).is_zero()

    image = bond_image.transpose().rows
    cut = dict(zip(g.graph.vertices, maps.pair_g.d.rows))
    n_plus_vertices = dec.plus.n_vertices
    vphi = g.vertex_involution

    def f_of_plus_cut(v):
        return image[dec.plus.vertex_index(v)]

    def f_of_minus_cut(v):
        return image[n_plus_vertices + dec.minus.vertex_index(v)]

    def cut_sum(added, subtracted=()):
        """The sum of the cuts of `added` minus those of `subtracted`."""
        acc = [0] * g.graph.n_edges
        for sign, vertices in ((1, added), (-1, subtracted)):
            for v in vertices:
                acc = [a + sign * x for a, x in zip(acc, cut[v])]
        return tuple(acc)

    sub_ok = all(not any(f_of_plus_cut(s)) for s in dec.subdivision_vertex.values())
    fixed_ok = all(f_of_plus_cut(v) == cut[v] for v in g.fixed_vertices)
    left_ok = all(f_of_plus_cut(v) == cut_sum((v, vphi[v])) for v in g.left_vertices)
    contracted_ok = f_of_minus_cut(dec.contracted_vertex) == cut_sum(
        g.left_vertices, g.right_vertices
    )
    right_ok = all(
        f_of_minus_cut(v) == cut_sum((v,), (vphi[v],)) for v in g.right_vertices
    )

    return LatticePreservationReport(
        cycles_into_cycles=cycles_ok,
        bonds_into_bonds=bonds_ok,
        subdivision_bonds_vanish=sub_ok,
        fixed_vertex_bonds_match=fixed_ok,
        left_vertex_bonds_match=left_ok,
        contracted_bond_matches=contracted_ok,
        right_vertex_bonds_match=right_ok,
    )


# ---------------------------------------------------------------------------
# 2-torsion of the induced maps on critical groups


@dataclass(frozen=True)
class TorsionReport:
    ker_f: FpAbelianGroup
    coker_f: FpAbelianGroup
    ker_ft: FpAbelianGroup
    coker_ft: FpAbelianGroup
    all_two_torsion: bool
    doubling_witnesses: bool

    @property
    def passed(self):
        return self.all_two_torsion and self.doubling_witnesses


def two_torsion_check(maps: SymmetryMaps) -> TorsionReport:
    """ker/coker of f* and (f^t)* are killed by 2, with exact witnesses.

    The witnesses are the matrix identities behind 2-torsion: for a Left
    edge e,  f(e, -phi(e)) = 2e  and  f^t(e + phi(e)) = 2(e, 0);  for a
    Right edge e,  f^t(e - phi(e)) = 2(0, e);  for a fixed edge e with
    halves e', e'',  f^t(e) = (e' + e'', 0).  Each is read off rows:
    f(e_j) is row j of f^t and f^t(e_i) is row i of f, so every left-hand
    side is one row or the sum or difference of two.
    """
    g = maps.graph
    graph = g.graph
    dec = maps.dec
    ephi = g.edge_involution
    f_rows = maps.f_matrix.rows
    ft_rows = maps.ft_matrix.rows
    plus_pos = {e.id: i for i, e in enumerate(dec.plus.edges)}
    minus_pos = {e.id: maps.n_plus + i for i, e in enumerate(dec.minus.edges)}

    def f_row(eid):
        return f_rows[graph.edge_index(eid)]

    witnesses = True
    for e in g.left_edges:
        mirror = ephi[e.id]
        doubled = map(sub, ft_rows[plus_pos[e.id]], ft_rows[minus_pos[mirror]])
        witnesses &= _equals_sparse(doubled, {graph.edge_index(e.id): 2})
        folded = map(add, f_row(e.id), f_row(mirror))
        witnesses &= _equals_sparse(folded, {plus_pos[e.id]: 2})
    for e in g.right_edges:
        folded = map(sub, f_row(e.id), f_row(ephi[e.id]))
        witnesses &= _equals_sparse(folded, {minus_pos[e.id]: 2})
    for e in g.fixed_edges:
        halves = {plus_pos[(e.id, 1)]: 1, plus_pos[(e.id, 2)]: 1}
        witnesses &= _equals_sparse(f_row(e.id), halves)

    groups = (maps.ker_f, maps.coker_f, maps.ker_ft, maps.coker_ft)
    return TorsionReport(
        *groups,
        all_two_torsion=all(grp.annihilated_by(2) for grp in groups),
        doubling_witnesses=witnesses,
    )


def _equals_sparse(vec, entries) -> bool:
    """`vec` has the `{index: value}` entries and is zero elsewhere."""
    return all(x == entries.get(k, 0) for k, x in enumerate(vec))


# ---------------------------------------------------------------------------
# bicycle identifications


@dataclass(frozen=True)
class BicycleIdentification:
    dim_phi_fixed: int
    dim_psi_fixed: int
    coker_order: int
    ker_order: int
    coker_matches: bool
    ker_matches: bool
    ker_ft_mod2_dim: int
    ker_ft_basis_ok: bool
    ker_f_psi_fixed_ok: bool
    dim_phi_ambient: int
    dim_psi_ambient: int
    dim_sum_phi: int
    dim_sum_psi: int
    phi_quotient_log2: int
    psi_quotient_log2: int
    alternate_ker_matches: bool
    alternate_coker_matches: bool


def identify_kernel_cokernel(maps: SymmetryMaps) -> BicycleIdentification:
    """Match |coker(f*)| and |ker(f*)| with fixed bicycle spaces.

    Also verifies the two mod-2 kernel descriptions behind the match
    (ker(f^t mod 2) is spanned by the e + phi(e) for Left edges e, and
    ker(f mod 2) is exactly the psi-fixed ambient subspace), and
    computes the alternate quotient presentations

        ker(f*)   ~ ((Z/2)E)^phi / (Z^phi + B^phi)
        coker(f*) ~ ((Z/2)(E+ u E-))^psi / ((Z+ + Z-)^psi + (B+ + B-)^psi).

    Note the cross-over: the quotient on the G side presents the
    *kernel* and the quotient on the G+ u G- side the *cokernel*,
    mirroring the cross-over in the kernel identifications above.  (The
    two fixed ambients have the same dimension |E_L| + |E^phi|, so this
    pairing is the one consistent with |sum^psi| / |sum^phi| =
    |ker| / |coker|; the reversed pairing fails already on a mirrored
    4-cycle, where ker(f*) = 0 and coker(f*) = Z/2.)
    """
    g = maps.graph
    graph = g.graph
    phi_bic = maps.phi_bicycles
    psi_bic = maps.psi_bicycles
    coker_order = maps.coker_f.order()
    ker_order = maps.ker_f.order()

    # ker(f^t mod 2) versus its predicted basis {e + phi(e) : e Left}
    ker_ft2 = kernel(maps.ft_matrix)
    rows = [
        1 << graph.edge_index(e.id) | 1 << graph.edge_index(g.edge_involution[e.id])
        for e in g.left_edges
    ]
    predicted = ModpSubspace.from_rows(graph.n_edges, rows)
    ker_ft_ok = ker_ft2 == predicted and ker_ft2.dim == len(g.left_edges)

    # ker(f mod 2) versus the psi-fixed ambient subspace
    psi_ambient = fixed_ambient(maps.psi)
    ker_f_ok = kernel(maps.f_matrix) == psi_ambient

    phi_ambient = fixed_ambient(maps.phi)
    sum_phi, sum_psi = maps.sum_phi, maps.sum_psi
    phi_quotient = phi_ambient.dim - sum_phi.dim
    psi_quotient = psi_ambient.dim - sum_psi.dim

    return BicycleIdentification(
        dim_phi_fixed=phi_bic.dim,
        dim_psi_fixed=psi_bic.dim,
        coker_order=coker_order,
        ker_order=ker_order,
        coker_matches=(coker_order == 2**phi_bic.dim),
        ker_matches=(ker_order == 2**psi_bic.dim),
        ker_ft_mod2_dim=ker_ft2.dim,
        ker_ft_basis_ok=ker_ft_ok,
        ker_f_psi_fixed_ok=ker_f_ok,
        dim_phi_ambient=phi_ambient.dim,
        dim_psi_ambient=psi_ambient.dim,
        dim_sum_phi=sum_phi.dim,
        dim_sum_psi=sum_psi.dim,
        phi_quotient_log2=phi_quotient,
        psi_quotient_log2=psi_quotient,
        alternate_ker_matches=(2**phi_quotient == ker_order),
        alternate_coker_matches=(2**psi_quotient == coker_order),
    )


# ---------------------------------------------------------------------------
# the injection ker -> coker


@dataclass(frozen=True)
class InjectionReport:
    domain_dim: int
    image_dim: int
    images: tuple
    halves_agree: bool
    image_in_phi_fixed_bicycles: bool
    injective: bool


def g_injection(maps: SymmetryMaps) -> InjectionReport:
    """The map g(x, x') = f(x, 0) = f(0, x') on psi-fixed bicycles.

    Its image lands in the phi-fixed bicycles of G; on a mirror drawing
    (fixed subgraph a forest) it is injective, which forces
    |ker(f*)| <= |coker(f*)|.
    """
    domain = maps.psi_bicycles
    n_edges = maps.graph.graph.n_edges
    phi_bic = maps.phi_bicycles
    plus_mask = (1 << maps.n_plus) - 1
    rows = []
    halves_agree = True
    for vec in domain.rows:
        y1 = maps.f_mod2(vec & plus_mask)
        y2 = maps.f_mod2(vec & ~plus_mask)
        if y1 != y2:
            halves_agree = False
        rows.append(y1)
    image = ModpSubspace.from_rows(n_edges, rows)
    return InjectionReport(
        domain_dim=domain.dim,
        image_dim=image.dim,
        images=tuple(mask_to_row(y, n_edges) for y in rows),
        halves_agree=halves_agree,
        image_in_phi_fixed_bicycles=all(phi_bic.contains(r) for r in rows),
        injective=(image.dim == domain.dim),
    )


# ---------------------------------------------------------------------------
# snake-style dimension bookkeeping


@dataclass(frozen=True)
class SnakeReport:
    dim_z_psi: int
    dim_b_psi: int
    dim_z_phi: int
    dim_b_phi: int
    dim_cap_psi: int
    dim_cap_phi: int
    dim_sum_psi: int
    dim_sum_phi: int
    exponent: int
    log2_ker: int
    log2_coker: int
    column_exactness: bool
    bond_dim_plus_formula: bool
    bond_dim_formula: bool
    cycle_dim_gap_formula: bool
    sum_ratio_matches_ker_coker: bool
    final_two_power_identity: bool


def snake_dimension_report(maps: SymmetryMaps) -> SnakeReport:
    """Dimensions of the fixed cycle/bond spaces and their identities.

    Formulas verified (hypotheses permitting):
      dim (B+ + B-)^psi = |V_R| + |E^phi|
      dim B^phi         = |V_R| + |V^phi| - 1
      dim Z^phi - dim (Z+ + Z-)^psi = |V^phi| - |E^phi| - 1
      dim sums differ by log2 |ker f*| - log2 |coker f*|
      0 = 2 (|V^phi| - |E^phi| - 1) + 2 (log2|ker| - log2|coker|)

    Column exactness (dim cap + dim sum = sum of dims, on both sides) is
    unconditional and checked always.
    """
    g = maps.graph
    z_psi, b_psi, sum_psi = maps.z_psi, maps.b_psi, maps.sum_psi
    z_phi, b_phi, sum_phi = maps.z_phi, maps.b_phi, maps.sum_phi
    cap_psi = z_psi.intersection(b_psi)
    cap_phi = z_phi.intersection(b_phi)

    # the fixed space of an intersection is the intersection of the
    # fixed spaces; cross-check against the bicycle route
    if cap_psi != maps.psi_bicycles or cap_phi != maps.phi_bicycles:
        raise AssertionError("fixed-space routes disagree on the bicycle spaces")

    exponent = g.two_power_exponent()
    log2_ker = maps.psi_bicycles.dim
    log2_coker = maps.phi_bicycles.dim

    column_exact = (
        cap_psi.dim + sum_psi.dim == z_psi.dim + b_psi.dim
        and cap_phi.dim + sum_phi.dim == z_phi.dim + b_phi.dim
    )

    n_vr = len(g.right_vertices)
    return SnakeReport(
        dim_z_psi=z_psi.dim,
        dim_b_psi=b_psi.dim,
        dim_z_phi=z_phi.dim,
        dim_b_phi=b_phi.dim,
        dim_cap_psi=cap_psi.dim,
        dim_cap_phi=cap_phi.dim,
        dim_sum_psi=sum_psi.dim,
        dim_sum_phi=sum_phi.dim,
        exponent=exponent,
        log2_ker=log2_ker,
        log2_coker=log2_coker,
        column_exactness=column_exact,
        bond_dim_plus_formula=(b_psi.dim == n_vr + len(g.fixed_edges)),
        bond_dim_formula=(b_phi.dim == n_vr + len(g.fixed_vertices) - 1),
        cycle_dim_gap_formula=(z_phi.dim - z_psi.dim == exponent),
        sum_ratio_matches_ker_coker=(sum_psi.dim - sum_phi.dim == log2_ker - log2_coker),
        final_two_power_identity=(exponent + log2_ker == log2_coker),
    )


# ---------------------------------------------------------------------------
# constructive cycle basis for the axis components


@dataclass(frozen=True)
class LinkingCycleBasis:
    representatives: tuple
    paths: tuple
    cycles: tuple
    image_dim: int
    dim_z_phi: int
    independent_and_spanning: bool


def component_linking_cycles(maps: SymmetryMaps) -> LinkingCycleBasis:
    """Cycles p + phi(p) linking consecutive axis components.

    Choose one representative vertex per component of the fixed
    subgraph; connect consecutive representatives by breadth-first
    paths in the plus graph; symmetrizing each path yields a phi-fixed
    cycle of G.  These cycles complete the image of the psi-fixed
    cycles under g to all of Z^phi, and the verification of that
    (independence and spanning, by dimension count) is part of the
    result.
    """
    g = maps.graph
    dec = maps.dec
    if not dec.plus.is_connected():
        raise ValueError("the plus graph must be connected")
    count, labels = g.fixed_subgraph_components()

    reps = []
    seen = set()
    for v in g.fixed_vertices:
        c = labels[v]
        if c not in seen:
            seen.add(c)
            reps.append(v)

    plus = dec.plus
    adj = {v: [] for v in plus.vertices}
    for idx, e in enumerate(plus.edges):
        adj[e.tail].append((idx, e.head))
        adj[e.head].append((idx, e.tail))

    def bfs_path(a, b):
        # deterministic: explores edges in stored order
        if a == b:
            return []
        parent = {a: None}
        queue = [a]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for idx, y in adj[x]:
                if y not in parent:
                    parent[y] = (idx, x)
                    if y == b:
                        path = []
                        cur = y
                        while parent[cur] is not None:
                            idx, prev = parent[cur]
                            path.append(idx)
                            cur = prev
                        return path[::-1]
                    queue.append(y)
        raise AssertionError("plus graph claimed connected but path not found")

    n_edges = g.graph.n_edges
    paths = []
    cycles = []
    for a, b in zip(reps, reps[1:]):
        idxs = bfs_path(a, b)
        paths.append(tuple(plus.edges[i].id for i in idxs))
        block = 0
        for i in idxs:
            block ^= 1 << i
        cycles.append(maps.f_mod2(block))

    z_phi = maps.z_phi
    plus_mask = (1 << maps.n_plus) - 1
    image_rows = [maps.f_mod2(vec & plus_mask) for vec in maps.z_psi.rows]
    image = ModpSubspace.from_rows(n_edges, image_rows)

    m = max(count - 1, 0)
    combined = ModpSubspace.from_rows(n_edges, [*image.rows, *cycles])
    ok = (
        all(z_phi.contains(c) for c in cycles)
        and combined.dim == image.dim + m
        and combined.dim == z_phi.dim
    )
    return LinkingCycleBasis(
        representatives=tuple(reps),
        paths=tuple(paths),
        cycles=tuple(mask_to_row(c, n_edges) for c in cycles),
        image_dim=image.dim,
        dim_z_phi=z_phi.dim,
        independent_and_spanning=ok,
    )


# ---------------------------------------------------------------------------
# the full pipeline


VERDICT_ORDER = (
    "lattice_preservation",
    "order_identity",
    "two_torsion",
    "doubling_witnesses",
    "duality",
    "bicycle_cokernel",
    "bicycle_kernel",
    "kernel_ft_basis",
    "kernel_f_psi_fixed",
    "laplacian_presentation",
    "column_exactness",
    "alternate_presentations",
    "g_injective",
    "snake_bond_dims",
    "snake_cycle_gap",
    "snake_sum_ratio",
    "final_two_power_identity",
    "ratio_is_two_power",
    "corollary_factorization",
    "linking_cycle_basis",
)


@dataclass(frozen=True, eq=False)
class FactorizationReport:
    """Everything the analysis produces for one symmetric graph.

    Verdicts are True/False when the check applies and None when a
    hypothesis it needs is not met.  Each quantity behind them is
    computed once per analysis, on the graph's SymmetryMaps, and nothing
    is cached across graphs: every run starts from scratch.
    """

    graph: SymmetricGraph
    maps: SymmetryMaps
    group_g: FpAbelianGroup
    group_plus: FpAbelianGroup
    group_minus: FpAbelianGroup
    group_block: FpAbelianGroup
    ker_f: FpAbelianGroup
    coker_f: FpAbelianGroup
    ker_ft: FpAbelianGroup
    coker_ft: FpAbelianGroup
    kappa_g: int
    kappa_plus: int
    kappa_minus: int
    exponent: int
    axis_components: int
    plus_connected: bool
    axis_nonempty: bool
    axis_forest: bool
    theorem_applicable: bool
    lattice_report: LatticePreservationReport
    torsion_report: TorsionReport
    identification: BicycleIdentification
    injection: InjectionReport
    snake: SnakeReport
    duality: DualityReport
    linking: LinkingCycleBasis | None
    laplacian_match: bool
    verdicts: dict

    @property
    def overall_pass(self):
        return all(v is not False for v in self.verdicts.values())


def main_theorem_verdict(g: SymmetricGraph) -> FactorizationReport:
    """Run the whole pipeline on one symmetric graph.

    Raises InvalidSymmetricGraph on invalid input.  The three
    hypotheses (plus graph connected, axis nonempty, fixed subgraph a
    forest) gate the verdicts whose statements need them; everything
    else is asserted unconditionally.
    """
    g = g.canonical_orientation()
    dec = g.decompose()
    maps = build_maps(dec)

    pair_g, pair_plus, pair_minus = maps.pair_g, maps.pair_plus, maps.pair_minus
    group_g = pair_g.critical_group
    group_plus = pair_plus.critical_group
    group_minus = pair_minus.critical_group
    group_block = maps.pair_union.critical_group

    lattice_report = verify_lattice_preservation(maps)
    torsion = two_torsion_check(maps)
    ident = identify_kernel_cokernel(maps)
    injection = g_injection(maps)
    snake = snake_dimension_report(maps)
    duality = duality_order_check(
        torsion.ker_f, torsion.coker_f, torsion.ker_ft, torsion.coker_ft
    )

    kappa_g = forest_count(pair_g)
    kappa_plus = forest_count(pair_plus)
    kappa_minus = forest_count(pair_minus)

    plus_connected = dec.plus.is_connected()
    axis_nonempty = len(g.fixed_vertices) > 0
    axis_forest = g.fixed_subgraph_is_forest()
    applicable = plus_connected and axis_nonempty and axis_forest
    exponent = g.two_power_exponent()
    axis_components = g.fixed_subgraph_components()[0]

    linking = component_linking_cycles(maps) if applicable else None

    laplacian_match = all(
        pair.laplacian_invariant_factors == pair.critical_group.invariant_factors
        for pair in (pair_g, pair_plus, pair_minus)
    )

    ker_order = torsion.ker_f.order()
    coker_order = torsion.coker_f.order()
    order_identity = (
        group_plus.order() * group_minus.order() * coker_order
        == group_g.order() * ker_order
    ) and group_block.order() == group_plus.order() * group_minus.order()

    def gated(flag, value):
        return value if flag else None

    verdicts = {
        "lattice_preservation": lattice_report.passed,
        "order_identity": order_identity,
        "two_torsion": torsion.all_two_torsion,
        "doubling_witnesses": torsion.doubling_witnesses,
        "duality": duality.passed,
        "bicycle_cokernel": ident.coker_matches,
        "bicycle_kernel": ident.ker_matches,
        "kernel_ft_basis": ident.ker_ft_basis_ok,
        "kernel_f_psi_fixed": ident.ker_f_psi_fixed_ok,
        "laplacian_presentation": laplacian_match,
        "column_exactness": snake.column_exactness,
        # the quotient presentations, the injection, and the sum-ratio
        # identity need only an acyclic axis, not connectivity
        "alternate_presentations": gated(
            axis_forest, ident.alternate_coker_matches and ident.alternate_ker_matches
        ),
        "g_injective": gated(
            axis_forest, injection.halves_agree
            and injection.image_in_phi_fixed_bicycles
            and injection.injective,
        ),
        "snake_bond_dims": gated(
            plus_connected and axis_nonempty,
            snake.bond_dim_plus_formula and snake.bond_dim_formula,
        ),
        "snake_cycle_gap": gated(applicable, snake.cycle_dim_gap_formula),
        "snake_sum_ratio": gated(axis_forest, snake.sum_ratio_matches_ker_coker),
        "final_two_power_identity": gated(applicable, snake.final_two_power_identity),
        "ratio_is_two_power": gated(
            applicable,
            group_g.order() == 2**exponent * group_plus.order() * group_minus.order()
            and coker_order == 2**exponent * ker_order,
        ),
        "corollary_factorization": gated(
            applicable, kappa_g == 2**exponent * kappa_plus * kappa_minus
        ),
        "linking_cycle_basis": gated(
            applicable, linking.independent_and_spanning if linking else None
        ),
    }
    if tuple(verdicts) != VERDICT_ORDER:
        raise AssertionError("verdicts out of VERDICT_ORDER")

    return FactorizationReport(
        graph=g,
        maps=maps,
        group_g=group_g,
        group_plus=group_plus,
        group_minus=group_minus,
        group_block=group_block,
        ker_f=torsion.ker_f,
        coker_f=torsion.coker_f,
        ker_ft=torsion.ker_ft,
        coker_ft=torsion.coker_ft,
        kappa_g=kappa_g,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
        exponent=exponent,
        axis_components=axis_components,
        plus_connected=plus_connected,
        axis_nonempty=axis_nonempty,
        axis_forest=axis_forest,
        theorem_applicable=applicable,
        lattice_report=lattice_report,
        torsion_report=torsion,
        identification=ident,
        injection=injection,
        snake=snake,
        duality=duality,
        linking=linking,
        laplacian_match=laplacian_match,
        verdicts=verdicts,
    )
