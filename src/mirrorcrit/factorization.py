"""The mirror-symmetry factorization pipeline.

From a valid symmetric graph this module builds the edge-space map

    f : Z(E+) + Z(E-) -> Z(E),

its transpose, and the involution psi on E+ u E- (phi acts on E), then
computes the induced map f* : K(G+) + K(G-) -> K(G) on critical groups
and verifies, in exact arithmetic:

  * f carries cycles to cycles and bonds to bonds (with the explicit
    cut-vector identities behind the proof);
  * ker(f*) and coker(f*) are 2-torsion, with the doubling witnesses;
  * ker(f*) ~ coker((f^t)*) and coker(f*) ~ ker((f^t)*), compared as
    invariant factors;
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

from .critical import AdjointPair, forest_count
from .graphs import (
    AXIS_VERTEX,
    FIXED,
    LEFT,
    Decomposition,
    SymmetricGraph,
    half_edges,
    subdivision_vertex,
)
from .lattice import FpAbelianGroup, GroupHom, IntMatrix
from .modp import (
    ModpSubspace,
    column_masks,
    fixed_ambient,
    is_involution,
    kernel,
    mask_to_row,
)


@dataclass(frozen=True, eq=False)
class SymmetryMaps:
    """The analysis of one decomposition: f, f^t, psi, phi and everything
    derived from them.

    Column/row order over E+ u E- is the edge order of the union graph
    `pair_union.graph`: plus edges in plus-graph order, then minus edges
    in minus-graph order.  psi (on E+ u E-) and phi (on the edges of G)
    are index tuples, i -> psi[i].  Every shared quantity (pairs,
    groups, induced homs and their kernels and cokernels, fixed GF(2)
    spaces, f mod 2, the axis components and the plus graph's
    connectivity) is computed once, on first use, and held here, so it
    lives exactly as long as this graph's analysis.  GF(2) vectors are
    bit sets, bit j = coordinate j.
    """

    dec: Decomposition
    f_matrix: IntMatrix
    psi: tuple
    phi: tuple
    # the pair of G+ u G-, which presents K(G+) + K(G-) as one quotient
    # of Z(E+ u E-); its parts are the plus and minus pairs
    pair_union: AdjointPair

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
    def axis_components(self) -> tuple:
        """(count, {fixed vertex: component index}) of the axis subgraph
        (V^phi, E^phi)."""
        return self.graph.fixed_subgraph_components()

    @cached_property
    def plus_connected(self) -> bool:
        return self.dec.plus.is_connected()

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
        return AdjointPair(self.graph.graph)

    @property
    def pair_plus(self) -> AdjointPair:
        return self.pair_union.parts[0]

    @property
    def pair_minus(self) -> AdjointPair:
        return self.pair_union.parts[1]

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
    def phi_ambient(self) -> ModpSubspace:
        """The phi-fixed vectors of GF(2)^E."""
        return fixed_ambient(self.phi)

    @cached_property
    def psi_ambient(self) -> ModpSubspace:
        """The psi-fixed vectors of GF(2)^(E+ u E-)."""
        return fixed_ambient(self.psi)

    @cached_property
    def z_phi(self) -> ModpSubspace:
        return self.phi_ambient.intersection(self.pair_g.cycle_space_mod2)

    @cached_property
    def b_phi(self) -> ModpSubspace:
        return self.phi_ambient.intersection(self.pair_g.bond_space_mod2)

    @cached_property
    def z_psi(self) -> ModpSubspace:
        return self.psi_ambient.intersection(self.pair_union.cycle_space_mod2)

    @cached_property
    def b_psi(self) -> ModpSubspace:
        return self.psi_ambient.intersection(self.pair_union.bond_space_mod2)

    @cached_property
    def sum_phi(self) -> ModpSubspace:
        return self.z_phi.plus(self.b_phi)

    @cached_property
    def sum_psi(self) -> ModpSubspace:
        return self.z_psi.plus(self.b_psi)

    @cached_property
    def phi_bicycles(self) -> ModpSubspace:
        """Bicycles of G fixed by the edge action of phi."""
        return self.phi_ambient.intersection(self.pair_g.bicycle_space)

    @cached_property
    def psi_bicycles(self) -> ModpSubspace:
        """Bicycles of G+ u G- fixed by psi."""
        return self.psi_ambient.intersection(self.pair_union.bicycle_space)


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

    One pass over the edges of G, by side, fills the columns of f and
    psi at the union graph's edge indices (the block layout): a Left
    edge e is a plus edge, whose column is e + phi(e) and whose psi
    partner is the minus edge phi(e); a Right edge e is a minus edge,
    whose column is e - phi(e) and whose psi partner is the plus edge
    phi(e); the two `half_edges` of a fixed edge x each have column x
    and are swapped by psi.  Signs are trivial because the orientation
    is phi-equivariant.  psi is not induced by any graph automorphism,
    so it exists only mod 2.
    """
    g = dec.source
    graph = g.graph
    ephi = g.edge_involution
    union = dec.union_graph()
    block = union.edge_index
    n_edges = graph.n_edges

    columns = [[0] * n_edges for _ in range(union.n_edges)]
    psi = [None] * union.n_edges
    for i, e in enumerate(graph.edges):
        side = g.edge_side[e.id]
        if side == FIXED:
            h1, h2 = map(block, half_edges(e.id))
            columns[h1][i] = columns[h2][i] = 1
            psi[h1], psi[h2] = h2, h1
        else:
            j = block(e.id)
            columns[j][i] = 1
            columns[j][graph.edge_index(ephi[e.id])] = 1 if side == LEFT else -1
            psi[j] = block(ephi[e.id])
    f_matrix = IntMatrix.from_columns(columns, n_edges)
    phi = tuple(graph.edge_index(ephi[e.id]) for e in graph.edges)

    if not is_involution(psi) or not is_involution(phi):
        raise AssertionError("psi and phi must square to the identity")
    return SymmetryMaps(
        dec=dec,
        f_matrix=f_matrix,
        psi=tuple(psi),
        phi=phi,
        pair_union=AdjointPair(
            union, parts=(AdjointPair(dec.plus), AdjointPair(dec.minus))
        ),
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
    (the bond image above) is f of the cut of union vertex k, and row v
    of d is the signed cut of v in G (zero at a loop).
    """
    g = maps.graph
    f = maps.f_matrix
    union = maps.pair_union

    z_image = maps.pair_g.d @ (f @ union.cycle_lattice)
    cycles_ok = z_image.is_zero()

    bond_image = f @ union.dt
    bonds_ok = (maps.pair_g.cycle_lattice.transpose() @ bond_image).is_zero()

    f_cut = dict(zip(union.graph.vertices, bond_image.transpose().rows))
    cut = dict(zip(g.graph.vertices, maps.pair_g.d.rows))
    vphi = g.vertex_involution

    def cut_sum(added, subtracted=()):
        """The sum of the cuts of `added` minus those of `subtracted`."""
        acc = [0] * g.graph.n_edges
        for sign, vertices in ((1, added), (-1, subtracted)):
            for v in vertices:
                acc = [a + sign * x for a, x in zip(acc, cut[v])]
        return tuple(acc)

    sub_ok = all(not any(f_cut[subdivision_vertex(e.id)]) for e in g.fixed_edges)
    fixed_ok = all(f_cut[v] == cut[v] for v in g.fixed_vertices)
    left_ok = all(f_cut[v] == cut_sum((v, vphi[v])) for v in g.left_vertices)
    contracted_ok = f_cut[AXIS_VERTEX] == cut_sum(
        g.left_vertices, g.right_vertices
    )
    right_ok = all(f_cut[v] == cut_sum((v,), (vphi[v],)) for v in g.right_vertices)

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
    ephi = g.edge_involution
    f_rows = maps.f_matrix.rows
    ft_rows = maps.ft_matrix.rows
    block = maps.pair_union.graph.edge_index

    def f_row(eid):
        return f_rows[graph.edge_index(eid)]

    witnesses = True
    for e in g.left_edges:
        mirror = ephi[e.id]
        doubled = map(sub, ft_rows[block(e.id)], ft_rows[block(mirror)])
        witnesses &= _equals_sparse(doubled, {graph.edge_index(e.id): 2})
        folded = map(add, f_row(e.id), f_row(mirror))
        witnesses &= _equals_sparse(folded, {block(e.id): 2})
    for e in g.right_edges:
        folded = map(sub, f_row(e.id), f_row(ephi[e.id]))
        witnesses &= _equals_sparse(folded, {block(e.id): 2})
    for e in g.fixed_edges:
        halves = dict.fromkeys(map(block, half_edges(e.id)), 1)
        witnesses &= _equals_sparse(f_row(e.id), halves)

    groups = (maps.ker_f, maps.coker_f, maps.ker_ft, maps.coker_ft)
    return TorsionReport(
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
    coker_matches: bool
    ker_matches: bool
    ker_ft_mod2_dim: int
    ker_ft_basis_ok: bool
    ker_f_psi_fixed_ok: bool
    dim_phi_ambient: int
    dim_psi_ambient: int
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
    ker_f_ok = kernel(maps.f_matrix) == maps.psi_ambient

    phi_quotient = maps.phi_ambient.dim - maps.sum_phi.dim
    psi_quotient = maps.psi_ambient.dim - maps.sum_psi.dim

    return BicycleIdentification(
        dim_phi_fixed=phi_bic.dim,
        dim_psi_fixed=psi_bic.dim,
        coker_matches=(coker_order == 2**phi_bic.dim),
        ker_matches=(ker_order == 2**psi_bic.dim),
        ker_ft_mod2_dim=ker_ft2.dim,
        ker_ft_basis_ok=ker_ft_ok,
        ker_f_psi_fixed_ok=ker_f_ok,
        dim_phi_ambient=maps.phi_ambient.dim,
        dim_psi_ambient=maps.psi_ambient.dim,
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
    independent_and_spanning: bool


def component_linking_cycles(maps: SymmetryMaps) -> LinkingCycleBasis:
    """Cycles p + phi(p) linking consecutive axis components.

    Choose one representative vertex per component of the fixed
    subgraph; connect consecutive representatives by their path in the
    plus graph's spanning tree (the XOR of their two root paths), its
    edges listed in plus-graph order; symmetrizing each path yields a
    phi-fixed cycle of G.  These cycles complete the image of the
    psi-fixed cycles under g to all of Z^phi, and the verification of
    that (independence and spanning, by dimension count) is part of the
    result.
    """
    g = maps.graph
    if not maps.plus_connected:
        raise ValueError("the plus graph must be connected")
    count, labels = maps.axis_components

    reps = []
    seen = set()
    for v in g.fixed_vertices:
        c = labels[v]
        if c not in seen:
            seen.add(c)
            reps.append(v)

    plus = maps.dec.plus
    root_paths, _ = maps.pair_plus.spanning_forest

    def root_mask(v):
        return sum(1 << j for j in root_paths[plus.vertex_index(v)])

    n_edges = g.graph.n_edges
    paths = []
    cycles = []
    for a, b in zip(reps, reps[1:]):
        block = root_mask(a) ^ root_mask(b)
        paths.append(tuple(e.id for j, e in enumerate(plus.edges) if block >> j & 1))
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
    linking: LinkingCycleBasis | None
    laplacian_match: bool
    verdicts: dict

    @property
    def overall_pass(self):
        return all(v is not False for v in self.verdicts.values())


def main_theorem_verdict(g: SymmetricGraph) -> FactorizationReport:
    """Run the whole pipeline on one symmetric graph.

    g is valid and oriented from its construction, so nothing is
    validated here; the report's graph is g.  The three hypotheses
    (plus graph connected, axis nonempty, fixed subgraph a forest) gate
    the verdicts whose statements need them; everything else is
    asserted unconditionally.
    """
    maps = build_maps(g.decompose())
    g = maps.graph

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

    kappa_g = forest_count(pair_g)
    kappa_plus = forest_count(pair_plus)
    kappa_minus = forest_count(pair_minus)

    plus_connected = maps.plus_connected
    axis_nonempty = len(g.fixed_vertices) > 0
    exponent = g.two_power_exponent()
    axis_components = maps.axis_components[0]
    # |V^phi| - |E^phi| is the component count exactly on a forest
    axis_forest = exponent + 1 == axis_components
    applicable = plus_connected and axis_nonempty and axis_forest

    linking = component_linking_cycles(maps) if applicable else None

    laplacian_match = all(
        pair.laplacian_invariant_factors == pair.critical_group.invariant_factors
        for pair in (pair_g, pair_plus, pair_minus)
    )

    ker_f, coker_f, ker_ft, coker_ft = maps.ker_f, maps.coker_f, maps.ker_ft, maps.coker_ft
    ker_order = ker_f.order()
    coker_order = coker_f.order()
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
        # ker(f*) ~ coker((f^t)*) and coker(f*) ~ ker((f^t)*)
        "duality": ker_f.invariant_factors == coker_ft.invariant_factors
        and coker_f.invariant_factors == ker_ft.invariant_factors,
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
        ker_f=ker_f,
        coker_f=coker_f,
        ker_ft=ker_ft,
        coker_ft=coker_ft,
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
        linking=linking,
        laplacian_match=laplacian_match,
        verdicts=verdicts,
    )
