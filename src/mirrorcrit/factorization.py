"""The mirror-symmetry factorization pipeline.

From a valid symmetric graph this module builds the edge-space map

    f : Z(E+) + Z(E-) -> Z(E),

as the signed supports of its columns (see `lattice`), its transpose as
the supports of its rows, and the involution psi on E+ u E- (phi acts
on E), then
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
the axis line).  The table `VERDICTS`, at the end of this module, names
each verdict, the hypotheses it needs and how it is read off the
checks.  A verdict whose hypotheses are not all met is reported as "not
applicable" (None) instead of pass/fail, and a check that only such
verdicts read is not run.  `main_theorem_verdict` returns one object,
the analysis (`SymmetryMaps`), which holds every group, forest count,
check report and verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .lattice import FpAbelianGroup, GroupHom, combine, image, support_rows
from .modp import ModpSubspace, fixed_subspace, is_involution, span_dims, support_bits


@dataclass(frozen=True, eq=False)
class SymmetryMaps:
    """The analysis of one decomposition: f, f^t, psi, phi and everything
    derived from them.

    f is held as `f_columns`, {edge of G: value} per edge of E+ u E-;
    its rows and f mod 2 are derived from them.  Column/row order over
    E+ u E- is the edge order of the union graph `pair_union.graph`:
    plus edges in plus-graph order, then minus edges in minus-graph
    order.  psi (on E+ u E-) and phi (on the edges of G) are index
    tuples, i -> psi[i].  This is the one holder of every fact of the
    analysis, and `main_theorem_verdict` returns it as the report: the
    pairs and their critical groups, the induced homs and their kernels
    and cokernels, the fixed GF(2) spaces (whose `dim`s the reports
    print; each fixed cycle or bond space is one elimination of its
    pair's fundamental cycles or vertex cuts, folded by phi or psi, and
    each side's sum and cap are one more; no fixed ambient is built,
    since its dimension is its involution's orbit count), f mod 2, the
    theorem's hypotheses (the axis components, the plus graph's
    connectivity, the exponent and the flags derived from them), the
    three spanning-forest counts, the six checks' reports and the
    verdicts.  Each is computed once, on first use, and lives exactly
    as long as this graph's analysis.  GF(2) vectors are bit sets, bit
    j = coordinate j.
    """

    dec: Decomposition
    f_columns: tuple
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

    @cached_property
    def axis_components(self) -> tuple:
        """(count, {fixed vertex: component index}) of the axis subgraph
        (V^phi, E^phi)."""
        return self.graph.fixed_subgraph_components()

    @cached_property
    def plus_connected(self) -> bool:
        return self.dec.plus.is_connected()

    @cached_property
    def exponent(self) -> int:
        """|V^phi| - |E^phi| - 1, the power of 2 in the order formula."""
        return self.graph.two_power_exponent()

    @property
    def axis_nonempty(self) -> bool:
        return len(self.graph.fixed_vertices) > 0

    @property
    def axis_forest(self) -> bool:
        # |V^phi| - |E^phi| is the component count exactly on a forest
        return self.exponent + 1 == self.axis_components[0]

    @property
    def theorem_applicable(self) -> bool:
        """The three hypotheses: plus graph connected, axis nonempty,
        fixed subgraph a forest."""
        return self.plus_connected and self.axis_nonempty and self.axis_forest

    @cached_property
    def f_rows(self) -> tuple:
        """Row i of f, as {edge of E+ u E-: value}: f^t's columns."""
        return support_rows(self.f_columns, self.graph.graph.n_edges)

    @cached_property
    def f_columns_mod2(self) -> list:
        """Column j of f mod 2, as a bit set over the edges of G."""
        return [support_bits(col) for col in self.f_columns]

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
        return _descend("f", self.f_columns, self.pair_union, self.pair_g)

    @cached_property
    def ft_star(self) -> GroupHom:
        """(f^t)* : K(G) -> K(G+) + K(G-)."""
        return _descend("f^t", self.f_rows, self.pair_g, self.pair_union)

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
        return fixed_subspace(self.phi, self.pair_g.cycles)

    @cached_property
    def b_phi(self) -> ModpSubspace:
        return fixed_subspace(self.phi, self.pair_g.cuts)

    @cached_property
    def z_psi(self) -> ModpSubspace:
        return fixed_subspace(self.psi, self.pair_union.cycles)

    @cached_property
    def b_psi(self) -> ModpSubspace:
        return fixed_subspace(self.psi, self.pair_union.cuts)

    @cached_property
    def phi_sum_cap(self) -> tuple:
        """(Z^phi + B^phi, Z^phi cap B^phi).  The cap is the bicycles of
        G fixed by the edge action of phi (the fixed space of an
        intersection is the intersection of the fixed spaces)."""
        return self.z_phi.sum_and_cap(self.b_phi)

    @cached_property
    def psi_sum_cap(self) -> tuple:
        """(Z^psi + B^psi, Z^psi cap B^psi), the cap being the bicycles
        of G+ u G- fixed by psi."""
        return self.z_psi.sum_and_cap(self.b_psi)

    sum_phi = property(lambda m: m.phi_sum_cap[0])
    phi_bicycles = property(lambda m: m.phi_sum_cap[1])
    sum_psi = property(lambda m: m.psi_sum_cap[0])
    psi_bicycles = property(lambda m: m.psi_sum_cap[1])

    # The forest counts and the six checks' reports.  Each names its
    # function in its body, so it is looked up by its global name when it
    # runs and a wrapped function (the tracer's) is the one that runs.
    kappa_g = cached_property(lambda m: forest_count(m.pair_g))
    kappa_plus = cached_property(lambda m: forest_count(m.pair_plus))
    kappa_minus = cached_property(lambda m: forest_count(m.pair_minus))
    lattice_report = cached_property(lambda m: verify_lattice_preservation(m))
    torsion_report = cached_property(lambda m: two_torsion_check(m))
    identification = cached_property(lambda m: identify_kernel_cokernel(m))
    injection_report = cached_property(lambda m: g_injection(m))
    snake_report = cached_property(lambda m: snake_dimension_report(m))
    linking_ok = cached_property(lambda m: component_linking_cycles(m))

    @cached_property
    def verdicts(self) -> dict:
        """{name: verdict} in the order of `VERDICTS`: one whose
        hypotheses all hold is read, and one whose hypotheses do not is
        None, with no check run for it.  Each check runs at most once,
        for the first verdict that reads it."""
        met = {flag for flag in HYPOTHESES if getattr(self, flag)}
        return {
            name: reader(self) if met.issuperset(hypotheses) else None
            for name, hypotheses, reader in VERDICTS
        }

    @property
    def overall_pass(self) -> bool:
        return all(v is not False for v in self.verdicts.values())


def _descend(name, columns, source: AdjointPair, target: AdjointPair) -> GroupHom:
    """The hom of critical groups induced by the edge map with these
    column supports, checked well defined.

    `GroupHom` carries it in the Smith coordinates of the two critical
    groups; its well-definedness check covers every source generator, so
    an edge map that does not descend raises here.
    """
    hom = GroupHom(source.critical_group, target.critical_group, columns)
    if not hom.well_defined:
        raise RuntimeError(f"{name} does not descend to the critical groups")
    return hom


def build_maps(dec: Decomposition) -> SymmetryMaps:
    """Populate f, psi and the edge action of phi; f^t is derived from f.

    One pass over the edges of G, by side, sets the column supports of f
    and psi at the union graph's edge indices (the block layout): a Left
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

    columns = [None] * union.n_edges
    psi = [None] * union.n_edges
    for i, e in enumerate(graph.edges):
        side = g.edge_side[e.id]
        if side == FIXED:
            h1, h2 = map(block, half_edges(e.id))
            columns[h1], columns[h2] = {i: 1}, {i: 1}
            psi[h1], psi[h2] = h2, h1
        else:
            j = block(e.id)
            columns[j] = {i: 1, graph.edge_index(ephi[e.id]): 1 if side == LEFT else -1}
            psi[j] = block(ephi[e.id])
    phi = tuple(graph.edge_index(ephi[e.id]) for e in graph.edges)

    if not is_involution(psi) or not is_involution(phi):
        raise AssertionError("psi and phi must square to the identity")
    return SymmetryMaps(
        dec=dec,
        f_columns=tuple(columns),
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

    Every vector is a support: f of each cycle of G+ u G- must have
    zero boundary, and f of each of its vertex cuts must be orthogonal
    to G's fundamental cycles.

    Bond preservation is refined into the five cut-vector identities
    that actually drive it: the cut at a subdivision vertex dies, cuts
    at fixed vertices map to the matching cut of G, cuts at left
    vertices symmetrize, the cut at the contracted vertex becomes
    b(V_L) - b(V_R), and cuts at right vertices antisymmetrize.  They
    are read off the f images of the union's cuts above and the signed
    cuts of G (a loop is in no cut), compared as supports.
    """
    g = maps.graph
    f = maps.f_columns
    union, pair_g = maps.pair_union, maps.pair_g

    cycles_ok = not any(image(pair_g.boundary, image(f, z)) for z in union.cycles)

    f_cut = {v: image(f, c) for v, c in zip(union.graph.vertices, union.cuts)}
    cycle_rows = support_rows(pair_g.cycles, pair_g.c1_rank)
    bonds_ok = not any(image(cycle_rows, y) for y in f_cut.values())

    cut = dict(zip(g.graph.vertices, pair_g.cuts))
    vphi = g.vertex_involution

    def cut_sum(added, subtracted=()):
        """The sum of the cuts of `added` minus those of `subtracted`."""
        return combine([(1, cut[v]) for v in added] + [(-1, cut[v]) for v in subtracted])

    sub_ok = all(not f_cut[subdivision_vertex(e.id)] for e in g.fixed_edges)
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


def two_torsion_check(maps: SymmetryMaps) -> TorsionReport:
    """ker/coker of f* and (f^t)* are killed by 2, with exact witnesses.

    The witnesses are the matrix identities behind 2-torsion: for a Left
    edge e,  f(e, -phi(e)) = 2e  and  f^t(e + phi(e)) = 2(e, 0);  for a
    Right edge e,  f^t(e - phi(e)) = 2(0, e);  for a fixed edge e with
    halves e', e'',  f^t(e) = (e' + e'', 0).  f(e_j) is column j of f
    and f^t(e_i) is row i, so each left-hand side is one support or the
    sum or difference of two, compared as a dict.
    """
    g = maps.graph
    graph = g.graph
    ephi = g.edge_involution
    f_columns, f_rows = maps.f_columns, maps.f_rows
    block = maps.pair_union.graph.edge_index

    def f_row(eid):
        return f_rows[graph.edge_index(eid)]

    witnesses = True
    for e in g.left_edges:
        mirror = ephi[e.id]
        doubled = combine(((1, f_columns[block(e.id)]), (-1, f_columns[block(mirror)])))
        witnesses &= doubled == {graph.edge_index(e.id): 2}
        witnesses &= combine(((1, f_row(e.id)), (1, f_row(mirror)))) == {block(e.id): 2}
    for e in g.right_edges:
        folded = combine(((1, f_row(e.id)), (-1, f_row(ephi[e.id]))))
        witnesses &= folded == {block(e.id): 2}
    for e in g.fixed_edges:
        witnesses &= f_row(e.id) == dict.fromkeys(map(block, half_edges(e.id)), 1)

    groups = (maps.ker_f, maps.coker_f, maps.ker_ft, maps.coker_ft)
    return TorsionReport(
        all_two_torsion=all(grp.annihilated_by(2) for grp in groups),
        doubling_witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# bicycle identifications


@dataclass(frozen=True)
class BicycleIdentification:
    coker_matches: bool
    ker_matches: bool
    ker_ft_basis_ok: bool
    ker_f_psi_fixed_ok: bool
    alternate_ker_matches: bool
    alternate_coker_matches: bool


def _orbit_check(columns, perm, indices) -> tuple:
    """(the number of orbits {i, perm(i)} of the involution perm that
    meet `indices`, their span's dimension as they are disjoint; whether
    the GF(2) columns kill each one's e_i + e_perm(i), e_i if i = perm(i))."""
    orbits = {min(i, perm[i]) for i in indices}
    kills = not any(columns[i] ^ columns[perm[i]] if perm[i] != i else columns[i] for i in orbits)
    return len(orbits), kills


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
    4-cycle, where ker(f*) = 0 and coker(f*) = Z/2.)  A fixed ambient is
    not built: its dimension is the orbit count, the number of i <= perm(i).
    """
    g = maps.graph
    graph = g.graph
    coker_order = maps.coker_f.order()
    ker_order = maps.ker_f.order()

    # a subspace of a kernel is the whole kernel when their dimensions
    # agree, and f and f^t have one rank mod 2: n - rank is the dimension
    # of the kernel of f (n = |E+ u E-|) and of f^t (n = |E|)
    rank = ModpSubspace.from_rows(graph.n_edges, maps.f_columns_mod2).dim

    # ker(f^t mod 2) versus its predicted basis {e + phi(e) : e Left},
    # f^t's columns mod 2 being f's rows, and ker(f mod 2) versus the
    # psi-fixed ambient, spanned by psi's orbits
    left = [graph.edge_index(e.id) for e in g.left_edges]
    ft = [support_bits(row) for row in maps.f_rows]
    n_left, ft_kills = _orbit_check(ft, maps.phi, left)
    ker_ft_ok = n_left == len(left) == graph.n_edges - rank and ft_kills
    n_psi, f_kills = _orbit_check(maps.f_columns_mod2, maps.psi, range(len(maps.psi)))
    ker_f_ok = n_psi == len(maps.psi) - rank and f_kills

    phi_quotient = sum(i <= j for i, j in enumerate(maps.phi)) - maps.sum_phi.dim
    psi_quotient = n_psi - maps.sum_psi.dim

    return BicycleIdentification(
        coker_matches=(coker_order == 2**maps.phi_bicycles.dim),
        ker_matches=(ker_order == 2**maps.psi_bicycles.dim),
        ker_ft_basis_ok=ker_ft_ok,
        ker_f_psi_fixed_ok=ker_f_ok,
        alternate_ker_matches=(2**phi_quotient == ker_order),
        alternate_coker_matches=(2**psi_quotient == coker_order),
    )


# ---------------------------------------------------------------------------
# the injection ker -> coker


@dataclass(frozen=True)
class InjectionReport:
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
        halves_agree=halves_agree,
        image_in_phi_fixed_bicycles=all(phi_bic.contains(r) for r in rows),
        injective=(image.dim == domain.dim),
    )


# ---------------------------------------------------------------------------
# snake-style dimension bookkeeping


@dataclass(frozen=True)
class SnakeReport:
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
    cap_psi, cap_phi = maps.psi_bicycles, maps.phi_bicycles

    exponent = maps.exponent
    log2_ker = cap_psi.dim
    log2_coker = cap_phi.dim

    column_exact = (
        cap_psi.dim + sum_psi.dim == z_psi.dim + b_psi.dim
        and cap_phi.dim + sum_phi.dim == z_phi.dim + b_phi.dim
    )

    n_vr = len(g.right_vertices)
    return SnakeReport(
        column_exactness=column_exact,
        bond_dim_plus_formula=(b_psi.dim == n_vr + len(g.fixed_edges)),
        bond_dim_formula=(b_phi.dim == n_vr + len(g.fixed_vertices) - 1),
        cycle_dim_gap_formula=(z_phi.dim - z_psi.dim == exponent),
        sum_ratio_matches_ker_coker=(sum_psi.dim - sum_phi.dim == log2_ker - log2_coker),
        final_two_power_identity=(exponent + log2_ker == log2_coker),
    )


# ---------------------------------------------------------------------------
# constructive cycle basis for the axis components


def component_linking_cycles(maps: SymmetryMaps) -> bool:
    """Cycles p + phi(p) linking consecutive axis components.

    Choose one representative vertex per component of the fixed
    subgraph; connect consecutive representatives by their path in the
    plus graph's spanning tree (the XOR of their two root paths);
    symmetrizing each path yields a phi-fixed cycle of G.  True when
    these cycles complete the image of the psi-fixed cycles under g to
    all of Z^phi (independence and spanning, by dimension count); one
    elimination gives both dimensions (`span_dims`).
    """
    g = maps.graph
    if not maps.plus_connected:
        raise ValueError("the plus graph must be connected")
    count, labels = maps.axis_components

    first = {}
    for v in g.fixed_vertices:
        first.setdefault(labels[v], v)
    reps = list(first.values())

    plus = maps.dec.plus
    root_paths, _ = maps.pair_plus.spanning_forest

    def root_mask(v):
        return sum(1 << j for j in root_paths[plus.vertex_index(v)])

    cycles = [maps.f_mod2(root_mask(a) ^ root_mask(b)) for a, b in zip(reps, reps[1:])]

    z_phi = maps.z_phi
    plus_mask = (1 << maps.n_plus) - 1
    image_rows = [maps.f_mod2(vec & plus_mask) for vec in maps.z_psi.rows]
    image_dim, combined_dim = span_dims(g.graph.n_edges, image_rows, cycles)
    return (
        all(z_phi.contains(c) for c in cycles)
        and combined_dim == image_dim + len(cycles)
        and combined_dim == z_phi.dim
    )


# ---------------------------------------------------------------------------
# the full pipeline


# the three hypotheses, as names of SymmetryMaps flags, and the one that
# the quotient presentations, the injection and the sum-ratio identity
# need alone
HYPOTHESES = ("plus_connected", "axis_nonempty", "axis_forest")
FOREST = ("axis_forest",)

# Every verdict, in report order: (name, the hypotheses it needs, reader
# of a SymmetryMaps).
VERDICTS = (
    ("lattice_preservation", (), lambda m: m.lattice_report.passed),
    (
        "order_identity", (),
        lambda m: m.pair_union.critical_group.order() * m.coker_f.order()
        == m.pair_g.critical_group.order() * m.ker_f.order()
        and m.pair_union.critical_group.order()
        == m.pair_plus.critical_group.order() * m.pair_minus.critical_group.order(),
    ),
    ("two_torsion", (), lambda m: m.torsion_report.all_two_torsion),
    ("doubling_witnesses", (), lambda m: m.torsion_report.doubling_witnesses),
    (
        # ker(f*) ~ coker((f^t)*) and coker(f*) ~ ker((f^t)*)
        "duality", (),
        lambda m: m.ker_f.invariant_factors == m.coker_ft.invariant_factors
        and m.coker_f.invariant_factors == m.ker_ft.invariant_factors,
    ),
    ("bicycle_cokernel", (), lambda m: m.identification.coker_matches),
    ("bicycle_kernel", (), lambda m: m.identification.ker_matches),
    ("kernel_ft_basis", (), lambda m: m.identification.ker_ft_basis_ok),
    ("kernel_f_psi_fixed", (), lambda m: m.identification.ker_f_psi_fixed_ok),
    (
        "laplacian_presentation", (),
        lambda m: all(
            pair.laplacian_snf.invariant_factors == pair.critical_group.invariant_factors
            for pair in (m.pair_g, m.pair_plus, m.pair_minus)
        ),
    ),
    ("column_exactness", (), lambda m: m.snake_report.column_exactness),
    (
        "alternate_presentations", FOREST,
        lambda m: m.identification.alternate_coker_matches
        and m.identification.alternate_ker_matches,
    ),
    (
        "g_injective", FOREST,
        lambda m: m.injection_report.halves_agree
        and m.injection_report.image_in_phi_fixed_bicycles
        and m.injection_report.injective,
    ),
    (
        "snake_bond_dims", ("plus_connected", "axis_nonempty"),
        lambda m: m.snake_report.bond_dim_plus_formula and m.snake_report.bond_dim_formula,
    ),
    ("snake_cycle_gap", HYPOTHESES, lambda m: m.snake_report.cycle_dim_gap_formula),
    ("snake_sum_ratio", FOREST, lambda m: m.snake_report.sum_ratio_matches_ker_coker),
    ("final_two_power_identity", HYPOTHESES, lambda m: m.snake_report.final_two_power_identity),
    (
        "ratio_is_two_power", HYPOTHESES,
        lambda m: m.pair_g.critical_group.order()
        == 2**m.exponent * m.pair_plus.critical_group.order() * m.pair_minus.critical_group.order()
        and m.coker_f.order() == 2**m.exponent * m.ker_f.order(),
    ),
    (
        "corollary_factorization", HYPOTHESES,
        lambda m: m.kappa_g == 2**m.exponent * m.kappa_plus * m.kappa_minus,
    ),
    ("linking_cycle_basis", HYPOTHESES, lambda m: m.linking_ok),
)


def main_theorem_verdict(g: SymmetricGraph) -> SymmetryMaps:
    """Run the whole pipeline on one symmetric graph and return its
    analysis, which is the report.

    g is valid and oriented from its construction, so nothing is
    validated here; the analysis' graph is g.  The forest counts and the
    verdicts are computed here, so reading the report runs no analysis.
    """
    maps = build_maps(g.decompose())
    for name in ("kappa_g", "kappa_plus", "kappa_minus", "verdicts"):
        getattr(maps, name)
    return maps
