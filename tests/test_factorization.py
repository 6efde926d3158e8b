"""The mirror map, induced homs, bicycle identifications, verdicts."""

import dataclasses
import random
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from mirrorcrit.critical import AdjointPair
from mirrorcrit.factorization import (
    VERDICTS,
    _descend,
    build_maps,
    component_linking_cycles,
    g_injection,
    identify_kernel_cokernel,
    main_theorem_verdict,
    snake_dimension_report,
    two_torsion_check,
    verify_lattice_preservation,
)
from mirrorcrit.graphfile import parse
from mirrorcrit.graphs import (
    AXIS_VERTEX,
    FIXED,
    LEFT,
    RIGHT,
    InvalidSymmetricGraph,
    Multigraph,
    SymmetricGraph,
    half_edges,
    subdivision_vertex,
)
from mirrorcrit.lattice import (
    FpAbelianGroup,
    GroupHom,
    IntMatrix,
    smith_normal_form,
)
from mirrorcrit.modp import fixed_ambient, is_involution
from mirrorcrit.randgraph import mirror_grid

from conftest import (
    CYCLIC_AXIS,
    apply,
    basis,
    contains_relation,
    dense,
    dense_f,
    disconnected_plus,
    empty_axis,
    exact_det,
    identity_mirror_triangle,
    incidence,
    integer_kernel,
    matrix_kernel,
    mirror_cycle,
    relabel,
    running_example,
    single_fixed_edge,
    supports,
)

WITNESSES = ("left", "right", "left_inv", "right_inv")
# the check functions the verdicts read, which the tracer wraps by name
CHECKS = (
    "verify_lattice_preservation", "two_torsion_check", "identify_kernel_cokernel",
    "g_injection", "snake_dimension_report", "component_linking_cycles",
)
SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"

# block edge order for the running example: ab, ac, (cb,1), (cb,2), dc, db
# edge order of G: ab, ac, dc, db, cb


@pytest.fixture(scope="module")
def maps():
    return build_maps(running_example().decompose())


def tripod():
    """Two mirrored star centers joined through three axis vertices.

    The graph is K_{2,3}; the axis has three components, so the
    exponent is 2 and kappa(G) = 4 * kappa(G+) * kappa(G-) = 12.
    """
    vertices = ["L1", "F1", "F2", "F3", "R1"]
    edges = [
        ("t1", "L1", "F1"),
        ("t2", "L1", "F2"),
        ("t3", "L1", "F3"),
        ("m1", "R1", "F1"),
        ("m2", "R1", "F2"),
        ("m3", "R1", "F3"),
    ]
    vphi = {"L1": "R1", "R1": "L1", "F1": "F1", "F2": "F2", "F3": "F3"}
    ephi = {"t1": "m1", "m1": "t1", "t2": "m2", "m2": "t2", "t3": "m3", "m3": "t3"}
    vside = {"L1": LEFT, "R1": RIGHT, "F1": FIXED, "F2": FIXED, "F3": FIXED}
    eside = {"t1": LEFT, "t2": LEFT, "t3": LEFT, "m1": RIGHT, "m2": RIGHT, "m3": RIGHT}
    return SymmetricGraph(Multigraph(vertices, edges), vphi, ephi, vside, eside)


class TestBuildMaps:
    def test_left_edge_column(self, maps):
        # f(ab, 0) = ab + db
        assert maps.f_columns[0] == {0: 1, 3: 1}
        assert dense_f(maps).transpose().rows[0] == (1, 0, 0, 1, 0)

    def test_half_edge_columns(self, maps):
        # both halves of cb map to cb itself
        assert maps.f_columns[2] == maps.f_columns[3] == {4: 1}

    def test_right_edge_column(self, maps):
        # f(0, dc) = dc - ac
        assert maps.f_columns[4] == {2: 1, 1: -1}
        assert dense_f(maps).transpose().rows[4] == (0, -1, 1, 0, 0)

    def test_ft_of_fixed_edge(self, maps):
        # f^t(cb) = (half1 + half2, 0)
        cb = [0, 0, 0, 0, 1]
        assert apply(dense_f(maps).transpose(), cb) == [0, 0, 1, 1, 0, 0]
        assert maps.f_rows[4] == {2: 1, 3: 1}

    def test_ft_is_transpose(self, maps):
        # f's rows, the supports f^t is held as, are f's transpose
        assert dense(maps.f_rows, len(maps.psi)) == dense_f(maps).transpose()

    def test_psi_is_fixed_point_free_involution(self, maps):
        assert is_involution(maps.psi)
        assert len(maps.psi) == maps.n_plus + maps.dec.minus.n_edges
        for j in range(len(maps.psi)):
            assert maps.psi[j] != j

    def test_psi_swaps_halves_and_mirrors(self, maps):
        # half1(cb) <-> half2(cb); ab <-> db
        assert maps.psi[2] == 3
        assert maps.psi[0] == 5

    def test_phi_is_the_edge_involution(self, maps):
        # ab <-> db, ac <-> dc, cb fixed
        assert maps.phi == (3, 2, 1, 0, 4)
        assert is_involution(maps.phi)


class TestLatticePreservation:
    def test_running_example_all_identities(self, maps):
        report = verify_lattice_preservation(maps)
        assert report.passed

    def test_single_fixed_edge(self):
        report = verify_lattice_preservation(build_maps(single_fixed_edge().decompose()))
        assert report.passed
        assert report.subdivision_bonds_vanish

    def test_random_corpus(self, mixed_corpus):
        for g in mixed_corpus:
            assert verify_lattice_preservation(build_maps(g.decompose())).passed

    def test_bond_check_is_exact_membership(self, maps):
        # tamper one entry of f at a time, zeros included: bonds_into_bonds
        # must equal exact membership of the bond image in B = im(dt)
        bonds = smith_normal_form(incidence(maps.graph.graph).transpose())
        dt_union = incidence(maps.pair_union.graph).transpose()
        outcomes = set()
        for tampered in _single_entry_tamperings(maps):
            image = dense_f(tampered) @ dt_union
            exact = all(contains_relation(bonds, col) for col in image.transpose().rows)
            assert verify_lattice_preservation(tampered).bonds_into_bonds == exact
            outcomes.add(exact)
        assert False in outcomes


def _single_entry_tamperings(maps):
    """maps with one entry of f raised by 1, for every entry, zeros
    included, as f's column supports (an entry that becomes 0 leaves its
    column); a column then holds up to three entries."""
    for i in range(maps.graph.graph.n_edges):
        for j in range(len(maps.f_columns)):
            columns = list(maps.f_columns)
            column = dict(columns[j])
            column[i] = column.get(i, 0) + 1
            columns[j] = {k: x for k, x in column.items() if x}
            yield dataclasses.replace(maps, f_columns=tuple(columns))


def _cut(graph, subset):
    """The signed cut of a vertex set: the coboundary of its indicator."""
    return [int(e.head in subset) - int(e.tail in subset) for e in graph.edges]


def _unit(n, k, scale=1):
    vec = [0] * n
    vec[k] = scale
    return vec


def _combine(sign, a, b):
    return [x + sign * y for x, y in zip(a, b)]


def _dense_reference(maps):
    """The seven lattice flags and the doubling witnesses computed the
    textbook way: f or f^t times each explicit cut or unit vector,
    compared with dense expected vectors."""
    g, dec = maps.graph, maps.dec
    f = dense_f(maps)
    graph, ft = g.graph, f.transpose()
    vphi, ephi = g.vertex_involution, g.edge_involution
    n_edges, n_plus, n_minus = graph.n_edges, maps.n_plus, dec.minus.n_edges
    n_block = n_plus + n_minus

    def f_of_plus_cut(v):
        return apply(f, _cut(dec.plus, {v}) + [0] * n_minus)

    def f_of_minus_cut(v):
        return apply(f, [0] * n_plus + _cut(dec.minus, {v}))

    def cut_g(v):
        return _cut(graph, {v})

    union = dec.union_graph()
    union_cuts = [_cut(union, {v}) for v in union.vertices]
    d = incidence(graph)
    bonds = smith_normal_form(d.transpose())
    flags = dict(
        cycles_into_cycles=all(
            not any(apply(d, apply(f, z)))
            for z in integer_kernel(incidence(union)).transpose().rows
        ),
        bonds_into_bonds=all(
            contains_relation(bonds, apply(f, cut)) for cut in union_cuts
        ),
        subdivision_bonds_vanish=all(
            not any(f_of_plus_cut(subdivision_vertex(e.id))) for e in g.fixed_edges
        ),
        fixed_vertex_bonds_match=all(
            f_of_plus_cut(v) == cut_g(v) for v in g.fixed_vertices
        ),
        left_vertex_bonds_match=all(
            f_of_plus_cut(v) == _combine(1, cut_g(v), cut_g(vphi[v]))
            for v in g.left_vertices
        ),
        contracted_bond_matches=f_of_minus_cut(AXIS_VERTEX)
        == _combine(-1, _cut(graph, set(g.left_vertices)), _cut(graph, set(g.right_vertices))),
        right_vertex_bonds_match=all(
            f_of_minus_cut(v) == _combine(-1, cut_g(v), cut_g(vphi[v]))
            for v in g.right_vertices
        ),
    )

    plus_pos = {e.id: i for i, e in enumerate(dec.plus.edges)}
    minus_pos = {e.id: n_plus + i for i, e in enumerate(dec.minus.edges)}

    def unit_g(eid):
        return _unit(n_edges, graph.edge_index(eid))

    witnesses = []
    for e in g.left_edges:
        mirror = ephi[e.id]
        block = _combine(-1, _unit(n_block, plus_pos[e.id]), _unit(n_block, minus_pos[mirror]))
        witnesses.append(apply(f, block) == _unit(n_edges, graph.edge_index(e.id), 2))
        vec = _combine(1, unit_g(e.id), unit_g(mirror))
        witnesses.append(apply(ft, vec) == _unit(n_block, plus_pos[e.id], 2))
    for e in g.right_edges:
        vec = _combine(-1, unit_g(e.id), unit_g(ephi[e.id]))
        witnesses.append(apply(ft, vec) == _unit(n_block, minus_pos[e.id], 2))
    for e in g.fixed_edges:
        h1, h2 = half_edges(e.id)
        halves = _combine(1, _unit(n_block, plus_pos[h1]), _unit(n_block, plus_pos[h2]))
        witnesses.append(apply(ft, unit_g(e.id)) == halves)
    return flags, all(witnesses)


def _tamper_graphs(mixed_corpus):
    # the running example, graphs with and without fixed edges, and one
    # whose plus graph is disconnected
    return [running_example(), tripod()] + mixed_corpus[:6]


class TestIdentitiesAgainstDenseReference:
    """Every lattice flag and the doubling witnesses agree with the dense
    reference on maps whose f has been tampered with."""

    def test_single_entry_tampering(self, mixed_corpus):
        outcomes = Counter()
        for g in _tamper_graphs(mixed_corpus):
            maps = build_maps(g.decompose())
            for tampered in [maps, *_single_entry_tamperings(maps)]:
                flags, _ = _dense_reference(tampered)
                report = verify_lattice_preservation(tampered)
                assert dataclasses.asdict(report) == flags
                outcomes.update(name for name, ok in flags.items() if not ok)
        # every identity fails on some tampering, so none is vacuous here
        assert set(outcomes) == set(flags)

    def test_perturbations_with_the_same_f_star(self, mixed_corpus):
        # f + dt_G A d_union sends every cut and cycle where f does mod B,
        # so it descends to the same f*, but its entries differ from f's:
        # the torsion holds while doubling and cut identities may fail.
        # A runs over 0, every single unit entry and a few random draws.
        rng = random.Random(7)
        witness_outcomes = set()
        for g in _tamper_graphs(mixed_corpus):
            maps = build_maps(g.decompose())
            pair_g, pair_union = maps.pair_g, maps.pair_union
            d_g, d_union = incidence(pair_g.graph), incidence(pair_union.graph)
            f = dense_f(maps)
            shape = (pair_g.c0_rank, pair_union.c0_rank)
            draws = [{}] + [{(v, u): 1} for v in range(shape[0]) for u in range(shape[1])]
            draws += [
                {(v, u): rng.randint(-2, 2) for v in range(shape[0]) for u in range(shape[1])}
                for _ in range(3)
            ]
            for entries in draws:
                a = IntMatrix(
                    [[entries.get((v, u), 0) for u in range(shape[1])] for v in range(shape[0])],
                    shape=shape,
                )
                shift = d_g.transpose() @ a @ d_union
                rows = [list(map(sum, zip(r, s))) for r, s in zip(f.rows, shift.rows)]
                tampered = dataclasses.replace(
                    maps, f_columns=supports(IntMatrix(rows, shape=f.shape))
                )
                flags, witnesses = _dense_reference(tampered)
                lattice = verify_lattice_preservation(tampered)
                torsion = two_torsion_check(tampered)
                assert dataclasses.asdict(lattice) == flags
                assert lattice.cycles_into_cycles and lattice.bonds_into_bonds
                assert torsion.all_two_torsion
                assert torsion.doubling_witnesses == witnesses
                witness_outcomes.add(witnesses)
        assert witness_outcomes == {True, False}


class TestInducedMaps:
    def test_running_example_kernel_and_cokernel(self, maps):
        f_star = maps.f_star
        assert f_star.source.invariant_factors == (2, 4)
        assert f_star.target.invariant_factors == (8,)
        assert f_star.kernel().invariant_factors == (2,)
        assert f_star.cokernel().invariant_factors == (2,)

    def test_mirror_cycles_injective_with_z2_cokernel(self):
        for n in (2, 3, 5):
            m = build_maps(mirror_cycle(n).decompose())
            f_star = m.f_star
            assert f_star.kernel().order() == 1
            assert f_star.cokernel().invariant_factors == (2,)

    def test_single_fixed_edge_zero_map(self):
        m = build_maps(single_fixed_edge().decompose())
        f_star = m.f_star
        assert f_star.source.order() == 1
        assert f_star.target.order() == 1
        assert m.ft_star.source.order() == 1

    def test_ill_defined_matrix_does_not_descend(self):
        # on the theta graph K = Z/3; keeping edge a and killing b and c
        # sends the cycle a - b to a, which is nonzero in K
        theta = Multigraph(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
        pair = AdjointPair(theta)
        matrix = IntMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(RuntimeError, match="does not descend"):
            _descend("f", supports(matrix), pair, pair)


class TestTwoTorsion:
    def test_running_example(self, maps):
        report = two_torsion_check(maps)
        assert report.all_two_torsion and report.doubling_witnesses
        assert maps.ker_f.invariant_factors == (2,)
        assert maps.coker_f.invariant_factors == (2,)

    def test_mirror_cycle(self):
        m = build_maps(mirror_cycle(3).decompose())
        report = two_torsion_check(m)
        assert report.all_two_torsion and report.doubling_witnesses
        assert m.ker_f.order() == 1
        assert m.coker_f.invariant_factors == (2,)

    def test_random_corpus(self, mixed_corpus):
        for g in mixed_corpus:
            report = two_torsion_check(build_maps(g.decompose()))
            assert report.all_two_torsion
            assert report.doubling_witnesses


class TestBicycleSpaces:
    def test_running_example_dims(self, maps):
        assert maps.phi_bicycles.dim == 1
        assert maps.psi_bicycles.dim == 1

    def test_running_example_phi_fixed_is_symmetric_square(self, maps):
        space = maps.phi_bicycles
        assert basis(space)[0] == (1, 1, 1, 1, 0)

    def test_whole_union_is_psi_fixed_bicycle(self, maps):
        space = maps.psi_bicycles
        assert space.contains([1, 1, 1, 1, 1, 1])

    def test_one_sided_bicycles_not_psi_fixed(self, maps):
        # the plus graph alone and the minus graph alone are bicycles
        # of the union but are not psi-fixed
        union_bic = maps.pair_union.bicycle_space
        plus_only = [1, 1, 1, 1, 0, 0]
        minus_only = [0, 0, 0, 0, 1, 1]
        assert union_bic.contains(plus_only)
        assert union_bic.contains(minus_only)
        space = maps.psi_bicycles
        assert not space.contains(plus_only)
        assert not space.contains(minus_only)

    def test_mirror_cycle_dims(self):
        # the whole 2n-cycle is the phi-fixed bicycle; the plus path
        # has no bicycles at all, so nothing is psi-fixed
        m = build_maps(mirror_cycle(4).decompose())
        assert m.phi_bicycles.dim == 1
        assert m.psi_bicycles.dim == 0


class TestIdentification:
    def test_running_example(self, maps):
        ident = identify_kernel_cokernel(maps)
        assert ident.coker_matches and ident.ker_matches
        assert maps.coker_f.order() == 2 and maps.ker_f.order() == 2
        assert matrix_kernel(dense_f(maps).transpose()).dim == 2  # |E_L|
        assert ident.ker_ft_basis_ok
        assert ident.ker_f_psi_fixed_ok
        assert ident.alternate_ker_matches and ident.alternate_coker_matches

    def test_running_example_sum_dimension(self, maps):
        # dim Z^phi = 1 and dim B^phi = 2 meet in the bicycle line, so
        # dim (Z^phi + B^phi) = 2
        assert maps.sum_phi.dim == 2
        assert fixed_ambient(maps.phi).dim == 3

    def test_quotient_presentations_cross_over(self):
        # mirrored 4-cycle: ker(f*) = 0 and coker(f*) = Z/2; the
        # quotient on the G side gives the kernel, the one on the
        # G+ u G- side the cokernel (not the other way around)
        m = build_maps(mirror_cycle(2).decompose())
        ident = identify_kernel_cokernel(m)
        assert m.ker_f.order() == 1 and m.coker_f.order() == 2
        assert fixed_ambient(m.phi).dim - m.sum_phi.dim == 0
        assert fixed_ambient(m.psi).dim - m.sum_psi.dim == 1
        assert ident.alternate_ker_matches and ident.alternate_coker_matches

    def test_corpus(self, small_corpus):
        for g in small_corpus:
            ident = identify_kernel_cokernel(build_maps(g.decompose()))
            assert ident.coker_matches and ident.ker_matches
            assert ident.ker_ft_basis_ok and ident.ker_f_psi_fixed_ok
            assert ident.alternate_ker_matches and ident.alternate_coker_matches

    def test_restricted_kernels_are_fixed_bicycle_spaces(self, mixed_corpus):
        # coker(f*) is the kernel of f^t restricted to the bicycles of
        # G, and ker(f*) the kernel of f restricted to the bicycles of
        # G+ u G-; both equal the corresponding fixed subspaces, which
        # the analysis builds as Z^phi cap B^phi and Z^psi cap B^psi, and
        # which are the fixed ambients cut down to the bicycle spaces
        for g in mixed_corpus:
            m = build_maps(g.decompose())
            bic_g = m.pair_g.bicycle_space
            restricted_ft = matrix_kernel(dense_f(m).transpose()).intersection(bic_g)
            assert restricted_ft == m.phi_bicycles
            assert fixed_ambient(m.phi).intersection(bic_g) == m.phi_bicycles
            bic_pm = m.pair_union.bicycle_space
            restricted_f = matrix_kernel(dense_f(m)).intersection(bic_pm)
            assert restricted_f == m.psi_bicycles
            assert fixed_ambient(m.psi).intersection(bic_pm) == m.psi_bicycles

    def test_f_mod2_maps_bicycles_to_bicycles(self, mixed_corpus):
        # the mod-2 reduction of f carries the bicycle space of the
        # union into the bicycle space of G (functoriality of K/2K);
        # `contains` reduces the integer image f(row) mod 2 itself
        for g in mixed_corpus:
            m = build_maps(g.decompose())
            bic_g = m.pair_g.bicycle_space
            for row in basis(m.pair_union.bicycle_space):
                assert bic_g.contains(apply(dense_f(m), row))


class TestInjection:
    def test_running_example_image_is_shaded_cycle(self, maps):
        report = g_injection(maps)
        assert maps.psi_bicycles.dim == 1
        assert report.injective
        assert report.halves_agree
        assert report.image_in_phi_fixed_bicycles
        # an injective g from a line into the phi-fixed bicycle line is
        # onto it, so the image is the shaded cycle
        assert basis(maps.phi_bicycles) == ((1, 1, 1, 1, 0),)

    def test_mirror_cycle_vacuous(self):
        m = build_maps(mirror_cycle(3).decompose())
        report = g_injection(m)
        assert m.psi_bicycles.dim == 0
        assert report.injective

    def test_corpus_injective(self, small_corpus):
        for g in small_corpus:
            report = g_injection(build_maps(g.decompose()))
            assert report.halves_agree
            assert report.image_in_phi_fixed_bicycles
            assert report.injective


class TestSnakeDimensions:
    def test_running_example(self, maps):
        snake = snake_dimension_report(maps)
        assert maps.b_psi.dim == 2   # |V_R| + |E^phi| = 1 + 1
        assert maps.b_phi.dim == 2   # |V_R| + |V^phi| - 1 = 1 + 2 - 1
        assert maps.z_psi.dim == 1
        assert maps.z_phi.dim == 1
        assert maps.exponent == 0
        assert snake.column_exactness
        assert snake.bond_dim_plus_formula and snake.bond_dim_formula
        assert snake.cycle_dim_gap_formula
        assert snake.sum_ratio_matches_ker_coker
        assert snake.final_two_power_identity

    def test_mirror_cycle_n3(self):
        m = build_maps(mirror_cycle(3).decompose())
        snake = snake_dimension_report(m)
        assert m.exponent == 1
        assert m.phi_bicycles.dim - m.psi_bicycles.dim == 1
        assert snake.cycle_dim_gap_formula
        assert snake.final_two_power_identity

    def test_single_fixed_edge_trivial(self):
        m = build_maps(single_fixed_edge().decompose())
        snake = snake_dimension_report(m)
        assert m.exponent == 0
        assert m.z_psi.dim == m.z_phi.dim == 0
        assert snake.bond_dim_plus_formula and snake.bond_dim_formula

    def test_corpus(self, small_corpus):
        for g in small_corpus:
            snake = snake_dimension_report(build_maps(g.decompose()))
            assert snake.column_exactness
            assert snake.bond_dim_plus_formula
            assert snake.bond_dim_formula
            assert snake.cycle_dim_gap_formula
            assert snake.sum_ratio_matches_ker_coker
            assert snake.final_two_power_identity


class TestLinkingCycles:
    def test_mirror_cycle_single_link(self):
        # two axis components, one link; the symmetrized path is the
        # whole cycle, the one phi-fixed cycle
        m = build_maps(mirror_cycle(3).decompose())
        assert component_linking_cycles(m)
        assert m.axis_components[0] == 2
        assert basis(m.z_phi) == ((1,) * 6,)

    def test_running_example_empty(self, maps):
        # one axis component: no link to add
        assert component_linking_cycles(maps)
        assert maps.axis_components[0] == 1

    def test_three_axis_components(self):
        m = build_maps(tripod().decompose())
        assert component_linking_cycles(m)
        assert m.axis_components[0] == 3

    def test_requires_connected_plus(self):
        with pytest.raises(ValueError):
            component_linking_cycles(build_maps(disconnected_plus().decompose()))

    def test_corpus(self, small_corpus):
        for g in small_corpus:
            assert component_linking_cycles(build_maps(g.decompose()))

    def test_paths_link_consecutive_representatives(self, small_corpus):
        # the XOR of two root paths of G+'s spanning forest, the path
        # that component_linking_cycles symmetrizes, has odd degree
        # exactly at the two vertices it links, taken here as the first
        # vertex of each axis component
        graphs = [*small_corpus, *(mirror_grid(r, r) for r in (5, 7, 9, 11))]
        linked = 0
        for g in graphs:
            maps = build_maps(g.decompose())
            plus = maps.dec.plus
            root_paths, _ = maps.pair_plus.spanning_forest
            _, labels = maps.axis_components
            first = {}
            for v in g.fixed_vertices:
                first.setdefault(labels[v], v)
            reps = list(first.values())
            for ends in zip(reps, reps[1:]):
                a, b = (set(root_paths[plus.vertex_index(v)]) for v in ends)
                degree = Counter()
                for j in a ^ b:
                    e = plus.edges[j]
                    degree[e.tail] += 1
                    degree[e.head] += 1
                assert {v for v, k in degree.items() if k % 2} == set(ends)
                linked += 1
        assert linked >= 20, linked


def reduced_laplacian_det(graph: Multigraph) -> int:
    """Spanning trees of a connected graph by the matrix-tree theorem."""
    d = incidence(graph)
    lap = (d @ d.transpose()).rows
    return exact_det(IntMatrix([row[1:] for row in lap[1:]], shape=(len(lap) - 1,) * 2))


class TestMirrorGrid:
    """Plane grids with a mirror axis, the inputs of Ciucu-Yan-Zhang."""

    def test_shape(self):
        g = mirror_grid(3, 5)
        assert (g.graph.n_vertices, g.graph.n_edges) == (15, 3 * 4 + 2 * 5)
        assert len(g.fixed_edges) == 2
        for rows, cols in ((3, 4), (0, 3), (3, 0)):
            with pytest.raises(ValueError):
                mirror_grid(rows, cols)

    @pytest.mark.parametrize("r", [3, 5, 7, 9, 11])
    def test_square_grid(self, r):
        g = mirror_grid(r, r)
        rep = main_theorem_verdict(g)
        assert len(rep.verdicts) == 20
        assert all(v is True for v in rep.verdicts.values())
        two_torsion = (2,) * ((r - 1) // 2)
        for group in (rep.ker_f, rep.coker_f, rep.ker_ft, rep.coker_ft):
            assert group.invariant_factors == two_torsion
            assert group.free_rank == 0
        assert rep.kappa_g == reduced_laplacian_det(g.graph)


class TestWorkCounts:
    @staticmethod
    def count_checks(monkeypatch):
        """Counts the calls of the six checks and of forest_count, wrapped
        by name in the factorization module, where the tracer wraps them;
        a verdict reader that held the function objects would count none."""
        import mirrorcrit.factorization as factorization_module

        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in (*CHECKS, "forest_count"):
            fn = getattr(factorization_module, name)
            monkeypatch.setattr(factorization_module, name, counting(name, fn))
        return calls

    def test_each_quantity_computed_once(self, monkeypatch):
        # one analysis computes each kernel, cokernel and well-definedness
        # check once; 10 SNFs cover every group, lattice and cross-check:
        # 1 per critical group of G, G+ and G-, and none for K(G+ u G-),
        # whose decomposition is the plus and minus groups' logs side by
        # side; the Laplacian route reads each Laplacian's one Smith form
        # (3); a hom in Smith coordinates makes 1 for its cokernel ([D_t | M'])
        # and 1 for its kernel (the cokernel of the dual hom, [D_s | N]),
        # its well-definedness and the diagonal presentations need none,
        # the cycle lattices come from spanning forests and bond
        # membership needs none
        import mirrorcrit.critical as critical_module
        import mirrorcrit.factorization as factorization_module
        import mirrorcrit.lattice as lattice_module
        import mirrorcrit.modp as modp_module

        counts = Counter()
        homs = []  # the hom whose kernel or cokernel is running
        hom_inputs = []  # (hom, SNF input) for the SNFs they run
        snf_inputs = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counting_cached(cls, name):
            # counts the computations of a cached property, not its reads
            built = cached_property(counting(name, cls.__dict__[name].func))
            built.__set_name__(cls, name)
            monkeypatch.setattr(cls, name, built)

        def on_hom_path(name, fn):
            def wrapper(hom):
                homs.append(hom)
                try:
                    return counting(name, fn)(hom)
                finally:
                    homs.pop()

            return wrapper

        def recording(fn):
            def wrapper(a):
                snf_inputs.append(a)
                if homs:
                    hom_inputs.append((homs[-1], a))
                return fn(a)

            return wrapper

        snf = counting("snf", recording(lattice_module.smith_normal_form))
        monkeypatch.setattr(lattice_module, "smith_normal_form", snf)
        monkeypatch.setattr(critical_module, "smith_normal_form", snf)
        for name in ("kernel", "cokernel"):
            monkeypatch.setattr(GroupHom, name, on_hom_path(name, getattr(GroupHom, name)))
        counting_cached(GroupHom, "well_defined")
        for name in ("spanning_forest", "relation_matrix"):
            counting_cached(AdjointPair, name)
        monkeypatch.setattr(
            modp_module, "_echelonize", counting("echelonize", modp_module._echelonize)
        )
        # a Smith form builds a witness only when a caller reads it
        for kind in WITNESSES:
            counting_cached(FpAbelianGroup, kind)

        # f, d and the cycles are signed supports: no analysis multiplies
        # or transposes a dense matrix, and no GF(2) kernel runs: the
        # kernels of f and f^t mod 2 are decided by a rank, and the fixed
        # cycle and bond spaces are built from the fundamental cycles and
        # the vertex cuts
        gf2_kernels = []

        def recording_kernel(columns, n_rows):
            gf2_kernels.append((len(columns), n_rows))
            return gf2_kernel(columns, n_rows)

        gf2_kernel = modp_module.kernel
        for module in (critical_module, factorization_module, modp_module):
            if getattr(module, "kernel", None) is gf2_kernel:
                monkeypatch.setattr(module, "kernel", recording_kernel)
        for name in ("__matmul__", "transpose"):
            monkeypatch.setattr(IntMatrix, name, counting(name, getattr(IntMatrix, name)))

        checks = self.count_checks(monkeypatch)
        for g in (running_example(), mirror_grid(9, 9)):
            counts.clear()
            snf_inputs.clear()
            gf2_kernels.clear()
            checks.clear()
            rep = main_theorem_verdict(g)
            assert rep.overall_pass
            # each check runs once, however many verdicts read it, and
            # the report's three forest counts are the only ones
            assert checks == Counter({**dict.fromkeys(CHECKS, 1), "forest_count": 3})
            assert counts["kernel"] == 2
            assert counts["cokernel"] == 2
            assert counts["well_defined"] == 2
            assert counts["snf"] == 10
            # one spanning forest per pair (G, G+, G- and G+ u G-), and a
            # relation matrix for G, G+ and G- only: no Smith form runs on
            # the union's block diagonal of theirs (44 x 46 on the
            # benchmark's `large` graphs); the largest is K(G)'s
            assert counts["spanning_forest"] == 4
            assert counts["relation_matrix"] == 3
            assert rep.pair_union.critical_group.matrix not in snf_inputs
            # the union's logs are the plus log, then the minus log with
            # its rows (columns) moved past the plus group's
            union, plus, minus = (
                pair.critical_group for pair in (rep.pair_union, rep.pair_plus, rep.pair_minus)
            )
            for logs, shift in (("row_ops", plus.matrix.n_rows), ("col_ops", plus.matrix.n_cols)):
                moved = tuple(
                    (op[0], *(i + shift for i in op[1:3]), *op[3:]) for op in getattr(minus, logs)
                )
                assert getattr(union, logs) == getattr(plus, logs) + moved
            sizes = [a.n_rows * a.n_cols for a in snf_inputs]
            assert snf_inputs[sizes.index(max(sizes))] == rep.pair_g.relation_matrix
            assert sizes.count(max(sizes)) == 1
            # no Smith form's witness is built: kernels and cokernels read
            # only diagonals, and a hom's Smith coordinates replay the
            # critical groups' logs on k_t rows, so neither U nor U^-1 is
            assert {kind: counts[kind] for kind in WITNESSES} == {
                "left": 0, "right": 0, "left_inv": 0, "right_inv": 0,
            }
            # one GF(2) elimination per fixed space (Z^phi, B^phi, Z^psi
            # and B^psi: 4), one per side for its sum and cap (2), the rank
            # of f mod 2 (1), the image of g (1) and the linking cycles,
            # whose one pass gives the dimensions of the image of the
            # psi-fixed cycles and of its sum with the cycles (1); the
            # predicted kernel of f^t and the fixed ambients are orbits of
            # phi and psi, counted and not eliminated, and membership
            # reduces against the pivots of the reduced basis
            assert counts["echelonize"] == 9
            assert counts["__matmul__"] == counts["transpose"] == 0
            assert gf2_kernels == []
            # the diagonal-only Smith forms build none
            diagonal_only = [
                *(pair.laplacian_snf for pair in (rep.pair_g, rep.pair_plus, rep.pair_minus)),
                rep.coker_f, rep.coker_ft, rep.ker_f, rep.ker_ft,
            ]
            for group in diagonal_only:
                assert not set(WITNESSES) & vars(group).keys()
        # every Smith form of a kernel or cokernel is at most k_s + k_t
        # wide and tall, whatever the ambient ranks, and no input entry
        # exceeds the hom's largest modulus, on both inputs above and on
        # the 5x5 grid, whose moduli (up to 6,600) leave room for
        # unreduced entries
        grid = build_maps(mirror_grid(5, 5).decompose())
        for hom in (grid.f_star, grid.ft_star):
            hom.kernel()
            hom.cokernel()
        assert len(hom_inputs) == 12
        for hom, a in hom_inputs:
            moduli = [*hom.source.moduli.values(), *hom.target.moduli.values()]
            assert max(a.shape) <= len(moduli)
            assert all(abs(x) <= max(moduli) for row in a.rows for x in row)

    def test_gated_out_checks_do_not_run(self, monkeypatch):
        # a check runs only for a verdict whose hypotheses hold: a cyclic
        # axis runs no injection, and none of these inputs meets all
        # three hypotheses, so none links axis components; the checks of
        # the unconditional verdicts run once each
        checks = self.count_checks(monkeypatch)
        injections = (
            (parse(CYCLIC_AXIS), 0), (identity_mirror_triangle(), 0),
            (empty_axis(), 1), (disconnected_plus(), 1),
        )
        for g, injection in injections:
            checks.clear()
            main_theorem_verdict(g)
            assert checks == Counter({
                **dict.fromkeys(CHECKS, 1), "g_injection": injection,
                "component_linking_cycles": 0, "forest_count": 3,
            })

    def test_the_analysis_is_complete_when_returned(self, monkeypatch):
        # main_theorem_verdict computes the forest counts and the
        # verdicts before it returns, so reading them again and
        # formatting the report run no Smith form, elimination, check or
        # forest count, gated inputs included
        import mirrorcrit.cli as cli_module
        import mirrorcrit.critical as critical_module
        import mirrorcrit.lattice as lattice_module
        import mirrorcrit.modp as modp_module

        calls = self.count_checks(monkeypatch)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        snf = counting("snf", lattice_module.smith_normal_form)
        monkeypatch.setattr(lattice_module, "smith_normal_form", snf)
        monkeypatch.setattr(critical_module, "smith_normal_form", snf)
        monkeypatch.setattr(
            modp_module, "_echelonize", counting("echelonize", modp_module._echelonize)
        )
        inputs = (running_example(), mirror_grid(9, 9), empty_axis(), parse(CYCLIC_AXIS))
        for g in inputs:
            rep = main_theorem_verdict(g)
            calls.clear()
            doc = cli_module.report_document(rep, "x", b"")
            assert (doc["verdicts"], doc["overall_pass"]) == (rep.verdicts, rep.overall_pass)
            kappas = {"G": rep.kappa_g, "G_plus": rep.kappa_plus, "G_minus": rep.kappa_minus}
            assert doc["kappa"] == kappas
            assert calls == {}

    def test_each_hypothesis_traversed_once(self, monkeypatch):
        # one analysis finds the axis components once, and the plus
        # graph's connectivity once, and reads both from SymmetryMaps
        calls = Counter()
        components = Multigraph.components

        def counting(graph):
            calls[graph.vertices] += 1
            return components(graph)

        monkeypatch.setattr(Multigraph, "components", counting)
        rep = main_theorem_verdict(mirror_grid(7, 7))
        assert rep.overall_pass
        axis = tuple(rep.graph.fixed_vertices)
        assert calls == {axis: 1, rep.dec.plus.vertices: 1}

    def test_no_fixed_ambient_built(self, monkeypatch):
        # an analysis reads the phi- and psi-fixed ambients only through
        # their orbit counts and orbits, so it builds neither; psi and phi
        # are each checked once, in build_maps, and the fixed spaces,
        # built from generators, check neither again; at either size the
        # analysis makes 9 GF(2) eliminations
        import mirrorcrit.factorization as factorization_module
        import mirrorcrit.modp as modp_module

        calls = Counter()

        def counting(name, fn):
            def wrapper(perm):
                calls[name, len(perm)] += 1
                return fn(perm)

            return wrapper

        check = counting("is_involution", modp_module.is_involution)
        monkeypatch.setattr(modp_module, "is_involution", check)
        monkeypatch.setattr(factorization_module, "is_involution", check)
        monkeypatch.setattr(
            modp_module, "fixed_ambient", counting("fixed_ambient", modp_module.fixed_ambient)
        )
        echelonize = modp_module._echelonize

        def counting_eliminations(*args, **kwargs):
            calls["echelonize"] += 1
            return echelonize(*args, **kwargs)

        monkeypatch.setattr(modp_module, "_echelonize", counting_eliminations)
        assert not hasattr(factorization_module, "fixed_ambient")
        for n in (7, 17):
            calls.clear()
            rep = main_theorem_verdict(mirror_grid(n, n))
            assert rep.overall_pass
            n_phi, n_psi = len(rep.phi), len(rep.psi)
            assert n_phi != n_psi
            assert calls == {
                ("is_involution", n_phi): 1,
                ("is_involution", n_psi): 1,
                "echelonize": 9,
            }

    @staticmethod
    def count_violation_walks(monkeypatch):
        calls = Counter()
        walk = SymmetricGraph._violations

        def counting(self):
            calls["walk"] += 1
            return walk(self)

        monkeypatch.setattr(SymmetricGraph, "_violations", counting)
        return calls

    def test_parse_walks_once(self, monkeypatch):
        calls = self.count_violation_walks(monkeypatch)
        parse((SAMPLES / "k4minus.sg").read_text())
        assert calls == {"walk": 1}

    def test_verdict_walks_none(self, monkeypatch):
        # a constructed graph is valid and oriented: the pipeline
        # validates nothing and rebuilds no SymmetricGraph
        g = parse((SAMPLES / "k4minus.sg").read_text())
        calls = self.count_violation_walks(monkeypatch)
        assert main_theorem_verdict(g).overall_pass
        assert calls == {}

    def test_one_validation_walk(self, monkeypatch, capsys):
        # one `analyze` run validates its input once, in parse
        import mirrorcrit.cli as cli_module

        calls = self.count_violation_walks(monkeypatch)
        assert cli_module.main(["analyze", str(SAMPLES / "k4minus.sg")]) == 0
        capsys.readouterr()
        assert calls == {"walk": 1}

    def test_oracle_reads_the_analysis_maps(self, monkeypatch, capsys):
        # oracle on a symmetric input builds K(G) once and runs no
        # verdicts: 5 Smith forms, for K(G), K(G+), K(G-), and the
        # cokernel and kernel of f*, none for K(G+ u G-), and no check or
        # forest count
        import mirrorcrit.cli as cli_module
        import mirrorcrit.critical as critical_module
        import mirrorcrit.factorization as factorization_module
        import mirrorcrit.lattice as lattice_module

        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        snf = counting("snf", lattice_module.smith_normal_form)
        monkeypatch.setattr(lattice_module, "smith_normal_form", snf)
        monkeypatch.setattr(critical_module, "smith_normal_form", snf)
        verdict = counting("main_theorem_verdict", main_theorem_verdict)
        monkeypatch.setattr(cli_module, "main_theorem_verdict", verdict)
        monkeypatch.setattr(factorization_module, "main_theorem_verdict", verdict)
        checks = self.count_checks(monkeypatch)
        assert cli_module.main(["oracle", str(SAMPLES / "k4minus.sg")]) == 0
        assert "oracle: all checks agree" in capsys.readouterr().out
        assert calls == {"snf": 5}
        assert checks == {}

    def test_oracle_splits_each_graph_once(self, monkeypatch, capsys):
        # the forest and bicycle walks on G share one split into blocks;
        # the bicycle walk on G+ u G- splits that graph once more
        import mirrorcrit.cli as cli_module
        import mirrorcrit.critical as critical_module

        split = []
        blocks = critical_module.biconnected_blocks

        def recording(g):
            split.append(g.n_edges)
            return blocks(g)

        monkeypatch.setattr(critical_module, "biconnected_blocks", recording)
        monkeypatch.setattr(cli_module, "biconnected_blocks", recording)
        path = SAMPLES / "k4minus.sg"
        assert cli_module.main(["oracle", str(path)]) == 0
        assert "oracle: all checks agree" in capsys.readouterr().out
        g = parse(path.read_text())
        assert split == [g.graph.n_edges, g.decompose().union_graph().n_edges]


# the verdicts gated off when the axis is not a forest, and when G+ is
# disconnected or the axis is empty
NOT_FOREST = (
    "alternate_presentations", "g_injective", "snake_cycle_gap", "snake_sum_ratio",
    "final_two_power_identity", "ratio_is_two_power", "corollary_factorization",
    "linking_cycle_basis",
)
NOT_CONNECTED_OR_EMPTY = (
    "snake_bond_dims", "snake_cycle_gap", "final_two_power_identity",
    "ratio_is_two_power", "corollary_factorization", "linking_cycle_basis",
)

# input -> (the verdicts that are not True, (axis_components, exponent,
# plus_connected, axis_nonempty, axis_forest))
GATE_INPUTS = {
    "identity_mirror_triangle": (
        identity_mirror_triangle, dict.fromkeys(NOT_FOREST), (1, -1, True, True, False),
    ),
    "empty_axis": (
        empty_axis, dict.fromkeys(NOT_CONNECTED_OR_EMPTY), (0, -1, True, False, True),
    ),
    "disconnected_plus": (
        disconnected_plus, dict.fromkeys(NOT_CONNECTED_OR_EMPTY), (2, 1, False, True, True),
    ),
    # bicycle_cokernel is not gated on the forest hypothesis yet
    "cyclic_axis": (
        lambda: parse(CYCLIC_AXIS),
        {**dict.fromkeys(NOT_FOREST), "bicycle_cokernel": False},
        (1, -1, True, True, False),
    ),
}


class TestGates:
    """The hypothesis flags and every verdict on the inputs that the
    seeded generator never makes: a cyclic axis, an empty axis and a
    disconnected plus graph."""

    @pytest.mark.parametrize("name", list(GATE_INPUTS))
    def test_verdicts_and_hypotheses(self, name):
        build, not_true, flags = GATE_INPUTS[name]
        rep = main_theorem_verdict(build())
        everything_true = {verdict: True for verdict, _, _ in VERDICTS}
        assert rep.verdicts == {**everything_true, **not_true}
        hypotheses = (
            rep.axis_components[0], rep.exponent, rep.plus_connected,
            rep.axis_nonempty, rep.axis_forest,
        )
        assert hypotheses == flags


class TestMainTheoremVerdict:
    def test_running_example(self):
        rep = main_theorem_verdict(running_example())
        assert rep.pair_g.critical_group.invariant_factors == (8,)
        assert rep.pair_plus.critical_group.invariant_factors == (4,)
        assert rep.pair_minus.critical_group.invariant_factors == (2,)
        assert rep.ker_f.invariant_factors == (2,)
        assert rep.coker_f.invariant_factors == (2,)
        assert rep.exponent == 0
        assert (rep.kappa_g, rep.kappa_plus, rep.kappa_minus) == (8, 4, 2)
        assert rep.theorem_applicable
        assert rep.overall_pass
        assert all(v is True for v in rep.verdicts.values())

    def test_mirror_cycle_family(self):
        for n in range(2, 9):
            rep = main_theorem_verdict(mirror_cycle(n))
            assert rep.pair_g.critical_group.invariant_factors == (2 * n,)
            assert rep.pair_plus.critical_group.order() == 1
            assert rep.pair_minus.critical_group.order() == n
            assert rep.ker_f.order() == 1
            assert rep.coker_f.invariant_factors == (2,)
            assert rep.exponent == 1
            assert rep.overall_pass

    def test_mirror_cycle_non_splitness(self):
        # for even n the extension 0 -> Z/n -> K -> Z/2 -> 0 does not
        # split: Z/2n and Z/n + Z/2 have different invariant factors
        for n in range(2, 9):
            group_g = main_theorem_verdict(mirror_cycle(n)).pair_g.critical_group
            split = smith_normal_form(IntMatrix([[n, 0], [0, 2]]))
            if n % 2 == 0:
                assert group_g.describe() != split.describe()
            else:
                assert group_g.describe() == split.describe()

    def test_order_identity_written_out(self):
        rep = main_theorem_verdict(running_example())
        assert (
            rep.pair_plus.critical_group.order()
            * rep.pair_minus.critical_group.order()
            * rep.coker_f.order()
            == rep.pair_g.critical_group.order() * rep.ker_f.order()
        )

    def test_tripod_exponent_two(self):
        rep = main_theorem_verdict(tripod())
        assert rep.exponent == 2
        assert rep.kappa_g == 12
        assert rep.kappa_plus == 1 and rep.kappa_minus == 3
        assert rep.overall_pass

    def test_identity_mirror_triangle_gated(self):
        # valid input whose axis is a cycle: the unconditional checks
        # pass; everything needing the forest hypothesis is n/a, and
        # the counterexample numbers show why the gate exists
        rep = main_theorem_verdict(identity_mirror_triangle())
        assert rep.axis_forest is False
        assert not rep.theorem_applicable
        assert rep.pair_g.critical_group.invariant_factors == (3,)
        assert rep.pair_plus.critical_group.invariant_factors == (6,)
        assert rep.ker_f.invariant_factors == (2,)
        assert rep.coker_f.order() == 1
        assert rep.verdicts["ratio_is_two_power"] is None
        assert rep.verdicts["g_injective"] is None
        assert rep.verdicts["order_identity"] is True
        assert rep.verdicts["two_torsion"] is True
        assert rep.overall_pass

    def test_empty_axis_gated(self):
        rep = main_theorem_verdict(empty_axis())
        assert rep.axis_nonempty is False
        assert rep.verdicts["ratio_is_two_power"] is None
        assert rep.overall_pass  # unconditional checks still hold

    def test_disconnected_plus_gated(self):
        rep = main_theorem_verdict(disconnected_plus())
        assert rep.plus_connected is False
        assert rep.verdicts["snake_bond_dims"] is None
        assert rep.verdicts["corollary_factorization"] is None
        assert rep.overall_pass

    def test_unreserved_tuple_ids(self):
        # ids shaped like derived ones, of no fixed edge (the fixed edge
        # is cb), are ordinary ids: the analysis matches the string ids'
        plain = running_example()
        tupled = relabel(plain, {"a": ("s", "z")}, {"ab": ("y", 1), "db": ("y", 2)})
        reports = [main_theorem_verdict(g) for g in (plain, tupled)]
        assert reports[0].verdicts == reports[1].verdicts
        assert all(v is True for v in reports[1].verdicts.values())
        factors = [
            [
                *(pair.critical_group.invariant_factors
                  for pair in (m.pair_g, m.pair_plus, m.pair_minus, m.pair_union)),
                *(grp.invariant_factors for grp in (m.ker_f, m.coker_f, m.ker_ft, m.coker_ft)),
            ]
            for m in reports
        ]
        assert factors[0] == factors[1]

    def test_invalid_input_raises(self):
        g = running_example()
        vside = dict(g.vertex_side)
        vside["a"] = FIXED
        # construction raises, so no invalid graph reaches the pipeline
        with pytest.raises(InvalidSymmetricGraph) as exc:
            main_theorem_verdict(
                SymmetricGraph(g.graph, g.vertex_involution, g.edge_involution, vside, g.edge_side)
            )
        assert exc.value.violations == [
            "vertex 'a' is marked Fixed but phi moves it to 'd'",
            "vertex sides of 'a' and 'd' are not mirrored",
            "vertex sides of 'd' and 'a' are not mirrored",
        ]

    def test_corpus_all_pass(self, small_corpus, mixed_corpus):
        for g in small_corpus + mixed_corpus:
            rep = main_theorem_verdict(g)
            assert rep.overall_pass, {
                k: v for k, v in rep.verdicts.items() if v is False
            }

    def test_connected_corpus_applicable(self, small_corpus):
        for g in small_corpus:
            rep = main_theorem_verdict(g)
            assert rep.theorem_applicable
            assert rep.verdicts["ratio_is_two_power"] is True
            assert rep.verdicts["corollary_factorization"] is True
