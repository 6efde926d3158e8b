"""The mirror map, induced homs, bicycle identifications, verdicts."""

import dataclasses
import random
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

from mirrorcrit.critical import AdjointPair
from mirrorcrit.factorization import (
    VERDICT_ORDER,
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
    SmithDecomposition,
    integer_kernel,
)
from mirrorcrit.modp import is_involution
from mirrorcrit.randgraph import mirror_grid

from conftest import (
    CYCLIC_AXIS,
    disconnected_plus,
    empty_axis,
    exact_det,
    identity_mirror_triangle,
    mirror_cycle,
    relabel,
    running_example,
    single_fixed_edge,
)

WITNESSES = ("left", "right", "left_inv", "right_inv")
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
        assert maps.f_matrix.column(0) == (1, 0, 0, 1, 0)

    def test_half_edge_columns(self, maps):
        # both halves of cb map to cb itself
        assert maps.f_matrix.column(2) == (0, 0, 0, 0, 1)
        assert maps.f_matrix.column(3) == (0, 0, 0, 0, 1)

    def test_right_edge_column(self, maps):
        # f(0, dc) = dc - ac
        assert maps.f_matrix.column(4) == (0, -1, 1, 0, 0)

    def test_ft_of_fixed_edge(self, maps):
        # f^t(cb) = (half1 + half2, 0)
        cb = [0, 0, 0, 0, 1]
        assert maps.ft_matrix.mul_vector(cb) == [0, 0, 1, 1, 0, 0]

    def test_ft_is_transpose(self, maps):
        assert maps.ft_matrix == maps.f_matrix.transpose()

    def test_psi_is_fixed_point_free_involution(self, maps):
        assert is_involution(maps.psi)
        assert len(maps.psi) == maps.n_block
        for j in range(maps.n_block):
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
        # tamper one entry of f at a time: bonds_into_bonds must equal
        # exact membership of the bond image in B = im(dt)
        bonds = FpAbelianGroup.quotient(maps.pair_g.c1_rank, maps.pair_g.dt)
        outcomes = set()
        for i in range(maps.f_matrix.n_rows):
            for j in range(maps.f_matrix.n_cols):
                rows = [list(row) for row in maps.f_matrix.rows]
                rows[i][j] += 1
                tampered = dataclasses.replace(maps, f_matrix=IntMatrix(rows))
                image = tampered.f_matrix @ maps.pair_union.dt
                exact = all(bonds.contains_relation(col) for col in image.columns())
                assert verify_lattice_preservation(tampered).bonds_into_bonds == exact
                outcomes.add(exact)
        assert False in outcomes


def _apply(matrix, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix.rows]


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
    graph, f, ft = g.graph, maps.f_matrix, maps.ft_matrix
    vphi, ephi = g.vertex_involution, g.edge_involution
    n_edges, n_plus, n_minus, n_block = graph.n_edges, maps.n_plus, maps.n_minus, maps.n_block

    def f_of_plus_cut(v):
        return _apply(f, _cut(dec.plus, {v}) + [0] * n_minus)

    def f_of_minus_cut(v):
        return _apply(f, [0] * n_plus + _cut(dec.minus, {v}))

    def cut_g(v):
        return _cut(graph, {v})

    union = dec.union_graph()
    union_cuts = [_cut(union, {v}) for v in union.vertices]
    bonds = FpAbelianGroup.quotient(n_edges, maps.pair_g.dt)
    flags = dict(
        cycles_into_cycles=all(
            not any(_apply(maps.pair_g.d, _apply(f, z)))
            for z in integer_kernel(maps.pair_union.d).columns()
        ),
        bonds_into_bonds=all(
            bonds.contains_relation(_apply(f, cut)) for cut in union_cuts
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
        witnesses.append(_apply(f, block) == _unit(n_edges, graph.edge_index(e.id), 2))
        vec = _combine(1, unit_g(e.id), unit_g(mirror))
        witnesses.append(_apply(ft, vec) == _unit(n_block, plus_pos[e.id], 2))
    for e in g.right_edges:
        vec = _combine(-1, unit_g(e.id), unit_g(ephi[e.id]))
        witnesses.append(_apply(ft, vec) == _unit(n_block, minus_pos[e.id], 2))
    for e in g.fixed_edges:
        h1, h2 = half_edges(e.id)
        halves = _combine(1, _unit(n_block, plus_pos[h1]), _unit(n_block, plus_pos[h2]))
        witnesses.append(_apply(ft, unit_g(e.id)) == halves)
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
            tamperings = [maps]
            for i in range(maps.f_matrix.n_rows):
                for j in range(maps.f_matrix.n_cols):
                    rows = [list(row) for row in maps.f_matrix.rows]
                    rows[i][j] += 1
                    tamperings.append(dataclasses.replace(maps, f_matrix=IntMatrix(rows)))
            for tampered in tamperings:
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
                shift = pair_g.dt @ a @ pair_union.d
                rows = [list(map(sum, zip(r, s))) for r, s in zip(maps.f_matrix.rows, shift.rows)]
                tampered = dataclasses.replace(
                    maps, f_matrix=IntMatrix(rows, shape=maps.f_matrix.shape)
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
            assert f_star.kernel().is_trivial()
            assert f_star.cokernel().invariant_factors == (2,)

    def test_single_fixed_edge_zero_map(self):
        m = build_maps(single_fixed_edge().decompose())
        f_star = m.f_star
        assert f_star.source.is_trivial()
        assert f_star.target.is_trivial()
        assert m.ft_star.source.is_trivial()

    def test_ill_defined_matrix_does_not_descend(self):
        # on the theta graph K = Z/3; keeping edge a and killing b and c
        # sends the cycle a - b to a, which is nonzero in K
        theta = Multigraph(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
        pair = AdjointPair(theta)
        matrix = IntMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(RuntimeError, match="does not descend"):
            _descend("f", matrix, pair, pair)


class TestTwoTorsion:
    def test_running_example(self, maps):
        report = two_torsion_check(maps)
        assert report.passed
        assert maps.ker_f.invariant_factors == (2,)
        assert maps.coker_f.invariant_factors == (2,)

    def test_mirror_cycle(self):
        m = build_maps(mirror_cycle(3).decompose())
        report = two_torsion_check(m)
        assert report.passed
        assert m.ker_f.is_trivial()
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
        assert space.basis[0] == (1, 1, 1, 1, 0)

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
        assert ident.ker_ft_mod2_dim == 2  # |E_L|
        assert ident.ker_ft_basis_ok
        assert ident.ker_f_psi_fixed_ok
        assert ident.alternate_ker_matches and ident.alternate_coker_matches

    def test_running_example_sum_dimension(self, maps):
        # dim Z^phi = 1 and dim B^phi = 2 meet in the bicycle line, so
        # dim (Z^phi + B^phi) = 2
        ident = identify_kernel_cokernel(maps)
        assert maps.sum_phi.dim == 2
        assert ident.dim_phi_ambient == 3

    def test_quotient_presentations_cross_over(self):
        # mirrored 4-cycle: ker(f*) = 0 and coker(f*) = Z/2; the
        # quotient on the G side gives the kernel, the one on the
        # G+ u G- side the cokernel (not the other way around)
        m = build_maps(mirror_cycle(2).decompose())
        ident = identify_kernel_cokernel(m)
        assert m.ker_f.order() == 1 and m.coker_f.order() == 2
        assert ident.phi_quotient_log2 == 0
        assert ident.psi_quotient_log2 == 1
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
        # G+ u G-; both equal the corresponding fixed subspaces
        from mirrorcrit.modp import kernel as modp_kernel

        for g in mixed_corpus:
            m = build_maps(g.decompose())
            bic_g = m.pair_g.bicycle_space
            restricted_ft = modp_kernel(m.ft_matrix).intersection(bic_g)
            assert restricted_ft == m.phi_bicycles
            bic_pm = m.pair_union.bicycle_space
            restricted_f = modp_kernel(m.f_matrix).intersection(bic_pm)
            assert restricted_f == m.psi_bicycles

    def test_f_mod2_maps_bicycles_to_bicycles(self, mixed_corpus):
        # the mod-2 reduction of f carries the bicycle space of the
        # union into the bicycle space of G (functoriality of K/2K);
        # `contains` reduces the integer image f(row) mod 2 itself
        for g in mixed_corpus:
            m = build_maps(g.decompose())
            bic_g = m.pair_g.bicycle_space
            for row in m.pair_union.bicycle_space.basis:
                assert bic_g.contains(m.f_matrix.mul_vector(row))


class TestInjection:
    def test_running_example_image_is_shaded_cycle(self, maps):
        report = g_injection(maps)
        assert report.domain_dim == 1
        assert report.injective
        assert report.halves_agree
        assert report.image_in_phi_fixed_bicycles
        assert report.images[0] == (1, 1, 1, 1, 0)

    def test_mirror_cycle_vacuous(self):
        report = g_injection(build_maps(mirror_cycle(3).decompose()))
        assert report.domain_dim == 0
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
        assert snake.dim_b_psi == 2   # |V_R| + |E^phi| = 1 + 1
        assert snake.dim_b_phi == 2   # |V_R| + |V^phi| - 1 = 1 + 2 - 1
        assert snake.dim_z_psi == 1
        assert snake.dim_z_phi == 1
        assert maps.graph.two_power_exponent() == 0
        assert snake.column_exactness
        assert snake.bond_dim_plus_formula and snake.bond_dim_formula
        assert snake.cycle_dim_gap_formula
        assert snake.sum_ratio_matches_ker_coker
        assert snake.final_two_power_identity

    def test_mirror_cycle_n3(self):
        m = build_maps(mirror_cycle(3).decompose())
        snake = snake_dimension_report(m)
        assert m.graph.two_power_exponent() == 1
        assert m.phi_bicycles.dim - m.psi_bicycles.dim == 1
        assert snake.cycle_dim_gap_formula
        assert snake.final_two_power_identity

    def test_single_fixed_edge_trivial(self):
        m = build_maps(single_fixed_edge().decompose())
        snake = snake_dimension_report(m)
        assert m.graph.two_power_exponent() == 0
        assert snake.dim_z_psi == snake.dim_z_phi == 0
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
        m = build_maps(mirror_cycle(3).decompose())
        basis = component_linking_cycles(m)
        assert len(basis.cycles) == 1
        # the symmetrized path is the whole cycle
        assert basis.cycles[0] == (1,) * 6
        assert basis.independent_and_spanning

    def test_running_example_empty(self, maps):
        basis = component_linking_cycles(maps)
        assert basis.cycles == ()
        assert basis.independent_and_spanning

    def test_three_axis_components(self):
        basis = component_linking_cycles(build_maps(tripod().decompose()))
        assert len(basis.cycles) == 2
        assert basis.independent_and_spanning

    def test_requires_connected_plus(self):
        with pytest.raises(ValueError):
            component_linking_cycles(build_maps(disconnected_plus().decompose()))

    def test_corpus(self, small_corpus):
        for g in small_corpus:
            basis = component_linking_cycles(build_maps(g.decompose()))
            assert basis.independent_and_spanning
            assert len(basis.cycles) == g.fixed_subgraph_components()[0] - 1

    def test_paths_link_consecutive_representatives(self, small_corpus):
        # each path, as an edge set of G+, has odd degree exactly at the
        # two representatives it links
        graphs = [*small_corpus, *(mirror_grid(r, r) for r in (5, 7, 9, 11))]
        linked = 0
        for g in graphs:
            dec = g.decompose()
            basis = component_linking_cycles(build_maps(dec))
            reps = basis.representatives
            for path, ends in zip(basis.paths, zip(reps, reps[1:])):
                degree = Counter()
                for eid in path:
                    e = dec.plus.edge(eid)
                    degree[e.tail] += 1
                    degree[e.head] += 1
                assert len(set(path)) == len(path)
                assert {v for v, k in degree.items() if k % 2} == set(ends)
                linked += 1
        assert linked >= 20, linked


def reduced_laplacian_det(graph: Multigraph) -> int:
    """Spanning trees of a connected graph by the matrix-tree theorem."""
    d = AdjointPair(graph).d
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
    def test_each_quantity_computed_once(self, monkeypatch):
        # one analysis computes each kernel, cokernel and well-definedness
        # check once; 11 SNFs cover every group, lattice and cross-check:
        # 1 per critical group of G, G+ and G-, and 1 of the k x k
        # diagonal of their nontrivial factors for K(G+ u G-), whose
        # decomposition is read off the plus and minus groups'; the
        # Laplacian route reads each Laplacian's one Smith form (3); a
        # hom in Smith coordinates makes 1 for its cokernel ([D_t | M'])
        # and 1 for its kernel (the cokernel of the dual hom, [D_s | N]),
        # its well-definedness and the diagonal presentations need none,
        # the cycle lattices come from spanning forests and bond
        # membership needs none
        import mirrorcrit.critical as critical_module
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
        monkeypatch.setattr(
            IntMatrix, "mul_vector", counting("mul_vector", IntMatrix.mul_vector)
        )
        # a Smith form builds a witness only when a caller reads it
        for kind in WITNESSES:
            counting_cached(SmithDecomposition, kind)

        rep = main_theorem_verdict(running_example())
        assert rep.overall_pass
        assert counts["kernel"] == 2
        assert counts["cokernel"] == 2
        assert counts["well_defined"] == 2
        assert counts["snf"] == 11
        # one spanning forest per pair (G, G+, G- and G+ u G-), and a
        # relation matrix for G, G+ and G- only: no Smith form runs on
        # the union's block diagonal of theirs (44 x 46 on the
        # benchmark's `large` graphs); the largest is K(G)'s
        assert counts["spanning_forest"] == 4
        assert counts["relation_matrix"] == 3
        maps = rep.maps
        assert maps.pair_union.critical_group.witness.matrix not in snf_inputs
        sizes = [a.n_rows * a.n_cols for a in snf_inputs]
        assert snf_inputs[sizes.index(max(sizes))] == maps.pair_g.relation_matrix
        assert sizes.count(max(sizes)) == 1
        # no Smith form's witness is built: kernels and cokernels read
        # only diagonals, and a hom's Smith coordinates replay the
        # critical groups' logs on k_t rows, so neither U nor U^-1 is
        assert {kind: counts[kind] for kind in WITNESSES} == {
            "left": 0, "right": 0, "left_inv": 0, "right_inv": 0,
        }
        # every Smith form of a kernel or cokernel is at most k_s + k_t
        # wide and tall, whatever the ambient ranks, and no input entry
        # exceeds the hom's largest modulus, here and on the 5x5 grid,
        # whose moduli (up to 6,600) leave room for unreduced entries
        grid = build_maps(mirror_grid(5, 5).decompose())
        for hom in (grid.f_star, grid.ft_star):
            hom.kernel()
            hom.cokernel()
        assert len(hom_inputs) == 8
        for hom, a in hom_inputs:
            moduli = hom.source.moduli + hom.target.moduli
            assert max(a.shape) <= len(moduli)
            assert all(abs(x) <= max(moduli) for row in a.rows for x in row)
        # one GF(2) elimination per subspace construction (from_rows,
        # kernel, intersection); membership reduces against the pivots of
        # the reduced basis and the fixed ambients are built reduced, so
        # neither eliminates
        assert counts["echelonize"] == 22
        # the cut and doubling identities read rows and columns of f, f^t
        # and f @ dt_union, so no dense matrix-vector product runs
        assert counts["mul_vector"] == 0
        # the diagonal-only Smith forms build none
        diagonal_only = [
            pair.laplacian_snf for pair in (maps.pair_g, maps.pair_plus, maps.pair_minus)
        ] + [grp.witness for grp in (rep.coker_f, rep.coker_ft, rep.ker_f, rep.ker_ft)]
        for decomposition in diagonal_only:
            assert not set(WITNESSES) & vars(decomposition).keys()

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
        assert calls == {axis: 1, rep.maps.dec.plus.vertices: 1}

    def test_each_fixed_ambient_built_once(self, monkeypatch):
        # the phi- and psi-fixed ambients are built once each and shared
        # by the six fixed spaces and identify_kernel_cokernel; psi and
        # phi are each checked once in build_maps and once more when
        # their ambient is built
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
            factorization_module,
            "fixed_ambient",
            counting("fixed_ambient", modp_module.fixed_ambient),
        )
        rep = main_theorem_verdict(mirror_grid(7, 7))
        assert rep.overall_pass
        n_phi, n_psi = len(rep.maps.phi), len(rep.maps.psi)
        assert n_phi != n_psi
        assert calls == {
            ("fixed_ambient", n_phi): 1,
            ("fixed_ambient", n_psi): 1,
            ("is_involution", n_phi): 2,
            ("is_involution", n_psi): 2,
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
        # verdicts: 6 Smith forms, for K(G), K(G+), K(G-), the diagonal
        # of K(G+ u G-), and the cokernel and kernel of f*
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
        assert cli_module.main(["oracle", str(SAMPLES / "k4minus.sg")]) == 0
        assert "oracle: all checks agree" in capsys.readouterr().out
        assert calls == {"snf": 6}


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
        assert rep.verdicts == {**dict.fromkeys(VERDICT_ORDER, True), **not_true}
        hypotheses = (
            rep.axis_components, rep.exponent, rep.plus_connected,
            rep.axis_nonempty, rep.axis_forest,
        )
        assert hypotheses == flags


class TestMainTheoremVerdict:
    def test_running_example(self):
        rep = main_theorem_verdict(running_example())
        assert rep.group_g.invariant_factors == (8,)
        assert rep.group_plus.invariant_factors == (4,)
        assert rep.group_minus.invariant_factors == (2,)
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
            assert rep.group_g.invariant_factors == (2 * n,)
            assert rep.group_plus.is_trivial()
            assert rep.group_minus.order() == n
            assert rep.ker_f.is_trivial()
            assert rep.coker_f.invariant_factors == (2,)
            assert rep.exponent == 1
            assert rep.overall_pass

    def test_mirror_cycle_non_splitness(self):
        # for even n the extension 0 -> Z/n -> K -> Z/2 -> 0 does not
        # split: Z/2n and Z/n + Z/2 have different invariant factors
        for n in range(2, 9):
            rep = main_theorem_verdict(mirror_cycle(n))
            split = FpAbelianGroup.quotient(
                2, IntMatrix([[n, 0], [0, 2]])
            )
            if n % 2 == 0:
                assert not rep.group_g.same_type(split)
            else:
                assert rep.group_g.same_type(split)

    def test_order_identity_written_out(self):
        rep = main_theorem_verdict(running_example())
        assert (
            rep.group_plus.order() * rep.group_minus.order() * rep.coker_f.order()
            == rep.group_g.order() * rep.ker_f.order()
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
        assert rep.group_g.invariant_factors == (3,)
        assert rep.group_plus.invariant_factors == (6,)
        assert rep.ker_f.invariant_factors == (2,)
        assert rep.coker_f.is_trivial()
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
                grp.invariant_factors
                for grp in (rep.group_g, rep.group_plus, rep.group_minus, rep.group_block,
                            rep.ker_f, rep.coker_f, rep.ker_ft, rep.coker_ft)
            ]
            for rep in reports
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
