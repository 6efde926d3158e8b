"""Critical groups, forest counts, p-bicycles, adjoint-pair morphisms."""

import random

import pytest

from mirrorcrit.critical import (
    AdjointPair,
    PairMorphism,
    block_pair,
    complete_morphism,
    count_maximal_forests_bruteforce,
    duality_order_check,
    forest_count,
    induced_critical_hom,
    preserves_lattices,
)
from mirrorcrit.factorization import build_maps, induced_f_star
from mirrorcrit.graphs import Multigraph
from mirrorcrit.lattice import FpAbelianGroup, GroupHom, IntMatrix
from mirrorcrit.randgraph import random_multigraph

from conftest import mirror_cycle, running_example


def triangle():
    return Multigraph(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])


def cycle_graph(n):
    verts = [str(i) for i in range(n)]
    edges = [(f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Multigraph(verts, edges)


class TestAdjointPair:
    def test_transpose_enforced(self):
        d = IntMatrix([[1, -1]])
        with pytest.raises(ValueError):
            AdjointPair(d=d, dt=d)
        AdjointPair(d=d, dt=d.transpose())

    def test_cycle_and_bond_ranks(self):
        # tree: no cycles; loop: one cycle, no bonds
        tree = Multigraph(["1", "2"], [("e", "1", "2")])
        pair = AdjointPair.from_graph(tree)
        assert pair.cycle_lattice.n_cols == 0
        loop = Multigraph(["1"], [("e", "1", "1")])
        pair = AdjointPair.from_graph(loop)
        assert pair.cycle_lattice.n_cols == 1
        assert pair.bond_lattice.is_zero()

    def test_running_example_ranks_and_orthogonality(self):
        pair = AdjointPair.from_graph(running_example().graph)
        z = pair.cycle_lattice
        b = pair.bond_lattice
        assert z.n_cols == 2
        assert b.shape == (5, 4)
        # cycles and bonds are orthogonal under the standard form
        for i in range(z.n_cols):
            for j in range(b.n_cols):
                assert sum(a * c for a, c in zip(z.column(i), b.column(j))) == 0


class TestCriticalGroup:
    def test_running_example_groups(self):
        g = running_example()
        dec = g.decompose()
        assert AdjointPair.from_graph(g.graph).critical_group.describe() == "Z/8"
        assert AdjointPair.from_graph(dec.plus).critical_group.describe() == "Z/4"
        assert AdjointPair.from_graph(dec.minus).critical_group.describe() == "Z/2"

    def test_tree_trivial(self):
        tree = Multigraph(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        assert AdjointPair.from_graph(tree).critical_group.is_trivial()

    def test_hexagon(self):
        assert AdjointPair.from_graph(cycle_graph(6)).critical_group.describe() == "Z/6"

    def test_laplacian_presentation_running_example(self):
        pair = AdjointPair.from_graph(running_example().graph)
        via_laplacian = pair.critical_group_via_laplacian()
        assert via_laplacian.invariant_factors == (8,)
        assert via_laplacian.same_type(pair.critical_group)

    def test_laplacian_presentation_two_triangles(self):
        two = Multigraph(
            ["1", "2", "3", "4", "5", "6"],
            [
                ("a", "1", "2"),
                ("b", "2", "3"),
                ("c", "3", "1"),
                ("d", "4", "5"),
                ("e", "5", "6"),
                ("f", "6", "4"),
            ],
        )
        pair = AdjointPair.from_graph(two)
        group = pair.critical_group_via_laplacian()
        assert group.invariant_factors == (3, 3)
        assert forest_count(pair) == 9 == count_maximal_forests_bruteforce(two)

    def test_laplacian_presentation_single_vertex(self):
        g = Multigraph(["1"], [])
        assert AdjointPair.from_graph(g).critical_group_via_laplacian().is_trivial()

    def test_laplacian_matches_quotient_on_corpus(self, mixed_corpus):
        for g in mixed_corpus:
            pair = AdjointPair.from_graph(g.graph)
            assert pair.critical_group_via_laplacian().same_type(pair.critical_group)


class TestForestCount:
    def test_running_example(self):
        assert forest_count(AdjointPair.from_graph(running_example().graph)) == 8

    def test_mirror_cycle(self):
        # an 8-cycle has 8 spanning trees
        assert forest_count(AdjointPair.from_graph(mirror_cycle(4).graph)) == 8

    def test_brute_force_agreement_on_random_graphs(self):
        for seed in range(25):
            g = random_multigraph(seed=seed, max_vertices=5, max_edges=7)
            pair = AdjointPair.from_graph(g)
            assert forest_count(pair) == count_maximal_forests_bruteforce(g)

    def test_order_of_critical_group_is_forest_count(self, mixed_corpus):
        for g in mixed_corpus:
            if g.graph.n_edges > 12:
                continue
            pair = AdjointPair.from_graph(g.graph)
            assert pair.critical_group.order() == count_maximal_forests_bruteforce(
                g.graph
            )


class TestPBicycles:
    def test_running_example_mod2(self):
        pair = AdjointPair.from_graph(running_example().graph)
        assert pair.p_bicycle_space(2).dim == 1

    def test_triangle(self):
        pair = AdjointPair.from_graph(triangle())
        # K = Z/3: one invariant factor divisible by 3, none by 2; the
        # full triangle is the 3-bicycle
        assert pair.p_bicycle_space(3).dim == 1
        assert pair.p_bicycle_space(3).contains([1, 1, 1])
        assert pair.p_bicycle_space(2).dim == 0

    def test_dimension_counts_factors_divisible_by_p(self):
        for seed in range(40):
            g = random_multigraph(seed=seed, max_vertices=6, max_edges=10)
            pair = AdjointPair.from_graph(g)
            factors = pair.critical_group.invariant_factors
            for p in (2, 3, 5):
                expected = sum(1 for d in factors if d % p == 0)
                assert pair.p_bicycle_space(p).dim == expected


class TestPairMorphisms:
    def test_identity_morphism(self):
        pair = AdjointPair.from_graph(triangle())
        ident = PairMorphism(
            source=pair,
            target=pair,
            f1=IntMatrix.identity(3),
            f0=IntMatrix.identity(3),
        )
        assert ident.is_valid()
        hom = induced_critical_hom(ident)
        assert hom.kernel().is_trivial()
        assert hom.cokernel().is_trivial()

    def test_complete_morphism_identity(self):
        pair = AdjointPair.from_graph(triangle())
        m = complete_morphism(IntMatrix.identity(3), pair, pair)
        assert m.f0_image_basis is None  # graph images are saturated
        assert m.is_valid()
        _, strict = m.intertwines_coboundary()
        assert strict or m.is_valid()

    def test_complete_morphism_from_mirror_map(self):
        # the mirror map f preserves both lattices, so it completes,
        # and the induced hom equals the one built directly
        maps = build_maps(running_example().decompose())
        m = complete_morphism(maps.f_matrix, maps.pair_union, maps.pair_g)
        assert m.is_valid()
        hom = induced_critical_hom(m)
        direct = induced_f_star(maps)
        assert hom.matrix == direct.matrix
        assert hom.source.same_type(direct.source)
        assert hom.target.same_type(direct.target)
        assert hom.kernel().same_type(direct.kernel())

    def test_broken_morphism_rejected(self):
        pair = AdjointPair.from_graph(triangle())
        broken = PairMorphism(
            source=pair,
            target=pair,
            f1=IntMatrix.identity(3),
            f0=IntMatrix.identity(3).scale(3),
        )
        assert not broken.intertwines_boundary()
        with pytest.raises(ValueError):
            induced_critical_hom(broken)

    def test_random_matrices_usually_rejected(self):
        pair = AdjointPair.from_graph(
            Multigraph(
                ["1", "2", "3", "4"],
                [
                    ("a", "1", "2"),
                    ("b", "2", "3"),
                    ("c", "3", "4"),
                    ("d", "4", "1"),
                    ("e", "1", "3"),
                    ("f", "2", "4"),
                ],
            )
        )
        rng = random.Random(9)
        rejected = 0
        for _ in range(20):
            f1 = IntMatrix(
                [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
            )
            if not preserves_lattices(f1, pair, pair):
                rejected += 1
                with pytest.raises(ValueError):
                    complete_morphism(f1, pair, pair)
        assert rejected >= 15

    def test_scaled_morphism_doubles_images(self):
        maps = build_maps(running_example().decompose())
        doubled = complete_morphism(
            maps.f_matrix.scale(2), maps.pair_union, maps.pair_g
        )
        hom2 = induced_critical_hom(doubled)
        hom1 = induced_f_star(maps)
        assert hom2.matrix == hom1.matrix.scale(2)
        target = hom1.target
        for j in range(hom1.source.ambient_rank):
            e = [int(i == j) for i in range(hom1.source.ambient_rank)]
            image_once = hom1.matrix.mul_vector(e)
            image_twice = hom2.matrix.mul_vector(e)
            assert image_twice == [2 * x for x in image_once]
            assert target.contains_relation(
                [a - 2 * b for a, b in zip(image_twice, image_once)]
            )

    def test_doubling_on_theta_graph(self):
        # tripled edge on two vertices: K = Z/3, and doubling is an
        # automorphism of Z/3, so kernel and cokernel are both trivial
        g = Multigraph(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
        pair = AdjointPair.from_graph(g)
        m = complete_morphism(IntMatrix.identity(3).scale(2), pair, pair)
        hom = induced_critical_hom(m)
        assert hom.source.order() == 3
        assert hom.kernel().is_trivial()
        assert hom.cokernel().is_trivial()


class TestDuality:
    def test_identity_homs(self):
        pair = AdjointPair.from_graph(triangle())
        k = pair.critical_group
        ident = GroupHom(source=k, target=k, matrix=IntMatrix.identity(3))
        report = duality_order_check(
            ident.kernel(), ident.cokernel(), ident.kernel(), ident.cokernel()
        )
        assert report.passed
        assert report.ker_h == ()

    def test_mirror_maps_running_example(self):
        maps = build_maps(running_example().decompose())
        from mirrorcrit.factorization import induced_ft_star

        f_star, ft_star = induced_f_star(maps), induced_ft_star(maps)
        report = duality_order_check(
            f_star.kernel(), f_star.cokernel(), ft_star.kernel(), ft_star.cokernel()
        )
        assert report.passed
        assert report.ker_h == (2,)
        assert report.coker_h == (2,)

    def test_mirror_cycle_n2(self):
        maps = build_maps(mirror_cycle(2).decompose())
        from mirrorcrit.factorization import induced_ft_star

        f_star, ft_star = induced_f_star(maps), induced_ft_star(maps)
        report = duality_order_check(
            f_star.kernel(), f_star.cokernel(), ft_star.kernel(), ft_star.cokernel()
        )
        assert report.passed
        assert report.ker_h == ()       # injective
        assert report.coker_ht == ()    # dual side agrees


class TestBlockPair:
    def test_block_pair_group_is_direct_sum(self):
        a = AdjointPair.from_graph(triangle())
        b = AdjointPair.from_graph(cycle_graph(4))
        both = block_pair(a, b)
        assert both.critical_group.invariant_factors == (12,) or (
            both.critical_group.invariant_factors == (3, 4)
        )
        assert both.critical_group.order() == 12
