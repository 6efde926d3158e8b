"""Critical groups, forest counts, p-bicycles, duality."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcrit.critical import (
    AdjointPair,
    count_maximal_forests_bruteforce,
    duality_order_check,
    forest_count,
)
from mirrorcrit.factorization import build_maps
from mirrorcrit.graphs import Multigraph
from mirrorcrit.lattice import (
    FpAbelianGroup,
    GroupHom,
    IntMatrix,
    integer_kernel,
    smith_normal_form,
)
from mirrorcrit.randgraph import random_multigraph

from conftest import mirror_cycle, running_example


def triangle():
    return Multigraph(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])


def cycle_graph(n):
    verts = [str(i) for i in range(n)]
    edges = [(f"e{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    return Multigraph(verts, edges)


class TestAdjointPair:
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

    def test_bonds_are_exactly_the_vectors_orthogonal_to_cycles(self):
        # d is totally unimodular, so B = im(dt) is saturated and the
        # orthogonality test of verify_lattice_preservation is exact
        rng = random.Random(3)
        outcomes = set()
        for seed in range(300):
            pair = AdjointPair.from_graph(random_multigraph(seed))
            assert set(smith_normal_form(pair.d).diagonal) <= {0, 1}
            m = pair.c1_rank
            if m == 0:
                continue
            bonds = FpAbelianGroup.quotient(m, pair.dt)
            cycles_t = pair.cycle_lattice.transpose()
            for k in range(20):
                if k % 3 == 2:
                    vec = [rng.randint(-3, 3) for _ in range(m)]
                else:
                    c = [rng.randint(-3, 3) for _ in range(pair.c0_rank)]
                    vec = pair.dt.mul_vector(c)
                    if k % 3 == 1:
                        vec[rng.randrange(m)] += rng.choice((-1, 1))
                orthogonal = not any(cycles_t.mul_vector(vec))
                assert orthogonal == bonds.contains_relation(vec), (seed, vec)
                outcomes.add(orthogonal)
        assert outcomes == {True, False}


@st.composite
def multigraphs(draw):
    """Multigraphs on 0-8 vertices with 0-14 edges drawn from a few
    vertex pairs, so loops, parallel edges, isolated vertices and
    several components all occur."""
    n = draw(st.integers(0, 8))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    pool = draw(st.lists(ends, min_size=1, max_size=10)) if n else []
    picks = draw(st.lists(st.sampled_from(pool), max_size=14)) if pool else []
    return Multigraph(
        [str(v) for v in range(n)],
        [(f"e{j}", str(a), str(b)) for j, (a, b) in enumerate(picks)],
    )


FOREST = settings(max_examples=200, derandomize=True, database=None, deadline=None)


class TestForestCycleBasis:
    """`cycle_lattice`, the fundamental cycles of a spanning forest,
    against the Smith-form kernel basis `integer_kernel(d)`."""

    @FOREST
    @given(multigraphs())
    @example(Multigraph([], []))
    @example(Multigraph(["1", "2", "3"], []))
    @example(Multigraph(["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")]))
    def test_same_lattice_as_integer_kernel(self, g):
        pair = AdjointPair.from_graph(g)
        z, reference = pair.cycle_lattice, integer_kernel(pair.d)
        assert z.shape == reference.shape
        assert (pair.d @ z).is_zero()
        # column c is e_j for its non-tree edge j plus edges of the forest
        # union-find built before j, so j is its last nonzero coordinate
        nontree = [max(i for i, x in enumerate(col) if x) for col in z.columns()]
        assert [[z.rows[j][c] for c in range(z.n_cols)] for j in nontree] == [
            [int(i == c) for c in range(z.n_cols)] for i in range(z.n_cols)
        ]
        # the other edges form a forest: d is injective on them
        tree = [j for j in range(pair.c1_rank) if j not in nontree]
        tree_columns = IntMatrix([pair.dt.rows[j] for j in tree], shape=(len(tree), pair.c0_rank))
        assert smith_normal_form(tree_columns).rank == len(tree)
        # each lattice contains the other: both have rank E - rank(d), and
        # together they still generate a saturated lattice of that rank
        both = smith_normal_form(reference.hstack(z))
        assert both.rank == z.n_cols
        assert set(both.diagonal[: both.rank]) <= {1}
        assert set(smith_normal_form(z).diagonal) <= {1}

    def test_rejects_a_non_incidence_column(self):
        for rows in ([[1], [1]], [[2], [0]], [[1], [-1], [1]], [[0], [3]]):
            pair = AdjointPair(IntMatrix(rows))
            with pytest.raises(ValueError, match="column 0 of d"):
                pair.cycle_lattice


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
        assert pair.laplacian_invariant_factors == (8,)
        assert pair.laplacian_invariant_factors == pair.critical_group.invariant_factors

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
        assert pair.laplacian_invariant_factors == (3, 3)
        assert forest_count(pair) == 9 == count_maximal_forests_bruteforce(two)

    def test_laplacian_presentation_single_vertex(self):
        g = Multigraph(["1"], [])
        assert AdjointPair.from_graph(g).laplacian_invariant_factors == ()

    def test_laplacian_matches_quotient_on_corpus(self, mixed_corpus):
        for g in mixed_corpus:
            pair = AdjointPair.from_graph(g.graph)
            # the Laplacian route has free rank 0 by construction
            assert pair.critical_group.free_rank == 0
            assert pair.laplacian_invariant_factors == pair.critical_group.invariant_factors

    def test_doubling_on_theta_graph(self):
        # tripled edge on two vertices: K = Z/3, and doubling is an
        # automorphism of Z/3, so kernel and cokernel are both trivial
        g = Multigraph(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
        k = AdjointPair.from_graph(g).critical_group
        hom = GroupHom(k, k, IntMatrix.identity(3).scale(2))
        assert hom.well_defined
        assert hom.source.order() == 3
        assert hom.kernel().is_trivial()
        assert hom.cokernel().is_trivial()


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
        f_star, ft_star = maps.f_star, maps.ft_star
        report = duality_order_check(
            f_star.kernel(), f_star.cokernel(), ft_star.kernel(), ft_star.cokernel()
        )
        assert report.passed
        assert report.ker_h == (2,)
        assert report.coker_h == (2,)

    def test_mirror_cycle_n2(self):
        maps = build_maps(mirror_cycle(2).decompose())
        f_star, ft_star = maps.f_star, maps.ft_star
        report = duality_order_check(
            f_star.kernel(), f_star.cokernel(), ft_star.kernel(), ft_star.cokernel()
        )
        assert report.passed
        assert report.ker_h == ()       # injective
        assert report.coker_ht == ()    # dual side agrees

