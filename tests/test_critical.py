"""Critical groups, forest counts, bicycle spaces, duality."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcrit.critical import (
    AdjointPair,
    OracleLimitError,
    bicycle_masks_bruteforce,
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
        pair = AdjointPair(tree)
        assert pair.cycle_lattice.n_cols == 0
        loop = Multigraph(["1"], [("e", "1", "1")])
        pair = AdjointPair(loop)
        assert pair.cycle_lattice.n_cols == 1
        assert pair.dt.is_zero()

    def test_running_example_ranks_and_orthogonality(self):
        pair = AdjointPair(running_example().graph)
        z = pair.cycle_lattice
        b = pair.dt
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
            pair = AdjointPair(random_multigraph(seed))
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
        pair = AdjointPair(g)
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


class TestCriticalGroup:
    def test_running_example_groups(self):
        g = running_example()
        dec = g.decompose()
        assert AdjointPair(g.graph).critical_group.describe() == "Z/8"
        assert AdjointPair(dec.plus).critical_group.describe() == "Z/4"
        assert AdjointPair(dec.minus).critical_group.describe() == "Z/2"

    def test_tree_trivial(self):
        tree = Multigraph(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
        assert AdjointPair(tree).critical_group.is_trivial()

    def test_hexagon(self):
        assert AdjointPair(cycle_graph(6)).critical_group.describe() == "Z/6"

    def test_laplacian_presentation_running_example(self):
        pair = AdjointPair(running_example().graph)
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
        pair = AdjointPair(two)
        assert pair.laplacian_invariant_factors == (3, 3)
        assert forest_count(pair) == 9 == count_maximal_forests_bruteforce(two)

    def test_laplacian_presentation_single_vertex(self):
        g = Multigraph(["1"], [])
        assert AdjointPair(g).laplacian_invariant_factors == ()

    def test_laplacian_matches_quotient_on_corpus(self, mixed_corpus):
        for g in mixed_corpus:
            pair = AdjointPair(g.graph)
            # the Laplacian route has free rank 0 by construction
            assert pair.critical_group.free_rank == 0
            assert pair.laplacian_invariant_factors == pair.critical_group.invariant_factors

    def test_doubling_on_theta_graph(self):
        # tripled edge on two vertices: K = Z/3, and doubling is an
        # automorphism of Z/3, so kernel and cokernel are both trivial
        g = Multigraph(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
        k = AdjointPair(g).critical_group
        hom = GroupHom(k, k, IntMatrix.identity(3).scale(2))
        assert hom.well_defined
        assert hom.source.order() == 3
        assert hom.kernel().is_trivial()
        assert hom.cokernel().is_trivial()


class TestForestCount:
    def test_running_example(self):
        assert forest_count(AdjointPair(running_example().graph)) == 8

    def test_mirror_cycle(self):
        # an 8-cycle has 8 spanning trees
        assert forest_count(AdjointPair(mirror_cycle(4).graph)) == 8

    def test_brute_force_agreement_on_random_graphs(self):
        for seed in range(25):
            g = random_multigraph(seed=seed, max_vertices=5, max_edges=7)
            pair = AdjointPair(g)
            assert forest_count(pair) == count_maximal_forests_bruteforce(g)

    def test_order_of_critical_group_is_forest_count(self, mixed_corpus):
        for g in mixed_corpus:
            if g.graph.n_edges > 12:
                continue
            pair = AdjointPair(g.graph)
            assert pair.critical_group.order() == count_maximal_forests_bruteforce(
                g.graph
            )


def forests_by_edge_subsets(g, limit):
    """Reference forest count: every edge subset, kept when it has
    |V| - c edges and no cycle."""
    m, n = g.n_edges, g.n_vertices
    if 2**m > limit:
        raise OracleLimitError(f"2^{m} subsets exceed the limit {limit}")
    target = n - g.components()[0]
    ends = [(g.vertex_index(e.tail), g.vertex_index(e.head)) for e in g.edges]
    count = 0
    for mask in range(1 << m):
        if mask.bit_count() != target:
            continue
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for j in range(m):
            if mask >> j & 1:
                a, b = find(ends[j][0]), find(ends[j][1])
                if a == b:
                    break
                parent[a] = b
        else:
            count += 1
    return count


def bicycles_by_edge_subsets(g, limit):
    """Reference bicycles: every edge subset, kept when every vertex has
    even degree in it (a loop counts twice) and it is the set of edges
    crossing some vertex bipartition."""
    m, n = g.n_edges, g.n_vertices
    if 2**m > limit or 2**n > limit:
        raise OracleLimitError(
            f"2^{m} edge subsets or 2^{n} vertex subsets exceed the limit {limit}"
        )
    ends = [(g.vertex_index(e.tail), g.vertex_index(e.head)) for e in g.edges]
    cuts = {
        sum(1 << j for j, (t, h) in enumerate(ends) if (side >> t & 1) != (side >> h & 1))
        for side in range(1 << n)
    }

    def even(mask):
        degree = [0] * n
        for j, (t, h) in enumerate(ends):
            if mask >> j & 1:
                degree[t] += 1
                degree[h] += 1
        return all(d % 2 == 0 for d in degree)

    return [mask for mask in range(1 << m) if even(mask) and mask in cuts]


def oracle_inputs():
    graphs = [
        Multigraph([], []),
        Multigraph(["a"], [("l", "a", "a")]),
        Multigraph(["a", "b", "c"], [("x", "a", "b"), ("y", "a", "b")]),
        # |E| > |V| and |V| > |E|: each side of the bicycle guard at 16
        Multigraph(["a", "b"], [(f"p{i}", "a", "b") for i in range(5)]),
        Multigraph([f"v{i}" for i in range(5)], [("x", "v0", "v1")]),
    ]
    graphs += [
        random_multigraph(seed=seed, max_vertices=8, max_edges=10) for seed in range(200)
    ]
    return graphs


def outcome(oracle, g, limit):
    try:
        return oracle(g, limit)
    except OracleLimitError as exc:
        return type(exc), str(exc)


class TestOraclesAgainstEdgeSubsetWalks:
    """The oracles walk only the set they count; the references walk all
    2^|E| edge subsets and filter."""

    LIMITS = (1, 16, 1 << 10)

    def test_inputs_cover_the_awkward_cases(self):
        graphs = oracle_inputs()
        assert any(g.components()[0] > 1 for g in graphs)
        assert any(e.is_loop for g in graphs for e in g.edges)
        assert any(
            len({frozenset((e.tail, e.head)) for e in g.edges}) < g.n_edges for g in graphs
        )

    def test_forest_count(self):
        for g in oracle_inputs():
            for limit in self.LIMITS:
                assert outcome(count_maximal_forests_bruteforce, g, limit) == outcome(
                    forests_by_edge_subsets, g, limit
                )

    def test_bicycles(self):
        for g in oracle_inputs():
            for limit in self.LIMITS:
                got = outcome(bicycle_masks_bruteforce, g, limit)
                assert got == outcome(bicycles_by_edge_subsets, g, limit)
                if isinstance(got, list):
                    assert all(a < b for a, b in zip(got, got[1:]))

    def test_each_side_of_the_bicycle_guard_trips(self):
        more_edges, more_vertices = oracle_inputs()[3:5]
        assert outcome(bicycle_masks_bruteforce, more_edges, 16) == (
            OracleLimitError,
            "2^5 edge subsets or 2^2 vertex subsets exceed the limit 16",
        )
        assert outcome(bicycle_masks_bruteforce, more_vertices, 16) == (
            OracleLimitError,
            "2^1 edge subsets or 2^5 vertex subsets exceed the limit 16",
        )


class TestPBicycles:
    def test_running_example_mod2(self):
        pair = AdjointPair(running_example().graph)
        assert pair.bicycle_space.dim == 1

    def test_triangle(self):
        pair = AdjointPair(triangle())
        # K = Z/3: no invariant factor is even, so no bicycle
        assert pair.bicycle_space.dim == 0

    def test_dimension_counts_factors_divisible_by_p(self):
        for seed in range(40):
            g = random_multigraph(seed=seed, max_vertices=6, max_edges=10)
            pair = AdjointPair(g)
            factors = pair.critical_group.invariant_factors
            expected = sum(1 for d in factors if d % 2 == 0)
            assert pair.bicycle_space.dim == expected


class TestDuality:
    def test_identity_homs(self):
        pair = AdjointPair(triangle())
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

