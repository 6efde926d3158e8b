"""Critical groups, forest counts, bicycle spaces, duality."""

import random

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorcrit.critical import (
    AdjointPair,
    OracleLimitError,
    _blocks,
    bicycle_masks_bruteforce,
    count_maximal_forests_bruteforce,
    forest_count,
    subspace_masks,
)
from mirrorcrit.factorization import build_maps
from mirrorcrit.graphfile import parse
from mirrorcrit.graphs import Multigraph
from mirrorcrit.lattice import (
    GroupHom,
    IntMatrix,
    smith_normal_form,
)
from mirrorcrit.randgraph import mirror_grid

from conftest import (
    CYCLIC_AXIS,
    apply,
    contains_relation,
    dense,
    identity,
    incidence,
    integer_kernel,
    mirror_cycle,
    random_multigraph,
    running_example,
    supports,
)


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
        assert pair.cycles == ()
        loop = Multigraph(["1"], [("e", "1", "1")])
        pair = AdjointPair(loop)
        assert pair.cycles == ({0: 1},)
        assert pair.cuts == ({},)

    def test_running_example_ranks_and_orthogonality(self):
        pair = AdjointPair(running_example().graph)
        z = dense(pair.cycles, pair.c1_rank)
        b = dense(pair.cuts, pair.c1_rank)
        assert z.n_cols == 2
        assert b.shape == (5, 4)
        # cycles and bonds are orthogonal under the standard form
        for z_col in z.transpose().rows:
            for b_col in b.transpose().rows:
                assert sum(a * c for a, c in zip(z_col, b_col)) == 0

    def test_bonds_are_exactly_the_vectors_orthogonal_to_cycles(self):
        # d is totally unimodular, so B = im(dt) is saturated and the
        # orthogonality test of verify_lattice_preservation is exact
        rng = random.Random(3)
        outcomes = set()
        for seed in range(300):
            pair = AdjointPair(random_multigraph(seed))
            assert set(smith_normal_form(incidence(pair.graph)).diagonal) <= {0, 1}
            m = pair.c1_rank
            if m == 0:
                continue
            dt = dense(pair.cuts, m)
            bonds = smith_normal_form(dt)
            cycles_t = dense(pair.cycles, m).transpose()
            for k in range(20):
                if k % 3 == 2:
                    vec = [rng.randint(-3, 3) for _ in range(m)]
                else:
                    c = [rng.randint(-3, 3) for _ in range(pair.c0_rank)]
                    vec = apply(dt, c)
                    if k % 3 == 1:
                        vec[rng.randrange(m)] += rng.choice((-1, 1))
                orthogonal = not any(apply(cycles_t, vec))
                assert orthogonal == contains_relation(bonds, vec), (seed, vec)
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


class TestBoundarySupports:
    """d's columns and rows as the pair holds them, and the Laplacian it
    reads off the graph's degrees and adjacencies, against the dense d
    built from the edges and the product d dt; the Laplacian's group
    against the critical group."""

    @FOREST
    @given(multigraphs())
    @example(Multigraph(["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")]))
    def test_supports_and_laplacian_match_the_incidence_matrix(self, g):
        pair = AdjointPair(g)
        d = incidence(g)
        assert dense(pair.boundary, pair.c0_rank) == d
        assert pair.cuts == supports(d.transpose())
        assert pair.laplacian == d @ d.transpose()
        # coker(d dt) = K + Z^c, c the number of components, on loops,
        # parallel edges, isolated vertices and several components alike
        assert pair.laplacian_snf.free_rank == g.components()[0]
        assert pair.laplacian_snf.invariant_factors == pair.critical_group.invariant_factors
        assert pair.critical_group.free_rank == 0
        assert forest_count(pair) == pair.critical_group.order()


class TestForestCycleBasis:
    """`cycles`, the fundamental cycles of a spanning forest, against
    the Smith-form kernel basis `integer_kernel(d)`."""

    @FOREST
    @given(multigraphs())
    @example(Multigraph([], []))
    @example(Multigraph(["1", "2", "3"], []))
    @example(Multigraph(["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")]))
    def test_same_lattice_as_integer_kernel(self, g):
        pair = AdjointPair(g)
        d = incidence(g)
        z, reference = dense(pair.cycles, pair.c1_rank), integer_kernel(d)
        assert z.shape == reference.shape
        assert d @ z == IntMatrix.zero(d.n_rows, z.n_cols)
        # column c is e_j for its non-tree edge j plus edges of the forest
        # union-find built before j, so j is its last nonzero coordinate
        nontree = [max(i for i, x in enumerate(col) if x) for col in z.transpose().rows]
        assert [[z.rows[j][c] for c in range(z.n_cols)] for j in nontree] == [
            [int(i == c) for c in range(z.n_cols)] for i in range(z.n_cols)
        ]
        # the other edges form a forest: d is injective on them
        tree = [j for j in range(pair.c1_rank) if j not in nontree]
        dt = d.transpose()
        tree_columns = IntMatrix([dt.rows[j] for j in tree], shape=(len(tree), pair.c0_rank))
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
        assert AdjointPair(tree).critical_group.order() == 1

    def test_hexagon(self):
        assert AdjointPair(cycle_graph(6)).critical_group.describe() == "Z/6"

    def test_laplacian_presentation_running_example(self):
        pair = AdjointPair(running_example().graph)
        assert pair.laplacian_snf.invariant_factors == (8,)
        assert pair.laplacian_snf.invariant_factors == pair.critical_group.invariant_factors

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
        assert pair.laplacian_snf.invariant_factors == (3, 3)
        assert forest_count(pair) == 9 == count_maximal_forests_bruteforce(two)

    def test_laplacian_presentation_single_vertex(self):
        g = Multigraph(["1"], [])
        assert AdjointPair(g).laplacian_snf.invariant_factors == ()

    def test_laplacian_matches_quotient_on_corpus(self, mixed_corpus):
        for g in mixed_corpus:
            pair = AdjointPair(g.graph)
            # the Laplacian route has free rank 0 by construction
            assert pair.critical_group.free_rank == 0
            assert pair.laplacian_snf.invariant_factors == pair.critical_group.invariant_factors

    def test_doubling_on_theta_graph(self):
        # tripled edge on two vertices: K = Z/3, and doubling is an
        # automorphism of Z/3, so kernel and cokernel are both trivial
        g = Multigraph(["1", "2"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
        k = AdjointPair(g).critical_group
        hom = GroupHom(k, k, supports(identity(3, 2)))
        assert hom.well_defined
        assert hom.source.order() == 3
        assert hom.kernel().order() == 1
        assert hom.cokernel().order() == 1


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
        # block structures: two triangles sharing the cut vertex c
        Multigraph(
            list("abcde"),
            [("p", "a", "b"), ("q", "b", "c"), ("r", "c", "a"),
             ("s", "c", "d"), ("t", "d", "e"), ("u", "e", "c")],
        ),
        # two 4-cycles joined by the bridge dh: 2 x 2 bicycles
        Multigraph(
            list("abcdefgh"),
            [("p", "a", "b"), ("q", "b", "c"), ("r", "c", "d"), ("s", "d", "a"),
             ("t", "e", "f"), ("u", "f", "g"), ("v", "g", "h"), ("w", "h", "e"),
             ("x", "d", "h")],
        ),
        # a parallel pair hanging off the cut vertex c of a triangle
        Multigraph(
            list("abcd"),
            [("p", "a", "b"), ("q", "b", "c"), ("r", "c", "a"),
             ("s", "c", "d"), ("t", "d", "c")],
        ),
        # a loop at the cut vertex c between a triangle and a pendant edge
        Multigraph(
            list("abcd"),
            [("p", "a", "b"), ("l", "c", "c"), ("q", "b", "c"), ("r", "c", "a"),
             ("s", "c", "d")],
        ),
        # three components: a triangle, an edge and the isolated vertex f
        Multigraph(
            list("abcdef"),
            [("p", "a", "b"), ("q", "d", "e"), ("r", "b", "c"), ("s", "c", "a")],
        ),
    ]
    graphs += frontier_inputs()
    graphs += [
        random_multigraph(seed=seed, max_vertices=8, max_edges=10) for seed in range(200)
    ]
    return graphs


def frontier_inputs():
    """Blocks that the forest count's frontier search walks, or that the
    series-parallel bypass reduces first: a wide frontier, vertices that
    leave it early, and bonds of several edges or bypassed paths."""
    k5 = [(f"k{a}{b}", str(a), str(b)) for a in range(5) for b in range(a + 1, 5)]
    wheel = [(f"s{i}", "hub", f"r{i}") for i in range(6)]
    wheel += [(f"r{i}", f"r{i}", f"r{(i + 1) % 6}") for i in range(6)]
    theta = [
        (f"{p}{i}", ends[0], ends[1])
        for p in "abc"
        for i, ends in enumerate(zip(["s", f"{p}1", f"{p}2"], [f"{p}1", f"{p}2", "t"]))
    ]
    k4 = [(f"k{a}{b}", a, b) for a, b in ("bc", "bd", "be", "cd", "ce", "de")]
    return [
        # K_5 with the edge 01 doubled: no vertex to bypass, 5 of them on the frontier
        Multigraph([str(v) for v in range(5)], k5 + [("k01'", "0", "1")]),
        # the wheel W_6, a hub on a 6-cycle: 320 trees
        Multigraph(["hub"] + [f"r{i}" for i in range(6)], wheel),
        # three 3-edge paths from s to t: 27 trees, all by bypasses
        Multigraph(["s", "t", "a1", "a2", "b1", "b2", "c1", "c2"], theta),
        # the 3x3 mirror grid's plain graph: the corners are bypassed, so
        # the search walks a wheel whose rim bonds are 2-edge paths
        mirror_grid(3, 3).graph,
        # K_4 on b, c, d, e with a path b-a-c beside the edge bc, a doubled
        # edge de and a pendant triangle at e: a, the block's first vertex,
        # has degree 2
        Multigraph(
            list("abcdefg"),
            [("ab", "a", "b"), ("ac", "a", "c"), *k4, ("de'", "d", "e"),
             ("ef", "e", "f"), ("fg", "f", "g"), ("ge", "g", "e")],
        ),
    ]


def has_cut_vertex(g):
    """Whether removing some vertex leaves more components."""
    count = g.components()[0]
    return any(
        Multigraph(
            [u for u in g.vertices if u != v],
            [e for e in g.edges if v not in (e.tail, e.head)],
        ).components()[0] > count
        for v in g.vertices
    )


def outcome(oracle, g, limit):
    try:
        return oracle(g, limit)
    except OracleLimitError as exc:
        return type(exc), str(exc)


class TestOraclesAgainstEdgeSubsetWalks:
    """The oracles split the graph into its biconnected blocks and count,
    in each block, only the set they want: the spanning trees, whose
    counts multiply, and the bicycles, which combine as ORs across the
    blocks.  A block's trees are counted by a frontier search over its
    bonds in the order of a BFS numbering of its vertices, after parallel
    bonds are merged and vertices with two neighbours bypassed; the
    bicycles by a Gray-code walk over its vertex bipartitions.  The
    references walk all 2^|E| edge subsets of the whole graph and filter,
    so they rely on neither the block decomposition nor the frontier."""

    LIMITS = (1, 16, 1 << 10)

    def test_inputs_cover_the_awkward_cases(self):
        graphs = oracle_inputs()
        assert any(g.components()[0] >= 3 for g in graphs)
        assert any(has_cut_vertex(g) for g in graphs)
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

    def test_forest_count_on_frontier_inputs(self):
        # up to 12 edges, past the largest of LIMITS, so each is also
        # compared in full
        graphs = frontier_inputs()
        # the K_4 block's first vertex, where its BFS starts, has degree 2
        blocks = dict(_blocks(graphs[-1]))
        assert sum(0 in (tail, head) for _, tail, head in blocks[5]) == 2
        for g in graphs:
            limit = 2**g.n_edges
            assert count_maximal_forests_bruteforce(g, limit) == forests_by_edge_subsets(g, limit)
        assert [count_maximal_forests_bruteforce(g, 2**12) for g in graphs[1:4]] == [320, 27, 192]

    def test_forest_count_at_grid_scale(self):
        # 2^40 and 2^84 edge subsets, and 557,568,000 trees on the 5x5:
        # in BFS order the frontier holds at most 84 and 858 partitions
        for n in (5, 7):
            g = mirror_grid(n, n).graph
            count = count_maximal_forests_bruteforce(g, limit=2**g.n_edges)
            assert count == forest_count(AdjointPair(g))
            if n == 5:
                nx_graph = nx.MultiGraph()
                nx_graph.add_nodes_from(g.vertices)
                nx_graph.add_edges_from((e.tail, e.head) for e in g.edges)
                # exact below 2^53
                assert count == round(nx.number_of_spanning_trees(nx_graph)) == 557_568_000

    @FOREST
    @given(multigraphs())
    @example(parse(CYCLIC_AXIS).graph)
    def test_drawn_multigraphs(self, g):
        for limit in self.LIMITS:
            assert outcome(count_maximal_forests_bruteforce, g, limit) == outcome(
                forests_by_edge_subsets, g, limit
            )
            assert outcome(bicycle_masks_bruteforce, g, limit) == outcome(
                bicycles_by_edge_subsets, g, limit
            )

    def test_forest_walk_prunes_by_acyclicity(self):
        # a path's 29 edges, then 30 loops: C(59, 29) edge subsets have
        # the forest size, and one of them is acyclic; the loops lie in
        # no block
        path = [(f"p{i}", f"v{i}", f"v{i + 1}") for i in range(29)]
        loops = [(f"l{i}", f"v{i}", f"v{i}") for i in range(30)]
        g = Multigraph([f"v{i}" for i in range(30)], path + loops)
        assert count_maximal_forests_bruteforce(g, limit=2**59) == 1
        # 2,999 bridges, more blocks than Python's recursion limit
        long_path = Multigraph(
            [f"v{i}" for i in range(3000)],
            [(f"p{i}", f"v{i}", f"v{i + 1}") for i in range(2999)],
        )
        assert count_maximal_forests_bruteforce(long_path, limit=2**2999) == 1

    def test_walks_run_per_block(self):
        # 30 triangles glued at cut vertices: 3^30 spanning trees, more
        # than any walk over the whole graph's forests could visit
        triangles = Multigraph(
            [f"v{i}" for i in range(61)],
            [
                (f"{name}{i}", f"v{2 * i + a}", f"v{2 * i + b}")
                for i in range(30)
                for name, a, b in (("a", 0, 1), ("b", 1, 2), ("c", 2, 0))
            ],
        )
        assert count_maximal_forests_bruteforce(triangles, limit=2**90) == 3**30
        assert forest_count(AdjointPair(triangles)) == 3**30
        # 12 four-cycles glued at cut vertices: one bicycle (the whole
        # cycle) per block, 2^12 in all, among 2^36 bipartitions
        squares = Multigraph(
            [f"v{i}" for i in range(37)],
            [
                (f"e{i}_{k}", f"v{3 * i + k}", f"v{3 * i + (k + 1) % 4}")
                for i in range(12)
                for k in range(4)
            ],
        )
        bicycles = bicycle_masks_bruteforce(squares, limit=2**48)
        assert len(bicycles) == 2**12
        assert bicycles == sorted(subspace_masks(AdjointPair(squares).bicycle_space, 2**48))

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
    """ker(h) ~ coker(ht) and coker(h) ~ ker(ht) for a transpose pair of
    homs h, ht, compared as invariant factors."""

    def test_identity_homs(self):
        pair = AdjointPair(triangle())
        k = pair.critical_group
        ident = GroupHom(source=k, target=k, columns=supports(identity(3)))
        ker, coker = ident.kernel().invariant_factors, ident.cokernel().invariant_factors
        assert ker == coker
        assert ker == ()

    def test_mirror_maps_running_example(self):
        maps = build_maps(running_example().decompose())
        assert maps.ker_f.invariant_factors == maps.coker_ft.invariant_factors
        assert maps.coker_f.invariant_factors == maps.ker_ft.invariant_factors
        assert maps.ker_f.invariant_factors == (2,)
        assert maps.coker_f.invariant_factors == (2,)

    def test_mirror_cycle_n2(self):
        maps = build_maps(mirror_cycle(2).decompose())
        assert maps.ker_f.invariant_factors == maps.coker_ft.invariant_factors
        assert maps.coker_f.invariant_factors == maps.ker_ft.invariant_factors
        assert maps.ker_f.invariant_factors == ()       # injective
        assert maps.coker_ft.invariant_factors == ()    # dual side agrees

