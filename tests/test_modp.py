"""GF(2) subspaces: echelon canonicity, kernels, sums, intersections."""

import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from mirrorcrit.critical import (
    AdjointPair,
    OracleLimitError,
    bicycle_masks_bruteforce,
    subspace_masks,
)
from mirrorcrit.factorization import (
    build_maps,
    component_linking_cycles,
    identify_kernel_cokernel,
)
from mirrorcrit.graphs import Multigraph
from mirrorcrit.lattice import IntMatrix
from mirrorcrit.modp import (
    ModpSubspace,
    fixed_ambient,
    fixed_subspace,
    is_involution,
    kernel,
    span_dims,
)
from mirrorcrit.randgraph import mirror_grid

from conftest import (
    apply,
    basis,
    identity,
    matrix_kernel,
    random_multigraph,
    row_space,
    running_example,
    symmetric_corpus,
)


def random_subspace(rng, ambient, max_rows=4):
    rows = [
        [rng.randrange(2) for _ in range(ambient)] for _ in range(rng.randint(0, max_rows))
    ]
    return ModpSubspace.from_rows(ambient, rows)


def as_mask(vec):
    return sum((x & 1) << j for j, x in enumerate(vec))


class TestReduction:
    """Integer entries are read by their low bit alone, so every entry
    point must read 2, -1 and 3 as 0, 1 and 1 (a bit packing that tested
    `x` and not `x & 1` would read 2 as 1)."""

    def test_entries_reduced(self):
        assert basis(ModpSubspace.from_rows(2, [[2, -1]])) == ((0, 1),)
        assert matrix_kernel(IntMatrix([[2]])).dim == 1
        assert basis(matrix_kernel(IntMatrix([[2, -1, 3]]))) == ((1, 0, 0), (0, 1, 1))
        assert basis(kernel([{0: 2}, {0: -1}, {0: 3}], 1)) == ((1, 0, 0), (0, 1, 1))
        assert basis(row_space(IntMatrix([[2, 3]]))) == ((0, 1),)
        assert basis(ModpSubspace.from_rows(3, [{0: 2, 1: -1, 2: 3}])) == ((0, 1, 1),)
        line = ModpSubspace.from_rows(2, [[0, 1]])
        assert line.contains([2, -1])
        assert not line.contains([3, 0])

    def test_entries_match_their_residues(self):
        rng = random.Random(8)
        for _ in range(30):
            n_rows = rng.randint(0, 4)
            n_cols = rng.randint(0, 4)
            rows = [[rng.choice((2, -1, 3, 0, 1)) for _ in range(n_cols)]
                    for _ in range(n_rows)]
            residues = [[x % 2 for x in row] for row in rows]
            m = IntMatrix(rows, shape=(n_rows, n_cols))
            r = IntMatrix(residues, shape=(n_rows, n_cols))
            ker = matrix_kernel(m)
            assert ker == matrix_kernel(r)
            assert row_space(m) == row_space(r)
            s = ModpSubspace.from_rows(n_cols, rows)
            assert s == ModpSubspace.from_rows(n_cols, residues)
            assert all(x in (0, 1) for row in basis(s) for x in row)
            for vec in rows:
                assert s.contains(vec)
                assert ker.contains(vec) == ker.contains([x % 2 for x in vec])


class TestKernelAndRowSpace:
    def test_zero_matrix_full_kernel(self):
        assert matrix_kernel(IntMatrix.zero(2, 3)).dim == 3

    def test_identity_zero_kernel(self):
        assert matrix_kernel(identity(3)).dim == 0

    def test_running_example_cycle_space_dim(self):
        # |E| - |V| + #components = 5 - 4 + 1
        g = running_example()
        pair = AdjointPair(g.graph)
        assert ModpSubspace.from_rows(pair.c1_rank, pair.cycles).dim == 2

    def test_running_example_bond_space_dim(self):
        # |V| - #components = 3
        g = running_example()
        pair = AdjointPair(g.graph)
        assert ModpSubspace.from_rows(pair.c1_rank, pair.cuts).dim == 3

    def test_single_loop_bond_space_is_zero(self):
        g = Multigraph(["v"], [("loop", "v", "v")])
        pair = AdjointPair(g)
        assert ModpSubspace.from_rows(pair.c1_rank, pair.cuts).dim == 0
        assert ModpSubspace.from_rows(pair.c1_rank, pair.cycles).dim == 1

    def test_identity_row_space_full(self):
        assert row_space(identity(4)).dim == 4

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(1)
        for _ in range(20):
            n_cols = rng.randint(1, 6)
            n_rows = rng.randint(1, 5)
            m = IntMatrix([[rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)])
            ker = matrix_kernel(m)
            assert ker.dim == m.n_cols - row_space(m).dim
            for vec in basis(ker):
                assert not any(x % 2 for x in apply(m, vec))


class TestSubspaceOps:
    def test_intersection_with_self(self):
        rng = random.Random(2)
        s = random_subspace(rng, 5)
        assert s.intersection(s) == s

    def test_complementary_coordinate_subspaces(self):
        a = ModpSubspace.from_rows(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = ModpSubspace.from_rows(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert a.intersection(b).dim == 0
        assert a.plus(b).dim == 4

    def test_sum_of_lines(self):
        a = ModpSubspace.from_rows(2, [[1, 0]])
        b = ModpSubspace.from_rows(2, [[1, 1]])
        assert a.plus(b).dim == 2
        z = ModpSubspace.from_rows(2, [])
        assert z.plus(a) == a

    def test_running_example_bicycle_space(self):
        # the symmetric 4-cycle ab, ac, db, dc is the unique bicycle
        g = running_example()
        pair = AdjointPair(g.graph)
        bic = pair.bicycle_space
        assert bic.dim == 1
        assert basis(bic)[0] == (1, 1, 1, 1, 0)

    def test_grassmann_identity(self):
        rng = random.Random(3)
        for _ in range(25):
            ambient = rng.randint(1, 6)
            a = random_subspace(rng, ambient)
            b = random_subspace(rng, ambient)
            assert a.dim + b.dim == a.plus(b).dim + a.intersection(b).dim

    def test_echelon_canonicity(self):
        # two spanning sets of one space echelonize identically
        rng = random.Random(4)
        for _ in range(20):
            ambient = rng.randint(1, 5)
            s = random_subspace(rng, ambient)
            rows = [list(r) for r in basis(s)]
            for _ in range(8):
                if not rows:
                    break
                i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                if i != j:
                    rows[i] = [a ^ b for a, b in zip(rows[i], rows[j])]
            rng.shuffle(rows)
            assert ModpSubspace.from_rows(ambient, rows) == s

    def test_contains(self):
        s = ModpSubspace.from_rows(3, [[1, 1, 0], [0, 0, 1]])
        assert s.contains([1, 1, 1])
        assert not s.contains([1, 0, 0])


class TestAgainstEnumeration:
    """Intersection, kernel and membership against brute force over
    GF(2)^n; every computed space must also be in reduced echelon form,
    that is, equal to the eliminated span of its own basis rows."""

    @staticmethod
    def assert_echelon(s):
        assert s == ModpSubspace.from_rows(s.ambient_dim, basis(s))

    def test_intersection(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(0, 4)
            a = random_subspace(rng, n, max_rows=n + 1)
            b = random_subspace(rng, n, max_rows=n + 1)
            cap = a.intersection(b)
            expected = set(subspace_masks(a)) & set(subspace_masks(b))
            assert set(subspace_masks(cap)) == expected
            self.assert_echelon(cap)

    def test_kernel(self):
        rng = random.Random(32)
        for _ in range(40):
            n_rows = rng.randint(0, 4)
            n_cols = rng.randint(0, 4)
            m = IntMatrix(
                [[rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)],
                shape=(n_rows, n_cols),
            )
            ker = matrix_kernel(m)
            expected = {
                as_mask(x)
                for x in itertools.product((0, 1), repeat=n_cols)
                if not any(y % 2 for y in apply(m, x))
            }
            assert set(subspace_masks(ker)) == expected
            self.assert_echelon(ker)

    def test_contains(self):
        rng = random.Random(33)
        for _ in range(40):
            n = rng.randint(0, 4)
            a = random_subspace(rng, n, max_rows=n + 1)
            elements = set(subspace_masks(a))
            for v in itertools.product((0, 1), repeat=n):
                assert a.contains(v) == (as_mask(v) in elements)


GF2 = GF(2)


def _gf2(rows, width):
    """Integer rows as a sparse sympy matrix over GF(2)."""
    entries = {i: {j: GF2.one for j, x in enumerate(r) if x % 2} for i, r in enumerate(rows)}
    return DomainMatrix({i: row for i, row in entries.items() if row}, (len(rows), width), GF2)


def _rows(matrix, skip=0):
    """The rows of a reduced sympy matrix whose pivot lies at column
    `skip` or past it, with their first `skip` entries dropped, as 0/1
    tuples."""
    reduced, pivots = matrix.rref()
    return tuple(
        tuple(int(x) % 2 for x in row[skip:])
        for row, c in zip(reduced.to_list(), pivots)
        if c >= skip
    )


def _reference(rows, width, skip=0):
    """sympy's reduced echelon form over GF(2) of `rows` (see `_rows`)."""
    return _rows(_gf2(rows, width), skip)


def _reference_cap(a, b, n):
    """The Zassenhaus intersection of two reference bases."""
    rows = [list(r) * 2 for r in a] + [list(r) + [0] * n for r in b]
    return _reference(rows, 2 * n, skip=n)


@st.composite
def wide_gf2_case(draw):
    """Rows of width 0-130 (across the 64- and 128-bit word boundaries)
    with entries in -3..3, and an involution of the coordinates.  Some
    rows are fixed by the involution, and the second row set and the
    vector reuse sums of first rows, so fixed subspaces, intersections
    and memberships are not all trivial."""
    n = draw(st.integers(0, 130) | st.sampled_from((63, 64, 65, 127, 128, 129, 130)))
    order = draw(st.permutations(range(n)))
    perm = list(range(n))
    for t in range(draw(st.integers(0, n // 2))):  # swapped pairs
        i, j = order[2 * t], order[2 * t + 1]
        perm[i], perm[j] = j, i
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    fixed_row = row.map(lambda r: [r[min(i, perm[i])] for i in range(n)])
    a = draw(st.lists(row | fixed_row, max_size=5))
    picks = st.lists(st.sampled_from(a), min_size=1, max_size=3) if a else st.nothing()
    sum_of_a = picks.map(lambda rs: [sum(col) for col in zip(*rs)])
    b = draw(st.lists(row | sum_of_a, max_size=5))
    vec = draw(row | sum_of_a)
    return n, a, b, vec, tuple(perm)


# no shrinking: each shrink step re-runs the sympy references, so a
# failing run would take minutes; the first failing case is reported as is
WIDE = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
)


class TestWideRows:
    """The bit-set route against sympy's `DomainMatrix(..., GF(2)).rref()`
    on rows wider than a machine word: every result's basis tuples must
    match."""

    @WIDE
    @given(wide_gf2_case())
    def test_subspace_ops(self, case):
        n, a, b, vec, perm = case
        sa = ModpSubspace.from_rows(n, a)
        sb = ModpSubspace.from_rows(n, b)
        ref_a, ref_b = _reference(a, n), _reference(b, n)
        assert basis(sa) == ref_a
        assert basis(sb) == ref_b
        assert basis(sa.intersection(sb)) == _reference_cap(ref_a, ref_b, n)
        assert sa.contains(vec) == (len(_reference([*a, vec], n)) == len(ref_a))
        ambient = [[int(k in (i, perm[i])) for k in range(n)] for i in range(n)]
        fixed = _reference_cap(_reference(ambient, n), ref_a, n)
        assert basis(fixed_ambient(perm).intersection(sa)) == fixed
        assert basis(fixed_subspace(perm, [dict(enumerate(r)) for r in a])) == fixed
        total, cap = sa.sum_and_cap(sb)
        assert basis(total) == _reference([*a, *b], n)
        assert basis(cap) == _reference_cap(ref_a, ref_b, n)

    @WIDE
    @given(wide_gf2_case())
    def test_kernel(self, case):
        n, a, _, _, _ = case
        m = IntMatrix(a, shape=(len(a), n))
        assert basis(matrix_kernel(m)) == _rows(_gf2(a, n).nullspace())


class TestFixedSubspace:
    def test_permutation_and_involution(self):
        swap = (1, 0, 2)
        assert is_involution(swap)
        assert swap[0] == 1  # e_0 goes to e_1
        assert not is_involution((1, 2, 0))
        assert not is_involution((0, 3, 2))  # image out of range

    def test_identity_involution_fixes_everything(self):
        s = ModpSubspace.from_rows(3, [[1, 0, 1]])
        assert fixed_ambient((0, 1, 2)).intersection(s) == s

    def test_swap_fixed_space(self):
        full = ModpSubspace.from_rows(3, identity(3).rows)
        fixed = fixed_ambient((1, 0, 2)).intersection(full)
        assert fixed.dim == 2
        assert fixed.contains([1, 1, 0])
        assert fixed.contains([0, 0, 1])
        assert not fixed.contains([1, 0, 0])

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            fixed_ambient((1, 2, 0)).intersection(
                ModpSubspace.from_rows(3, identity(3).rows)
            )

    def test_fixed_ambient_is_echelon_without_elimination(self):
        # the direct construction equals the eliminated span of its rows
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(0, 7)
            perm = list(range(n))
            idx = list(range(n))
            rng.shuffle(idx)
            for a, b in zip(idx[0::2], idx[1::2]):
                if rng.random() < 0.6:
                    perm[a], perm[b] = b, a
            direct = fixed_ambient(tuple(perm))
            rows = [[int(k in (i, perm[i])) for k in range(n)] for i in range(n)]
            assert direct == ModpSubspace.from_rows(n, rows)
            assert direct.dim == sum(1 for i in range(n) if i <= perm[i])

    def test_phi_fixed_bicycles_of_running_example(self):
        from mirrorcrit.factorization import build_maps

        maps = build_maps(running_example().decompose())
        assert maps.phi_bicycles.dim == 1


@st.composite
def folded_case(draw):
    """An involution of n = 0-70 coordinates (the identity, fixed-point
    free, or with some pairs swapped) and 0-8 generators as supports:
    empty ones (a loop's), entries in -3..3 (even ones read as 0), and
    fixed ones, so that the fixed subspace is not always trivial."""
    n = draw(st.integers(0, 70) | st.sampled_from((0, 1, 2)))
    order = draw(st.permutations(range(n)))
    n_pairs = draw(st.sampled_from((0, n // 2)) | st.integers(0, n // 2))
    perm = list(range(n))
    for t in range(n_pairs):
        i, j = order[2 * t], order[2 * t + 1]
        perm[i], perm[j] = j, i
    entry = st.integers(-3, 3)
    support = st.dictionaries(st.integers(0, n - 1), entry) if n else st.just({})
    fixed = support.map(lambda v: {**v, **{perm[i]: x for i, x in v.items()}})
    supports = draw(st.lists(support | fixed | st.just({}), max_size=8))
    return tuple(perm), supports


def fixed_by_enumeration(perm, supports):
    """The elements of the span of `supports` that perm fixes, for a
    small ambient dimension."""
    n = len(perm)
    span = ModpSubspace.from_rows(n, supports)
    return {
        m for m in subspace_masks(span)
        if all((m >> i & 1) == (m >> j & 1) for i, j in enumerate(perm))
    }


def random_spaces(draw, n):
    row = st.integers(0, (1 << n) - 1)
    a = draw(st.lists(row, max_size=n + 1))
    b = draw(st.lists(row | st.sampled_from(a) if a else row, max_size=n + 1))
    return ModpSubspace.from_rows(n, a), ModpSubspace.from_rows(n, b)


@functools.cache
def analyses():
    """The running example, the 3x3 mirror grid and 40 corpus graphs
    (plus graph connected or not), analysed up to their maps."""
    graphs = [running_example(), mirror_grid(3, 3), *symmetric_corpus(40, connected_plus=False)]
    return tuple(build_maps(g.decompose()) for g in graphs)


def rematch(perm, i, j):
    """perm with i and j swapped with each other and their old partners
    fixed (i fixed, when i = j): an involution again."""
    p = list(perm)
    for k in (i, j):
        p[p[k]] = p[k]
        p[k] = k
    p[i], p[j] = j, i
    return tuple(p)


def kernel_route(maps):
    """The two mod-2 kernel checks of `identify_kernel_cokernel`, decided
    by eliminating both kernels: (ker f^t == the span of e + phi(e) over
    the Left edges e, of dimension |E_L|; ker f == the psi-fixed
    ambient)."""
    graph = maps.graph.graph
    left = [graph.edge_index(e.id) for e in maps.graph.left_edges]
    predicted = ModpSubspace.from_rows(graph.n_edges, [1 << i | 1 << maps.phi[i] for i in left])
    ker_ft = kernel(maps.f_rows, len(maps.psi))
    return (
        ker_ft == predicted and ker_ft.dim == len(left),
        kernel(maps.f_columns_mod2, graph.n_edges) == fixed_ambient(maps.psi),
    )


def linking_route(maps):
    """`component_linking_cycles` by two eliminations: the image of the
    psi-fixed cycles under g, then that image with the linking cycles."""
    g = maps.graph
    count, labels = maps.axis_components
    first = {}
    for v in g.fixed_vertices:
        first.setdefault(labels[v], v)
    reps = list(first.values())
    root_paths, _ = maps.pair_plus.spanning_forest

    def root_mask(v):
        return sum(1 << j for j in root_paths[maps.dec.plus.vertex_index(v)])

    cycles = [maps.f_mod2(root_mask(a) ^ root_mask(b)) for a, b in zip(reps, reps[1:])]
    n_edges = g.graph.n_edges
    plus_mask = (1 << maps.n_plus) - 1
    image_rows = [maps.f_mod2(vec & plus_mask) for vec in maps.z_psi.rows]
    image = ModpSubspace.from_rows(n_edges, image_rows)
    combined = ModpSubspace.from_rows(n_edges, [*image.rows, *cycles])
    return (
        all(maps.z_phi.contains(c) for c in cycles)
        and combined.dim == image.dim + max(count - 1, 0)
        and combined.dim == maps.z_phi.dim
    )


def quotient_route(maps):
    """The two quotient verdicts of `identify_kernel_cokernel`, read off
    the built fixed ambients: (ker(f*) against the G side, coker(f*)
    against the G+ u G- side)."""
    return (
        2 ** (fixed_ambient(maps.phi).dim - maps.sum_phi.dim) == maps.ker_f.order(),
        2 ** (fixed_ambient(maps.psi).dim - maps.sum_psi.dim) == maps.coker_f.order(),
    )


def one_pass_routes(maps):
    """(the linking check, or None when the plus graph is disconnected,
    the two quotient verdicts, the two mod-2 kernel verdicts), as the
    analysis decides them."""
    ident = identify_kernel_cokernel(maps)
    return (
        component_linking_cycles(maps) if maps.plus_connected else None,
        (ident.alternate_ker_matches, ident.alternate_coker_matches),
        (ident.ker_ft_basis_ok, ident.ker_f_psi_fixed_ok),
    )


def old_routes(maps):
    return (
        linking_route(maps) if maps.plus_connected else None,
        quotient_route(maps),
        kernel_route(maps),
    )


def doubled_f(maps):
    return dataclasses.replace(
        maps, f_columns=tuple({k: 2 * x for k, x in col.items()} for col in maps.f_columns)
    )


FOLDED = settings(max_examples=150, derandomize=True, database=None, deadline=None)


class TestFoldedRoutes:
    """The routes the analysis takes to its fixed spaces, their sums and
    caps, the two mod-2 kernels, the quotient presentations and the
    linking check, against the routes they replace: the fixed ambient
    intersected with the span, `plus` and a separate intersection, the
    eliminated kernels, the built fixed ambients and two eliminations.
    Canonical rows must be equal where spaces are compared."""

    @FOLDED
    @given(folded_case())
    def test_fixed_subspace_is_the_fixed_ambient_cap_the_span(self, case):
        perm, supports = case
        n = len(perm)
        got = fixed_subspace(perm, supports)
        assert got == fixed_ambient(perm).intersection(ModpSubspace.from_rows(n, supports))
        if n <= 10:
            assert set(subspace_masks(got)) == fixed_by_enumeration(perm, supports)

    def test_fixed_subspace_edge_cases(self):
        assert fixed_subspace((), []) == ModpSubspace(0, ())
        assert fixed_subspace((), [{}, {}]) == ModpSubspace(0, ())
        # the swap fixes 11 and not 10; entries 2 and -2 read as 0
        swap = (1, 0)
        assert basis(fixed_subspace(swap, [{0: 1}, {1: 1}])) == ((1, 1),)
        assert fixed_subspace(swap, [{0: 1}, {0: 2, 1: -2}]).dim == 0
        assert basis(fixed_subspace((0, 1), [{0: 3, 1: 2}])) == ((1, 0),)
        assert basis(fixed_subspace(swap, [{0: -1, 1: 3}, {}])) == ((1, 1),)

    @FOLDED
    @given(st.data())
    def test_sum_and_cap_from_one_pass(self, data):
        n = data.draw(st.integers(0, 8))
        a, b = random_spaces(data.draw, n)
        total, cap = a.sum_and_cap(b)
        assert total == a.plus(b)
        assert cap == a.intersection(b)
        # the cap against enumeration, since intersection shares the pass
        assert set(subspace_masks(cap)) == set(subspace_masks(a)) & set(subspace_masks(b))
        assert cap == ModpSubspace.from_rows(n, cap.rows)

    @FOLDED
    @given(st.data())
    def test_one_pass_routes_match_the_old_routes(self, data):
        # the linking check's one elimination, the quotients' orbit
        # counts and the kernel checks' orbits against two eliminations,
        # the built fixed ambients and the eliminated kernels; phi and
        # psi are perturbed to other involutions, and f is doubled, which
        # still descends to the critical groups but vanishes mod 2, so
        # that both kernels outgrow their predictions
        maps = data.draw(st.sampled_from(analyses()))
        which = data.draw(st.sampled_from(("phi", "psi", "f", None)))
        if which == "f":
            maps = doubled_f(maps)
        elif which is not None and getattr(maps, which):
            perm = getattr(maps, which)
            i, j = (data.draw(st.integers(0, len(perm) - 1)) for _ in range(2))
            maps = dataclasses.replace(maps, **{which: rematch(perm, i, j)})
        assert one_pass_routes(maps) == old_routes(maps)

    def test_rank_route_reaches_false(self):
        # a perturbed phi fails the f^t check and a perturbed psi the f
        # check, and a doubled f fails both on dimension alone
        maps = build_maps(running_example().decompose())
        perturbed = [
            (dataclasses.replace(maps, **{which: rematch(getattr(maps, which), i, j)}), want)
            for which, i, j, want in (
                ("phi", 0, 0, (False, True)),
                ("phi", 0, 4, (False, True)),
                ("psi", 0, 0, (True, False)),
            )
        ]
        for bad, want in [*perturbed, (doubled_f(maps), (False, False))]:
            ident = identify_kernel_cokernel(bad)
            assert (ident.ker_ft_basis_ok, ident.ker_f_psi_fixed_ok) == want == kernel_route(bad)
        ident = identify_kernel_cokernel(maps)
        assert ident.ker_ft_basis_ok and ident.ker_f_psi_fixed_ok
        assert kernel_route(maps) == (True, True)

    @FOLDED
    @given(st.data())
    def test_span_dims_from_one_pass(self, data):
        # an extra row may be a sum of rows and of earlier extra rows,
        # so that it depends on `rows` alone, or on other extra rows in
        # pairs or larger sets
        n = data.draw(st.integers(0, 8))
        row = st.integers(0, (1 << n) - 1)
        rows = data.draw(st.lists(row, max_size=n + 1))
        extra = []
        for _ in range(data.draw(st.integers(0, 4))):
            pool = rows + extra
            sums = st.lists(st.sampled_from(pool), min_size=1).map(
                lambda picked: functools.reduce(int.__xor__, picked)
            )
            extra.append(data.draw(row | sums if pool else row))
        image = ModpSubspace.from_rows(n, rows)
        combined = ModpSubspace.from_rows(n, [*image.rows, *extra])
        assert span_dims(n, rows, extra) == (image.dim, combined.dim)

    def test_one_pass_routes_reach_true_and_false(self):
        # pairing phi's 0 with 1 breaks the linking check and the f^t
        # check; fixing phi's 0 adds a phi orbit, which breaks the kernel
        # quotient and the f^t check; fixing psi's 0 adds a psi orbit,
        # which breaks the cokernel quotient and the f check; doubling f
        # breaks all five
        maps = build_maps(running_example().decompose())
        cases = (
            (maps, (True, (True, True), (True, True))),
            (dataclasses.replace(maps, phi=rematch(maps.phi, 0, 1)),
             (False, (True, True), (False, True))),
            (dataclasses.replace(maps, phi=rematch(maps.phi, 0, 0)),
             (True, (False, True), (False, True))),
            (dataclasses.replace(maps, psi=rematch(maps.psi, 0, 0)),
             (True, (True, False), (True, False))),
            (doubled_f(maps), (False, (False, False), (False, False))),
        )
        for case, want in cases:
            assert one_pass_routes(case) == want == old_routes(case)


class TestEnumeration:
    """`subspace_masks`, the oracle's listing of a subspace's elements."""

    def test_zero_subspace(self):
        assert subspace_masks(ModpSubspace.from_rows(3, [])) == [0]

    def test_line_over_gf2(self):
        s = ModpSubspace.from_rows(2, [[1, 1]])
        assert sorted(subspace_masks(s)) == [0, 0b11]

    def test_limit(self):
        full = ModpSubspace.from_rows(10, identity(10).rows)
        with pytest.raises(OracleLimitError, match=r"^2\^10 elements exceed the limit 512$"):
            subspace_masks(full, limit=512)
        assert len(subspace_masks(full, limit=1024)) == 1024

    def test_every_element_exactly_once(self):
        rng = random.Random(5)
        s = random_subspace(rng, 4)
        elems = subspace_masks(s)
        assert len(elems) == 2**s.dim
        assert len(set(elems)) == len(elems)
        assert all(s.contains(v) for v in elems)


class TestBicycleConditions:
    def test_enumerated_bicycles_satisfy_graph_conditions(self):
        # every element of the algebraic bicycle space, viewed as an
        # edge set, is an even subgraph and a bipartition cut, and the
        # exhaustive subset filter finds exactly the same sets
        rng = random.Random(6)
        for seed in range(12):
            g = random_multigraph(seed=seed, max_vertices=5, max_edges=8)
            pair = AdjointPair(g)
            algebra = sorted(subspace_masks(pair.bicycle_space))
            brute = sorted(bicycle_masks_bruteforce(g))
            assert algebra == brute
        del rng
