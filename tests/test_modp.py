"""GF(2) subspaces: echelon canonicity, kernels, sums, intersections."""

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
from mirrorcrit.graphs import Multigraph
from mirrorcrit.lattice import IntMatrix
from mirrorcrit.modp import (
    ModpSubspace,
    fixed_ambient,
    is_involution,
    kernel,
)

from conftest import (
    apply,
    basis,
    identity,
    matrix_kernel,
    random_multigraph,
    row_space,
    running_example,
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
        assert pair.cycle_space_mod2.dim == 2

    def test_running_example_bond_space_dim(self):
        # |V| - #components = 3
        g = running_example()
        pair = AdjointPair(g.graph)
        assert pair.bond_space_mod2.dim == 3

    def test_single_loop_bond_space_is_zero(self):
        g = Multigraph(["v"], [("loop", "v", "v")])
        pair = AdjointPair(g)
        assert pair.bond_space_mod2.dim == 0
        assert pair.cycle_space_mod2.dim == 1

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
        assert basis(fixed_ambient(perm).intersection(sa)) == _reference_cap(_reference(ambient, n), ref_a, n)

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
