"""GF(p) subspaces: echelon canonicity, kernels, sums, intersections."""

import itertools
import random

import pytest

from mirrorcrit.critical import AdjointPair, bicycle_masks_bruteforce, subspace_masks
from mirrorcrit.graphs import Multigraph
from mirrorcrit.lattice import IntMatrix
from mirrorcrit.modp import (
    EnumerationLimitError,
    ModpSubspace,
    fixed_ambient,
    fixed_subspace,
    is_involution,
    kernel,
    row_space,
)
from mirrorcrit.randgraph import random_multigraph

from conftest import running_example


def random_subspace(rng, p, ambient, max_rows=4):
    rows = [
        [rng.randrange(p) for _ in range(ambient)] for _ in range(rng.randint(0, max_rows))
    ]
    return ModpSubspace.from_rows(p, ambient, rows)


class TestReduction:
    """Integer entries are reduced mod p in the elimination alone, so
    every entry point must read 2, -1, p and p + 1 as their residues (a
    GF(2) bit packing that tested `x` and not `x & 1` would read 2 as 1,
    and an unreduced entry p would become a zero pivot row over GF(3))."""

    def test_prime_check(self):
        pair = AdjointPair.from_graph(running_example().graph)
        for p in (1, 4):
            with pytest.raises(ValueError):
                kernel(p, IntMatrix.identity(1))
            with pytest.raises(ValueError):
                ModpSubspace.from_rows(p, 1, [[1]])
            with pytest.raises(ValueError):
                fixed_ambient(p, (0,))
            with pytest.raises(ValueError):
                pair.p_bicycle_space(p)
        assert kernel(13, IntMatrix([[5]])).dim == 0

    def test_entries_reduced(self):
        assert ModpSubspace.from_rows(2, 2, [[2, -1]]).basis == ((0, 1),)
        assert ModpSubspace.from_rows(3, 2, [[2, -1]]).basis == ((1, 1),)
        assert ModpSubspace.from_rows(3, 2, [[4, -1], [7, 9]]).basis == ((1, 0), (0, 1))
        assert ModpSubspace.from_rows(3, 2, [[4, -1], [4, 9]]).basis == ((1, 0), (0, 1))
        assert ModpSubspace.from_rows(3, 2, [[3, 1]]).basis == ((0, 1),)
        assert kernel(2, IntMatrix([[2]])).dim == 1
        assert kernel(3, IntMatrix([[3]])).dim == 1
        assert kernel(2, IntMatrix([[2, -1, 3]])).basis == ((1, 0, 0), (0, 1, 1))
        assert kernel(3, IntMatrix([[4, -1]])).basis == ((1, 1),)
        assert row_space(2, IntMatrix([[2, 3]])).basis == ((0, 1),)
        assert row_space(3, IntMatrix([[2, -1, 4]])).basis == ((1, 1, 2),)
        line = ModpSubspace.from_rows(2, 2, [[0, 1]])
        assert line.contains([2, -1])
        assert not line.contains([3, 0])
        line = ModpSubspace.from_rows(3, 2, [[1, 2]])
        assert line.contains([-1, 4])
        assert not line.contains([4, 4])

    def test_entries_match_their_residues(self):
        rng = random.Random(8)
        for p in (2, 3):
            for _ in range(30):
                n_rows = rng.randint(0, 4)
                n_cols = rng.randint(0, 4)
                rows = [[rng.choice((2, -1, p, p + 1, 0, 1)) for _ in range(n_cols)]
                        for _ in range(n_rows)]
                residues = [[x % p for x in row] for row in rows]
                m = IntMatrix(rows, shape=(n_rows, n_cols))
                r = IntMatrix(residues, shape=(n_rows, n_cols))
                ker = kernel(p, m)
                assert ker == kernel(p, r)
                assert row_space(p, m) == row_space(p, r)
                s = ModpSubspace.from_rows(p, n_cols, rows)
                assert s == ModpSubspace.from_rows(p, n_cols, residues)
                assert all(0 <= x < p for row in s.basis for x in row)
                for vec in rows:
                    assert s.contains(vec)
                    assert ker.contains(vec) == ker.contains([x % p for x in vec])


class TestKernelAndRowSpace:
    def test_zero_matrix_full_kernel(self):
        assert kernel(2, IntMatrix.zero(2, 3)).dim == 3

    def test_identity_zero_kernel(self):
        assert kernel(2, IntMatrix.identity(3)).dim == 0

    def test_running_example_cycle_space_dim(self):
        # |E| - |V| + #components = 5 - 4 + 1
        g = running_example()
        pair = AdjointPair.from_graph(g.graph)
        assert pair.cycle_space_mod(2).dim == 2

    def test_running_example_bond_space_dim(self):
        # |V| - #components = 3
        g = running_example()
        pair = AdjointPair.from_graph(g.graph)
        assert pair.bond_space_mod(2).dim == 3

    def test_single_loop_bond_space_is_zero(self):
        g = Multigraph(["v"], [("loop", "v", "v")])
        pair = AdjointPair.from_graph(g)
        assert pair.bond_space_mod(2).dim == 0
        assert pair.cycle_space_mod(2).dim == 1

    def test_identity_row_space_full(self):
        assert row_space(2, IntMatrix.identity(4)).dim == 4

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(1)
        for p in (2, 3, 5):
            for _ in range(20):
                n_cols = rng.randint(1, 6)
                n_rows = rng.randint(1, 5)
                m = IntMatrix(
                    [[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)]
                )
                ker = kernel(p, m)
                assert ker.dim == m.n_cols - row_space(p, m).dim
                for vec in ker.basis:
                    assert not any(x % p for x in m.mul_vector(vec))


class TestSubspaceOps:
    def test_intersection_with_self(self):
        rng = random.Random(2)
        for p in (2, 3):
            s = random_subspace(rng, p, 5)
            assert s.intersection(s) == s

    def test_complementary_coordinate_subspaces(self):
        a = ModpSubspace.from_rows(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        b = ModpSubspace.from_rows(2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert a.intersection(b).dim == 0
        assert a.plus(b).dim == 4

    def test_sum_of_lines(self):
        a = ModpSubspace.from_rows(2, 2, [[1, 0]])
        b = ModpSubspace.from_rows(2, 2, [[1, 1]])
        assert a.plus(b).dim == 2
        z = ModpSubspace.zero(2, 2)
        assert z.plus(a) == a

    def test_running_example_bicycle_space(self):
        # the symmetric 4-cycle ab, ac, db, dc is the unique bicycle
        g = running_example()
        pair = AdjointPair.from_graph(g.graph)
        bic = pair.p_bicycle_space(2)
        assert bic.dim == 1
        assert bic.basis[0] == (1, 1, 1, 1, 0)

    def test_grassmann_identity(self):
        rng = random.Random(3)
        for p in (2, 3, 5):
            for _ in range(25):
                ambient = rng.randint(1, 6)
                a = random_subspace(rng, p, ambient)
                b = random_subspace(rng, p, ambient)
                assert (
                    a.dim + b.dim == a.plus(b).dim + a.intersection(b).dim
                )

    def test_echelon_canonicity(self):
        # two spanning sets of one space echelonize identically
        rng = random.Random(4)
        for p in (2, 5):
            for _ in range(20):
                ambient = rng.randint(1, 5)
                s = random_subspace(rng, p, ambient)
                remixed = []
                rows = [list(r) for r in s.basis]
                for _ in range(8):
                    if not rows:
                        break
                    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
                    if i != j:
                        f = rng.randrange(p)
                        rows[i] = [(a + f * b) % p for a, b in zip(rows[i], rows[j])]
                rng.shuffle(rows)
                remixed = ModpSubspace.from_rows(p, ambient, rows)
                assert remixed == s

    def test_contains(self):
        s = ModpSubspace.from_rows(2, 3, [[1, 1, 0], [0, 0, 1]])
        assert s.contains([1, 1, 1])
        assert not s.contains([1, 0, 0])


class TestAgainstEnumeration:
    """Intersection, kernel and membership against brute force over
    (Z/p)^n; every computed space must also be in reduced echelon form,
    that is, equal to the eliminated span of its own basis rows."""

    @staticmethod
    def assert_echelon(s):
        assert s == ModpSubspace.from_rows(s.p, s.ambient_dim, s.basis)

    def test_intersection(self):
        rng = random.Random(31)
        for p in (2, 3):
            for _ in range(40):
                n = rng.randint(0, 4)
                a = random_subspace(rng, p, n, max_rows=n + 1)
                b = random_subspace(rng, p, n, max_rows=n + 1)
                cap = a.intersection(b)
                expected = set(a.enumerate_elements()) & set(b.enumerate_elements())
                assert set(cap.enumerate_elements()) == expected
                self.assert_echelon(cap)

    def test_kernel(self):
        rng = random.Random(32)
        for p in (2, 3):
            for _ in range(40):
                n_rows = rng.randint(0, 4)
                n_cols = rng.randint(0, 4)
                m = IntMatrix(
                    [[rng.randrange(p) for _ in range(n_cols)] for _ in range(n_rows)],
                    shape=(n_rows, n_cols),
                )
                ker = kernel(p, m)
                expected = {
                    x
                    for x in itertools.product(range(p), repeat=n_cols)
                    if not any(y % p for y in m.mul_vector(x))
                }
                assert set(ker.enumerate_elements()) == expected
                self.assert_echelon(ker)

    def test_contains(self):
        rng = random.Random(33)
        for p in (2, 3):
            for _ in range(40):
                n = rng.randint(0, 4)
                a = random_subspace(rng, p, n, max_rows=n + 1)
                elements = set(a.enumerate_elements())
                for v in itertools.product(range(p), repeat=n):
                    assert a.contains(v) == (v in elements)


class TestFixedSubspace:
    def test_permutation_and_involution(self):
        swap = (1, 0, 2)
        assert is_involution(swap)
        assert swap[0] == 1  # e_0 goes to e_1
        assert not is_involution((1, 2, 0))
        assert not is_involution((0, 3, 2))  # image out of range

    def test_identity_involution_fixes_everything(self):
        s = ModpSubspace.from_rows(2, 3, [[1, 0, 1]])
        assert fixed_subspace((0, 1, 2), s) == s

    def test_swap_fixed_space(self):
        full = ModpSubspace.full(2, 3)
        fixed = fixed_subspace((1, 0, 2), full)
        assert fixed.dim == 2
        assert fixed.contains([1, 1, 0])
        assert fixed.contains([0, 0, 1])
        assert not fixed.contains([1, 0, 0])

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            fixed_subspace((1, 2, 0), ModpSubspace.full(3, 3))

    def test_fixed_ambient_is_echelon_without_elimination(self):
        # the direct construction equals the eliminated span of its rows
        rng = random.Random(7)
        for p in (2, 3):
            for _ in range(20):
                n = rng.randint(0, 7)
                perm = list(range(n))
                idx = list(range(n))
                rng.shuffle(idx)
                for a, b in zip(idx[0::2], idx[1::2]):
                    if rng.random() < 0.6:
                        perm[a], perm[b] = b, a
                direct = fixed_ambient(p, tuple(perm))
                rows = [[int(k in (i, perm[i])) for k in range(n)] for i in range(n)]
                assert direct == ModpSubspace.from_rows(p, n, rows)
                assert direct.dim == sum(1 for i in range(n) if i <= perm[i])

    def test_phi_fixed_bicycles_of_running_example(self):
        from mirrorcrit.factorization import build_maps

        maps = build_maps(running_example().decompose())
        assert maps.phi_bicycles.dim == 1


class TestEnumeration:
    def test_zero_subspace(self):
        z = ModpSubspace.zero(2, 3)
        assert list(z.enumerate_elements()) == [(0, 0, 0)]

    def test_line_over_gf2(self):
        s = ModpSubspace.from_rows(2, 2, [[1, 1]])
        assert sorted(s.enumerate_elements()) == [(0, 0), (1, 1)]

    def test_limit(self):
        full = ModpSubspace.full(2, 10)
        with pytest.raises(EnumerationLimitError):
            list(full.enumerate_elements(limit=512))

    def test_every_element_exactly_once(self):
        rng = random.Random(5)
        for p in (2, 3):
            s = random_subspace(rng, p, 4)
            elems = list(s.enumerate_elements())
            assert len(elems) == p**s.dim
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
            pair = AdjointPair.from_graph(g)
            algebra = sorted(subspace_masks(pair.p_bicycle_space(2)))
            brute = sorted(bicycle_masks_bruteforce(g))
            assert algebra == brute
        del rng
