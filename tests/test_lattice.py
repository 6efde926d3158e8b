"""Exact integer linear algebra: Smith form, lattices, presented groups.

golden_witnesses.json holds one SHA-256 digest of S, U, V, U^-1 and V^-1
per matrix of `witness_cases()`, so a change to the reduction that alters
any pivot, and with it any witness entry, fails
`test_witnesses_match_golden_digests`.  A change that alters the
witnesses on purpose regenerates them:

    PYTHONPATH=src python tests/test_lattice.py > tests/golden_witnesses.json
"""

import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from mirrorcrit.critical import AdjointPair
from mirrorcrit.factorization import build_maps
from mirrorcrit.lattice import (
    FpAbelianGroup,
    GroupHom,
    IntMatrix,
    direct_sum_smith,
    integer_kernel,
    smith_normal_form,
)
from mirrorcrit.randgraph import mirror_grid, random_multigraph, random_symmetric_graph

from conftest import exact_det, running_example

WITNESS_GOLDEN = Path(__file__).resolve().parent / "golden_witnesses.json"

RUNNING_EXAMPLE_LAPLACIAN = IntMatrix(
    [
        [2, -1, -1, 0],
        [-1, 3, -1, -1],
        [-1, -1, 3, -1],
        [0, -1, -1, 2],
    ]
)


def random_matrix(rng, max_dim=12, bound=9):
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    return IntMatrix(rows)


def sympy_diagonal(a: IntMatrix):
    if a.n_rows == 0 or a.n_cols == 0:
        return []
    s = sympy_snf(Matrix(a.n_rows, a.n_cols, [x for row in a.rows for x in row]), domain=ZZ)
    return [abs(int(s[i, i])) for i in range(min(a.n_rows, a.n_cols))]


class TestIntMatrix:
    def test_entries_are_exact_ints(self):
        big = 2**64 + 1
        m = IntMatrix([[True, False, 7], [-big, 3 * big, 0]])
        assert m.rows == ((1, 0, 7), (-big, 3 * big, 0))
        assert all(type(x) is int for row in m.rows for x in row)
        # mul_vector takes its vector's entries the same way
        image = IntMatrix([[1, 2], [0, big]]).mul_vector([True, big])
        assert image == [1 + 2 * big, big * big]
        assert all(type(x) is int for x in image)
        for bad in (2.7, 2.0, Fraction(3, 1), "1"):
            with pytest.raises(TypeError):
                IntMatrix([[1, bad]])
            with pytest.raises(TypeError):
                IntMatrix.from_columns([[bad]], 1)
            with pytest.raises(TypeError):
                IntMatrix([[1, 2]]).mul_vector([1, bad])

    def test_shapes_and_stacking(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.shape == (2, 2)
        assert a.transpose().rows == ((1, 3), (2, 4))
        assert a.hstack(IntMatrix.identity(2)).shape == (2, 4)
        empty = IntMatrix([], shape=(0, 3))
        assert empty.transpose().shape == (3, 0)
        assert empty.transpose().transpose() == empty

    def test_matmul_and_vectors(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a @ b).rows == ((2, 1), (4, 3))
        assert a.mul_vector([1, 1]) == [3, 7]

    def test_products_match_the_textbook_sum(self):
        # every density from empty to full, empty shapes (0 x n, n x 0,
        # and n x 0 @ 0 x m among them), entries past 2^64: the products
        # combine only nonzero entries but must stay exact ints
        rng = random.Random(31)
        big = 2**64
        shapes = [(0, 3, 4), (3, 0, 4), (4, 3, 0), (0, 0, 0), (2, 0, 0), (0, 0, 2)]
        bigs = 0
        for k in range(120):
            n, m, p = shapes[k] if k < len(shapes) else (rng.randint(0, 6) for _ in range(3))
            density = k % 11 / 10
            bound = rng.choice((1, 5, 3 * big))

            def entry():
                return rng.randint(-bound, bound) if rng.random() < density else 0

            a = IntMatrix([[entry() for _ in range(m)] for _ in range(n)], shape=(n, m))
            b = IntMatrix([[entry() for _ in range(p)] for _ in range(m)], shape=(m, p))
            vec = [entry() for _ in range(m)]
            product = a @ b
            assert product.shape == (n, p)
            assert product.rows == tuple(
                tuple(sum(a.rows[i][t] * b.rows[t][j] for t in range(m)) for j in range(p))
                for i in range(n)
            )
            image = a.mul_vector(vec)
            assert image == [sum(a.rows[i][t] * vec[t] for t in range(m)) for i in range(n)]
            assert all(type(x) is int for row in product.rows for x in row)
            assert all(type(x) is int for x in image)
            bigs += any(abs(x) >= big for row in product.rows for x in row)
        assert bigs >= 10


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.identity(3))
        assert snf.diagonal == (1, 1, 1)
        assert snf.verify()

    def test_coprime_diagonal_collapses(self):
        snf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
        assert snf.diagonal == (1, 6)
        assert snf.verify()

    def test_running_example_laplacian(self):
        snf = smith_normal_form(RUNNING_EXAMPLE_LAPLACIAN)
        assert snf.diagonal == (1, 1, 8, 0)
        assert snf.verify()
        assert sympy_diagonal(RUNNING_EXAMPLE_LAPLACIAN) == [1, 1, 8, 0]

    def test_zero_and_empty(self):
        assert smith_normal_form(IntMatrix.zero(2, 3)).diagonal == (0, 0)
        snf = smith_normal_form(IntMatrix([], shape=(0, 4)))
        assert snf.diagonal == ()
        assert snf.verify()

    def test_determinism(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_matrix(rng, max_dim=8)
            first = smith_normal_form(a)
            second = smith_normal_form(a)
            assert first.diagonal == second.diagonal
            assert first.left == second.left
            assert first.right == second.right

    def test_random_property_suite(self):
        rng = random.Random(11)
        for _ in range(150):
            a = random_matrix(rng)
            snf = smith_normal_form(a)
            assert snf.verify(), a.rows
            assert abs(exact_det(snf.left)) == 1
            assert abs(exact_det(snf.right)) == 1
            assert list(snf.diagonal) == sympy_diagonal(a)

    def test_kernel_and_rank(self):
        a = IntMatrix([[1, 2, 3], [2, 4, 6]])
        assert smith_normal_form(a).rank == 1
        ker = integer_kernel(a)
        assert ker.shape == (3, 2)
        assert (a @ ker).is_zero()

    def test_witnesses_match_golden_digests(self):
        expected = json.loads(WITNESS_GOLDEN.read_text())
        got = witness_digests()
        assert got.keys() == expected.keys()
        changed = sorted(k for k in expected if got[k] != expected[k])
        assert not changed, f"witnesses changed: {changed[:5]}"


def _random_block(rng, k):
    """A random matrix of one of four kinds: sparse to full with entries
    up to 2^70, of low rank (zero diagonal entries), with an all-unit
    diagonal, or with chosen factors (zeros, units, big ones); a block
    with 0 rows or 0 columns every few draws."""
    n_rows = 0 if k % 9 == 0 else rng.randint(1, 6)
    n_cols = 0 if k % 9 == 4 else rng.randint(1, 6)
    kind = k % 4
    if kind == 0:
        density = rng.choice((0.2, 0.5, 1.0))
        bound = rng.choice((1, 9, 2**70))
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        return IntMatrix(rows, shape=(n_rows, n_cols))
    r = min(n_rows, n_cols)
    if kind == 1:
        diag = [rng.randint(1, 9) for _ in range(rng.randint(0, max(r - 1, 0)))]
    elif kind == 2:
        diag = [1] * r
    else:
        diag = [rng.choice((0, 1, 2, 3, 4, 6, 2**70 + 1)) for _ in range(r)]
    middle = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n_cols)]
              for i in range(n_rows)]

    def unit_triangular(n):
        return IntMatrix(
            [[1 if i == j else rng.randint(-3, 3) if i > j else 0 for j in range(n)]
             for i in range(n)],
            shape=(n, n),
        )

    left, right = unit_triangular(n_rows), unit_triangular(n_cols).transpose()
    return left @ IntMatrix(middle, shape=(n_rows, n_cols)) @ right


class TestDirectSumSmith:
    """`direct_sum_smith` composes the two parts' Smith logs into a
    decomposition of the block-diagonal matrix; it must be a true Smith
    decomposition, equal to the one-pass Smith form and to sympy's."""

    def test_random_pairs(self):
        rng = random.Random(15)
        kinds = Counter()
        for k in range(240):
            a, b = _random_block(rng, k), _random_block(rng, rng.randrange(36))
            (m1, n1), (m2, n2) = a.shape, b.shape
            rows = [row + (0,) * n2 for row in a.rows]
            rows += [(0,) * n1 + row for row in b.rows]
            matrix = IntMatrix(rows, shape=(m1 + m2, n1 + n2))
            parts = smith_normal_form(a), smith_normal_form(b)
            dec = direct_sum_smith(*parts)
            assert dec.matrix == matrix
            assert dec.verify(), (a.rows, b.rows)
            assert dec.diagonal == smith_normal_form(matrix).diagonal
            assert list(dec.diagonal) == sympy_diagonal(matrix)
            diagonal = set(dec.diagonal)
            kinds["free"] += 0 in diagonal and dec.rank > 0
            kinds["units only"] += diagonal == {1}
            kinds["big"] += any(d.bit_length() > 64 for d in diagonal)
            kinds["empty block"] += 0 in a.shape + b.shape
            kinds["merged factors"] += len(dec.nontrivial_factors) < sum(
                len(part.nontrivial_factors) for part in parts
            )
        assert min(kinds.values()) >= 10 and len(kinds) == 5, kinds

    def test_union_groups(self, mixed_corpus):
        # the union's group is read off the parts; a one-pass Smith form
        # of its relation matrix gives the same factors, and homs built
        # on that reference group the same kernels and cokernels
        graphs = [*mixed_corpus, *(mirror_grid(r, r) for r in (5, 7))]
        for g in graphs:
            maps = build_maps(g.decompose())
            pair = maps.pair_union
            group = pair.critical_group
            assert group.witness.verify()
            reference = FpAbelianGroup.quotient(pair.c1_rank, pair.relation_matrix)
            assert group.invariant_factors == reference.invariant_factors
            assert group.free_rank == reference.free_rank == 0
            target = maps.pair_g.critical_group
            f_star = GroupHom(reference, target, maps.f_matrix)
            ft_star = GroupHom(target, reference, maps.ft_matrix)
            assert f_star.kernel().same_type(maps.ker_f)
            assert f_star.cokernel().same_type(maps.coker_f)
            assert ft_star.kernel().same_type(maps.ker_ft)
            assert ft_star.cokernel().same_type(maps.coker_ft)


class TestFpAbelianGroup:
    def test_cyclic(self):
        g = FpAbelianGroup.quotient(1, IntMatrix([[2]]))
        assert g.invariant_factors == (2,)
        assert g.order() == 2
        assert g.describe() == "Z/2"

    def test_full_lattice_is_trivial(self):
        g = FpAbelianGroup.quotient(2, IntMatrix.identity(2))
        assert g.is_trivial()
        assert g.order() == 1
        assert g.describe() == "0"

    def test_free_part(self):
        g = FpAbelianGroup.quotient(2, IntMatrix([[2], [0]]))
        assert g.free_rank == 1
        assert g.invariant_factors == (2,)
        assert g.order() is None

    def test_annihilated_by(self):
        two_two = FpAbelianGroup.quotient(2, IntMatrix([[2, 0], [0, 2]]))
        assert two_two.annihilated_by(2)
        four = FpAbelianGroup.quotient(1, IntMatrix([[4]]))
        assert not four.annihilated_by(2)
        assert four.annihilated_by(4)
        free = FpAbelianGroup.quotient(1, IntMatrix.zero(1, 0))
        assert not free.annihilated_by(2)

    def test_element_order(self):
        g = FpAbelianGroup.quotient(1, IntMatrix([[6]]))
        assert g.element_order([1]) == 6
        assert g.element_order([2]) == 3
        assert g.element_order([3]) == 2
        assert g.element_order([0]) == 1
        free = FpAbelianGroup.quotient(1, IntMatrix.zero(1, 0))
        assert free.element_order([1]) is None

    def test_contains_relation(self):
        g = FpAbelianGroup.quotient(2, IntMatrix([[2, 0], [0, 3]]))
        assert g.contains_relation([4, 3])
        assert not g.contains_relation([1, 0])

    def test_order_invariant_under_remixing(self):
        # invariant factors depend only on the lattice, not the chosen
        # generators or the ambient basis order
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 4)
            k = rng.randint(n, n + 2)
            gens = IntMatrix([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)])
            g = FpAbelianGroup.quotient(n, gens)
            # random unimodular column mix: product of elementary ops
            mixed = [list(col) for col in gens.columns()]
            for _ in range(10):
                i, j = rng.randrange(k), rng.randrange(k)
                if i != j:
                    q = rng.randint(-2, 2)
                    mixed[j] = [a + q * b for a, b in zip(mixed[j], mixed[i])]
            remixed = FpAbelianGroup.quotient(n, IntMatrix.from_columns(mixed, n))
            assert g.same_type(remixed)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted_rows = [gens.rows[i] for i in perm]
            permuted = FpAbelianGroup.quotient(n, IntMatrix(permuted_rows, shape=(n, k)))
            assert g.same_type(permuted)


class TestGroupHom:
    def test_zero_map_always_well_defined(self):
        a = FpAbelianGroup.quotient(1, IntMatrix([[2]]))
        b = FpAbelianGroup.quotient(1, IntMatrix([[4]]))
        zero = GroupHom(source=a, target=b, matrix=IntMatrix([[0]]))
        assert zero.well_defined

    @staticmethod
    def _assert_ill_defined(hom):
        assert not hom.well_defined
        with pytest.raises(ValueError, match="not well defined"):
            hom.kernel()
        with pytest.raises(ValueError, match="not well defined"):
            hom.cokernel()

    def test_identity_z2_to_z4_ill_defined(self):
        # 1 -> 1 from Z/2 into Z/4: the relation 2 maps to 2, which is
        # not in Z/4's relations (4Z)
        z2 = FpAbelianGroup.quotient(1, IntMatrix([[2]]))
        z4 = FpAbelianGroup.quotient(1, IntMatrix([[4]]))
        self._assert_ill_defined(GroupHom(z2, z4, IntMatrix([[1]])))

    def test_kernel_raises_when_relations_leave_the_preimage(self):
        # 1 -> 1 from Z/2 into Z: the relation 2 maps to 2, but a free
        # target row must map every source relation to 0
        z2 = FpAbelianGroup.quotient(1, IntMatrix([[2]]))
        z = FpAbelianGroup.quotient(1, IntMatrix.zero(1, 0))
        self._assert_ill_defined(GroupHom(z2, z, IntMatrix([[1]])))

    def test_kernel_of_identity_on_z6(self):
        z6 = FpAbelianGroup.quotient(1, IntMatrix([[6]]))
        h = GroupHom(source=z6, target=z6, matrix=IntMatrix([[1]]))
        assert h.kernel().is_trivial()
        assert h.cokernel().is_trivial()

    def test_kernel_of_doubling_on_z6(self):
        # oracle: 2x = 0 in Z/6 exactly for x in {0, 3}
        brute = sum(1 for x in range(6) if (2 * x) % 6 == 0)
        assert brute == 2
        z6 = FpAbelianGroup.quotient(1, IntMatrix([[6]]))
        h = GroupHom(source=z6, target=z6, matrix=IntMatrix([[2]]))
        assert h.kernel().order() == brute
        assert h.kernel().invariant_factors == (2,)

    def test_cokernel_of_doubling_into_z4(self):
        z = FpAbelianGroup.quotient(1, IntMatrix.zero(1, 0))
        z4 = FpAbelianGroup.quotient(1, IntMatrix([[4]]))
        h = GroupHom(source=z, target=z4, matrix=IntMatrix([[2]]))
        assert h.cokernel().invariant_factors == (2,)
        # the kernel, 2Z, is the cokernel of a dual only for a finite source
        with pytest.raises(ValueError, match="finite source"):
            h.kernel()

    def test_first_isomorphism_theorem_on_random_homs(self):
        # |source| / |ker| = |target| / |coker| for any well-defined hom
        # of finite groups; homs are built well-defined by construction
        rng = random.Random(17)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            mat = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            src_rel = IntMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            if exact_det(src_rel) == 0:
                continue
            source = FpAbelianGroup.quotient(n, src_rel)
            k = rng.randint(1, 6)
            tgt_rel = (mat @ src_rel).hstack(IntMatrix.identity(m).scale(k))
            target = FpAbelianGroup.quotient(m, tgt_rel)
            hom = GroupHom(source=source, target=target, matrix=mat)
            assert hom.well_defined
            ker = hom.kernel().order()
            coker = hom.cokernel().order()
            assert source.order() * coker == target.order() * ker
            checked += 1

    def test_kernel_against_enumeration(self):
        # brute-force oracle over mixed diagonal sources: for every q
        # dividing the source exponent, the kernel elements with q x = 0
        # number prod gcd(q, e) over the kernel's invariant factors e,
        # which pins the kernel's type, not only its order; a target
        # presented without the k I block has relations of less than
        # full rank, so its free rows must drop out of the kernel
        rng = random.Random(23)
        free_targets = 0
        for _ in range(60):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            mat = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            ds = [rng.randint(1, 6) for _ in range(n)]
            src_rel = IntMatrix([[d * (i == j) for j in range(n)] for i, d in enumerate(ds)])
            source = FpAbelianGroup.quotient(n, src_rel)
            tgt_rel = mat @ src_rel
            if rng.random() < 0.5:
                tgt_rel = tgt_rel.hstack(IntMatrix.identity(m).scale(rng.randint(1, 4)))
            target = FpAbelianGroup.quotient(m, tgt_rel)
            free_targets += target.free_rank > 0
            hom = GroupHom(source=source, target=target, matrix=mat)
            kernel = [
                x
                for x in itertools.product(*map(range, ds))
                if target.contains_relation(mat.mul_vector(x))
            ]
            ker = hom.kernel()
            assert ker.free_rank == 0
            exponent = math.lcm(*ds)
            for q in (q for q in range(1, exponent + 1) if exponent % q == 0):
                killed = sum(all(q * a % d == 0 for a, d in zip(x, ds)) for x in kernel)
                assert killed == math.prod(math.gcd(q, e) for e in ker.invariant_factors)
        assert free_targets >= 10


class TestSmithCoordinateHomAgainstSympy:
    """GroupHom works in Smith coordinates; sympy works on the edge
    presentations Z^n / R of critical groups, whose relation lattices R
    have full rank, so the product of the invariant factors of [R | v]
    is |K| exactly when v lies in R."""

    @staticmethod
    def _index(a: IntMatrix):
        return math.prod(sympy_diagonal(a))

    def _check(self, source, target, matrix):
        """Checks one hom; returns (well defined, target nontrivial)."""
        hom = GroupHom(source, target, matrix)
        r_t = target.witness.matrix
        order_t = self._index(r_t)
        assert order_t == target.order()
        images = (matrix @ source.witness.matrix).columns()
        expected = all(
            self._index(r_t.hstack(IntMatrix.from_columns([v], r_t.n_rows))) == order_t
            for v in images
        )
        assert hom.well_defined == expected
        if expected:
            coker = [d for d in sympy_diagonal(r_t.hstack(matrix)) if d != 1]
            assert list(hom.cokernel().invariant_factors) == coker
            order_s = self._index(source.witness.matrix)
            assert hom.kernel().order() * order_t == order_s * math.prod(coker)
        return expected, order_t > 1

    def test_random_graph_maps(self):
        # a random map between two graphs' critical groups, and an
        # endomorphism c0 + c1 d^t d, which is well defined (d^t d kills
        # Z and maps B into B), with one entry perturbed half the time
        rng = random.Random(4321)
        outcomes = Counter()
        for _ in range(80):
            pairs = [
                AdjointPair(
                    random_multigraph(rng=rng, max_vertices=5, max_edges=9)
                )
                for _ in range(2)
            ]
            source, target = (pair.critical_group for pair in pairs)
            n_s, n_t = source.ambient_rank, target.ambient_rank
            rows = [[rng.randint(-2, 2) for _ in range(n_s)] for _ in range(n_t)]
            outcomes[self._check(source, target, IntMatrix(rows, shape=(n_t, n_s)))] += 1
            if not n_s:
                continue
            c0, c1 = rng.randint(-3, 3), rng.randint(-2, 2)
            rows = [list(row) for row in (pairs[0].dt @ pairs[0].d).scale(c1).rows]
            for i in range(n_s):
                rows[i][i] += c0
            if rng.random() < 0.5:
                rows[rng.randrange(n_s)][rng.randrange(n_s)] += rng.choice((-1, 1, 2))
            outcomes[self._check(source, source, IntMatrix(rows))] += 1
        # well-defined and ill-defined maps into nontrivial groups
        assert outcomes[True, True] >= 20 and outcomes[False, True] >= 20, outcomes

    def test_running_example_perturbed(self):
        # f of the running example, and every single-entry perturbation
        # of it by 1, 2 or 4
        maps = build_maps(running_example().decompose())
        source, target = maps.pair_union.critical_group, maps.pair_g.critical_group
        f = maps.f_matrix
        assert self._check(source, target, f) == (True, True)
        outcomes = Counter()
        for i in range(f.n_rows):
            for j in range(f.n_cols):
                for delta in (1, 2, 4):
                    rows = [list(row) for row in f.rows]
                    rows[i][j] += delta
                    outcomes[self._check(source, target, IntMatrix(rows))] += 1
        assert outcomes[True, True] and outcomes[False, True], outcomes


def _large_graph(seed):
    """A 42-edge graph of the benchmark's `large` size."""
    return random_symmetric_graph(
        seed=seed, n_left=10, n_fixed=4, n_left_edges=20, n_fixed_edges=2
    )


class TestSmithRows:
    """`GroupHom._smith_rows` replays the two logs on k_t rows; it must
    equal the last k_t rows of U_t M U_s^-1 built from the full
    witnesses, each row reduced mod its target modulus."""

    @staticmethod
    def _full_witness_rows(hom):
        w = hom.target.witness.left @ hom.matrix @ hom.source.witness.left_inv
        moduli = hom.target.moduli
        rows = w.rows[w.n_rows - len(moduli):]
        return [[x % d for x in row] if d else list(row) for row, d in zip(rows, moduli)]

    GRAPHS = {
        "running_example": running_example,
        "large-1": lambda: _large_graph(1),
        "large-7": lambda: _large_graph(7),
        "grid-5x5": lambda: mirror_grid(5, 5),
    }

    @pytest.mark.parametrize("name", GRAPHS)
    def test_graph_homs(self, name):
        maps = build_maps(self.GRAPHS[name]().decompose())
        for hom in (maps.f_star, maps.ft_star):
            assert hom.target.moduli
            assert hom._smith_rows == self._full_witness_rows(hom)

    def test_free_target_row_stays_unreduced(self):
        source = FpAbelianGroup.quotient(3, IntMatrix([[2, 4, 0], [6, 0, 3], [0, 9, 1]]))
        target = FpAbelianGroup.quotient(3, IntMatrix([[4, 2], [6, 8], [2, 4]]))
        assert target.moduli[-1] == 0 and target.invariant_factors
        hom = GroupHom(source, target, IntMatrix([[3, -1, 2], [0, 5, 1], [-4, 2, 7]]))
        rows = hom._smith_rows
        assert rows == self._full_witness_rows(hom)
        assert any(x < 0 for x in rows[-1])


def witness_cases():
    """Matrices whose Smith decompositions are pinned entry for entry:
    200 seeded random ones (0xn and nx0 among them, sparse to full,
    entries up to 2^70) and the critical-group relation matrices of the
    running example and of a 42-edge graph of the benchmark's `large` size,
    each built as [ker d | d^t] with `integer_kernel`, which pins the
    reduction whatever basis of ker d the pipeline uses."""
    rng = random.Random(2026)
    cases = {}
    for k in range(200):
        n_rows = 0 if k % 25 == 0 else rng.randint(0, 10)
        n_cols = 0 if k % 25 == 1 else rng.randint(0, 10)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        bound = rng.choice((1, 3, 9, 100, 2**70))
        rows = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        cases[f"random-{k:03d}"] = IntMatrix(rows, shape=(n_rows, n_cols))
    for name, g in (("running_example", running_example()), ("large", _large_graph(1))):
        maps = build_maps(g.decompose())
        for side in ("g", "plus", "minus", "union"):
            pair = getattr(maps, f"pair_{side}")
            cases[f"{name}/{side}"] = integer_kernel(pair.d).hstack(pair.dt)
    return cases


def witness_digests() -> dict:
    digests = {}
    for name, a in witness_cases().items():
        snf = smith_normal_form(a)
        (m, n), diagonal = a.shape, snf.diagonal
        smith = IntMatrix(
            [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(m)], shape=(m, n)
        )
        h = hashlib.sha256()
        for w in (smith, snf.left, snf.right, snf.left_inv, snf.right_inv):
            # hex, since entries can pass the int-to-decimal digit limit
            h.update(f"{w.shape}".encode())
            for row in w.rows:
                h.update(",".join(format(x, "x") for x in row).encode() + b";")
        digests[name] = h.hexdigest()
    return digests


if __name__ == "__main__":
    json.dump(witness_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
