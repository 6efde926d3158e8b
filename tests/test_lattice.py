"""Exact integer linear algebra: Smith form, lattices, presented groups.

golden_witnesses.json holds one SHA-256 digest of S, U, V, U^-1 and V^-1
per matrix of `witness_cases()`, so a change to the reduction that alters
any pivot, and with it any witness entry, fails
`test_witnesses_match_golden_digests`.  A change that alters the
witnesses on purpose regenerates them:

    PYTHONPATH=src python tests/test_lattice.py > tests/golden_witnesses.json
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from mirrorcrit.factorization import build_maps
from mirrorcrit.lattice import (
    FpAbelianGroup,
    GroupHom,
    IntMatrix,
    integer_kernel,
    smith_normal_form,
)
from mirrorcrit.randgraph import random_symmetric_graph

from conftest import running_example

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
    def test_shapes_and_stacking(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.shape == (2, 2)
        assert a.transpose().rows == ((1, 3), (2, 4))
        assert a.hstack(IntMatrix.identity(2)).shape == (2, 4)
        empty = IntMatrix([], shape=(0, 3))
        assert empty.transpose().shape == (3, 0)

    def test_matmul_and_vectors(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert (a @ b).rows == ((2, 1), (4, 3))
        assert a.mul_vector([1, 1]) == [3, 7]

    def test_products_match_the_textbook_sum(self):
        # every density from empty to full, empty shapes, entries past
        # 2^64: the products skip zero entries but must stay exact ints
        rng = random.Random(31)
        big = 2**64
        for k in range(120):
            n, m, p = (rng.randint(0, 6) for _ in range(3))
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

    def test_det(self):
        assert IntMatrix([[2, 0], [0, 3]]).det() == 6
        assert IntMatrix([[1, 2], [2, 4]]).det() == 0
        assert IntMatrix([], shape=(0, 0)).det() == 1
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            a = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            m = Matrix(n, n, [x for row in a.rows for x in row])
            assert a.det() == int(m.det())


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
            assert first.smith == second.smith
            assert first.left == second.left
            assert first.right == second.right

    def test_random_property_suite(self):
        rng = random.Random(11)
        for _ in range(150):
            a = random_matrix(rng)
            snf = smith_normal_form(a)
            assert snf.verify(), a.rows
            assert abs(snf.left.det()) == 1
            assert abs(snf.right.det()) == 1
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
        assert zero.is_well_defined()

    def test_identity_z2_to_z4_ill_defined(self):
        a = FpAbelianGroup.quotient(1, IntMatrix([[2]]))
        b = FpAbelianGroup.quotient(1, IntMatrix([[4]]))
        ident = GroupHom(source=a, target=b, matrix=IntMatrix([[1]]))
        assert not ident.is_well_defined()
        with pytest.raises(ValueError):
            ident.kernel()

    def test_kernel_raises_when_relations_leave_the_preimage(self):
        # with the well-definedness guard bypassed, the relation 2 of Z/2
        # is not in the preimage of Z/4's relations (4Z) nor of Z's (0)
        z2 = FpAbelianGroup.quotient(1, IntMatrix([[2]]))
        for target in (IntMatrix([[4]]), IntMatrix.zero(1, 0)):
            hom = GroupHom(z2, FpAbelianGroup.quotient(1, target), IntMatrix([[1]]))
            hom.__dict__["well_defined"] = True
            with pytest.raises(AssertionError, match="preimage lattice"):
                hom.kernel()

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
            if src_rel.det() == 0:
                continue
            source = FpAbelianGroup.quotient(n, src_rel)
            k = rng.randint(1, 6)
            tgt_rel = (mat @ src_rel).hstack(IntMatrix.identity(m).scale(k))
            target = FpAbelianGroup.quotient(m, tgt_rel)
            hom = GroupHom(source=source, target=target, matrix=mat)
            assert hom.is_well_defined()
            ker = hom.kernel().order()
            coker = hom.cokernel().order()
            assert source.order() * coker == target.order() * ker
            checked += 1

    def test_kernel_against_enumeration(self):
        # brute-force oracle: count ambient residues killed by the map
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 2)
            m = rng.randint(1, 2)
            mat = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            src_rel = IntMatrix.identity(n).scale(rng.randint(1, 4))
            source = FpAbelianGroup.quotient(n, src_rel)
            k = rng.randint(1, 4)
            tgt_rel = (mat @ src_rel).hstack(IntMatrix.identity(m).scale(k))
            target = FpAbelianGroup.quotient(m, tgt_rel)
            hom = GroupHom(source=source, target=target, matrix=mat)
            d = src_rel.rows[0][0]
            count = 0
            for coords in _tuples(d, n):
                if target.contains_relation(mat.mul_vector(list(coords))):
                    count += 1
            assert hom.kernel().order() == count


def witness_cases():
    """Matrices whose Smith decompositions are pinned entry for entry:
    200 seeded random ones (0xn and nx0 among them, sparse to full,
    entries up to 2^70) and the critical-group relation matrices of the
    running example and of a 42-edge graph of the benchmark's `large` size."""
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
    large = random_symmetric_graph(
        seed=1, n_left=10, n_fixed=4, n_left_edges=20, n_fixed_edges=2
    )
    for name, g in (("running_example", running_example()), ("large", large)):
        maps = build_maps(g.canonical_orientation().decompose())
        for side in ("g", "plus", "minus", "union"):
            cases[f"{name}/{side}"] = getattr(maps, f"pair_{side}").relation_matrix
    return cases


def witness_digests() -> dict:
    digests = {}
    for name, a in witness_cases().items():
        snf = smith_normal_form(a)
        h = hashlib.sha256()
        for w in (snf.smith, snf.left, snf.right, snf.left_inv, snf.right_inv):
            # hex, since entries can pass the int-to-decimal digit limit
            h.update(f"{w.shape}".encode())
            for row in w.rows:
                h.update(",".join(format(x, "x") for x in row).encode() + b";")
        digests[name] = h.hexdigest()
    return digests


def _tuples(base, length):
    if length == 0:
        yield ()
        return
    for rest in _tuples(base, length - 1):
        for x in range(base):
            yield (x,) + rest


if __name__ == "__main__":
    json.dump(witness_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
