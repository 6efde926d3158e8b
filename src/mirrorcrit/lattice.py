"""Exact integer linear algebra.

Smith normal form with unimodular change-of-basis witnesses, lattices
given by integer generator matrices, and finitely presented abelian
groups (with kernels and cokernels of homomorphisms between them).

Everything runs on Python ints, so there is no overflow, ever.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property


class IntMatrix:
    """Immutable dense integer matrix with an explicit shape.

    The explicit shape matters: empty edge sets and empty generator
    lists produce 0xN and Nx0 matrices all over the place.
    """

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, rows, shape=None):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if shape is None:
            if not rows:
                raise ValueError("shape is required for a matrix with no rows")
            shape = (len(rows), len(rows[0]))
        n, m = shape
        if len(rows) != n or any(len(row) != m for row in rows):
            raise ValueError(f"rows do not match shape {shape}")
        self.n_rows = n
        self.n_cols = m
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], shape=(n, n))

    @classmethod
    def zero(cls, n_rows, n_cols):
        return cls([[0] * n_cols for _ in range(n_rows)], shape=(n_rows, n_cols))

    @classmethod
    def from_columns(cls, columns, n_rows):
        columns = [tuple(c) for c in columns]
        if any(len(c) != n_rows for c in columns):
            raise ValueError("column length does not match n_rows")
        rows = [[c[i] for c in columns] for i in range(n_rows)]
        return cls(rows, shape=(n_rows, len(columns)))

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.n_cols)]

    def transpose(self):
        return IntMatrix(
            [[self.rows[i][j] for i in range(self.n_rows)] for j in range(self.n_cols)],
            shape=(self.n_cols, self.n_rows),
        )

    def __matmul__(self, other):
        if self.n_cols != other.n_rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose().rows
        rows = [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        return IntMatrix(rows, shape=(self.n_rows, other.n_cols))

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.n_cols:
            raise ValueError("vector length does not match n_cols")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]

    def hstack(self, other):
        if self.n_rows != other.n_rows:
            raise ValueError("row counts differ")
        rows = [self.rows[i] + other.rows[i] for i in range(self.n_rows)]
        return IntMatrix(rows, shape=(self.n_rows, self.n_cols + other.n_cols))

    def top_rows(self, k):
        return IntMatrix(self.rows[:k], shape=(k, self.n_cols))

    def scale(self, k):
        return IntMatrix([[k * x for x in row] for row in self.rows], shape=self.shape)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def is_identity(self):
        return self.n_rows == self.n_cols and all(
            x == int(i == j) for i, row in enumerate(self.rows) for j, x in enumerate(row)
        )

    def det(self):
        """Exact determinant by Bareiss fraction-free elimination."""
        if self.n_rows != self.n_cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.n_rows
        if n == 0:
            return 1
        a = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"IntMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = S with U, V unimodular and S in Smith normal form.

    Inverses of the witnesses are tracked during the reduction so that
    unimodularity can be certified without determinant computations and
    so that coordinates in the diagonalized basis are cheap.
    """

    matrix: IntMatrix
    left: IntMatrix
    right: IntMatrix
    smith: IntMatrix
    left_inv: IntMatrix
    right_inv: IntMatrix

    @property
    def diagonal(self):
        k = min(self.smith.n_rows, self.smith.n_cols)
        return tuple(self.smith.rows[i][i] for i in range(k))

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)

    @property
    def nontrivial_factors(self):
        return tuple(d for d in self.diagonal if d > 1)

    def verify(self):
        """Entry-exact check of every decomposition invariant."""
        if self.left @ self.matrix @ self.right != self.smith:
            return False
        if not (self.left @ self.left_inv).is_identity():
            return False
        if not (self.right @ self.right_inv).is_identity():
            return False
        diag = self.diagonal
        if any(d < 0 for d in diag):
            return False
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        for i in range(self.smith.n_rows):
            for j in range(self.smith.n_cols):
                if i != j and self.smith.rows[i][j] != 0:
                    return False
        return True


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    Pivots are chosen as the nonzero entry of minimal absolute value
    (ties broken by smallest row, then column index), which keeps
    coefficient growth tame at the matrix sizes this library targets.
    Deterministic for a fixed input.
    """
    m, n = a.n_rows, a.n_cols
    s = [list(row) for row in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ui = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vi = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i == j:
            return
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in ui:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vi[i], vi[j] = vi[j], vi[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        if q == 0:
            return
        srow, drow = s[src], s[dst]
        for k in range(n):
            drow[k] += q * srow[k]
        usrc, udst = u[src], u[dst]
        for k in range(m):
            udst[k] += q * usrc[k]
        for row in ui:
            row[src] -= q * row[dst]

    def add_col(dst, src, q):
        # col dst += q * col src
        if q == 0:
            return
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        vsrc, vdst = vi[src], vi[dst]
        for k in range(n):
            vsrc[k] -= q * vdst[k]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in ui:
            row[i] = -row[i]

    def pick_pivot(entries):
        best = None
        for i, j, x in entries:
            if x and (best is None or abs(x) < best[0]):
                best = (abs(x), i, j)
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        best = pick_pivot(
            (i, j, s[i][j]) for i in range(t, m) for j in range(t, n)
        )
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        if s[t][t] < 0:
            negate_row(t)
        while True:
            pivot = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    add_row(i, t, -(s[i][t] // pivot))
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    add_col(j, t, -(s[t][j] // pivot))
                    if s[t][j]:
                        dirty = True
            if dirty:
                # a remainder strictly smaller than the pivot survives in
                # row/column t; promote the smallest one and go again
                best = pick_pivot(
                    itertools.chain(
                        ((i, t, s[i][t]) for i in range(t, m)),
                        ((t, j, s[t][j]) for j in range(t, n)),
                    )
                )
                swap_rows(t, best[1])
                swap_cols(t, best[2])
                if s[t][t] < 0:
                    negate_row(t)
                continue
            pivot = s[t][t]
            bad = None
            for i in range(t + 1, m):
                row = s[i]
                if any(row[j] % pivot for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            # drag a non-divisible entry into row t, forcing a smaller pivot
            add_row(t, bad, 1)
        t += 1

    return SmithDecomposition(
        matrix=a,
        left=IntMatrix(u, shape=(m, m)),
        right=IntMatrix(v, shape=(n, n)),
        smith=IntMatrix(s, shape=(m, n)),
        left_inv=IntMatrix(ui, shape=(m, m)),
        right_inv=IntMatrix(vi, shape=(n, n)),
    )


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel lattice, as columns.

    With U A V = S, the columns of V beyond the rank satisfy
    A (V e_j) = d_j U^{-1} e_j = 0 and form a basis of ker(A).
    """
    snf = smith_normal_form(a)
    r = snf.rank
    cols = [snf.right.column(j) for j in range(r, a.n_cols)]
    return IntMatrix.from_columns(cols, a.n_cols)


@dataclass(frozen=True, eq=False)
class FpAbelianGroup:
    """Finitely presented abelian group Z^n / (column lattice of relations).

    `invariant_factors` is the increasing divisibility chain d_1 | d_2 | ...
    with every d_i > 1; together with `free_rank` it is a complete
    isomorphism invariant, and groups are compared by it alone.
    """

    ambient_rank: int
    relations: IntMatrix
    witness: SmithDecomposition
    invariant_factors: tuple[int, ...]
    free_rank: int

    @classmethod
    def quotient(cls, ambient_rank: int, generators: IntMatrix) -> "FpAbelianGroup":
        if generators.n_rows != ambient_rank:
            raise ValueError(
                f"generator matrix has {generators.n_rows} rows, expected {ambient_rank}"
            )
        witness = smith_normal_form(generators)
        factors = witness.nontrivial_factors
        free_rank = ambient_rank - witness.rank
        return cls(
            ambient_rank=ambient_rank,
            relations=generators,
            witness=witness,
            invariant_factors=factors,
            free_rank=free_rank,
        )

    def order(self):
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def is_trivial(self):
        return not self.invariant_factors and self.free_rank == 0

    def annihilated_by(self, k: int) -> bool:
        """True iff k*x = 0 for every element (so: k-torsion and finite)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.free_rank == 0 and all(k % d == 0 for d in self.invariant_factors)

    def same_type(self, other: "FpAbelianGroup") -> bool:
        return (
            self.invariant_factors == other.invariant_factors
            and self.free_rank == other.free_rank
        )

    def contains_relation(self, vec) -> bool:
        """True iff `vec` lies in the relation lattice."""
        return self.element_order(vec) == 1

    def element_order(self, vec):
        """Order of the class of `vec`, or None when infinite."""
        w = self.witness.left.mul_vector(vec)
        diag = self.witness.diagonal
        r = self.witness.rank
        order = 1
        for i in range(self.ambient_rank):
            if i < r:
                d = diag[i]
                order = math.lcm(order, d // math.gcd(d, w[i] % d))
            elif w[i] != 0:
                return None
        return order

    def describe(self) -> str:
        """Human-readable isomorphism type, largest factor first."""
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in reversed(self.invariant_factors)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FpAbelianGroup({self.describe()})"


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism between presented groups, given on ambient generators."""

    source: FpAbelianGroup
    target: FpAbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.target.ambient_rank, self.source.ambient_rank):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not map ambient rank "
                f"{self.source.ambient_rank} into {self.target.ambient_rank}"
            )

    def is_well_defined(self) -> bool:
        """True iff the matrix maps source relations into target relations."""
        image = self.matrix @ self.source.relations
        return all(self.target.contains_relation(col) for col in image.columns())

    @cached_property
    def well_defined(self) -> bool:
        """`is_well_defined()`, computed once per hom."""
        return self.is_well_defined()

    def kernel(self) -> FpAbelianGroup:
        """Kernel as an abstract group.

        Solved by stacking: M x lies in the target relation lattice T
        exactly when (x, y) is in the integer kernel of [M | T].  The
        x-parts of that kernel generate the preimage lattice P, and the
        kernel of the hom is P / (source relations R).  With U P V = S of
        rank r, the first r columns of P V = U^-1 S are a basis of P, so
        row i < r of U R, divided by d_i, gives R in that basis.
        """
        if not self.well_defined:
            raise ValueError("homomorphism is not well defined")
        stacked = self.matrix.hstack(self.target.relations)
        preimage = integer_kernel(stacked).top_rows(self.source.ambient_rank)
        snf = smith_normal_form(preimage)
        r = snf.rank
        u_rel = (snf.left @ self.source.relations).rows
        pivots = list(zip(u_rel, snf.diagonal[:r]))
        if any(any(row) for row in u_rel[r:]) or any(
            x % d for row, d in pivots for x in row
        ):
            raise AssertionError("source relations must lie in the preimage lattice")
        rel = IntMatrix(
            [[x // d for x in row] for row, d in pivots],
            shape=(r, self.source.relations.n_cols),
        )
        return FpAbelianGroup.quotient(r, rel)

    def cokernel(self) -> FpAbelianGroup:
        """Target modulo (target relations + image of the matrix)."""
        if not self.well_defined:
            raise ValueError("homomorphism is not well defined")
        gens = self.target.relations.hstack(self.matrix)
        return FpAbelianGroup.quotient(self.target.ambient_rank, gens)
