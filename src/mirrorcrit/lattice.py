"""Exact integer linear algebra.

Smith normal form with unimodular change-of-basis witnesses, lattices
given by integer generator matrices, and finitely presented abelian
groups (with kernels and cokernels of homomorphisms between them).
The reduction works on S alone, each row operation over the pivot
row's nonzero entries, and logs its elementary operations; each
witness is built from that log only when a caller reads it.  The
decomposition of a block-diagonal matrix is composed from its blocks'
logs and one Smith form of their nontrivial diagonal entries.  A
homomorphism is computed in the Smith coordinates of its source and
target, where each group is a product of cyclic groups Z/d: its
well-definedness is read off that matrix directly.  Its cokernel, and
its kernel as the cokernel of the dual hom (for a finite source), are
one Smith form each, at most k_s + k_t wide, k being the number of
nontrivial cyclic factors; for finite groups no entry exceeds a modulus.

Everything runs on Python ints, so there is no overflow, ever.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property


class IntMatrix:
    """Immutable dense integer matrix with an explicit shape.

    The explicit shape matters: empty edge sets and empty generator
    lists produce 0xN and Nx0 matrices all over the place.  Entries are
    taken with `operator.index`, so a float or a Fraction raises
    TypeError instead of being truncated.
    """

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, rows, shape=None):
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
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
    def _of(cls, rows, shape):
        """A matrix of rows this module built: sequences of Python ints
        of the given shape, taken without conversion or checks."""
        self = object.__new__(cls)
        self.n_rows, self.n_cols = shape
        self.rows = tuple(map(tuple, rows))
        return self

    @classmethod
    def identity(cls, n):
        return cls._of(_unit_rows(range(n), n), shape=(n, n))

    @classmethod
    def zero(cls, n_rows, n_cols):
        return cls._of([[0] * n_cols for _ in range(n_rows)], shape=(n_rows, n_cols))

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
        if not self.n_rows:
            return IntMatrix.zero(self.n_cols, 0)
        return IntMatrix._of(zip(*self.rows), shape=(self.n_cols, self.n_rows))

    def __matmul__(self, other):
        """Each row of the product is the combination of `other`'s rows
        by that row's entries, over the nonzero entries of both."""
        if self.n_cols != other.n_rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        sparse = [[(j, y) for j, y in enumerate(orow) if y] for orow in other.rows]
        rows = []
        for row in self.rows:
            acc = [0] * other.n_cols
            for a, entries in zip(row, sparse):
                if a:
                    for j, y in entries:
                        acc[j] += a * y
            rows.append(acc)
        return IntMatrix._of(rows, shape=(self.n_rows, other.n_cols))

    def mul_vector(self, vec):
        """Matrix times vector, over the vector's nonzero entries only.

        Entries are taken with `operator.index`, as in the constructor.
        """
        vec = list(map(operator.index, vec))
        if len(vec) != self.n_cols:
            raise ValueError("vector length does not match n_cols")
        support = [(k, x) for k, x in enumerate(vec) if x]
        return [sum(row[k] * x for k, x in support) for row in self.rows]

    def hstack(self, other):
        if self.n_rows != other.n_rows:
            raise ValueError("row counts differ")
        rows = map(tuple.__add__, self.rows, other.rows)
        return IntMatrix._of(rows, shape=(self.n_rows, self.n_cols + other.n_cols))

    def scale(self, k):
        k = operator.index(k)
        return IntMatrix._of([[k * x for x in row] for row in self.rows], shape=self.shape)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def is_identity(self):
        return self.n_rows == self.n_cols and all(
            x == int(i == j) for i, row in enumerate(self.rows) for j, x in enumerate(row)
        )

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

    The reduction changes only S and logs its elementary row operations
    (which make U) and column operations (which make V).  Each witness,
    `left` = U, `right` = V, `left_inv` and `right_inv`, is built from
    the log the first time it is read and then kept, so a caller that
    reads only the diagonal builds none.  Having the inverses lets
    unimodularity be certified without determinant computations.  A
    caller that needs a few rows of a product with U or U^-1 replays the
    log on those rows alone (`_replay`).
    """

    matrix: IntMatrix
    smith: IntMatrix
    row_ops: tuple = field(repr=False)
    col_ops: tuple = field(repr=False)

    def _witness(self, size, ops, transpose=False, inverse=False) -> IntMatrix:
        rows = _replay(_unit_rows(range(size), size), ops, transpose, inverse)
        return IntMatrix._of(rows, shape=(size, size))

    @cached_property
    def left(self) -> IntMatrix:
        return self._witness(self.matrix.n_rows, self.row_ops)

    @cached_property
    def left_inv(self) -> IntMatrix:
        return self._witness(self.matrix.n_rows, self.row_ops, inverse=True)

    @cached_property
    def right(self) -> IntMatrix:
        return self._witness(self.matrix.n_cols, self.col_ops, transpose=True)

    @cached_property
    def right_inv(self) -> IntMatrix:
        return self._witness(self.matrix.n_cols, self.col_ops, transpose=True, inverse=True)

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


_SWAP, _ADD, _NEGATE = range(3)


def _unit_rows(indices, size):
    """The unit row vectors e_i of length `size`, for i in `indices`."""
    return [[int(i == j) for j in range(size)] for i in indices]


def _replay(rows, ops, transpose=False, inverse=False):
    """Right-multiply each of `rows` (lists of ints, changed in place
    and returned) by L, L^-1, L^T or L^-T for the product L = E_k ... E_1
    of a log's elementary matrices, at O(len(rows)) per operation.

    A log entry is (_SWAP, i, j), (_ADD, dst, src, q) for "row dst +=
    q * row src", or (_NEGATE, i).  For a row log L = U; for a column
    log L = V^T, since "column dst += q * column src" is the transpose
    of that row operation.  So the identity's rows give U, U^-1, V
    (transpose) and V^-1 (both), and k unit rows give k rows of them.
    Right-multiplying by E applies "entry src += q * entry dst" to each
    row, by E^T "entry dst += q * entry src", and an inverse negates q;
    swaps and negations are their own inverses and transposes.  L and
    L^-T take the log in reverse order, L^-1 and L^T in order.
    """
    if transpose == inverse:
        ops = reversed(ops)
    for op in ops:
        if op[0] == _ADD:
            _, dst, src, q = op
            if transpose:
                dst, src = src, dst
            if inverse:
                q = -q
            for row in rows:
                if row[dst]:
                    row[src] += q * row[dst]
        elif op[0] == _SWAP:
            _, i, j = op
            for row in rows:
                row[i], row[j] = row[j], row[i]
        else:
            i = op[1]
            for row in rows:
                row[i] = -row[i]
    return rows


def _first_min(values):
    """(|x|, index) of the first nonzero entry of minimal |x|, or None."""
    mags = list(map(abs, values))
    low = min(filter(None, mags), default=0)
    return (low, mags.index(low)) if low else None


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form over the integers.

    Pivots are chosen as the nonzero entry of minimal absolute value
    (ties broken by smallest row, then column index), which keeps
    coefficient growth tame at the matrix sizes this library targets.
    Deterministic for a fixed input.  Only S is reduced here; the
    operations are logged for the witnesses.
    """
    m, n = a.n_rows, a.n_cols
    s = [list(row) for row in a.rows]
    row_ops = []
    col_ops = []

    # From step t on, rows and columns before t are zero off the
    # diagonal, so column operations need only visit rows t and beyond,
    # and every row from t on is zero before column t.

    def promote(t, i, j):
        # bring s[i][j] to (t, t) and make it positive
        if i != t:
            s[t], s[i] = s[i], s[t]
            row_ops.append((_SWAP, t, i))
        if j != t:
            for row in s[t:]:
                row[t], row[j] = row[j], row[t]
            col_ops.append((_SWAP, t, j))
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            row_ops.append((_NEGATE, t))

    def pick_pivot(t):
        # the trailing block in row-major order; nothing beats |x| = 1
        best = None
        for i in range(t, m):
            found = _first_min(s[i])
            if found and (best is None or found[0] < best[0]):
                best = (found[0], i, found[1])
                if best[0] == 1:
                    break
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        best = pick_pivot(t)
        if best is None:
            break
        promote(t, best[1], best[2])
        while True:
            prow = s[t]
            pivot = prow[t]
            # each row operation runs over the pivot row's nonzero entries
            support = [(j, prow[j]) for j in range(t, n) if prow[j]]
            dirty = False
            for i in range(t + 1, m):
                row = s[i]
                q = -(row[t] // pivot)
                if q:
                    for j, y in support:
                        row[j] += q * y
                    row_ops.append((_ADD, i, t, q))
                if row[t]:
                    dirty = True
            # column j's operation reads only prow[j] and column t,
            # which the other column operations leave alone
            adds = [(j, q) for j in range(t + 1, n) if (q := -(prow[j] // pivot))]
            if adds:
                col_ops.extend((_ADD, j, t, q) for j, q in adds)
                for row in s[t:]:
                    x = row[t]
                    if x:
                        for j, q in adds:
                            row[j] += q * x
            if dirty or any(prow[t + 1:]):
                # a remainder strictly smaller than the pivot survives in
                # column/row t; promote the smallest one (column t first)
                # and go again
                col = _first_min([s[i][t] for i in range(t, m)])
                row = _first_min(prow[t:])
                if row[0] < col[0]:
                    promote(t, t, t + row[1])
                else:
                    promote(t, t + col[1], t)
                continue
            if pivot == 1:
                break
            bad = next(
                (i for i in range(t + 1, m) if any(x % pivot for x in s[i])), None
            )
            if bad is None:
                break
            # drag a non-divisible entry into row t, forcing a smaller pivot
            for j, y in enumerate(s[bad]):
                if y:
                    prow[j] += y
            row_ops.append((_ADD, t, bad, 1))
        t += 1

    return SmithDecomposition(
        matrix=a,
        smith=IntMatrix._of(s, shape=(m, n)),
        row_ops=tuple(row_ops),
        col_ops=tuple(col_ops),
    )


def _relabel(ops, index):
    """A log's operations with each row or column i renamed index[i]."""
    return [(op[0], *(index[i] for i in op[1:3]), *op[3:]) for op in ops]


def direct_sum_smith(first, second) -> SmithDecomposition:
    """Smith decomposition of the block-diagonal matrix [A 0; 0 B] of
    the decompositions `first` (of A) and `second` (of B).

    The two logs act on disjoint rows and columns, so together they
    make the nonzero diagonal entries of both parts, with nothing else
    in their rows and columns.  Swaps bring these to (t, t), units
    first; one Smith form of the k x k diagonal of the nontrivial ones
    then makes the divisibility chain, so no Smith form runs on a matrix
    larger than k x k.
    """
    (m1, n1), (m2, n2) = first.matrix.shape, second.matrix.shape
    m, n = m1 + m2, n1 + n2
    rows = [row + (0,) * n2 for row in first.matrix.rows]
    rows += [(0,) * n1 + row for row in second.matrix.rows]
    row_ops = [*first.row_ops, *_relabel(second.row_ops, range(m1, m))]
    col_ops = [*first.col_ops, *_relabel(second.col_ops, range(n1, n))]
    entries = [(d, i, i) for i, d in enumerate(first.diagonal) if d]
    entries += [(d, m1 + i, n1 + i) for i, d in enumerate(second.diagonal) if d]
    entries.sort(key=lambda entry: entry[0] > 1)
    places = ([list(range(m)), row_ops], [list(range(n)), col_ops])
    for t, (_, *ends) in enumerate(entries):
        for end, (at, ops) in zip(ends, places):
            # at[p] is the original index now at p
            p = at.index(end, t)
            if p != t:
                at[t], at[p] = at[p], at[t]
                ops.append((_SWAP, t, p))
    units = sum(1 for d, _, _ in entries if d == 1)
    inner = smith_normal_form(_diagonal([d for d, _, _ in entries[units:]]))
    block = range(units, len(entries))
    diagonal = (1,) * units + inner.diagonal
    smith = [[0] * n for _ in range(m)]
    for t, d in enumerate(diagonal):
        smith[t][t] = d
    return SmithDecomposition(
        matrix=IntMatrix._of(rows, shape=(m, n)),
        smith=IntMatrix._of(smith, shape=(m, n)),
        row_ops=tuple(row_ops) + tuple(_relabel(inner.row_ops, block)),
        col_ops=tuple(col_ops) + tuple(_relabel(inner.col_ops, block)),
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
        return cls.from_smith(smith_normal_form(generators))

    @classmethod
    def from_smith(cls, witness: SmithDecomposition) -> "FpAbelianGroup":
        """The quotient by the columns of `witness.matrix`, read off that
        matrix's Smith decomposition."""
        ambient_rank = witness.matrix.n_rows
        return cls(
            ambient_rank=ambient_rank,
            relations=witness.matrix,
            witness=witness,
            invariant_factors=witness.nontrivial_factors,
            free_rank=ambient_rank - witness.rank,
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

    @property
    def moduli(self) -> tuple[int, ...]:
        """The order of each nontrivial Smith generator: the invariant
        factors, then 0 for each free generator.

        With U R V = S, x -> U x carries the group onto the product of
        the Z/d_i, with generators U^-1 e_i.  The leading coordinates
        have d_i = 1 and vanish, so these are the last len(moduli)
        coordinates of U x.
        """
        return self.invariant_factors + (0,) * self.free_rank

    def contains_relation(self, vec) -> bool:
        """True iff `vec` lies in the relation lattice."""
        return self.element_order(vec) == 1

    def element_order(self, vec):
        """Order of the class of `vec`, or None when infinite."""
        w = self.witness.left.mul_vector(vec)
        order = 1
        for d, x in zip(self.moduli, w[self.ambient_rank - len(self.moduli):]):
            if d:
                order = math.lcm(order, d // math.gcd(d, x % d))
            elif x:
                return None
        return order

    def describe(self) -> str:
        """Human-readable isomorphism type, largest factor first."""
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in reversed(self.invariant_factors)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FpAbelianGroup({self.describe()})"


def _diagonal(entries) -> IntMatrix:
    k = len(entries)
    rows = [[d if i == j else 0 for j in range(k)] for i, d in enumerate(entries)]
    return IntMatrix._of(rows, shape=(k, k))


def _reduce(rows, moduli):
    """Each row mod its modulus; a row with modulus 0 stays as it is."""
    return [[x % d for x in row] if d else list(row) for row, d in zip(rows, moduli)]


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism between presented groups, given on ambient generators
    and computed in the Smith coordinates of its source and target.

    With U_s and U_t the left witnesses of the two groups, M acts on
    Smith coordinates as W = U_t M U_s^-1: column i of W is the image of
    the source generator U_s^-1 e_i, in target coordinates.  A target
    coordinate with d = 1 is zero in the group, so only the last k_t rows
    of W matter, each reduced mod its d (see `FpAbelianGroup.moduli`).
    The cokernel is Z^k_t / [D_t | M'] for the k_t x k_s block M' of
    those rows on the nontrivial source coordinates, and the kernel is
    the cokernel of the dual hom, Z^k_s / [D_s | N] (see `kernel`); the
    diagonal presentations D of both groups are already in Smith form.
    """

    source: FpAbelianGroup
    target: FpAbelianGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.shape != (self.target.ambient_rank, self.source.ambient_rank):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not map ambient rank "
                f"{self.source.ambient_rank} into {self.target.ambient_rank}"
            )

    @cached_property
    def _smith_rows(self):
        """The last k_t rows of W = U_t M U_s^-1, each reduced mod its
        target modulus (a free row stays unreduced).

        Neither U_t nor U_s^-1 is built: the k_t unit rows e_i are
        right-multiplied by the target's logged row operations, M, and
        the source's inverse operations, at O(k_t) per operation.
        """
        moduli = self.target.moduli
        n_t = self.target.ambient_rank
        rows = _unit_rows(range(n_t - len(moduli), n_t), n_t)
        rows = _reduce(_replay(rows, self.target.witness.row_ops), moduli)
        product = IntMatrix._of(rows, shape=(len(rows), n_t)) @ self.matrix
        rows = _reduce(product.rows, moduli)
        return _reduce(_replay(rows, self.source.witness.row_ops, inverse=True), moduli)

    @cached_property
    def well_defined(self) -> bool:
        """True iff the matrix maps source relations into target relations.

        The source relations are generated by d_i U_s^-1 e_i over every
        source coordinate i, the trivial ones (d_i = 1) included, so the
        map is well defined iff d_i W[j][i] lies in d_j' Z for every
        target row j; a free row (d_j' = 0) must vanish.
        """
        source = self.source
        orders = (1,) * (source.ambient_rank - len(source.moduli)) + source.moduli
        return not any(
            d * x % d_t if d_t else d * x
            for row, d_t in zip(self._smith_rows, self.target.moduli)
            for d, x in zip(orders, row)
        )

    @cached_property
    def _block(self) -> IntMatrix:
        """M', the k_t x k_s block of W on the nontrivial coordinates."""
        k_s = len(self.source.moduli)
        n_s = self.source.ambient_rank
        rows = [row[n_s - k_s:] for row in self._smith_rows]
        return IntMatrix._of(rows, shape=(len(rows), k_s))

    def kernel(self) -> FpAbelianGroup:
        """Kernel as an abstract group: the cokernel of the dual hom.

        For finite groups ker f is isomorphic to coker f^, f^ being the
        Pontryagin dual.  The character b of the product of the Z/t_j
        pulls back along M' to the character of the product of the Z/s_i
        with coordinates N b, N[i][j] = M'[j][i] s_i / t_j: an integer
        because the hom is well defined, and below s_i.  So the kernel is
        Z^k_s / [D_s | N], one Smith form whose entries are at most the
        moduli.  On a finite source a free target row (t_j = 0) vanishes,
        so it is dropped; a source with a free factor raises ValueError.
        """
        if not self.well_defined:
            raise ValueError("homomorphism is not well defined")
        moduli = self.source.moduli
        if 0 in moduli:
            raise ValueError("kernel needs a finite source")
        k_s = len(moduli)
        finite = [(row, t) for row, t in zip(self._block.rows, self.target.moduli) if t]
        dual = [[row[i] * s // t for row, t in finite] for i, s in enumerate(moduli)]
        gens = _diagonal(moduli).hstack(IntMatrix._of(dual, shape=(k_s, len(finite))))
        return FpAbelianGroup.quotient(k_s, gens)

    def cokernel(self) -> FpAbelianGroup:
        """Target modulo (target relations + image), as [D_t | M']."""
        if not self.well_defined:
            raise ValueError("homomorphism is not well defined")
        gens = _diagonal(self.target.moduli).hstack(self._block)
        return FpAbelianGroup.quotient(self._block.n_rows, gens)
