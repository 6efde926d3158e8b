"""Exact integer linear algebra.

A sparse vector is a signed support, the dict {index: value} of its
nonzero entries, and a sparse matrix the tuple of its columns' supports:
the form of a graph's edge maps (f, d, the cycle bases), whose products
then cost O(nonzeros).  `IntMatrix` is only the input of a Smith form.

A finitely presented abelian group Z^m / A is held as a decomposition
U A V = S of its relation matrix, with unimodular change-of-basis
witnesses, in which each row of S holds at most one nonzero entry, its
modulus: a Smith form, or the block diagonal of two.  The Smith
reduction works on S alone, each row operation over the pivot row's
nonzero entries, clears a +-1 pivot in one pass, and logs its
elementary operations; S's entries are kept, and each witness is built
from that log only when a caller reads it.  `_replay` right-multiplies
rows by a log's product or by its inverse, its two modes.  A direct sum
puts its parts' logs side by side.
A homomorphism is given by the supports of its columns and computed in
the coordinates of S's rows for its source and target, where each group
is a product of cyclic groups Z/d: its well-definedness is read off that
matrix directly.  Its cokernel, and its kernel as the cokernel of the
dual hom (for a finite source), are one Smith form each, at most k_s +
k_t wide, k being the number of rows of modulus other than 1; for finite
groups no entry exceeds a modulus.

Everything runs on Python ints, so there is no overflow, ever.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property


def combine(terms) -> dict:
    """The sum of c * vec over the (c, vec) pairs of `terms`, vec being
    a support; entries that cancel are dropped."""
    acc = {}
    for c, vec in terms:
        for k, x in vec.items():
            acc[k] = acc.get(k, 0) + c * x
    return {k: x for k, x in acc.items() if x}


def image(columns, vec) -> dict:
    """The sparse matrix with these column supports times the support
    vec."""
    return combine((x, columns[k]) for k, x in vec.items())


def support_rows(columns, n_rows) -> tuple:
    """The rows of the sparse matrix with these column supports, as
    supports: the columns of its transpose."""
    rows = [{} for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return tuple(rows)


class IntMatrix:
    """Immutable dense integer matrix with an explicit shape, the input
    of a Smith form.

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
    def zero(cls, n_rows, n_cols):
        return cls._of([[0] * n_cols for _ in range(n_rows)], shape=(n_rows, n_cols))

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

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

    def hstack(self, other):
        if self.n_rows != other.n_rows:
            raise ValueError("row counts differ")
        rows = map(tuple.__add__, self.rows, other.rows)
        return IntMatrix._of(rows, shape=(self.n_rows, self.n_cols + other.n_cols))

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"IntMatrix({self.n_rows}x{self.n_cols})"


@dataclass(frozen=True, eq=False)
class FpAbelianGroup:
    """The finitely presented abelian group Z^m / (column lattice of
    `matrix`), held as a decomposition U A V = S, U and V unimodular, in
    which each row of S has at most one nonzero entry, that row's
    modulus, and no two rows share a column: a Smith form, or the block
    diagonal of two (`direct_sum`).

    S is kept as `diagonal`: entry i is row i's entry (0 for a zero
    row), and the rows past its end are zero.  The logs hold the
    elementary row operations (which make U) and column operations
    (which make V).  Each witness, `left` = U, `right` = V, `left_inv`
    and `right_inv`, is built from the log the first time it is read and
    then kept, so a caller that reads only the diagonal builds none.  A
    caller that needs a few rows of a product with U or U^-1 replays the
    log on those rows alone (`_replay`).

    `invariant_factors` is the increasing divisibility chain d_1 | d_2 | ...
    with every d_i > 1, made from the moduli as diag(a, b) ~ diag(gcd,
    lcm) for each pair in turn; together with `free_rank` it is a
    complete isomorphism invariant, and groups are compared by it alone.
    """

    matrix: IntMatrix
    diagonal: tuple
    row_ops: tuple = field(repr=False)
    col_ops: tuple = field(repr=False)

    def _witness(self, size, ops, inverse=False) -> IntMatrix:
        rows = _replay(_unit_rows(range(size), size), ops, inverse)
        return IntMatrix._of(rows, shape=(size, size))

    @cached_property
    def left(self) -> IntMatrix:
        return self._witness(self.matrix.n_rows, self.row_ops)

    @cached_property
    def left_inv(self) -> IntMatrix:
        return self._witness(self.matrix.n_rows, self.row_ops, inverse=True)

    @cached_property
    def right(self) -> IntMatrix:
        return self._witness(self.matrix.n_cols, self.col_ops).transpose()

    @cached_property
    def right_inv(self) -> IntMatrix:
        return self._witness(self.matrix.n_cols, self.col_ops, inverse=True).transpose()

    @property
    def ambient_rank(self) -> int:
        return self.matrix.n_rows

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        chain = [d for d in self.diagonal if d > 1]
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                chain[i], chain[j] = math.gcd(chain[i], chain[j]), math.lcm(chain[i], chain[j])
        return tuple(d for d in chain if d > 1)

    @cached_property
    def free_rank(self) -> int:
        return self.ambient_rank - self.rank

    def order(self):
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def annihilated_by(self, k: int) -> bool:
        """True iff k*x = 0 for every element (so: k-torsion and finite)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.free_rank == 0 and all(k % d == 0 for d in self.invariant_factors)

    @property
    def moduli(self) -> dict:
        """{row: d} for each row of S whose modulus d is not 1, in row
        order, with d = 0 for a free (zero) row.

        With U R V = S, x -> U x carries the group onto the product of
        the Z/d_i over S's rows, with generators U^-1 e_i.  A coordinate
        with d_i = 1 vanishes, so these rows' coordinates of U x are the
        ones that matter.
        """
        moduli = {i: d for i, d in enumerate(self.diagonal) if d != 1}
        return moduli | dict.fromkeys(range(len(self.diagonal), self.ambient_rank), 0)

    def describe(self) -> str:
        """Human-readable isomorphism type, largest factor first."""
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in reversed(self.invariant_factors)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FpAbelianGroup({self.describe()})"


_SWAP, _ADD, _NEGATE = range(3)


def _unit_rows(indices, size):
    """The unit row vectors e_i of length `size`, for i in `indices`."""
    return [[int(i == j) for j in range(size)] for i in indices]


def _replay(rows, ops, inverse=False):
    """Right-multiply each of `rows` (lists of ints, changed in place
    and returned) by L or L^-1 for the product L = E_k ... E_1 of a
    log's elementary matrices, at O(len(rows)) per operation.

    A log entry is (_SWAP, i, j), (_ADD, dst, src, q) for "row dst +=
    q * row src", or (_NEGATE, i).  For a row log L = U; for a column
    log L = V^T, since "column dst += q * column src" is the transpose
    of that row operation.  So the identity's rows give U and U^-1, or
    V^T and V^-T, and k unit rows give k rows of them.
    Right-multiplying by E applies "entry src += q * entry dst" to each
    row, and by E^-1 the same with -q; swaps and negations are their
    own inverses.  L takes the log in reverse order, L^-1 in order.
    """
    if not inverse:
        ops = reversed(ops)
    for op in ops:
        if op[0] == _ADD:
            _, dst, src, q = op
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


def _pick_pivot(s, t):
    """(row, column) of the first entry of least nonzero |x| in the rows
    of s from t on, in row-major order, or None.  Nothing beats |x| = 1:
    the first row holding a unit gives its first unit, by C-level scans."""
    for i in range(t, len(s)):
        row = s[i]
        units = [row.index(u) for u in (1, -1) if u in row]
        if units:
            return i, min(units)
    best = None
    for i in range(t, len(s)):
        found = _first_min(s[i])
        if found and (best is None or found[0] < best[0]):
            best = (found[0], i, found[1])
    return best and best[1:]


def _first_nondivisible(s, t, pivot):
    """The first row past t with an entry that pivot does not divide."""
    return next((i for i in range(t + 1, len(s)) if any(x % pivot for x in s[i])), None)


def smith_normal_form(a: IntMatrix) -> FpAbelianGroup:
    """Smith normal form over the integers: the group Z^m / a, held as
    a's Smith decomposition.

    Pivots are chosen as the nonzero entry of minimal absolute value
    (ties broken by smallest row, then column index), which keeps
    coefficient growth tame at the matrix sizes this library targets.
    A +-1 pivot, nearly every pivot of a graph's relation matrix or
    Laplacian, is found by C-level scans and cleared in one pass, with
    no remainder or divisibility check.  Deterministic for a fixed
    input.  Only S is reduced here, and only its diagonal is kept; the
    operations are logged for the witnesses.
    """
    m, n = a.n_rows, a.n_cols
    s = [list(row) for row in a.rows]
    row_ops = []
    col_ops = []

    # From step t on, rows and columns before t are zero off the
    # diagonal (a unit step leaves its row's entries past t in s, but
    # no later step reads them), so column operations need only visit
    # rows t and beyond, and every row from t on is zero before column t.

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

    t = 0
    limit = min(m, n)
    while t < limit:
        best = _pick_pivot(s, t)
        if best is None:
            break
        promote(t, *best)
        while True:
            prow = s[t]
            pivot = prow[t]
            # each row operation runs over the pivot row's nonzero entries
            support = [(j, prow[j]) for j in range(t, n) if prow[j]]
            if pivot == 1:
                # q = -x exactly, so no remainder survives; once column t
                # is clear the column operations change only row t, so
                # they are logged and not applied
                for i in range(t + 1, m):
                    row = s[i]
                    x = row[t]
                    if x:
                        for j, y in support:
                            row[j] -= x * y
                        row_ops.append((_ADD, i, t, -x))
                col_ops.extend((_ADD, j, t, -y) for j, y in support[1:])
                break
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
            bad = _first_nondivisible(s, t, pivot)
            if bad is None:
                break
            # drag a non-divisible entry into row t, forcing a smaller pivot
            for j, y in enumerate(s[bad]):
                if y:
                    prow[j] += y
            row_ops.append((_ADD, t, bad, 1))
        t += 1

    return FpAbelianGroup(
        matrix=a,
        diagonal=tuple(s[i][i] for i in range(min(m, n))),
        row_ops=tuple(row_ops),
        col_ops=tuple(col_ops),
    )


def _relabel(ops, index):
    """A log's operations with each row or column i renamed index[i]."""
    return [(op[0], *(index[i] for i in op[1:3]), *op[3:]) for op in ops]


def direct_sum(first, second) -> FpAbelianGroup:
    """The direct sum of the groups `first` = Z^m1 / A and `second` =
    Z^m2 / B, presented by [A 0; 0 B].

    The two logs act on disjoint rows and columns, so side by side they
    take the block matrix to the block diagonal of the parts' S, whose
    row m1 + i is the second part's row i: no swap and no Smith form.
    """
    (m1, n1), (m2, n2) = first.matrix.shape, second.matrix.shape
    m, n = m1 + m2, n1 + n2
    rows = [row + (0,) * n2 for row in first.matrix.rows]
    rows += [(0,) * n1 + row for row in second.matrix.rows]
    return FpAbelianGroup(
        matrix=IntMatrix._of(rows, shape=(m, n)),
        diagonal=first.diagonal + (0,) * (m1 - len(first.diagonal)) + second.diagonal,
        row_ops=(*first.row_ops, *_relabel(second.row_ops, range(m1, m))),
        col_ops=(*first.col_ops, *_relabel(second.col_ops, range(n1, n))),
    )


def _diagonal(entries) -> IntMatrix:
    """The k x k matrix with the k `entries` down its diagonal."""
    k = len(entries)
    rows = [[0] * k for _ in range(k)]
    for i, d in enumerate(entries):
        rows[i][i] = d
    return IntMatrix._of(rows, shape=(k, k))


def _reduce(rows, moduli):
    """Each row mod its modulus; a row with modulus 0 stays as it is."""
    return [[x % d for x in row] if d else list(row) for row, d in zip(rows, moduli)]


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism between presented groups, given on ambient generators
    and computed in the coordinates of its source's and target's S.

    M is given by `columns`, the support of the image of each source
    generator e_i.  With U_s and U_t the left witnesses of the two
    groups, M acts on these coordinates as W = U_t M U_s^-1: column i of
    W is the image of the source generator U_s^-1 e_i, in target
    coordinates.  A target coordinate with d = 1 is zero in the group,
    so only the k_t rows of W in `target.moduli` matter, each reduced
    mod its d.  The cokernel is Z^k_t / [D_t | M'] for the k_t x k_s
    block M' of those rows on the source coordinates in `source.moduli`,
    and the kernel is the cokernel of the dual hom, Z^k_s / [D_s | N]
    (see `kernel`); the diagonal presentations D need no Smith form.
    """

    source: FpAbelianGroup
    target: FpAbelianGroup
    columns: tuple

    def __post_init__(self):
        n_s, n_t = self.source.ambient_rank, self.target.ambient_rank
        if len(self.columns) != n_s or any(not 0 <= i < n_t for c in self.columns for i in c):
            raise ValueError(f"{len(self.columns)} columns do not map rank {n_s} into {n_t}")

    @cached_property
    def _smith_rows(self):
        """The k_t rows of W = U_t M U_s^-1 in `target.moduli`, each
        reduced mod its modulus (a free row stays unreduced).

        Neither U_t nor U_s^-1 is built: the k_t unit rows e_i are
        right-multiplied by the target's logged row operations, at O(k_t)
        per operation, by M's column supports, at O(k_t) per nonzero, and
        by the source's inverse operations.
        """
        moduli = self.target.moduli
        rows = _unit_rows(moduli, self.target.ambient_rank)
        rows = _reduce(_replay(rows, self.target.row_ops), moduli.values())
        product = [
            [sum(row[k] * x for k, x in col.items()) for col in self.columns] for row in rows
        ]
        rows = _reduce(product, moduli.values())
        return _reduce(_replay(rows, self.source.row_ops, inverse=True), moduli.values())

    @cached_property
    def well_defined(self) -> bool:
        """True iff the matrix maps source relations into target relations.

        The source relations are generated by d_i U_s^-1 e_i over every
        source coordinate i, the trivial ones (d_i = 1) included, so the
        map is well defined iff d_i W[j][i] lies in d_j' Z for every
        target row j; a free row (d_j' = 0) must vanish.
        """
        moduli = self.source.moduli
        orders = [moduli.get(i, 1) for i in range(self.source.ambient_rank)]
        return not any(
            d * x % d_t if d_t else d * x
            for row, d_t in zip(self._smith_rows, self.target.moduli.values())
            for d, x in zip(orders, row)
        )

    @cached_property
    def _block(self) -> IntMatrix:
        """M', the k_t x k_s block of W on the source's coordinates in
        `source.moduli`."""
        columns = list(self.source.moduli)
        rows = [[row[i] for i in columns] for row in self._smith_rows]
        return IntMatrix._of(rows, shape=(len(rows), len(columns)))

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
        moduli = list(self.source.moduli.values())
        if 0 in moduli:
            raise ValueError("kernel needs a finite source")
        k_s = len(moduli)
        finite = [(row, t) for row, t in zip(self._block.rows, self.target.moduli.values()) if t]
        dual = [[row[i] * s // t for row, t in finite] for i, s in enumerate(moduli)]
        gens = _diagonal(moduli).hstack(IntMatrix._of(dual, shape=(k_s, len(finite))))
        return smith_normal_form(gens)

    def cokernel(self) -> FpAbelianGroup:
        """Target modulo (target relations + image), as [D_t | M']."""
        if not self.well_defined:
            raise ValueError("homomorphism is not well defined")
        gens = _diagonal(self.target.moduli.values()).hstack(self._block)
        return smith_normal_form(gens)
