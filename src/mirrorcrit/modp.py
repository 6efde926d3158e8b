"""Linear algebra over Z/p for prime p.

Subspaces are kept in reduced row-echelon form, which makes equality of
spaces a plain matrix comparison.  Every subspace operation is one
elimination: membership reduces the basis plus the vector, and kernels
and intersections reduce an augmented row block and keep the right
halves of the rows whose left block vanished (the Zassenhaus method).
p = 2 carries almost all of the workload here, so its elimination runs
on Python-int bitsets (one XOR per row operation); other primes use
per-entry arithmetic with the same algorithm.
"""

from __future__ import annotations

import itertools

DEFAULT_ENUM_LIMIT = 1 << 20


class EnumerationLimitError(RuntimeError):
    pass


def _check_prime(p: int):
    if p < 2:
        raise ValueError(f"{p} is not prime")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"{p} is not prime")
        d += 1


class ModpMatrix:
    """Immutable matrix over Z/p with entries reduced into {0, ..., p-1}."""

    __slots__ = ("p", "n_rows", "n_cols", "rows")

    def __init__(self, p, rows, shape=None):
        _check_prime(p)
        rows = tuple(tuple(int(x) % p for x in row) for row in rows)
        if shape is None:
            if not rows:
                raise ValueError("shape is required for a matrix with no rows")
            shape = (len(rows), len(rows[0]))
        n, m = shape
        if len(rows) != n or any(len(row) != m for row in rows):
            raise ValueError(f"rows do not match shape {shape}")
        self.p = p
        self.n_rows = n
        self.n_cols = m
        self.rows = rows

    @classmethod
    def identity(cls, p, n):
        return cls(p, [[int(i == j) for j in range(n)] for i in range(n)], shape=(n, n))

    @classmethod
    def zero(cls, p, n_rows, n_cols):
        return cls(p, [[0] * n_cols for _ in range(n_rows)], shape=(n_rows, n_cols))

    @classmethod
    def from_int_matrix(cls, m, p):
        return cls(p, m.rows, shape=m.shape)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def apply(self, vec):
        vec = [x % self.p for x in vec]
        if len(vec) != self.n_cols:
            raise ValueError("vector length does not match n_cols")
        return tuple(sum(a * b for a, b in zip(row, vec)) % self.p for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, ModpMatrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.p, self.shape, self.rows))

    def __repr__(self):
        return f"ModpMatrix(p={self.p}, {self.n_rows}x{self.n_cols})"


def _rref_bits(bitrows):
    """Reduced echelon form of GF(2) rows packed as ints (bit j = column j).

    Invariant: every stored row has zeros at all other pivot columns,
    so one pass over the pivots fully reduces an incoming row.
    """
    pivots = {}
    for r in bitrows:
        cur = r
        for c, prow in pivots.items():
            if (cur >> c) & 1:
                cur ^= prow
        if cur:
            c = (cur & -cur).bit_length() - 1
            for pc in pivots:
                if (pivots[pc] >> c) & 1:
                    pivots[pc] ^= cur
            pivots[c] = cur
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def _rref_general(rows, p):
    """Reduced echelon form over Z/p, rows as lists; same invariant as
    the bitset version."""
    pivots = {}
    for r in rows:
        cur = list(r)
        for c, prow in pivots.items():
            f = cur[c]
            if f:
                cur = [(a - f * b) % p for a, b in zip(cur, prow)]
        lead = next((j for j, x in enumerate(cur) if x), None)
        if lead is not None:
            inv = pow(cur[lead], p - 2, p)
            cur = [(a * inv) % p for a in cur]
            for pc in pivots:
                f = pivots[pc][lead]
                if f:
                    pivots[pc] = [(a - f * b) % p for a, b in zip(pivots[pc], cur)]
            pivots[lead] = cur
    cols = sorted(pivots)
    return [pivots[c] for c in cols], cols


def _bits_to_row(bits, n):
    return tuple((bits >> j) & 1 for j in range(n))


def _row_to_bits(row):
    b = 0
    for j, x in enumerate(row):
        if x:
            b |= 1 << j
    return b


def _echelonize(p, n_cols, rows, skip=0):
    """The reduced echelon rows of `rows` whose pivot lies at column
    `skip` or past it, as tuples with their first `skip` entries dropped.

    Rows are filtered by pivot before they are converted, so a caller
    that keeps only a right block converts nothing else.
    """
    if p == 2:
        reduced, cols = _rref_bits([_row_to_bits(r) for r in rows])
        width = n_cols - skip
        return [_bits_to_row(b >> skip, width) for b, c in zip(reduced, cols) if c >= skip]
    reduced, cols = _rref_general([list(r) for r in rows], p)
    return [tuple(r[skip:]) for r, c in zip(reduced, cols) if c >= skip]


def _vanishing_left(p, n_left, n_right, rows):
    """The subspace spanned by the right halves of the reduced rows whose
    first n_left entries vanish.

    Those are the rows with a pivot past n_left; their right halves keep
    the leading ones and the zeros at every other pivot, so they are
    already the reduced echelon basis of what they span.
    """
    right = _echelonize(p, n_left + n_right, rows, skip=n_left)
    return ModpSubspace(p, n_right, ModpMatrix(p, right, shape=(len(right), n_right)))


class ModpSubspace:
    """Subspace of (Z/p)^n, canonically represented by an RREF basis."""

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p, ambient_dim, basis: ModpMatrix):
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def from_rows(cls, p, ambient_dim, rows) -> "ModpSubspace":
        rows = [tuple(int(x) % p for x in r) for r in rows]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("ambient dimension mismatch")
        reduced = _echelonize(p, ambient_dim, rows)
        return cls(p, ambient_dim, ModpMatrix(p, reduced, shape=(len(reduced), ambient_dim)))

    @classmethod
    def zero(cls, p, ambient_dim) -> "ModpSubspace":
        return cls.from_rows(p, ambient_dim, [])

    @classmethod
    def full(cls, p, ambient_dim) -> "ModpSubspace":
        return cls.from_rows(
            p, ambient_dim, ModpMatrix.identity(p, ambient_dim).rows if ambient_dim else []
        )

    @property
    def dim(self):
        return self.basis.n_rows

    def _compatible(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def contains(self, vec) -> bool:
        vec = [int(x) % self.p for x in vec]
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        reduced = _echelonize(self.p, self.ambient_dim, [*self.basis.rows, vec])
        return len(reduced) == self.dim

    def intersection(self, other: "ModpSubspace") -> "ModpSubspace":
        """Reduces the rows (a | a) for a in this basis and (b | 0) for b
        in the other's: a combination (a + b | a) has a vanishing left
        half exactly when a = -b lies in both spaces."""
        self._compatible(other)
        zero = (0,) * self.ambient_dim
        rows = [a + a for a in self.basis.rows] + [b + zero for b in other.basis.rows]
        return _vanishing_left(self.p, self.ambient_dim, self.ambient_dim, rows)

    def plus(self, other: "ModpSubspace") -> "ModpSubspace":
        self._compatible(other)
        return ModpSubspace.from_rows(
            self.p, self.ambient_dim, list(self.basis.rows) + list(other.basis.rows)
        )

    def enumerate_elements(self, limit=DEFAULT_ENUM_LIMIT):
        """All p^dim elements, each exactly once, deterministically."""
        if self.p**self.dim > limit:
            raise EnumerationLimitError(
                f"{self.p}^{self.dim} elements exceed the limit {limit}"
            )
        p = self.p
        rows = self.basis.rows
        for coeffs in itertools.product(range(p), repeat=self.dim):
            vec = [0] * self.ambient_dim
            for f, row in zip(coeffs, rows):
                if f:
                    vec = [(a + f * b) % p for a, b in zip(vec, row)]
            yield tuple(vec)

    def __eq__(self, other):
        if not isinstance(other, ModpSubspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"ModpSubspace(p={self.p}, dim {self.dim} in {self.ambient_dim})"


def kernel(m: ModpMatrix) -> ModpSubspace:
    """Null space {x : M x = 0} in echelon form.

    Reduces the rows (column j of M | e_j): a combination (M x | x) has
    a vanishing left half exactly when M x = 0.
    """
    n = m.n_cols
    columns = zip(*m.rows) if m.rows else [()] * n
    rows = [col + (0,) * j + (1,) + (0,) * (n - 1 - j) for j, col in enumerate(columns)]
    return _vanishing_left(m.p, m.n_rows, n, rows)


def row_space(m: ModpMatrix) -> ModpSubspace:
    """Row space of M (equivalently the image of its transpose)."""
    return ModpSubspace.from_rows(m.p, m.n_cols, m.rows)


def is_involution(perm) -> bool:
    """True iff the index tuple perm (i -> perm[i]) squares to the identity."""
    n = len(perm)
    return all(0 <= j < n and perm[j] == i for i, j in enumerate(perm))


def fixed_ambient(p, perm) -> ModpSubspace:
    """{x in (Z/p)^n : x[perm[i]] = x[i] for all i}, for an involution perm.

    It is spanned by e_i for every fixed point and e_i + e_perm(i) for
    every swapped pair i < perm(i).  Those rows are already in reduced
    echelon form, with the pivot at the smaller index, so no elimination
    runs.
    """
    if not is_involution(perm):
        raise ValueError("permutation is not an involution")
    n = len(perm)
    pivots = [i for i, j in enumerate(perm) if i <= j]
    rows = [[int(k in (i, perm[i])) for k in range(n)] for i in pivots]
    return ModpSubspace(p, n, ModpMatrix(p, rows, shape=(len(rows), n)))


def fixed_subspace(perm, space: ModpSubspace) -> ModpSubspace:
    """{x in space : x is fixed by the involution perm of the coordinates}."""
    if len(perm) != space.ambient_dim:
        raise ValueError("involution does not act on the ambient space")
    return fixed_ambient(space.p, perm).intersection(space)
