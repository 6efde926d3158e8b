"""Linear algebra over Z/p for prime p.

Subspaces are kept in reduced row-echelon form, so equality of spaces
is a plain comparison of their canonical rows.  p = 2 carries almost
all of the workload here, so over GF(2) a row is a Python-int bit set
(bit j = coordinate j) from construction on, and a row operation is one
XOR; over other primes a row is a tuple of entries in {0, ..., p-1}.
`ModpSubspace.basis` is the tuple view of the rows for either kind.
Matrices come in as `IntMatrix` and vectors as integer sequences (or,
for p = 2, as bit sets); their entries are reduced mod p where they are
read.  Every span, sum, kernel and intersection is one elimination:
kernels and intersections reduce an augmented row block and keep the
right halves of the rows whose left block vanished (the Zassenhaus
method).  Membership over GF(2) reduces a vector against the pivots of
the reduced basis, and fixed ambient spaces are built reduced, so
neither eliminates.
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


def _rref_bits(rows):
    """Reduced echelon form of GF(2) bit-set rows, sorted by pivot (the
    lowest set bit of each row).

    Invariant: every stored row has zeros at all other pivot columns, so
    an incoming row is reduced by XOR-ing in the rows of the pivots it
    hits, one per set bit of `cur & pivot_mask`.
    """
    pivots = {}  # pivot bit -> row
    pivot_mask = 0
    for cur in rows:
        hit = cur & pivot_mask
        while hit:
            low = hit & -hit
            cur ^= pivots[low]
            hit ^= low
        if cur:
            low = cur & -cur
            for bit, prow in pivots.items():
                if prow & low:
                    pivots[bit] = prow ^ cur
            pivots[low] = cur
            pivot_mask |= low
    return [pivots[bit] for bit in sorted(pivots)]


def _rref_general(rows, p):
    """Reduced echelon form over Z/p of rows given as lists of reduced
    entries; same invariant as the bit-set version."""
    pivots = {}
    for r in rows:
        cur = r
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


def _echelonize(p, rows, skip=0):
    """The canonical rows of the span of `rows` whose pivot lies at
    column `skip` or past it, with their first `skip` coordinates dropped.

    For p = 2 the rows are bit sets; otherwise they are integer
    sequences, reduced mod p here.
    """
    if p == 2:
        low = (1 << skip) - 1
        return tuple(r >> skip for r in _rref_bits(rows) if not r & low)
    reduced, cols = _rref_general([[x % p for x in r] for r in rows], p)
    return tuple(tuple(r[skip:]) for r, c in zip(reduced, cols) if c >= skip)


def _mask(row, n) -> int:
    """A GF(2) row of length n as a bit set: a bit set passes through, an
    integer sequence packs each entry's low bit (so 2 packs as 0)."""
    if isinstance(row, int):
        if row >> n:
            raise ValueError("ambient dimension mismatch")
        return row
    if len(row) != n:
        raise ValueError("ambient dimension mismatch")
    bits = 0
    for j, x in enumerate(row):
        if x & 1:
            bits |= 1 << j
    return bits


def mask_to_row(mask, n) -> tuple:
    """The 0/1 tuple of length n with bit j of `mask` at position j."""
    return tuple((mask >> j) & 1 for j in range(n))


def column_masks(m) -> list:
    """The columns of the integer matrix m mod 2, each a bit set over
    the rows of m."""
    cols = [0] * m.n_cols
    for i, row in enumerate(m.rows):
        bit = 1 << i
        for j, x in enumerate(row):
            if x & 1:
                cols[j] |= bit
    return cols


def _vanishing_left(p, n_left, n_right, rows):
    """The subspace spanned by the right halves of the reduced rows whose
    first n_left entries vanish.

    Those are the rows with a pivot past n_left; their right halves keep
    the leading ones and the zeros at every other pivot, so they are
    already the reduced echelon basis of what they span.
    """
    return ModpSubspace(p, n_right, _echelonize(p, rows, skip=n_left))


class ModpSubspace:
    """Subspace of (Z/p)^n, canonically represented by its reduced
    echelon rows, sorted by pivot: bit sets for p = 2, tuples of entries
    in {0, ..., p-1} otherwise."""

    __slots__ = ("p", "ambient_dim", "rows")

    def __init__(self, p, ambient_dim, rows: tuple):
        self.p = p
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_rows(cls, p, ambient_dim, rows) -> "ModpSubspace":
        """The span of integer rows, reduced mod p; for p = 2 a row may
        also be a bit set."""
        _check_prime(p)
        if p == 2:
            rows = [_mask(r, ambient_dim) for r in rows]
        else:
            rows = list(rows)
            if any(len(r) != ambient_dim for r in rows):
                raise ValueError("ambient dimension mismatch")
        return cls(p, ambient_dim, _echelonize(p, rows))

    @property
    def basis(self) -> tuple:
        """The reduced echelon basis as a tuple of row tuples."""
        if self.p == 2:
            return tuple(mask_to_row(r, self.ambient_dim) for r in self.rows)
        return self.rows

    @property
    def dim(self):
        return len(self.rows)

    def _compatible(self, other):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def contains(self, vec) -> bool:
        """Membership of an integer vector (or, for p = 2, a bit set)."""
        if self.p == 2:
            # a reduced row is the only basis row with a one at its
            # pivot, so vec is in the span exactly when it equals the
            # sum of the rows whose pivots it hits
            vec = _mask(vec, self.ambient_dim)
            combo = 0
            for r in self.rows:
                if vec & (r & -r):
                    combo ^= r
            return combo == vec
        vec = list(vec)
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return len(_echelonize(self.p, [*self.rows, vec])) == self.dim

    def intersection(self, other: "ModpSubspace") -> "ModpSubspace":
        """Reduces the rows (a | a) for a in this basis and (b | 0) for b
        in the other's: a combination (a + b | a) has a vanishing left
        half exactly when a = -b lies in both spaces."""
        self._compatible(other)
        n = self.ambient_dim
        if self.p == 2:
            rows = [a | a << n for a in self.rows] + list(other.rows)
        else:
            zero = (0,) * n
            rows = [a + a for a in self.rows] + [b + zero for b in other.rows]
        return _vanishing_left(self.p, n, n, rows)

    def plus(self, other: "ModpSubspace") -> "ModpSubspace":
        self._compatible(other)
        return ModpSubspace.from_rows(self.p, self.ambient_dim, self.rows + other.rows)

    def enumerate_elements(self, limit=DEFAULT_ENUM_LIMIT):
        """All p^dim elements as tuples, each exactly once, deterministically."""
        if self.p**self.dim > limit:
            raise EnumerationLimitError(
                f"{self.p}^{self.dim} elements exceed the limit {limit}"
            )
        p = self.p
        rows = self.basis
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
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.ambient_dim, self.rows))

    def __repr__(self):
        return f"ModpSubspace(p={self.p}, dim {self.dim} in {self.ambient_dim})"


def kernel(p, m) -> ModpSubspace:
    """Null space {x : M x = 0 mod p} of the integer matrix M, in
    echelon form.

    Reduces the rows (column j of M | e_j): a combination (M x | x) has
    a vanishing left half exactly when M x = 0.
    """
    _check_prime(p)
    n = m.n_cols
    if p == 2:
        k = m.n_rows
        rows = [col | 1 << (k + j) for j, col in enumerate(column_masks(m))]
    else:
        columns = zip(*m.rows) if m.rows else [()] * n
        rows = [col + (0,) * j + (1,) + (0,) * (n - 1 - j) for j, col in enumerate(columns)]
    return _vanishing_left(p, m.n_rows, n, rows)


def row_space(p, m) -> ModpSubspace:
    """Row space of the integer matrix M mod p (equivalently the image
    of its transpose)."""
    return ModpSubspace.from_rows(p, m.n_cols, m.rows)


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
    _check_prime(p)
    if not is_involution(perm):
        raise ValueError("permutation is not an involution")
    n = len(perm)
    pivots = [i for i, j in enumerate(perm) if i <= j]
    if p == 2:
        rows = tuple(1 << i | 1 << perm[i] for i in pivots)
    else:
        rows = tuple(tuple(int(k in (i, perm[i])) for k in range(n)) for i in pivots)
    return ModpSubspace(p, n, rows)


def fixed_subspace(perm, space: ModpSubspace) -> ModpSubspace:
    """{x in space : x is fixed by the involution perm of the coordinates}."""
    if len(perm) != space.ambient_dim:
        raise ValueError("involution does not act on the ambient space")
    return fixed_ambient(space.p, perm).intersection(space)
