"""Linear algebra over GF(2).

Subspaces are kept in reduced row-echelon form, so equality of spaces
is a plain comparison of their canonical rows.  A row is a Python-int
bit set (bit j = coordinate j) from construction on, and a row
operation is one XOR.  Vectors and a matrix's columns come in as bit
sets, integer sequences or supports ({index: value}, see `lattice`); an
integer entry is read by its low bit.  Every span, kernel and fixed
subspace is one elimination, and so is a sum with its intersection:
they reduce an augmented row block, and the right halves of the rows
whose left block vanished span the kernel, the fixed vectors or the
intersection (the Zassenhaus method), while the left halves of the
other rows span the sum, and `span_dims` reads the dimensions of a span
and of its sum with more vectors off one.  Membership reduces a vector
against the pivots of the reduced basis, so it does not eliminate.
"""

from __future__ import annotations


def _echelonize(rows, skip=0):
    """The canonical rows of the span of the bit sets `rows` whose pivot
    (lowest set bit) lies at column `skip` or past it, shifted down by
    `skip`, sorted by pivot.  These are the rows whose first `skip`
    coordinates vanish, and shifted they keep their leading ones and the
    zeros at every other pivot: the reduced basis of what they span.

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
    return tuple(pivots[bit] >> skip for bit in sorted(pivots) if bit >> skip)


def support_bits(vec) -> int:
    """The support {index: value} mod 2, as a bit set."""
    bits = 0
    for k, x in vec.items():
        if x & 1:
            bits |= 1 << k
    return bits


def _mask(row, n) -> int:
    """A row of length n as a bit set: a bit set passes through, and an
    integer sequence or a support packs each entry's low bit (so 2 packs
    as 0)."""
    if isinstance(row, dict):
        row = support_bits(row)
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


class ModpSubspace:
    """Subspace of GF(2)^n, canonically represented by its reduced
    echelon rows as bit sets, sorted by pivot."""

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim, rows: tuple):
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_rows(cls, ambient_dim, rows) -> "ModpSubspace":
        """The span of rows given as integer sequences or bit sets."""
        return cls(ambient_dim, _echelonize([_mask(r, ambient_dim) for r in rows]))

    @property
    def dim(self):
        return len(self.rows)

    def _compatible(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def contains(self, vec) -> bool:
        """Membership of an integer vector or a bit set.

        A reduced row is the only basis row with a one at its pivot, so
        vec is in the span exactly when it equals the sum of the rows
        whose pivots it hits.
        """
        vec = _mask(vec, self.ambient_dim)
        combo = 0
        for r in self.rows:
            if vec & (r & -r):
                combo ^= r
        return combo == vec

    def sum_and_cap(self, other: "ModpSubspace") -> tuple:
        """(sum, intersection) from one elimination of the rows (a | a) for
        a in this basis and (b | 0) for b in the other's.  A combination
        (a + b | a) has a vanishing left half exactly when a = b lies in
        both spaces; the left halves of the other reduced rows are the
        sum's canonical rows."""
        self._compatible(other)
        n = self.ambient_dim
        left = (1 << n) - 1
        rows = _echelonize([a | a << n for a in self.rows] + list(other.rows))
        return (
            ModpSubspace(n, tuple(r & left for r in rows if r & left)),
            ModpSubspace(n, tuple(r >> n for r in rows if not r & left)),
        )

    def intersection(self, other: "ModpSubspace") -> "ModpSubspace":
        return self.sum_and_cap(other)[1]

    def plus(self, other: "ModpSubspace") -> "ModpSubspace":
        self._compatible(other)
        return ModpSubspace.from_rows(self.ambient_dim, self.rows + other.rows)

    def __eq__(self, other):
        if not isinstance(other, ModpSubspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"ModpSubspace(dim {self.dim} in {self.ambient_dim})"


def kernel(columns, n_rows) -> ModpSubspace:
    """Null space {x : M x = 0 mod 2} of the matrix M with these columns
    over n_rows rows, in echelon form.

    Reduces the rows (column j of M | e_j): a combination (M x | x) has
    a vanishing left half exactly when M x = 0.  The analysis runs none.
    """
    rows = [_mask(col, n_rows) | 1 << (n_rows + j) for j, col in enumerate(columns)]
    return ModpSubspace(len(columns), _echelonize(rows, skip=n_rows))


def span_dims(n, rows, extra) -> tuple:
    """(dim span(rows), dim span(rows + extra)) for bit sets of length n,
    from one elimination: extra row k gets its own tag bit n + k, so the
    reduced rows number dim span(rows) + len(extra), and those with an
    untagged part (a pivot below n) span rows + extra."""
    reduced = _echelonize([*rows, *(r | 1 << (n + k) for k, r in enumerate(extra))])
    return len(reduced) - len(extra), sum(1 for r in reduced if r & ((1 << n) - 1))


def is_involution(perm) -> bool:
    """True iff the index tuple perm (i -> perm[i]) squares to the identity."""
    n = len(perm)
    return all(0 <= j < n and perm[j] == i for i, j in enumerate(perm))


def fixed_ambient(perm) -> ModpSubspace:
    """{x in GF(2)^n : x[perm[i]] = x[i] for all i}, for an involution perm.

    It is spanned by e_i for every fixed point and e_i + e_perm(i) for
    every swapped pair i < perm(i).  Those rows are already in reduced
    echelon form, with the pivot at the smaller index, so no elimination
    runs.  The analysis builds none, reading only the orbit count, its
    dimension; the tests compare the analysis' routes against it.
    """
    if not is_involution(perm):
        raise ValueError("permutation is not an involution")
    rows = tuple(1 << i | 1 << j for i, j in enumerate(perm) if i <= j)
    return ModpSubspace(len(perm), rows)


def fixed_subspace(perm, supports) -> ModpSubspace:
    """The perm-fixed vectors of the span of `supports`, for an
    involution perm (unchecked): one row (fold(g) | g) per generator g,
    where bit t of fold(g) is g_i + g_perm(i) at the t-th swapped pair
    i < perm(i), so a combination's left block vanishes exactly when its
    right half is fixed."""
    pair = {}  # coordinate -> its swapped pair's bit in the fold
    for i, j in enumerate(perm):
        if i < j:
            pair[i] = pair[j] = 1 << len(pair) // 2
    k = len(pair) // 2
    rows = []
    for vec in supports:
        fold = bits = 0
        for i, x in vec.items():
            if x & 1:
                bits |= 1 << i
                fold ^= pair.get(i, 0)
        rows.append(fold | bits << k)
    return ModpSubspace(len(perm), _echelonize(rows, skip=k))
