"""Dense GF(2) linear algebra on int bitsets, plus exact minimum-weight searches.

Vectors are packed little-endian into Python ints (bit i of ``bits`` is
coordinate i), so XOR/AND/popcount run at machine-word speed regardless of
length.  The minimum-weight searches share one numpy kernel: the 2^j XOR
combinations of up to ``TABLE_ROWS`` rows, built by doubling as a
(2^j, ceil(cols/64)) uint64 table, with the combinations of any further
rows streamed over it one table at a time.  All solvers here are exact at
desk scale: they either return the true optimum or a certified statement
that none exists below the cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


# Rows folded into one XOR table; the combinations of the other rows are
# streamed over it, so a table holds at most 2^TABLE_ROWS words.
TABLE_ROWS = 14
# Generators of up to this rank are searched over their whole span by
# ``min_weight_codeword``; wider ones by candidate words in weight order.
SPAN_MAX_ROWS = 24
# Largest number of elements or half-subsets one exhaustive search visits.
SEARCH_BUDGET = 1 << 22


def _mask(length: int) -> int:
    return (1 << length) - 1


@dataclass(frozen=True)
class BitVector:
    """A length-tagged GF(2) vector packed into a single int."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits & ~_mask(self.length):
            raise ValueError("set bits beyond declared length")

    @classmethod
    def from_indices(cls, length: int, indices) -> "BitVector":
        bits = 0
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"index {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.bits & other.bits)

    def get(self, i: int) -> int:
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if (self.bits >> i) & 1)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __str__(self) -> str:
        return "".join("1" if self.get(i) else "0" for i in range(self.length))


@dataclass(frozen=True)
class BitMatrix:
    """A list of equal-length rows over GF(2)."""

    rows: tuple[BitVector, ...]
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if r.length != self.cols:
                raise ValueError("row length differs from declared column count")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "BitMatrix":
        rows = tuple(
            r if isinstance(r, BitVector) else BitVector(cols, r) for r in rows
        )
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = rows[0].length
        return cls(rows, cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_ints(self) -> list[int]:
        return [r.bits for r in self.rows]

    def mul_left(self, x: BitVector) -> BitVector:
        """Row combination x^T * self (x selects rows to XOR)."""
        if x.length != self.nrows:
            raise ValueError("selector length must equal row count")
        acc = 0
        xb = x.bits
        for r in self.rows:
            if xb & 1:
                acc ^= r.bits
            xb >>= 1
        return BitVector(self.cols, acc)


class Echelon:
    """Reduced row echelon form over GF(2), grown one row at a time.

    ``rows`` maps each row's pivot, its lowest set bit, to the row.  No
    other row has that bit set, so a vector reduces in a single pass in any
    order, and the form of a given rowspace is unique.
    """

    def __init__(self, rows=()):
        self.rows: dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        """Residual of v modulo the rowspace; zero iff v lies in it."""
        for pivot, row in self.rows.items():
            if (v >> pivot) & 1:
                v ^= row
        return v

    def add(self, v: int) -> bool:
        """Insert v when it is independent of the rows; return whether it was."""
        v = self.reduce(v)
        if not v:
            return False
        low = v & -v
        for pivot, row in self.rows.items():
            if row & low:
                self.rows[pivot] = row ^ v
        self.rows[low.bit_length() - 1] = v
        return True


def rank(m: BitMatrix) -> int:
    """GF(2) rank: the number of pivots of the echelon form."""
    return len(Echelon(m.row_ints()).rows)


def solve_affine(a: BitMatrix, b: BitVector):
    """Solve x^T a = b^T over GF(2).

    Returns None when b is outside the rowspace of ``a``; otherwise a pair
    (particular solution, nullspace basis) where the basis spans
    {x : x^T a = 0}.  Both live in F_2^{rows}.
    """
    if b.length != a.cols:
        raise ValueError("right-hand side length must equal column count")
    # Row i carries a selector bit at column cols + i, so the part of a
    # reduced row above the columns records the input rows it combines.
    cols = a.cols
    basis = Echelon(r | (1 << (cols + i)) for i, r in enumerate(a.row_ints()))
    residual = basis.reduce(b.bits)
    if residual & _mask(cols):
        return None
    null_basis = [
        BitVector(a.nrows, row >> cols)
        for pivot, row in basis.rows.items() if pivot >= cols
    ]
    return BitVector(a.nrows, residual >> cols), null_basis


def _words(values, cols: int) -> np.ndarray:
    """Pack ints of ``cols`` bits into a (len, ceil(cols/64)) uint64 array."""
    nwords = max(1, -(-cols // 64))
    raw = b"".join(v.to_bytes(8 * nwords, "little") for v in values)
    return np.frombuffer(raw, "<u8").reshape(len(values), nwords)


def _span_table(words: np.ndarray) -> np.ndarray:
    """Row s is the XOR of the rows of ``words`` selected by the bits of s."""
    table = np.zeros((1, words.shape[1]), np.uint64)
    for w in words:
        table = np.concatenate([table, table ^ w])
    return table


def _span_chunks(words: np.ndarray):
    """Yield (rows selected, XOR) over every subset of the rows of ``words``:
    the table of the first ``TABLE_ROWS`` rows XOR each combination of the rest.
    """
    low = _span_table(words[:TABLE_ROWS])
    low_w = np.bitwise_count(np.arange(len(low)))
    for s, high in enumerate(_span_table(words[TABLE_ROWS:])):
        yield low_w + s.bit_count(), low ^ high


def min_support_solution(a: BitMatrix, b: BitVector, cap: int):
    """Exact minimum Hamming weight of x with x^T a = b^T, if it is <= cap.

    Returns None for infeasible systems and when every solution weighs more
    than ``cap``.  Meets in the middle for every row count: the XOR table
    of the first half of the rows, cut to its lightest selection per word,
    is matched by ``searchsorted`` against the other half's combinations,
    streamed a table at a time.  Raises ValueError instead of starting a
    sweep whose larger half has more than ``SEARCH_BUDGET`` subsets.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    sol = solve_affine(a, b)
    if sol is None:
        return None
    if b.is_zero():
        return 0
    m = a.nrows
    if 1 << (m - m // 2) > SEARCH_BUDGET:
        raise ValueError(
            f"{m} rows: a meet-in-the-middle sweep over 2^{m - m // 2} "
            f"half-subsets exceeds the search budget of {SEARCH_BUDGET}"
        )
    # A word of the rowspace is fixed by its bits at the pivot columns, and
    # the budget keeps the rank at most 44, so each word keys as one uint64.
    rows = a.row_ints()
    pivots = sorted(Echelon(rows).rows)
    keys = np.array([sum(((r >> p) & 1) << i for i, p in enumerate(pivots))
                     for r in rows + [b.bits]], dtype=np.uint64)
    half = m // 2
    left = _span_table(keys[:half, None])[:, 0]
    order = np.argsort(np.bitwise_count(np.arange(len(left))), kind="stable")
    left, first = np.unique(left[order], return_index=True)
    left_w = np.bitwise_count(order[first])
    best = min(cap, m) + 1
    for weights, chunk in _span_chunks(keys[half:m, None]):
        need = chunk[:, 0] ^ keys[m]
        pos = np.minimum(np.searchsorted(left, need), len(left) - 1)
        hit = left[pos] == need
        best = int((left_w[pos] + weights).min(initial=best, where=hit))
    return best if best <= cap else None


def nullspace(a: BitMatrix) -> list[BitVector]:
    """Basis of {v in F_2^cols : a v = 0} (right nullspace)."""
    pivots = Echelon(a.row_ints()).rows
    basis = []
    for j in range(a.cols):
        if j in pivots:
            continue
        # Each pivot row fixes its pivot coordinate to its bit at column j.
        v = 1 << j
        for pivot, row in pivots.items():
            if (row >> j) & 1:
                v |= 1 << pivot
        basis.append(BitVector(a.cols, v))
    return basis


def min_weight_codeword(gen: BitMatrix, coset: BitVector, w_max: int):
    """Minimum Hamming weight of (x^T gen) XOR coset over all x.

    The all-zero word is excluded when ``coset`` is zero, so for coset = 0
    this is the minimum distance of the rowspace.  Returns None when the
    minimum exceeds ``w_max``, which certifies the bound "weight >= w_max+1".

    The generator is first reduced to an echelon basis of its rowspace.
    Bases of up to ``SPAN_MAX_ROWS`` rows are searched over their whole
    span, a table of XOR combinations at a time; wider ones by candidate
    words in increasing weight, with a rowspace membership test.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    if coset.length != gen.cols:
        raise ValueError("coset length must equal column count")
    basis = Echelon(gen.row_ints())
    rows = list(basis.rows.values())
    if len(rows) <= SPAN_MAX_ROWS:
        word = _words([coset.bits], gen.cols)
        best = w_max + 1
        for _, chunk in _span_chunks(_words(rows, gen.cols)):
            w = np.bitwise_count(chunk ^ word).sum(axis=1)
            # A zero coset drops every zero word.
            best = int(w.min(initial=best, where=(w > 0) | bool(coset.bits)))
        return best if best <= w_max else None
    # Wide generator: walk candidate words by weight, testing membership in
    # the affine space coset + rowspace.
    for w in range(1 if coset.is_zero() else 0, w_max + 1):
        for comb in itertools.combinations(range(gen.cols), w):
            word = coset.bits
            for i in comb:
                word ^= 1 << i
            if not basis.reduce(word):
                return w
    return None
