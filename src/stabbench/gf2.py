"""Dense GF(2) linear algebra on int bitsets, plus exact minimum-weight searches.

Every vector, matrix row and syndrome is a plain Python int (bit i is
coordinate i), and a matrix is a list of its int rows, so XOR/AND/popcount
run at machine-word speed regardless of length.  Only ``nullspace`` takes
the column count, since its free columns depend on it.  There is one
minimum-weight search, ``min_weight_codeword``, on one numpy kernel: the
2^j XOR combinations of up to ``TABLE_ROWS`` rows, built by doubling as a
(2^j, ceil(cols/64)) uint64 table, with the combinations of any further
rows streamed over it one table at a time.  ``min_support_solution`` runs
it over the coset of solutions that ``solve_affine`` returns.  All solvers
here are exact at desk scale: they either return the true optimum or a
certified statement that none exists below the cap.
"""

from __future__ import annotations

import itertools
import numpy as np


# Rows folded into one XOR table; the combinations of the other rows are
# streamed over it, so a table holds at most 2^TABLE_ROWS words.
TABLE_ROWS = 14
# Generators of up to this rank are searched over their whole span by
# ``min_weight_codeword``; wider ones by candidate words in weight order.
SPAN_MAX_ROWS = 24
# Largest number of elements one exhaustive search visits.
SEARCH_BUDGET = 1 << 22


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
        if v:
            self._insert(v)
        return bool(v)

    def _insert(self, v: int) -> None:
        """Insert a nonzero residual of ``reduce``, clearing its pivot from
        the other rows."""
        low = v & -v
        for pivot, row in self.rows.items():
            if row & low:
                self.rows[pivot] = row ^ v
        self.rows[low.bit_length() - 1] = v


def rank(rows) -> int:
    """GF(2) rank: the number of pivots of the echelon form."""
    return len(Echelon(rows).rows)


def solve_affine(rows, b: int):
    """Solve x^T a = b^T over GF(2), where ``rows`` are the rows of a.

    Returns None when b is outside the rowspace of a; otherwise a pair
    (particular solution, nullspace basis) where the basis spans
    {x : x^T a = 0}.  Bit i of a solution selects row i.
    """
    rows = list(rows)
    # Row i carries a selector bit at column cols + i, so the part of a
    # reduced row above the columns records the input rows it combines.
    cols = max(map(int.bit_length, rows + [b]))
    basis = Echelon(r | (1 << (cols + i)) for i, r in enumerate(rows))
    residual = basis.reduce(b)
    if residual & ((1 << cols) - 1):
        return None
    null_basis = [row >> cols for pivot, row in basis.rows.items()
                  if pivot >= cols]
    return residual >> cols, null_basis


def _words(values, cols: int) -> np.ndarray:
    """Pack ints of ``cols`` bits into a (len, ceil(cols/64)) uint64 array."""
    nwords = max(1, -(-cols // 64))
    raw = b"".join(v.to_bytes(8 * nwords, "little") for v in values)
    return np.frombuffer(raw, "<u8").reshape(len(values), nwords)


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits of each row of uint64 words (``_words``)."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _span_table(words: np.ndarray) -> np.ndarray:
    """Row s is the XOR of the rows of ``words`` (ints or rows of words)
    that the bits of s select; rows 0..2^b are the table of the first b."""
    table = np.zeros((1 << len(words), *words.shape[1:]), words.dtype)
    for b, w in enumerate(words):
        np.bitwise_xor(table[:1 << b], w, out=table[1 << b:2 << b])
    return table


def _span_chunks(words: np.ndarray):
    """Yield (rows selected, XOR) over every subset of the rows of ``words``:
    the table of the first ``TABLE_ROWS`` rows XOR each combination of the rest.
    """
    low = _span_table(words[:TABLE_ROWS])
    low_w = np.bitwise_count(np.arange(len(low)))
    for s, high in enumerate(_span_table(words[TABLE_ROWS:])):
        yield low_w + s.bit_count(), low ^ high


def min_support_solution(rows, b: int, cap: int):
    """Exact minimum Hamming weight of x with x^T a = b^T, if it is <= cap,
    where ``rows`` are the rows of a.

    Returns None for infeasible systems and when every solution weighs more
    than ``cap``.  The solutions are the coset x0 + ker of ``solve_affine``,
    searched whole by ``min_weight_codeword``.  Raises ValueError instead of
    starting a search over more than ``SEARCH_BUDGET`` solutions.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    rows = list(rows)
    solved = solve_affine(rows, b)
    if solved is None:
        return None
    if not b:
        return 0
    if not cap:
        return None
    x0, null_basis = solved
    if 1 << len(null_basis) > SEARCH_BUDGET:
        raise ValueError(
            f"{len(rows)} rows: a solution space of 2^{len(null_basis)} "
            f"elements exceeds the search budget of {SEARCH_BUDGET}"
        )
    return min_weight_codeword(null_basis, x0, cap)


def nullspace(rows, cols: int) -> list[int]:
    """Basis of {v in F_2^cols : a v = 0} (right nullspace), where ``rows``
    are the rows of a."""
    pivots = Echelon(rows).rows
    basis = []
    for j in range(cols):
        if j in pivots:
            continue
        # Each pivot row fixes its pivot coordinate to its bit at column j.
        v = 1 << j
        for pivot, row in pivots.items():
            if (row >> j) & 1:
                v |= 1 << pivot
        basis.append(v)
    return basis


def min_weight_codeword(rows, coset: int, w_max: int):
    """Minimum Hamming weight of (x^T gen) XOR coset over all x, where
    ``rows`` are the rows of gen.

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
    basis = Echelon(rows)
    rows = list(basis.rows.values())
    # No word of coset + rowspace has a bit past the widest of them.
    cols = max(map(int.bit_length, rows + [coset]))
    if len(rows) <= SPAN_MAX_ROWS:
        word = _words([coset], cols)
        best = w_max + 1
        for _, chunk in _span_chunks(_words(rows, cols)):
            w = popcount(chunk ^ word)
            # A zero coset drops every zero word.
            best = int(w.min(initial=best, where=(w > 0) | bool(coset)))
        return best if best <= w_max else None
    # Wide generator: walk candidate words by weight, testing membership in
    # the affine space coset + rowspace.
    for w in range(1 if not coset else 0, w_max + 1):
        for comb in itertools.combinations(range(cols), w):
            word = coset
            for i in comb:
                word ^= 1 << i
            if not basis.reduce(word):
                return w
    return None
