"""Hermitian Pauli strings in bit-packed symplectic form.

A string is stored as (n, x, z, sign) meaning sign * i^{|x & z|} X^x Z^z,
which is Hermitian with sign in {+1, -1}; overlapping x and z bits are Y
factors.  Products of two strings are only representable when they commute
(otherwise the result picks up a factor of i), and ``multiply`` rejects
that case.  ``symplectic_frame`` splits the span of a set of strings into
anticommuting pairs and a commuting centre: the one symplectic Gram-Schmidt
of the package, behind ``matrices.payload_norm`` and ``code.logicals``.

The product rule (i^a X^x Z^z)(i^b X^x' Z^z') = i^(a + b + 2|z & x'|)
X^(x ^ x') Z^(z ^ z') is computed here alone, in three forms:
``_product_exponent`` on the int masks of two strings of any width,
behind ``multiply_phase`` and the one-pass fold of ``product``;
``times``, elementwise on int64 masks or rows of uint64 words, with
``hermitian_phase`` and ``odd_overlap`` beside it; and
``_frame_coordinates``, string by string into a symplectic frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import Echelon, popcount

I_POWERS = np.array([1, 1j, -1, -1j])  # i^e, indexed by e mod 4
_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_CHAR = {v: k for k, v in _CHAR_TO_XZ.items()}


@dataclass(frozen=True)
class PauliString:
    n: int
    x: int = 0
    z: int = 0
    sign: int = 1

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside qubit range")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Parse e.g. "XIZY" (qubit 0 first)."""
        x = z = 0
        for i, ch in enumerate(label):
            xi, zi = _CHAR_TO_XZ[ch]
            x |= xi << i
            z |= zi << i
        return cls(len(label), x, z, sign)

    @classmethod
    def single(cls, n: int, kind: str, qubit: int) -> "PauliString":
        xi, zi = _CHAR_TO_XZ[kind]
        return cls(n, xi << qubit, zi << qubit)

    @classmethod
    def from_support(cls, n: int, kind: str, qubits) -> "PauliString":
        """Uniform product like X_{q1} X_{q2} ... over the given qubits."""
        x = z = 0
        xi, zi = _CHAR_TO_XZ[kind]
        for q in qubits:
            x |= xi << q
            z |= zi << q
        return cls(n, x, z)

    def label(self) -> str:
        return "".join(
            _XZ_TO_CHAR[((self.x >> i) & 1, (self.z >> i) & 1)] for i in range(self.n)
        )

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> frozenset[int]:
        m = self.x | self.z
        return frozenset(i for i in range(self.n) if (m >> i) & 1)

    def __str__(self) -> str:
        prefix = "" if self.sign == 1 else "-"
        return prefix + self.label()


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic-form test: even total X/Z overlap means commutation."""
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    overlap = (p.x & q.z).bit_count() + (p.z & q.x).bit_count()
    return overlap % 2 == 0


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Product p*q with the +-1 sign from X/Z reordering.

    Requires [p, q] = 0 so the product is again Hermitian; anticommuting
    inputs would produce an anti-Hermitian string and are rejected.
    """
    phase, canon = multiply_phase(p, q)
    if phase.imag:
        raise ValueError("product of anticommuting strings is not Hermitian")
    return PauliString(p.n, canon.x, canon.z, int(phase.real))


def multiply_phase(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """General product p*q = phase * (canonical +1 string).

    Unlike ``multiply`` this accepts anticommuting inputs; the phase is then
    imaginary.  Useful for commutators, where [P, Q] = 2 phase * canon when
    P and Q anticommute.
    """
    if p.n != q.n:
        raise ValueError("qubit count mismatch")
    t = _product_exponent(p.x, p.z, q.x, q.z) % 4
    phase = p.sign * q.sign * (1j) ** t
    return phase, PauliString(p.n, p.x ^ q.x, p.z ^ q.z)


def _product_exponent(ax: int, az: int, bx: int, bz: int) -> int:
    """t with (i^|ax & az| X^ax Z^az)(i^|bx & bz| X^bx Z^bz) = i^t times
    the Hermitian string of (ax ^ bx, az ^ bz): from unpacking both
    strings' Y factors, crossing Z^az past X^bx, and repacking the
    product's Y factors.  t is odd exactly when the two anticommute."""
    return ((ax & az).bit_count() + (bx & bz).bit_count()
            + 2 * (az & bx).bit_count() - ((ax ^ bx) & (az ^ bz)).bit_count())


def restrict(p: PauliString, qubits) -> PauliString:
    """p on ``qubits`` alone, renumbered 0, 1, ... in the order given.

    The sign is kept: a Hermitian string is its sign times a tensor product
    of single-qubit Paulis, and the factors off ``qubits`` are dropped.
    """
    qubits = tuple(qubits)
    px, pz = p.x, p.z
    x = z = 0
    for j, q in enumerate(qubits):
        x |= ((px >> q) & 1) << j
        z |= ((pz >> q) & 1) << j
    return PauliString(len(qubits), x, z, p.sign)


def product(paulis, n: int | None = None) -> PauliString:
    """Ordered product of a (possibly empty) iterable of strings, each
    commuting with the product of those before it: the left fold of
    ``multiply``, with its errors, folded on ints and built once."""
    paulis = iter(paulis)
    first = next(paulis, None)
    if first is None:
        if n is None:
            raise ValueError("need n for an empty product")
        return PauliString.identity(n)
    x, z, t, sign = first.x, first.z, 0, first.sign
    for p in paulis:
        if p.n != first.n:
            raise ValueError("qubit count mismatch")
        t += _product_exponent(x, z, p.x, p.z)
        if t & 1:
            raise ValueError(
                "product of anticommuting strings is not Hermitian")
        x, z, sign = x ^ p.x, z ^ p.z, sign * p.sign
    return PauliString(first.n, x, z, -sign if t & 2 else sign)


def power_of_i(p: PauliString) -> int:
    """Exponent e with p = i^e X^x Z^z."""
    return (p.x & p.z).bit_count() + 1 - p.sign


def columns(pairs) -> tuple:
    """(coeff, PauliString) pairs as the column form (c, x, z) of a Pauli
    sum, row for row: complex c = coeff * sign and int64 masks x and z, row
    k standing for c_k i^|x_k & z_k| X^x_k Z^z_k.  Raises ValueError past
    63 qubits, before any mask is packed."""
    pairs = list(pairs)
    n = max((p.n for _, p in pairs), default=0)
    if n > 63:  # bits of an int64 mask
        raise ValueError(f"a Pauli sum on {n} qubits exceeds the limit of 63 "
                         "of the int64 column form")
    return (np.array([coeff * p.sign for coeff, p in pairs], dtype=complex),
            np.array([p.x for _, p in pairs], dtype=np.int64),
            np.array([p.z for _, p in pairs], dtype=np.int64))


def _count(masks) -> np.ndarray:
    """|m| of each int64 mask, or of each row of uint64 words.  The dtype
    tells the two apart: int64 masks may come broadcast to 2-D."""
    masks = np.asarray(masks)
    if masks.dtype == np.uint64:
        return popcount(masks)
    return np.bitwise_count(masks)


def times(ae, ax, az, be, bx, bz) -> tuple:
    """(i^ae X^ax Z^az)(i^be X^bx Z^bz) = i^e X^x Z^z elementwise, as
    (e, x, z) = (ae + be + 2|az & bx|, ax ^ bx, az ^ bz): crossing Z^az
    past X^bx.  The masks are int64 masks or rows of uint64 words
    (``gf2._words``), broadcast against each other; e is exact mod 4."""
    e = np.asarray(ae, dtype=np.int64) + be + 2 * _count(az & bx)
    return e, ax ^ bx, az ^ bz


def hermitian_phase(e, x, z) -> np.ndarray:
    """i^(e - |x & z|): i^e X^x Z^z is this phase times the Hermitian
    string i^|x & z| X^x Z^z."""
    return I_POWERS[(e - _count(x & z)) % 4]


def odd_overlap(ax, az, bx, bz) -> np.ndarray:
    """1 where the strings (ax, az) and (bx, bz) anticommute, else 0."""
    return (_count(ax & bz) + _count(az & bx)) & 1


def signed_span(x: np.ndarray, z: np.ndarray, e) -> tuple:
    """Products of every subset of the strings i^e_b X^x_b Z^z_b.

    ``x`` and ``z`` hold one row per string, as int64 masks or as rows of
    uint64 words; row s of each returned array (x, z, e mod 4) is the
    product of the strings the bits of s select, in order: rows
    2^b..2^(b+1) are rows 0..2^b times string b (``times``).
    """
    tx = np.zeros((1 << len(x), *x.shape[1:]), x.dtype)
    tz = np.zeros_like(tx)
    te = np.zeros(len(tx), np.int64)
    for b, (bx, bz, be) in enumerate(zip(x, z, e)):
        lo, hi = slice(0, 1 << b), slice(1 << b, 2 << b)
        e_hi, tx[hi], tz[hi] = times(te[lo], tx[lo], tz[lo], be, bx, bz)
        te[hi] = e_hi % 4
    return tx, tz, te


def symplectic_frame(n: int, x: list, z: list) -> tuple:
    """The symplectic frame of the span of the strings (x[k], z[k]), int
    masks on n qubits, as (g, basis).

    The span's reduced echelon form (``gf2.Echelon`` on x | z << n) is
    split by symplectic Gram-Schmidt under the commutation form
    omega(s, t) = |x_s & z_t| + |z_s & x_t| (mod 2).  The last row left
    pairs, as (a, b), with the first other row that anticommutes with it,
    and every remaining row is made to commute with both: a is added where
    it anticommutes with b, b where it anticommutes with a.  A row that
    commutes with all the others joins the centre, which is reduced to
    echelon form of its own.  The span has rank 2g + c.  2g, the rank of
    the commutation form on it, is at most twice the rank of its x-masks
    and of its z-masks, so g is at most the r of its coset frame.

    ``basis`` lists each element as (x, z, dual), in the order a_1 ... a_g,
    b_1 ... b_g, then the centre rows.  The dual, packed as x | z << n,
    reads the element's coordinate of a string s of the span as
    |s & dual| mod 2: omega(s, b_i) for a_i, omega(s, a_i) for b_i, and
    for the centre row of pivot p, bit p of s with the pairs' part of s
    taken out.
    """
    mask = (1 << n) - 1
    span = Echelon(sx | sz << n for sx, sz in zip(x, z))
    pool = [(row & mask, row >> n) for row in span.rows.values()]
    pairs, centre = [], Echelon()
    while pool:
        ax, az = pool.pop()
        for j, (bx, bz) in enumerate(pool):
            if ((ax & bz) ^ (az & bx)).bit_count() & 1:
                break
        else:
            centre.add(ax | az << n)
            continue
        bx, bz = pool.pop(j)
        pairs.append((ax, az, bx, bz))
        rest = []
        for sx, sz in pool:
            with_a = ((sx & az) ^ (sz & ax)).bit_count() & 1
            if ((sx & bz) ^ (sz & bx)).bit_count() & 1:
                sx, sz = sx ^ ax, sz ^ az
            if with_a:
                sx, sz = sx ^ bx, sz ^ bz
            rest.append((sx, sz))
        pool = rest
    basis = ([(ax, az, bz | bx << n) for ax, az, bx, bz in pairs]
             + [(bx, bz, az | ax << n) for ax, az, bx, bz in pairs])
    for p, row in centre.rows.items():
        dual = 1 << p
        for ax, az, bx, bz in pairs:
            if (ax | az << n) >> p & 1:
                dual ^= bz | bx << n
            if (bx | bz << n) >> p & 1:
                dual ^= az | ax << n
        basis.append((row & mask, row >> n, dual))
    return len(pairs), basis


def _frame_coordinates(n: int, x: list, z: list, g: int, basis) -> tuple:
    """Each string (x[k], z[k]) in the symplectic frame (g, basis) of its
    sum (``symplectic_frame``), as lists (alpha, column, negative) with one
    entry per string, and the sum's distinct images (gx, gz) by column.

    The string's coordinates select basis elements, and their product in
    basis order is i^e X^x Z^z, e accumulated by the rule of ``times`` on
    Python ints, one string at a time.  Under a_i -> X_i, b_i -> Z_i and
    centre row j -> Z on character bit j, that product becomes X^gx Z^gz on
    g qubits, which is (-i)^|gx & gz| times the string (gx, gz) in its
    Hermitian form i^|gx & gz| X^gx Z^gz.  So the Hermitian string
    i^|x & z| X^x Z^z maps to i^(|x & z| - e - |gx & gz|) = +-1 times its
    image (gx, gz) times the centre's sign; ``negative`` is 2 where that
    factor is -1, else 0.  ``alpha`` holds the centre coordinates and
    ``column`` the image's index among the sum's distinct images.
    """
    low = (1 << g) - 1
    basis = [(bx, bz, (bx & bz).bit_count(), dual, 1 << j)
             for j, (bx, bz, dual) in enumerate(basis)]
    images, alpha, column, negative = {}, [], [], []
    for sx, sz in zip(x, z):
        v = sx | sz << n
        e = az = picked = 0
        for bx, bz, power, dual, bit in basis:
            if (v & dual).bit_count() & 1:
                picked |= bit
                e += power + 2 * (az & bx).bit_count()
                az ^= bz
        gx, gz = picked & low, picked >> g & low
        alpha.append(picked >> 2 * g)
        column.append(images.setdefault((gx, gz), len(images)))
        negative.append(((sx & sz).bit_count() - e - (gx & gz).bit_count())
                        & 2)
    return alpha, column, negative, list(images)
