"""Materialize Pauli sums as dense matrices, CSR matvecs, and transforms.

A Pauli sum enters this module in one column form, a triple (c, x, z) of
numpy arrays: complex coefficients c with each string's sign folded in and
int64 bit masks x and z, row k standing for c_k i^|x_k & z_k| X^x_k Z^z_k.
``pauli.columns`` converts (coeff, PauliString) pairs row for row.

Dense and sparse builds are index-arithmetic based (no Kronecker chains): a
Pauli string acts on a basis state by an XOR permutation plus a Z-parity
phase.  The inverse direction, expanding a dense matrix over the Hermitian
Pauli basis, is a by-qubit tensor transform costing O(n 4^n).

A ``CosetFrame`` splits the basis states into the invariant cosets of a
sum's x-span; the SWT engine and the coset eigensolver work on its blocks,
and ``pauli_transform`` expands a stack of them without the 2^n matrix.
``payload_norm`` norms a whole batch of sums, each in its own symplectic
frame: g anticommuting pairs and a commuting centre of rank c, so that the
sum is a direct sum of 2^c blocks of 2^g x 2^g, and a sum of commuting
strings (g = 0) is normed by a Walsh-Hadamard transform alone.  The
symplectic frames come from ``pauli.symplectic_frame``, the package's one
symplectic Gram-Schmidt, and the coset frames from ``gf2.Echelon`` on one
sum's masks: this module runs no GF(2) elimination of its own.

Coset blocks past ``DENSE_BLOCK_MAX_DIM`` states are solved by a
thick-restart Lanczos in numpy (``_thick_restart_lanczos``; K. Wu and
H. Simon, SIAM J. Matrix Anal. Appl. 22, 602 (2000)) on the block's CSR
matvec, to ARPACK's stopping rule: every wanted Ritz residual at most
tol * max(eps^(2/3), |theta|).  scipy.sparse is imported only for that
matvec (``PauliMatvec``), and no module here loads scipy.sparse.linalg or
scipy.linalg; everything else needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from .code import CheckGroup
from .gf2 import Echelon, _span_table
from .pauli import (I_POWERS, PauliString, _frame_coordinates, columns,
                    hermitian_phase, symplectic_frame)

# Most qubits of a dense 2^n x 2^n matrix (256 MB complex at the limit):
# the limit of every dense build here, of the exact SWT engine, of dense
# spectra and of dense patch algebra.
DENSE_MAX_QUBITS = 12


def _z_parity_signs(z, states: np.ndarray) -> np.ndarray:
    """(-1)^|b & z| for each basis state b of ``states``."""
    par = np.bitwise_count(states & z) & 1
    return 1.0 - 2.0 * par.astype(np.float64)


def _phases(c, x, z) -> np.ndarray:
    """c i^|x & z|: each string's coefficient on X^x Z^z."""
    return c * I_POWERS[np.bitwise_count(x & z) % 4]


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 columns as int64 masks, column j at bit j."""
    return bits @ np.left_shift(1, np.arange(bits.shape[1], dtype=np.int64))


def _gather(masks: np.ndarray, positions) -> np.ndarray:
    """Each mask's bit positions[j] moved to bit j."""
    return _pack((masks[:, None] >> np.asarray(positions, dtype=np.int64)) & 1)


def operator_dense(n: int, terms) -> np.ndarray:
    """Dense matrix of the Pauli sum ``terms`` = (c, x, z) on n qubits."""
    return _batched_blocks(n, terms[1], terms[2], terms[0][None])[0]


def code_hamiltonian_terms(code) -> list:
    """H0 = sum lambda (I - Q)/2 as (coeff, Pauli) pairs including the
    identity offset."""
    n = code.n
    terms = [(sum(code.lambdas) / 2.0, PauliString.identity(n))]
    for lam, q in zip(code.lambdas, code.checks):
        terms.append((-lam / 2.0, q))
    return terms


def code_hamiltonian_dense(code) -> np.ndarray:
    refuse_dense(code.n)
    return operator_dense(code.n, columns(code_hamiltonian_terms(code)))


def refuse_dense(n: int, rows: int = 1) -> None:
    """Raise ValueError when ``rows`` dense 2^n x 2^n matrices would hold
    more entries than one on ``DENSE_MAX_QUBITS`` qubits."""
    if rows << 2 * n > 1 << 2 * DENSE_MAX_QUBITS:
        what = "a dense matrix" if rows == 1 else f"a batch of {rows} matrices"
        raise ValueError(f"{what} on {n} qubits exceeds the limit of "
                         f"{DENSE_MAX_QUBITS}")


def codespace_projector_dense(code) -> np.ndarray:
    """P = prod (I+Q)/2 as the normalized sum over the signed check group
    (``code.CheckGroup``): its 2^rank elements i^e X^x Z^z, each weighted
    i^(e - |x & z|) / 2^rank.  P = 0 when the group holds -I.  Raises
    ValueError past ``DENSE_MAX_QUBITS`` qubits, before the group table of
    up to 2^(n+1) rows is built."""
    refuse_dense(code.n)
    x, z, e = CheckGroup(code.checks, code.n).signed_span()
    c = hermitian_phase(e, x, z) / len(x)
    return operator_dense(code.n, (c, x, z))


_PAULI_T = 0.5 * np.array(
    [
        [1, 0, 0, 1],   # I: E00 + E11
        [0, 1, 1, 0],   # X: E01 + E10
        [0, 1j, -1j, 0],  # Y
        [1, 0, 0, -1],  # Z
    ],
    dtype=complex,
)
# The same table with the Y row times i^-1, real: every block stack is
# expanded over it, and string by string the coefficient is then multiplied
# by i^(number of Y).
_PAULI_T_REAL = (_PAULI_T / np.array([1, 1, 1j, 1])[:, None]).real


def pauli_transform(M: np.ndarray, tol: float = 1e-13, frame=None) -> dict:
    """Expand an operator over Hermitian Pauli strings.

    ``M`` is a dense 2^n x 2^n matrix, or, with ``frame`` (a
    ``CosetFrame``), that frame's (cosets, 2^r, 2^r) block stack of an
    operator (``CosetFrame.blocks``).  Returns {(x_bits, z_bits):
    coefficient} on the n qubits, out of the frame, with entries below
    tol * max|coeff| dropped, in the order of the index (in the frame)
    whose base-4 digit q is the Pauli on qubit q: 0 I, 1 X, 2 Y, 3 Z.
    Exact inverse of ``operator_dense`` and of ``CosetFrame.blocks`` up to
    the pruning threshold.

    Every block is expanded over the r-qubit strings one qubit at a time,
    each Pauli on it a sum of two quarters of the block weighted by
    ``_PAULI_T``, O(r 4^r) per block; a matrix is one block of n qubits.
    Block f (the coset of the rep that carries bit j of f at free qubit j)
    then holds, for each reduced string (m, z'), the sum of
    c (-1)^|rep_f & z| over the strings (x, z) that reduce to it, times
    the sign by which their i-powers differ.  The coset sign depends only
    on the free part zf of z, as (-1)^(f . zf), so one Walsh-Hadamard
    transform over the cosets, times 1/cosets, separates the strings: x is
    the XOR of the rows that m selects, z carries zf on the free qubits,
    and pivot bit j of z is z'_j XOR the parity of row_j & zf (z'_j being
    that parity over all of z).  The twist sign applies where
    |x & z| - |m & z'| = 2 (mod 4), and in the Hadamard frame each (x, z)
    is mapped back as ``_hadamard_frame`` maps it (x and z swapped, c
    negated when |x & z| is odd).  No 2^n x 2^n matrix is built.

    The Y weights are divided by i (``_PAULI_T_REAL``), so a real ``M`` is
    expanded in float64 and a complex one by real scalings, and each kept
    coefficient is multiplied back by i^(number of Y).  Multiplying by +-i
    or +-1 is exact and commutes with the real weights, so a real M gives
    (==) the coefficients of M cast to complex, entry for entry.
    """
    if frame is None:
        dim = M.shape[0]
        n = dim.bit_length() - 1
        if dim != 1 << n or M.shape != (dim, dim):
            raise ValueError(
                "matrix must be square with power-of-two dimension")
        M, r, hadamard = M[None], n, False
        rows = pivots = np.left_shift(1, np.arange(n, dtype=np.int64))
        free = np.zeros(0, dtype=np.int64)
    else:
        n, r, hadamard = frame.n, frame.r, frame.hadamard
        shape = (1 << (n - r), 1 << r, 1 << r)
        if M.shape != shape:
            raise ValueError(f"blocks of shape {M.shape}; the {frame.name} "
                             f"frame has {shape}")
        rows = frame.row_masks
        pivots = np.left_shift(1, np.array(frame.pivots, dtype=np.int64))
        free = np.left_shift(1, np.array(frame.free, dtype=np.int64))
    cosets, dim = len(M), 1 << r
    # Axes (coset, row bits, column bits, Paulis): each step splits off the
    # highest row and column bit left, qubit q, and appends the Pauli on q,
    # so the Paulis end up with qubit 0 last.
    dtype = np.result_type(M.dtype, np.float64)
    t = np.asarray(M, dtype=dtype).reshape(cosets, dim, dim, 1)
    for _ in range(r):
        dim //= 2
        pair = t.reshape(cosets, 2, dim, 2, -1)
        # Entry k of a row of _PAULI_T_REAL weighs the (row bit, column
        # bit) quarter (k >> 1, k & 1); each row has two nonzero entries.
        quarters = [pair[:, k >> 1, :, k & 1] for k in range(4)]
        t = np.empty(quarters[0].shape + (4,), dtype=dtype)
        for p, row in enumerate(_PAULI_T_REAL):
            k1, k2 = np.flatnonzero(row)
            t[..., p] = row[k1] * quarters[k1] + row[k2] * quarters[k2]
        t = t.reshape(cosets, dim, dim, -1)
    t = t.reshape(cosets, -1)
    if cosets > 1:
        # With no qubit contracted (r = 0), t may share the memory of M.
        t = _butterflies(t if r else t.copy())
        t *= 1.0 / cosets
    size = np.abs(t)
    f, flat = np.nonzero(size > tol * max(np.max(size), 1.0))
    # Base-4 digit j of the flat index (least significant = last tensor
    # axis = qubit 0) is the Pauli on qubit j: its high bit is the z bit,
    # and the x bit is the XOR of its two bits.
    m = np.zeros_like(flat)
    zr = np.zeros_like(flat)
    for j in range(r):
        high = (flat >> (2 * j + 1)) & 1
        m |= (((flat >> (2 * j)) & 1) ^ high) << j
        zr |= high << j
    x = _span_table(rows)[m]
    zf = _span_table(free)[f]
    z = zf | _span_table(pivots)[
        zr ^ _pack(np.bitwise_count(zf[:, None] & rows) & 1)]
    # i^(number of Y) restores the Y weights divided out of _PAULI_T_REAL.
    c = t[f, flat] * I_POWERS[np.bitwise_count(m & zr) % 4]
    negate = (np.bitwise_count(x & z) - np.bitwise_count(m & zr)) % 4 != 0
    if hadamard:
        negate ^= (np.bitwise_count(x & z) & 1).astype(bool)
    c = np.where(negate, -c, c)
    order = np.argsort(_digit_index(x, z, n), kind="stable")
    x, z, c = x[order], z[order], c[order]
    if hadamard:
        x, z = z, x
    return dict(zip(zip(x.tolist(), z.tolist()), c.tolist()))


def _digit_index(x, z, n: int) -> np.ndarray:
    """The index of ``pauli_transform``'s order for strings (x, z) on n
    qubits, as uint64: base-4 digit q is 2 z_q + (x_q XOR z_q)."""
    index = np.zeros(len(x), dtype=np.uint64)
    low, high = (x ^ z).astype(np.uint64), z.astype(np.uint64)
    for q in map(np.uint64, range(n)):
        index |= ((low >> q & 1) | (high >> q & 1) << 1) << 2 * q
    return index


class PauliMatvec:
    """H @ psi for a Pauli sum (c, x, z) through one prebuilt CSR matrix.

    Row r holds one entry per distinct x-mask of the terms, at column
    r ^ x, with value sum phase (-1)^|(r ^ x) & z| over the terms with that
    mask, where phase = c i^|x & z|.  The Z-type terms (x = 0) fold into
    the first entry of every row, the diagonal.  The data is float64 when
    every phase is real (``is_real``), complex128 otherwise; indices and
    indptr are int32 unless the entry count needs int64.  The CSR arrays
    are filled in place, one x-mask at a time, and then sorted by column
    within each row.  Calling the object is the matvec that every Lanczos
    solve of this module goes through.
    """

    def __init__(self, n: int, terms):
        import scipy.sparse as sps

        _, x, z = terms
        self.n = n
        self.dim = dim = 1 << n
        phases = _phases(*terms)
        self.is_real = not phases.imag.any()
        if self.is_real:
            phases = phases.real
        masks, slot = np.unique(x, return_inverse=True)  # x = 0 first
        width = len(masks)
        index = np.int32 if dim * width <= np.iinfo(np.int32).max else np.int64
        data = np.zeros((dim, width), dtype=phases.dtype)
        indices = np.empty((dim, width), dtype=index)
        basis = np.arange(dim, dtype=np.int64)
        for j, mask in enumerate(masks):
            cols = basis ^ mask
            indices[:, j] = cols
            for k in np.flatnonzero(slot == j):
                data[:, j] += phases[k] * _z_parity_signs(z[k], cols)
        self.matrix = sps.csr_array(
            (data.reshape(-1), indices.reshape(-1),
             width * np.arange(dim + 1, dtype=index)),
            shape=(dim, dim))
        self.matrix.sort_indices()

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.matrix @ psi


def _batched_blocks(r: int, x, z, weights: np.ndarray) -> np.ndarray:
    """Dense r-qubit matrices sum_k weights[j, k] i^|x_k & z_k| X^x_k Z^z_k,
    one per row j of ``weights``, as one (rows, 2^r, 2^r) array.

    One pass per distinct x-mask: the strings on that mask fill the same
    entries, at rows b ^ x of every column b.  Their Z-parity signs come as
    one table per chunk of strings, and their terms are summed one string
    after another in the input order (``np.add.accumulate``, never a
    pairwise reduction, the running sum carried from chunk to chunk), so
    every entry is the same sum, rounded the same way, as adding the
    strings one at a time.  A chunk holds as many strings as keep its
    terms within the output's size or 2^16 entries, whichever is larger.

    The blocks are float64 when every phase weights[j, k] i^|x_k & z_k| is
    real, as for any real-symmetric sum (Y x Y strings included), and
    complex128 otherwise.  A real phase times a sign has a zero imaginary
    part, so the float64 blocks equal the real parts of the complex build
    bit for bit.

    Raises ValueError when the batch holds more entries than one dense
    matrix on ``DENSE_MAX_QUBITS`` qubits, before anything of that size is
    built.
    """
    refuse_dense(r, len(weights))
    dim = 1 << r
    basis = np.arange(dim, dtype=np.int64)
    phases = _phases(weights, x, z).T  # (strings, rows)
    if not phases.imag.any():
        phases = phases.real
    out = np.zeros((len(weights), dim, dim), dtype=phases.dtype)
    order = np.argsort(x, kind="stable")
    masks, starts = np.unique(x[order], return_index=True)
    step = max(out.size, 1 << 16) // (max(len(weights), 1) * dim)
    for mask, group in zip(masks.tolist(), np.split(order, starts[1:])):
        acc = np.zeros((len(weights), dim), dtype=phases.dtype)
        for lo in range(0, len(group), step):
            ks = group[lo:lo + step]
            terms = (phases[ks, :, None]
                     * _z_parity_signs(z[ks, None], basis)[:, None])
            terms[0] += acc
            acc = np.add.accumulate(terms, axis=0, out=terms)[-1]
        out[:, basis ^ mask, basis] = acc
    return out


# Invariant blocks up to this dimension are diagonalized densely (exact,
# all levels); larger ones run Lanczos.  For the lowest 8 levels of a field
# chain on a 2-vCPU host, dense eigvalsh took 7 ms at 2^8 states against
# 10 ms for Lanczos, 26 ms against 16 ms at 2^9, and 0.8 s against 26 ms
# at 2^11.
DENSE_BLOCK_MAX_DIM = 1 << 9
# Largest residual ||Hv - lambda v|| accepted from a Lanczos eigenpair: the
# tolerance to which eigenvalues are compared downstream.
RESIDUAL_TOL = 1e-8
# Most states in one invariant block, and most cosets, of a frame whose
# representatives ``CosetFrame.representatives`` lists: a Lanczos vector of
# 2^20 complex states takes 16 MB, and the representatives and floors 8 MB
# each.
COSET_MAX_DIM = 1 << 20
# Least number of Lanczos basis vectors (ARPACK's default ncv is
# max(2k + 1, 20)), and most cycles of one solve: the first basis fill and
# one after each thick restart, as ARPACK's maxiter counts them.  A 2^15
# block of toric L = 4 under an X field takes up to 68 cycles for 8 levels
# at eps = 0.1 and 600 at eps = 0.001, so the cap only stops a runaway.
LANCZOS_BASIS = 20
LANCZOS_MAX_CYCLES = 50000
# DGKS: a second Gram-Schmidt pass when the reorthogonalization pass of a
# Lanczos step leaves less than 1/sqrt(2) of what the three-term recurrence
# (or the arrowhead pass) left.  A new vector of which the step leaves less
# than _BREAKDOWN of ||H v_j||, taken before the recurrence, lies in the
# basis' span, at rounding level.
_DGKS = 1.0 / np.sqrt(2.0)
_BREAKDOWN = 1e-12


def _hadamard_frame(terms) -> tuple:
    """Conjugate every term by a Hadamard on all qubits.  X and Z swap, and
    H Y H = -Y multiplies c by (-1)^|x & z|; the spectrum is kept.  The map
    is its own inverse."""
    c, x, z = terms
    return np.where(np.bitwise_count(x & z) & 1, -c, c), z, x


def _walsh_hadamard(M: np.ndarray) -> np.ndarray:
    """H^(x n) M for a matrix of 2^n rows, H = [[1, 1], [1, -1]] / sqrt(2),
    O(n 2^n) per column (``_butterflies`` on a copy).  A real M stays real,
    its result equal to that of M cast to complex."""
    out = _butterflies(np.array(M, dtype=np.result_type(M.dtype, float)))
    out *= 1.0 / np.sqrt(len(out))
    return out


def _butterflies(out: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of the 2^n rows of
    ``out``, in place: one butterfly per qubit.  Each reshape only splits
    the row axis, so it is a view for any contiguous array."""
    dim = out.shape[0]
    half = 1
    while half < dim:
        t = out.reshape(dim // (2 * half), 2, half, -1)
        low = t[:, 0].copy()
        t[:, 0] += t[:, 1]
        low -= t[:, 1]
        t[:, 1] = low
        half *= 2
    return out


class CosetFrame:
    """The invariant cosets of the x-span of a Pauli sum (c, x, z).

    The sum maps a basis state b only to states b ^ x with x in the span S
    of the terms' x-masks, so each coset of S is an invariant block of
    2^r states, r = rank(S), and so does every sum of strings whose x-masks
    lie in S, products and exponentials of such sums included.  The frame
    with the smaller span is used: when the z-masks have the lower rank,
    every term is conjugated by a Hadamard on all qubits first
    (``_hadamard_frame``), which keeps the spectrum and the singular values.

    S is held in reduced echelon form: ``pivots`` (the lowest bit of each
    row, in increasing order), ``row_masks`` and the ``free`` qubits, those
    of no pivot.  Both spans are reduced by ``gf2.Echelon`` on the sum's
    distinct masks as Python ints.  The coset representatives are the
    states with zero pivot bits, and a state of the coset of rep is
    rep ^ (XOR of the rows its local index picks).
    Term (c, x, z) then maps local index l to l ^ m, with m the rows that
    make up x, times (-1)^|rep & z| and the phase of the r-qubit string
    (m, z'), where bit j of z' is the parity of row j & z.  m.z' = x.z
    (mod 2), so the two strings' i-powers differ by a sign, folded into the
    reduced coefficient.  ``pauli_transform(blocks, frame=frame)`` inverts
    ``blocks`` on the block stack itself; ``scatter`` and ``full`` build
    the 2^n x 2^n matrix only for a caller that asks for it.
    """

    def __init__(self, n: int, terms):
        xs, zs = (Echelon(dict.fromkeys(m.tolist())).rows for m in terms[1:])
        self.hadamard = len(zs) < len(xs)
        form = sorted((zs if self.hadamard else xs).items())
        self.n, self.r = n, len(form)
        self.pivots = [p for p, _ in form]
        self.row_masks = np.array([row for _, row in form], dtype=np.int64)
        self.free = [i for i in range(n) if i not in self.pivots]

    @property
    def name(self) -> str:
        return "hadamard" if self.hadamard else "identity"

    def reduce(self, terms) -> tuple:
        """The sum (c, x, z) in the frame, and its reduced r-qubit strings
        (c', m, z'), both as (c, x, z): bit j of m is bit pivot_j of x, bit
        j of z' the parity of row_j & z, and c' carries the sign by which
        the i-powers of (x, z) and (m, z') differ.  Raises ValueError when
        a term's x-mask in the frame lies outside the span."""
        c, x, z = _hadamard_frame(terms) if self.hadamard else terms
        bits = np.left_shift(1, np.array(self.pivots, dtype=np.int64))
        m = _pack((x[:, None] & bits) != 0)
        zr = _pack(np.bitwise_count(z[:, None] & self.row_masks) & 1)
        # 0 or 2: bitwise_count is uint8, and its wrap-around keeps the
        # difference mod 4.
        twist = (np.bitwise_count(x & z) - np.bitwise_count(m & zr)) % 4
        picked = (m[:, None] >> np.arange(self.r)) & 1
        spanned = np.bitwise_xor.reduce(
            np.where(picked, self.row_masks, 0), axis=1)
        if np.any(spanned != x):
            k = int(np.flatnonzero(spanned != x)[0])
            raise ValueError(
                f"term {k} (x = {int(x[k])}, z = {int(z[k])} in "
                f"the {self.name} frame) lies outside the frame's span")
        return (c, x, z), (np.where(twist, -c, c), m, zr)

    def representatives(self) -> np.ndarray:
        """All 2^(n-r) coset representatives, rep i carrying bit j of i at
        free qubit j.  Refused with ValueError, before the list is built,
        past ``COSET_MAX_DIM`` cosets or states per coset."""
        if max(1 << self.r, 1 << (self.n - self.r)) > COSET_MAX_DIM:
            raise ValueError(
                f"{self.n} qubits split into 2^{self.n - self.r} cosets of "
                f"2^{self.r} states; more than {COSET_MAX_DIM} of either is "
                "refused")
        return _span_table(np.left_shift(1, np.array(self.free,
                                                     dtype=np.int64)))

    def blocks(self, terms) -> np.ndarray:
        """The (cosets, 2^r, 2^r) blocks of the sum (c, x, z) in the frame,
        in the order of ``representatives``: one ``_batched_blocks`` call,
        with the coset signs (-1)^|rep & z| as one weight row per coset."""
        framed, (c, m, zr) = self.reduce(terms)
        reps = self.representatives()
        return _batched_blocks(
            self.r, m, zr, c * _z_parity_signs(framed[2], reps[:, None]))

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """The 2^n x 2^n matrix, in the frame, whose coset blocks are
        ``blocks``."""
        states = self.representatives()[:, None] ^ _span_table(self.row_masks)
        out = np.zeros((1 << self.n, 1 << self.n), dtype=blocks.dtype)
        out[states[:, :, None], states[:, None, :]] = blocks
        return out

    def full(self, blocks: np.ndarray) -> np.ndarray:
        """The operator with these blocks as one 2^n x 2^n matrix out of
        the frame: the scattered matrix, conjugated in the Hadamard frame
        by a Walsh-Hadamard transform of its rows and columns, O(n 4^n)."""
        out = self.scatter(blocks)
        if self.hadamard:
            out = _walsh_hadamard(_walsh_hadamard(out).T).T
        return out


def payload_norm(sums) -> np.ndarray:
    """Operator 2-norms of Pauli sums [(n, (c, x, z)), ...], Hermitian or
    not, as one float64 array.

    Each sum is normed in its own symplectic frame
    (``pauli.symplectic_frame``): its strings span g anticommuting pairs
    (a_i, b_i) and a centre of rank c that commutes with everything.  A
    Clifford unitary maps a_i to X_i, b_i to Z_i and the centre to Z on c
    further qubits, so the sum is unitarily the direct sum, over the 2^c
    characters chi of the centre, of the 2^g x 2^g blocks
    B_chi = sum_k w_k (-1)^(chi . alpha_k) P_k, where string k has centre
    coordinates alpha_k, image P_k on g qubits and coefficient w_k, its
    own up to a sign (``pauli._frame_coordinates``).
    One unnormalized Walsh-Hadamard transform over alpha of each image's
    coefficients (``_butterflies``, one array for every sum of a batch
    with the same c) gives every character's row of weights at once.
    A sum of commuting strings (g = 0) has 1 x 1 blocks, so its norm is
    the largest |entry| of the transform, with no block and no eigensolver.
    Otherwise its blocks come from one ``_batched_blocks`` call and its
    norm is their largest singular value: by ``svd`` in general, by
    ``eigvalsh`` when the sum is Hermitian or anti-Hermitian.  A sum counts
    as such when every imaginary (or every real) part is at most
    1e-14 max|c|, rounding dust from a transform; that part is dropped and
    its sum |c| added to the norm, which keeps the value an upper bound.
    An empty sum has norm 0 and a single string |c|.  A sum's norm does
    not depend on the rest of the batch, bit for bit.

    Neither the number of qubits nor the number of cosets sets a limit:
    0.5 (X_0 + Z_1 + ... + Z_13) on 14 qubits (g = 0, c = 14) has norm 7.
    Raises ValueError, naming c and g, when a sum's characters and blocks
    would hold more entries than one dense matrix on ``DENSE_MAX_QUBITS``
    qubits (2^c 4^g > 4^12); every sum is checked before any block or
    character array is built.
    """
    sizes = np.array([len(t[0]) for _, t in sums], dtype=np.int64)
    c, x, z = map(np.concatenate, zip(columns(()), *(t for _, t in sums)))
    norms = np.zeros(len(sums))
    first = np.cumsum(sizes) - sizes
    for i in np.flatnonzero(sizes == 1):  # Pauli strings are unitary
        # A scalar abs: np.abs of a complex array may differ in the last bit.
        norms[i] = abs(c[first[i]])
    multi = np.flatnonzero(sizes > 1)
    if not multi.size:
        return norms
    keep = np.repeat(sizes > 1, sizes)
    c, x, z = c[keep], x[keep], z[keep]
    lengths = sizes[multi]
    seg = np.repeat(np.arange(len(multi)), lengths)
    starts = np.cumsum(lengths) - lengths

    dust = 1e-14 * np.maximum.reduceat(np.abs(c), starts)
    herm = np.maximum.reduceat(np.abs(c.imag), starts) <= dust
    anti = ~herm & (np.maximum.reduceat(np.abs(c.real), starts) <= dust)
    general = ~herm & ~anti
    weights = np.where(herm[seg], c.real, c.imag)
    dropped = np.where(herm[seg], c.imag, c.real)
    extra = np.add.reduceat(np.where(general[seg], 0.0, np.abs(dropped)),
                            starts)
    if general.any():
        weights = np.where(general[seg], c, weights)

    # Every frame, and every refusal, before any array of a sum's size.
    # Sums of one centre rank c share an array of 2^c character rows, one
    # column per distinct image, opened anew where a sum would take it past
    # the entries of one dense matrix on DENSE_MAX_QUBITS qubits.
    xs, zs = x.tolist(), z.tolist()
    g, images, array, offset, shapes = [], [], [], [], []
    alpha, column, negative = [], [], []
    open_array = {}  # centre rank -> index of the array that takes its sums
    for i, a, b in zip(multi.tolist(), starts.tolist(),
                       (starts + lengths).tolist()):
        pairs, basis = symplectic_frame(sums[i][0], xs[a:b], zs[a:b])
        rank = len(basis) - 2 * pairs
        if rank + 2 * pairs > 2 * DENSE_MAX_QUBITS:
            raise ValueError(
                f"{b - a} strings split into 2^{rank} characters (c = "
                f"{rank}) of 2^{pairs} x 2^{pairs} blocks (g = {pairs}), "
                f"more entries than one dense matrix on {DENSE_MAX_QUBITS} "
                "qubits")
        place = _frame_coordinates(sums[i][0], xs[a:b], zs[a:b], pairs,
                                   basis)
        alpha += place[0]
        column += place[1]
        negative += place[2]
        images.append(place[3])
        g.append(pairs)
        k = open_array.get(rank)
        if k is None or ((shapes[k][1] + len(place[3])) << rank
                         > 1 << 2 * DENSE_MAX_QUBITS):
            k = open_array[rank] = len(shapes)
            shapes.append([1 << rank, 0])
        array.append(k)
        offset.append(shapes[k][1])
        shapes[k][1] += len(place[3])
    g, array, offset = np.array(g), np.array(array), np.array(offset)
    alpha = np.array(alpha, dtype=np.int64)
    column = np.array(column, dtype=np.int64) + offset[seg]
    weights = np.where(np.array(negative, dtype=bool), -weights, weights)

    found = np.zeros(len(multi))
    for k, shape in enumerate(shapes):
        members = np.flatnonzero(array == k)
        mine = array[seg] == k
        rows = np.zeros(shape, dtype=weights.dtype)
        np.add.at(rows, (alpha[mine], column[mine]), weights[mine])
        _butterflies(rows)
        diagonal = members[g[members] == 0]
        found[diagonal] = np.abs(rows[:, offset[diagonal]]).max(axis=0)
        for j in members[g[members] > 0].tolist():
            gx, gz = np.array(images[j], dtype=np.int64).T
            blocks = _batched_blocks(int(g[j]), gx, gz, rows[
                :, offset[j]:offset[j] + len(images[j])])
            if general[j]:
                found[j] = np.linalg.svd(blocks, compute_uv=False).max()
            else:
                found[j] = np.abs(np.linalg.eigvalsh(blocks)).max()
    norms[multi] = found + extra
    return norms


def _random_vector(rng, dim: int, real: bool) -> np.ndarray:
    """A standard normal vector of ``dim`` entries drawn from ``rng``; a
    complex one draws its real part first, then its imaginary part."""
    v = rng.standard_normal(dim)
    return v if real else v + 1j * rng.standard_normal(dim)


def _fresh_vector(rng, V: np.ndarray) -> np.ndarray:
    """A unit vector drawn from ``rng`` (``_random_vector``) and
    orthogonalized twice against the orthonormal rows of V."""
    w = _random_vector(rng, V.shape[1], np.isrealobj(V))
    for _ in range(2):
        _project_out(V, w)
    return w / np.linalg.norm(w)


def _project_out(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its components along the orthonormal rows
    of V by classical Gram-Schmidt; returns the coefficients V^H w, taken
    as (V w^*)^* so that V is never copied conjugated."""
    h = (V @ w.conj()).conj()
    w -= h @ V
    return h


def _thick_restart_lanczos(matvec, v0: np.ndarray, k: int, tol: float, rng):
    """The k lowest eigenpairs (values ascending, vectors as rows) of the
    Hermitian operator ``matvec`` on len(v0) > k states, from the start
    vector v0, by Lanczos with thick restarts (K. Wu and H. Simon, SIAM J.
    Matrix Anal. Appl. 22, 602 (2000)).

    The basis holds m = min(dim, max(2k + 1, ``LANCZOS_BASIS``)) vectors,
    ARPACK's default, and the projected matrix T (tridiagonal, with an
    arrowhead after a restart) is solved by ``numpy.linalg.eigh``.  A step
    from v_j first subtracts the known couplings, as TRLan does: the
    three-term recurrence alpha_j = <v_j, H v_j>, w = H v_j - beta_(j-1)
    v_(j-1) - alpha_j v_j, or on the first step after a restart one
    classical Gram-Schmidt pass over the whole basis, which takes the
    arrowhead row.  One classical Gram-Schmidt pass over the whole basis
    then reorthogonalizes w, with the DGKS second pass only where it left
    less than 1/sqrt(2) of w's norm after the recurrence; the passes'
    components along v_j are added to alpha_j = T[j, j], the rest dropped.
    As the recurrence has already removed most of H v_j, the second pass
    is rare (in the solves measured it ran only where the span was
    invariant): one full pass per step where a pass on H v_j itself nearly
    always needed two (rep16 under a 0.3 X field: 446 passes for 428
    matvecs, against 832).  A full basis stops the solve when every wanted
    Ritz value theta has residual |beta_m y_m| <= tol * max(eps^(2/3),
    |theta|), ARPACK's rule; otherwise its lowest Ritz vectors and the
    residual vector restart it, as many Ritz vectors as ARPACK keeps: k,
    plus one per converged level up to (m - k) // 2, or m // 2 for k = 1
    (on toric L = 4 at eps = 0.001 a fixed k + (m - k) // 2 took 2.6 times
    the matvecs).  Where a new vector lies in the span of the basis (less
    than ``_BREAKDOWN`` of ||H v_j|| left; against the recurrence's
    residual the test would never fire), the span is invariant: a fresh
    vector drawn from ``rng`` and orthogonalized against the basis
    continues it with coupling 0, as ARPACK's ``dgetv0`` does, so a
    repeated level keeps its multiplicity.  Each new vector is written in
    place into the basis.  Raises ArithmeticError past
    ``LANCZOS_MAX_CYCLES`` basis fills.
    """
    dim = len(v0)
    m = min(dim, max(2 * k + 1, LANCZOS_BASIS))
    eps23 = np.finfo(float).eps ** (2 / 3)
    V = np.empty((m + 1, dim), dtype=v0.dtype)
    V[0] = v0 / np.linalg.norm(v0)
    T = np.zeros((m + 1, m + 1))
    start = 0
    for _ in range(LANCZOS_MAX_CYCLES):
        for j in range(start, m):
            w = matvec(V[j])
            norm = np.linalg.norm(w)
            if j == start > 0:  # the arrowhead row: a full pass
                T[j, j] = _project_out(V[:j + 1], w)[j].real
            else:  # the three-term recurrence
                T[j, j] = np.vdot(V[j], w).real
                low = max(j - 1, 0)
                w -= T[j, low:j + 1] @ V[low:j + 1]
            left = np.linalg.norm(w)
            T[j, j] += _project_out(V[:j + 1], w)[j].real
            beta = np.linalg.norm(w)
            if beta < _DGKS * left:
                T[j, j] += _project_out(V[:j + 1], w)[j].real
                beta = np.linalg.norm(w)
            if j + 1 < m and beta <= _BREAKDOWN * norm:  # invariant span
                beta, V[j + 1] = 0.0, _fresh_vector(rng, V[:j + 1])
            else:  # the last residual is kept; w = 0 where beta = 0
                np.divide(w, beta or 1.0, out=V[j + 1])
            T[j, j + 1] = T[j + 1, j] = beta
        theta, Y = np.linalg.eigh(T[:m, :m])
        coupling = beta * Y[-1]
        converged = (np.abs(coupling[:k])
                     <= tol * np.maximum(eps23, np.abs(theta[:k])))
        if np.all(converged):
            return theta[:k], Y[:, :k].T @ V[:m]
        start = (m // 2 if k == 1 else
                 k + min(int(np.count_nonzero(converged)), (m - k) // 2))
        V[:start] = Y[:, :start].T @ V[:m]
        V[start] = V[m]
        T[:] = 0.0
        T[:start, :start] = np.diag(theta[:start])
        T[start, :start] = T[:start, start] = coupling[:start]
    raise ArithmeticError(
        f"Lanczos on {dim} states did not converge in "
        f"{LANCZOS_MAX_CYCLES} cycles")


def _lanczos_block(r: int, terms, k: int, rng) -> np.ndarray:
    """Lowest k eigenvalues of an r-qubit Pauli sum by seeded thick-restart
    Lanczos (Wu and Simon 2000; ``_thick_restart_lanczos``) on its
    ``PauliMatvec``, from a start vector drawn from ``rng``.

    The solver stops, as ARPACK does, when every wanted Ritz residual
    estimate is at most tol * max(eps^(2/3), |theta|).  Every Ritz value has
    |theta| <= sum |c|, so tol = RESIDUAL_TOL / (10 max(1, sum |c|)) stops
    it a factor ten inside the gate.  The gate still recomputes each
    residual ||Hv - lambda v|| and raises ArithmeticError when one exceeds
    ``RESIDUAL_TOL``.
    """
    mv = PauliMatvec(r, terms)
    v0 = _random_vector(rng, mv.dim, mv.is_real)
    tol = RESIDUAL_TOL / (10.0 * max(1.0, sum(np.abs(terms[0]).tolist())))
    vals, vecs = _thick_restart_lanczos(mv, v0, k, tol, rng)
    for lam, vec in zip(vals, vecs):
        residual = float(np.linalg.norm(mv(vec) - lam * vec))
        if not residual <= RESIDUAL_TOL:
            raise ArithmeticError(
                f"Lanczos eigenpair {lam!r} on a 2^{r} block has residual "
                f"{residual:.3g} > {RESIDUAL_TOL:g}"
            )
    return vals


def _cluster_floor(n: int, terms, reduced) -> float:
    """Lower bound on the non-constant part of the sum on every coset.

    One cluster per term whose reduced string flips states (x != 0); every
    other non-constant term is split evenly between the clusters whose
    support (in the chosen frame) contains its own, and one in no cluster
    counts -|c|.  Each cluster's operator maps every coset into itself, so
    its minimum on any coset is at least its lowest eigenvalue over the
    whole space, taken densely as a Pauli sum on the cluster's support
    qubits (P. W. Anderson, Phys. Rev. 83, 1260 (1951)).  A cluster whose
    support spans more than ``DENSE_BLOCK_MAX_DIM`` states counts -sum |c|
    of its share instead.  Every lowest eigenvalue is at least -sum |c| of
    its share, so the bound is never below -sum |c| of the terms.
    """
    c, x, z = terms
    _, m, zr = reduced
    support = x | z
    cores = np.flatnonzero(m)
    members = [[(c[k], k)] for k in cores]  # (share of c, term)
    floor = 0.0
    for k in np.flatnonzero((m == 0) & (zr != 0)):
        hosts = np.flatnonzero((support[cores] & support[k]) == support[k])
        if not len(hosts):
            floor -= abs(c[k])
        for j in hosts:  # complex(): each part divided, not times 1/len
            members[j].append((complex(c[k]) / len(hosts), k))
    for core, cluster in zip(cores, members):
        share, idx = map(np.array, zip(*cluster))
        if 1 << int(np.bitwise_count(support[core])) > DENSE_BLOCK_MAX_DIM:
            floor -= sum(np.abs(share).tolist())
            continue
        qubits = np.flatnonzero((support[core] >> np.arange(n)) & 1)
        M = _batched_blocks(len(qubits), _gather(x[idx], qubits),
                            _gather(z[idx], qubits), share[None])[0]
        floor += np.linalg.eigvalsh(M)[0]
    return floor


def _coset_floors(n: int, terms, reduced, reps) -> np.ndarray:
    """Floor under every eigenvalue of each coset block: the terms constant
    on the coset plus the cluster floor of the others (``_cluster_floor``)."""
    floors = np.full(len(reps), _cluster_floor(n, terms, reduced))
    c, m, zr = reduced
    for k in np.flatnonzero((m == 0) & (zr == 0)):
        floors += c[k].real * _z_parity_signs(terms[2][k], reps)
    return floors


def lowest_eigenvalues_sparse(n: int, terms, k: int,
                              seed: int = 7) -> np.ndarray:
    """Lowest k eigenvalues of a Pauli-sum Hamiltonian (c, x, z), sorted,
    solved one invariant coset at a time (``CosetFrame``); k = 2^n gives
    the exact full spectrum, every block solved densely, with no 2^n x 2^n
    matrix.

    Terms whose reduced string is the identity are constant on a coset.
    Their sum there plus a cluster floor of the other terms
    (``_cluster_floor``: the lowest eigenvalues of small clusters of terms,
    each a flipping term with its share of the diagonal terms on its
    support) is a certified floor under every eigenvalue of the block.
    Blocks are visited by rising floor until the next floor reaches the
    k-th lowest level found so far, since no block at or above it can
    change the k lowest values.  On the coset with representative rep the
    block is the reduced strings with c (-1)^|rep & z|.

    A block of dimension up to ``DENSE_BLOCK_MAX_DIM``, or with fewer than
    k + 2 states, is diagonalized densely.  A larger one runs Lanczos from
    a start vector drawn from ``seed`` (deterministic given the seed) and
    raises ArithmeticError when an eigenpair's residual exceeds
    ``RESIDUAL_TOL``.  With one coset this is a Lanczos solve over all 2^n
    states.  Raises ValueError when a block or the number of cosets exceeds
    ``COSET_MAX_DIM``, or when a block to be diagonalized densely has more
    than ``DENSE_MAX_QUBITS`` qubits.
    """
    if not 1 <= k <= 1 << n:
        raise ValueError(f"k = {k} is outside 1..2^{n}")
    frame = CosetFrame(n, terms)
    reps = frame.representatives()
    terms, (c, m, zr) = frame.reduce(terms)
    r = frame.r
    floors = _coset_floors(n, terms, (c, m, zr), reps)

    rng = np.random.default_rng(seed)
    levels = np.empty(0)
    for i in np.argsort(floors, kind="stable"):
        if len(levels) == k and floors[i] >= levels[-1]:
            break
        block = (c * _z_parity_signs(reps[i], terms[2]), m, zr)
        if 1 << r <= DENSE_BLOCK_MAX_DIM or k >= (1 << r) - 1:
            vals = np.linalg.eigvalsh(operator_dense(r, block))[:k]
        else:
            vals = _lanczos_block(r, block, k, rng)
        levels = np.sort(np.concatenate([levels, vals]))[:k]
    return levels
