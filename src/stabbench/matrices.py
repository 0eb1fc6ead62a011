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
strings (g = 0) is normed by a Walsh-Hadamard transform alone.  Every
frame comes from ``gf2.Echelon`` on one sum's masks: this module runs no
GF(2) elimination of its own.

scipy is imported only where a Lanczos solve runs (``PauliMatvec`` and
``_lanczos_block``); everything else here needs numpy alone.
"""

from __future__ import annotations

import numpy as np

from .code import CheckGroup
from .gf2 import Echelon, _span_table
from .pauli import I_POWERS, PauliString, columns

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
    c = I_POWERS[(e - np.bitwise_count(x & z)) % 4] / len(x)
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
    t = np.asarray(M, dtype=complex).reshape(cosets, dim, dim, 1)
    for _ in range(r):
        dim //= 2
        pair = t.reshape(cosets, 2, dim, 2, -1)
        # Entry k of a row of _PAULI_T weighs the (row bit, column bit)
        # quarter (k >> 1, k & 1); each row has two nonzero entries.
        quarters = [pair[:, k >> 1, :, k & 1] for k in range(4)]
        t = np.empty(quarters[0].shape + (4,), dtype=complex)
        for p, row in enumerate(_PAULI_T):
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
    c = t[f, flat]
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

    def as_linear_operator(self):
        """This matvec as a ``scipy.sparse.linalg.LinearOperator``."""
        import scipy.sparse.linalg as spla

        return spla.LinearOperator((self.dim, self.dim), matvec=self,
                                   dtype=self.matrix.dtype)


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

    def representatives(self, single: bool = False) -> np.ndarray:
        """The coset representatives: all 2^(n-r), rep i carrying bit j of
        i at free qubit j, or with ``single`` only the n - r of one free
        bit (reps 2^j of the full list).  The full list is refused with
        ValueError, before it is built, past ``COSET_MAX_DIM`` cosets or
        states per coset."""
        single_reps = np.left_shift(1, np.array(self.free, dtype=np.int64))
        if single:
            return single_reps
        if max(1 << self.r, 1 << (self.n - self.r)) > COSET_MAX_DIM:
            raise ValueError(
                f"{self.n} qubits split into 2^{self.n - self.r} cosets of "
                f"2^{self.r} states; more than {COSET_MAX_DIM} of either is "
                "refused")
        return _span_table(single_reps)

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

    Each sum is normed in its own symplectic frame (``_symplectic_frame``):
    its strings span g anticommuting pairs (a_i, b_i) and a centre of rank
    c that commutes with everything.  A Clifford unitary maps a_i to X_i,
    b_i to Z_i and the centre to Z on c further qubits, so the sum is
    unitarily the direct sum, over the 2^c characters chi of the centre,
    of the 2^g x 2^g blocks B_chi = sum_k w_k (-1)^(chi . alpha_k) P_k,
    where string k has centre coordinates alpha_k, image P_k on g qubits
    and coefficient w_k, its own up to a sign (``_frame_coordinates``).
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
        pairs, basis = _symplectic_frame(sums[i][0], xs[a:b], zs[a:b])
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


def _symplectic_frame(n: int, x: list, z: list) -> tuple:
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
    sum (``_symplectic_frame``), as lists (alpha, column, negative) with
    one entry per string, and the sum's distinct images (gx, gz) by column.

    The string's coordinates select basis elements, and their product in
    basis order is i^e X^x Z^z, e accumulated by the rule of
    ``quasilocal._times``.  Under a_i -> X_i, b_i -> Z_i and centre row j
    -> Z on character bit j, that product becomes X^gx Z^gz on g qubits,
    which is (-i)^|gx & gz| times the string (gx, gz) in its Hermitian form
    i^|gx & gz| X^gx Z^gz.  So the Hermitian string i^|x & z| X^x Z^z maps
    to i^(|x & z| - e - |gx & gz|) = +-1 times its image (gx, gz) times
    the centre's sign; ``negative`` is 2 where that factor is -1, else 0.
    ``alpha`` holds the centre coordinates and ``column`` the image's
    index among the sum's distinct images.
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


def _lanczos_block(r: int, terms, k: int, rng) -> np.ndarray:
    """Lowest k eigenvalues of an r-qubit Pauli sum by seeded Lanczos.

    ARPACK stops when every Ritz residual estimate is at most
    tol * max(eps^(2/3), |theta|).  Every Ritz value has |theta| <= sum |c|,
    so tol = RESIDUAL_TOL / (10 max(1, sum |c|)) stops it a factor ten
    inside the gate.  The gate still recomputes each residual
    ||Hv - lambda v|| and raises ArithmeticError when one exceeds
    ``RESIDUAL_TOL``.
    """
    import scipy.sparse.linalg as spla

    mv = PauliMatvec(r, terms)
    v0 = rng.standard_normal(mv.dim)
    if not mv.is_real:
        v0 = v0 + 1j * rng.standard_normal(mv.dim)
    tol = RESIDUAL_TOL / (10.0 * max(1.0, sum(np.abs(terms[0]).tolist())))
    vals, vecs = spla.eigsh(mv.as_linear_operator(), k=k, which="SA", v0=v0,
                            tol=tol, maxiter=50000)
    for j, lam in enumerate(vals):
        residual = float(np.linalg.norm(mv(vecs[:, j]) - lam * vecs[:, j]))
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
