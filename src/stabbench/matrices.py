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
sum's x-span; the SWT engine, operator norms and the coset eigensolver all
work on its blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .code import CheckGroup
from .gf2 import Echelon, _span_table, _words
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


def pauli_transform(M: np.ndarray, tol: float = 1e-13) -> dict:
    """Expand a dense matrix over Hermitian Pauli strings.

    Returns {(x_bits, z_bits): coefficient} with entries below
    tol * max|coeff| dropped.  Exact inverse of ``operator_dense`` up to
    the pruning threshold.
    """
    dim = M.shape[0]
    n = dim.bit_length() - 1
    if dim != 1 << n or M.shape != (dim, dim):
        raise ValueError("matrix must be square with power-of-two dimension")
    if n == 0:
        val = complex(M[0, 0])
        return {(0, 0): val} if abs(val) > tol else {}
    t = np.asarray(M, dtype=complex).reshape((2,) * (2 * n))
    for j in range(n):
        t = np.moveaxis(t, n - j, 1)
        t = t.reshape((4,) + t.shape[2:])
        t = np.tensordot(_PAULI_T, t, axes=([1], [0]))
        t = np.moveaxis(t, 0, -1)
    # Axis j of the result indexes the Pauli on qubit n-1-j.
    t = t.reshape(-1)
    cutoff = tol * max(np.max(np.abs(t)), 1.0)
    flat = np.nonzero(np.abs(t) > cutoff)[0]
    # Base-4 digit qb of the flat index (least significant = last tensor
    # axis = qubit 0) is the Pauli on qubit qb: 0 I, 1 X, 2 Y, 3 Z.  Its
    # high bit is the z bit, and the x bit is the XOR of its two bits.
    x = np.zeros_like(flat)
    z = np.zeros_like(flat)
    for qb in range(n):
        high = (flat >> (2 * qb + 1)) & 1
        x |= (((flat >> (2 * qb)) & 1) ^ high) << qb
        z |= high << qb
    return dict(zip(zip(x.tolist(), z.tolist()), t[flat].tolist()))


def terms_from_transform(n: int, coeffs: dict) -> list:
    return [(c, PauliString(n, x, z)) for (x, z), c in coeffs.items()]


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

    def as_linear_operator(self) -> spla.LinearOperator:
        return spla.LinearOperator((self.dim, self.dim), matvec=self,
                                   dtype=self.matrix.dtype)


def _sign_rows(z, single) -> np.ndarray:
    """The distinct rows of signs (-1)^|rep & z_k| over the coset
    representatives: linear in rep, so the ``gf2._span_table`` of the rows
    of the representatives with one free bit, ``single``."""
    bits = np.bitwise_count(single[:, None] & z) & 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    basis = list(Echelon(int.from_bytes(row.tobytes(), "little")
                         for row in packed).rows.values())
    if len(basis) > DENSE_MAX_QUBITS:
        raise ValueError(
            f"{len(z)} terms take 2^{len(basis)} distinct coset signs, "
            f"more than 2^{DENSE_MAX_QUBITS}")
    table = _span_table(_words(basis, len(z)))
    bits = np.unpackbits(table.view(np.uint8), axis=1, count=len(z),
                         bitorder="little")
    return 1.0 - 2.0 * bits


def payload_norm(n: int, terms) -> float:
    """Operator 2-norm of a Pauli sum (c, x, z), Hermitian or not.

    The sum is split into the invariant cosets of a ``CosetFrame``.  Cosets
    whose signs (-1)^|rep & z| agree on every term carry the same block, so
    one block per distinct sign pattern (``_sign_rows``) is built, all in
    one batch, and the norm is the largest singular value over them: by
    ``svd`` in general, by ``eigvalsh`` when the sum is Hermitian or
    anti-Hermitian.  A sum counts as such when every imaginary (or every
    real) part is at most 1e-14 max|c|, rounding dust from a transform;
    that part is dropped and its sum |c| added to the norm, which keeps
    the value an upper bound.

    Only the n - r representatives with one free bit are built, so the
    number of cosets sets no limit.  Raises ValueError before anything of
    that size is built: past 2^``DENSE_MAX_QUBITS`` sign patterns, and for a
    batch of blocks larger than one dense matrix on ``DENSE_MAX_QUBITS``
    qubits.  Neither fires up to that many qubits.
    """
    if not terms[0].size:
        return 0.0
    if terms[0].size == 1:
        return float(abs(terms[0][0]))  # Pauli strings are unitary
    frame = CosetFrame(n, terms)
    (_, _, z), (c, rx, rz) = frame.reduce(terms)
    signs = _sign_rows(z, frame.representatives(single=True))
    dust = 1e-14 * np.max(np.abs(c))
    if np.max(np.abs(c.imag)) <= dust:
        kept, dropped = c.real, c.imag  # Hermitian
    elif np.max(np.abs(c.real)) <= dust:
        kept, dropped = c.imag, c.real  # i times Hermitian
    else:
        blocks = _batched_blocks(frame.r, rx, rz, c * signs)
        return float(np.max(np.linalg.svd(blocks, compute_uv=False)))
    blocks = _batched_blocks(frame.r, rx, rz, kept * signs)
    vals = np.linalg.eigvalsh(blocks)
    # The dropped part has norm at most its sum |c|.
    return float(np.max(np.abs(vals)) + np.sum(np.abs(dropped)))


def _batched_blocks(r: int, x, z, weights: np.ndarray) -> np.ndarray:
    """Dense r-qubit matrices sum_k weights[j, k] i^|x_k & z_k| X^x_k Z^z_k,
    one per row j of ``weights``, as one (rows, 2^r, 2^r) array.

    One pass per distinct x-mask: the strings on that mask fill the same
    entries, at rows b ^ x of every column b.  Their Z-parity signs come as
    one table per chunk of 2^r strings, and their terms are summed one
    string after another in the input order (``np.add.accumulate``, never a
    pairwise reduction), so every entry is the same sum, rounded the same
    way, as adding the strings one at a time.  No temporary holds more
    entries than the output.

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
    for mask, group in zip(masks.tolist(), np.split(order, starts[1:])):
        acc = np.zeros((len(weights), dim), dtype=phases.dtype)
        for lo in range(0, len(group), dim):
            ks = group[lo:lo + dim]
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
    """H^(x n) M for a matrix of 2^n rows, H = [[1, 1], [1, -1]] / sqrt(2):
    one in-place butterfly per qubit, O(n 2^n) per column.  Each reshape
    only splits the row axis, so it is a view of the copy for any layout."""
    dim = M.shape[0]
    out = np.array(M, dtype=complex)
    half = 1
    while half < dim:
        t = out.reshape(dim // (2 * half), 2, half, -1)
        low = t[:, 0].copy()
        t[:, 0] += t[:, 1]
        low -= t[:, 1]
        t[:, 1] = low
        half *= 2
    out /= np.sqrt(dim)
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
    row), ``row_masks`` and the ``free`` qubits, those of no pivot.  The
    coset representatives are the states with zero pivot bits, and a state
    of the coset of rep is rep ^ (XOR of the rows its local index picks).
    Term (c, x, z) then maps local index l to l ^ m, with m the rows that
    make up x, times (-1)^|rep & z| and the phase of the r-qubit string
    (m, z'), where bit j of z' is the parity of row j & z.  m.z' = x.z
    (mod 2), so the two strings' i-powers differ by a sign, folded into the
    reduced coefficient.
    """

    def __init__(self, n: int, terms):
        # The reduced echelon form of a span is unique, so each distinct
        # mask is inserted once.
        rows = Echelon(np.unique(terms[1]).tolist()).rows
        z_rows = Echelon(np.unique(terms[2]).tolist()).rows
        self.hadamard = len(z_rows) < len(rows)
        if self.hadamard:
            rows = z_rows
        self.n, self.r = n, len(rows)
        self.pivots = sorted(rows)
        self.row_masks = np.array([rows[p] for p in self.pivots],
                                  dtype=np.int64)
        self.free = [i for i in range(n) if i not in rows]

    @property
    def name(self) -> str:
        return "hadamard" if self.hadamard else "identity"

    def reduce(self, terms) -> tuple:
        """The sum (c, x, z) in the frame, and its reduced r-qubit strings
        (c', m, z'), both as (c, x, z).  Raises ValueError when a term's
        x-mask in the frame lies outside the span."""
        if self.hadamard:
            terms = _hadamard_frame(terms)
        c, x, z = terms
        m = _gather(x, self.pivots)
        rows = (self.row_masks[:, None] >> np.arange(self.n)) & 1
        spanned = _pack(((m[:, None] >> np.arange(self.r)) & 1) @ rows & 1)
        if np.any(spanned != x):
            k = int(np.flatnonzero(spanned != x)[0])
            raise ValueError(
                f"term {k} (x = {int(terms[1][k])}, z = {int(terms[2][k])} in "
                f"the {self.name} frame) lies outside the frame's span")
        zr = _pack(np.bitwise_count(z[:, None] & self.row_masks) & 1)
        # 0 or 2: bitwise_count is uint8, and its wrap-around keeps the
        # difference mod 4.
        twist = (np.bitwise_count(x & z) - np.bitwise_count(m & zr)) % 4
        return terms, (np.where(twist, -c, c), m, zr)

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

    def pauli_terms(self, blocks: np.ndarray) -> list:
        """(coeff, PauliString) pairs, out of the frame, of the operator
        with these blocks: ``pauli_transform`` of the scattered matrix, in
        the Hadamard frame with each (x, z) mapped back as
        ``_hadamard_frame`` maps it (x and z swapped, the coefficient
        negated when |x & z| is odd)."""
        coeffs = pauli_transform(self.scatter(blocks))
        if self.hadamard:
            coeffs = {(z, x): -c if (x & z).bit_count() & 1 else c
                      for (x, z), c in coeffs.items()}
        return terms_from_transform(self.n, coeffs)


def _lanczos_block(r: int, terms, k: int, rng) -> np.ndarray:
    """Lowest k eigenvalues of an r-qubit Pauli sum by seeded Lanczos.

    ARPACK stops when every Ritz residual estimate is at most
    tol * max(eps^(2/3), |theta|).  Every Ritz value has |theta| <= sum |c|,
    so tol = RESIDUAL_TOL / (10 max(1, sum |c|)) stops it a factor ten
    inside the gate.  The gate still recomputes each residual
    ||Hv - lambda v|| and raises ArithmeticError when one exceeds
    ``RESIDUAL_TOL``.
    """
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
