"""Materialize Pauli sums as dense matrices, fast matvecs, and transforms.

Dense work is index-arithmetic based (no Kronecker chains): a Pauli string
acts on a basis state by an XOR permutation plus a Z-parity phase.  The
inverse direction, expanding a dense matrix over the Hermitian Pauli basis,
is a by-qubit tensor transform costing O(n 4^n).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .gf2 import Echelon
from .pauli import PauliString, multiply, restrict


def _z_parity_signs(z: int, states: np.ndarray) -> np.ndarray:
    """(-1)^|b & z| for each basis state b of ``states``."""
    par = np.bitwise_count(states & np.int64(z)) & 1
    return 1.0 - 2.0 * par.astype(np.float64)


def operator_dense(n: int, terms) -> np.ndarray:
    """Dense matrix of sum_k coeff_k P_k given (coeff, PauliString) pairs."""
    dim = 1 << n
    basis = np.arange(dim, dtype=np.int64)
    M = np.zeros((dim, dim), dtype=complex)
    for coeff, p in terms:
        phase = coeff * p.sign * (1j) ** ((p.x & p.z).bit_count() % 4)
        M[basis ^ np.int64(p.x), basis] += phase * _z_parity_signs(p.z, basis)
    return M


def code_hamiltonian_terms(code) -> list:
    """H0 = sum lambda (I - Q)/2 as (coeff, Pauli) pairs including the
    identity offset."""
    n = code.n
    terms = [(sum(code.lambdas) / 2.0, PauliString.identity(n))]
    for lam, q in zip(code.lambdas, code.checks):
        terms.append((-lam / 2.0, q))
    return terms


def code_hamiltonian_dense(code) -> np.ndarray:
    return operator_dense(code.n, code_hamiltonian_terms(code))


def independent_checks(code) -> list[int]:
    """Indices of a maximal independent subset of the check list."""
    basis = Echelon()
    return [
        i for i, c in enumerate(code.checks) if basis.add(c.x | (c.z << code.n))
    ]


def codespace_projector_dense(code) -> np.ndarray:
    """P = prod (I+Q)/2 as the normalized sum over the stabilizer group:
    the 2^rank signed products of an independent set of checks."""
    group = [PauliString.identity(code.n)]
    for i in independent_checks(code):
        group += [multiply(h, code.checks[i]) for h in group]
    return operator_dense(code.n, [(1.0 / len(group), g) for g in group])


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
    """Fast H @ psi for a real-coefficient Pauli sum.

    Z-type terms fold into one diagonal; terms with an X component apply an
    XOR permutation with a per-basis phase vector (constant when z = 0).
    """

    def __init__(self, n: int, terms):
        self.n = n
        self.dim = 1 << n
        basis = np.arange(self.dim, dtype=np.int64)
        diag = np.zeros(self.dim, dtype=complex)
        offdiag = []
        for coeff, p in terms:
            phase = coeff * p.sign * (1j) ** ((p.x & p.z).bit_count() % 4)
            if p.x == 0:
                diag += phase * _z_parity_signs(p.z, basis)
            elif p.z == 0:
                offdiag.append((basis ^ np.int64(p.x), complex(phase), None))
            else:
                vec = phase * _z_parity_signs(p.z, basis)
                offdiag.append((basis ^ np.int64(p.x), None, vec))
        self.is_real = bool(
            np.max(np.abs(diag.imag)) < 1e-14
            and all(
                (c is None or abs(c.imag) < 1e-14)
                and (v is None or np.max(np.abs(v.imag)) < 1e-14)
                for _, c, v in offdiag
            )
        )
        if self.is_real:
            self.diag = diag.real
            self.offdiag = [
                (idx, c.real if c is not None else None,
                 v.real if v is not None else None)
                for idx, c, v in offdiag
            ]
        else:
            self.diag = diag
            self.offdiag = offdiag

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        out = self.diag * psi
        for idx, const, vec in self.offdiag:
            if const is not None:
                out += const * psi[idx]
            else:
                out += (vec * psi)[idx]
        return out

    def as_linear_operator(self, adjoint: "PauliMatvec | None" = None
                           ) -> spla.LinearOperator:
        dtype = np.float64 if self.is_real else np.complex128
        return spla.LinearOperator(
            (self.dim, self.dim), matvec=self,
            rmatvec=adjoint if adjoint is not None else None, dtype=dtype
        )


def payload_norm(n: int, terms) -> float:
    """Operator 2-norm of a Pauli sum, Hermitian or not.

    Up to n = 12 the sum is split into its invariant cosets
    (``_coset_split``).  Cosets whose signs (-1)^(c.z) agree on every term
    carry the same block, so one block per distinct sign pattern is built,
    all in one batch, and the norm is the largest singular value over them:
    by ``eigvalsh`` when every coefficient is real (Hermitian blocks) or
    every one imaginary (anti-Hermitian), by ``svd`` otherwise.

    Above n = 12 a Lanczos singular-value solve runs through the matvec;
    it raises ArithmeticError when that solve fails, because a dense
    fallback would need a 2^n x 2^n matrix (4 GB at n = 14).
    """
    terms = list(terms)
    if not terms:
        return 0.0
    if len(terms) == 1:
        return abs(terms[0][0])  # Pauli strings are unitary
    if n <= 12:
        terms, reduced, reps, r = _coset_split(n, terms)
        coeffs = np.array([c for c, _ in terms], dtype=complex)
        z = np.array([p.z for _, p in terms], dtype=np.int64)
        flips = np.unique(np.bitwise_count(reps[:, None] & z) & 1, axis=0)
        blocks = _batched_blocks(r, reduced, coeffs * (1.0 - 2.0 * flips))
        if not coeffs.imag.any() or not coeffs.real.any():
            if coeffs.imag.any():
                blocks *= -1j  # anti-Hermitian -> Hermitian, same norm
            vals = np.linalg.eigvalsh(blocks if blocks.imag.any()
                                      else blocks.real)
        else:
            vals = np.linalg.svd(blocks, compute_uv=False)
        return float(np.max(np.abs(vals)))
    mv = PauliMatvec(n, terms)
    adj = PauliMatvec(n, [(np.conj(c), p) for c, p in terms])
    op = mv.as_linear_operator(adjoint=adj)
    rng = np.random.default_rng(11)
    v0 = rng.standard_normal(mv.dim)
    try:
        val = spla.svds(op, k=1, return_singular_vectors=False, v0=v0,
                        maxiter=5000)[0]
    except spla.ArpackError as err:
        raise ArithmeticError(
            f"payload_norm: the Lanczos norm solve failed on n = {n} qubits "
            f"and a dense 2^{n} x 2^{n} fallback is refused"
        ) from err
    return float(val)


def _batched_blocks(r: int, strings, weights: np.ndarray) -> np.ndarray:
    """Dense r-qubit matrices sum_k weights[j, k] strings[k], one per row j
    of ``weights``, as one (rows, 2^r, 2^r) array."""
    dim = 1 << r
    basis = np.arange(dim, dtype=np.int64)
    out = np.zeros((len(weights), dim, dim), dtype=complex)
    for k, q in enumerate(strings):
        phase = q.sign * (1j) ** ((q.x & q.z).bit_count() % 4)
        out[:, basis ^ np.int64(q.x), basis] += (
            (phase * weights[:, k])[:, None] * _z_parity_signs(q.z, basis))
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
# Most states in one invariant block, and most cosets, that ``_coset_split``
# accepts: a Lanczos vector of 2^20 complex states takes 16 MB, and the
# coset representatives and floors 8 MB each.
COSET_MAX_DIM = 1 << 20


def _hadamard_frame(terms) -> list:
    """Conjugate every term by a Hadamard on all qubits.  X and Z swap, and
    H Y H = -Y multiplies the sign by (-1)^|x & z|; the spectrum is kept."""
    return [
        (c, PauliString(p.n, p.z, p.x,
                        -p.sign if (p.x & p.z).bit_count() % 2 else p.sign))
        for c, p in terms
    ]


def _reduced_term(p: PauliString, rows: dict, pivots: list) -> PauliString:
    """The string that p acts as on every coset of the x-span.

    A state of the coset with representative c is c ^ (XOR of the rows
    picked by its local index l).  p maps l to l ^ m, where m picks the rows
    that make up p.x, with the phase (-1)^(c.z) times that of the r-qubit
    string (m, z') whose bit j is the parity of row j & p.z.  m.z' = x.z
    (mod 2), so the two strings' i-powers differ by a sign.
    """
    m = zr = 0
    for j, pivot in enumerate(pivots):
        m |= ((p.x >> pivot) & 1) << j
        zr |= ((rows[pivot] & p.z).bit_count() & 1) << j
    twist = ((p.x & p.z).bit_count() - (m & zr).bit_count()) % 4
    return PauliString(len(pivots), m, zr, -p.sign if twist else p.sign)


def _coset_split(n: int, terms):
    """Split a Pauli sum into the invariant cosets of its x-span.

    The sum maps a basis state b only to states b ^ x with x in the span S
    of the terms' x-masks, so each coset of S is an invariant block of
    2^r states, r = rank(S).  The frame with the smaller such span is used:
    when the z-masks have the lower rank, every term is conjugated by a
    Hadamard on all qubits first, which keeps the spectrum and the singular
    values.  On the coset with representative c, term (coeff, p) acts as
    (-1)^(c.z) coeff times its reduced r-qubit string (``_reduced_term``).

    Returns the terms in the chosen frame, their reduced strings, the coset
    representatives (every state with zero pivot bits) and r.  Raises
    ValueError, before anything of that size is built, when a block or the
    number of cosets would exceed ``COSET_MAX_DIM``.
    """
    rows = Echelon(p.x for _, p in terms).rows
    z_rows = Echelon(p.z for _, p in terms).rows
    if len(z_rows) < len(rows):
        terms, rows = _hadamard_frame(terms), z_rows
    r = len(rows)
    if max(1 << r, 1 << (n - r)) > COSET_MAX_DIM:
        raise ValueError(
            f"{n} qubits split into 2^{n - r} cosets of 2^{r} states; more "
            f"than {COSET_MAX_DIM} of either is refused")
    pivots = sorted(rows)
    reduced = [_reduced_term(p, rows, pivots) for _, p in terms]
    free = [i for i in range(n) if i not in rows]
    index = np.arange(1 << len(free), dtype=np.int64)
    reps = np.zeros_like(index)
    for j, bit in enumerate(free):
        reps |= ((index >> j) & 1) << bit
    return terms, reduced, reps, r


def _lanczos_block(r: int, terms, k: int, rng) -> np.ndarray:
    """Lowest k eigenvalues of an r-qubit Pauli sum by seeded Lanczos, run
    to machine precision (``tol=0``).

    Raises ArithmeticError when an eigenpair's residual ||Hv - lambda v||
    exceeds ``RESIDUAL_TOL``.
    """
    mv = PauliMatvec(r, terms)
    v0 = rng.standard_normal(mv.dim)
    if not mv.is_real:
        v0 = v0 + 1j * rng.standard_normal(mv.dim)
    vals, vecs = spla.eigsh(mv.as_linear_operator(), k=k, which="SA", v0=v0,
                            tol=0.0, maxiter=50000)
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
    cores = [(c, p) for (c, p), q in zip(terms, reduced) if q.x]
    supports = np.array([p.x | p.z for _, p in cores], dtype=np.int64)
    members = [[core] for core in cores]
    floor = 0.0
    for (c, p), q in zip(terms, reduced):
        if q.x or not q.z:  # a cluster's core, or constant on every coset
            continue
        support = np.int64(p.x | p.z)
        hosts = np.flatnonzero((supports & support) == support)
        if not len(hosts):
            floor -= abs(c)
        for j in hosts:
            members[j].append((c / len(hosts), p))
    for support, cluster in zip(supports.tolist(), members):
        if 1 << support.bit_count() > DENSE_BLOCK_MAX_DIM:
            floor -= sum(abs(c) for c, _ in cluster)
            continue
        qubits = [i for i in range(n) if (support >> i) & 1]
        strings = [restrict(p, qubits) for _, p in cluster]
        weights = np.array([[c for c, _ in cluster]])
        M = _batched_blocks(len(qubits), strings, weights)[0]
        floor += np.linalg.eigvalsh(M if M.imag.any() else M.real)[0]
    return floor


def _coset_floors(n: int, terms, reduced, reps) -> np.ndarray:
    """Floor under every eigenvalue of each coset block: the terms constant
    on the coset plus the cluster floor of the others (``_cluster_floor``)."""
    floors = np.full(len(reps), _cluster_floor(n, terms, reduced))
    for (c, p), q in zip(terms, reduced):
        if q.x == 0 and q.z == 0:
            floors += (c * q.sign).real * _z_parity_signs(p.z, reps)
    return floors


def lowest_eigenvalues_sparse(n: int, terms, k: int,
                              seed: int = 7) -> np.ndarray:
    """Lowest k eigenvalues of a Pauli-sum Hamiltonian, sorted, solved one
    invariant coset at a time (``_coset_split``); k = 2^n gives the exact
    full spectrum, every block solved densely, with no 2^n x 2^n matrix.

    Terms whose reduced string is the identity are constant on a coset.
    Their sum there plus a cluster floor of the other terms
    (``_cluster_floor``: the lowest eigenvalues of small clusters of terms,
    each a flipping term with its share of the diagonal terms on its
    support) is a certified floor under every eigenvalue of the block.
    Blocks are visited by rising floor until the next floor reaches the
    k-th lowest level found so far, since no block at or above it can
    change the k lowest values.

    A block of dimension up to ``DENSE_BLOCK_MAX_DIM``, or with fewer than
    k + 2 states, is diagonalized densely.  A larger one runs Lanczos from
    a start vector drawn from ``seed`` (deterministic given the seed) and
    raises ArithmeticError when an eigenpair's residual exceeds
    ``RESIDUAL_TOL``.  With one coset this is a Lanczos solve over all 2^n
    states.  Raises ValueError when a block or the number of cosets exceeds
    ``COSET_MAX_DIM``.
    """
    terms = list(terms)
    if not 1 <= k <= 1 << n:
        raise ValueError(f"k = {k} is outside 1..2^{n}")
    terms, reduced, reps, r = _coset_split(n, terms)
    floors = _coset_floors(n, terms, reduced, reps)

    rng = np.random.default_rng(seed)
    levels = np.empty(0)
    for i in np.argsort(floors, kind="stable"):
        if len(levels) == k and floors[i] >= levels[-1]:
            break
        rep = int(reps[i])
        block = [
            (-c if (rep & p.z).bit_count() % 2 else c, q)
            for (c, p), q in zip(terms, reduced)
        ]
        if 1 << r <= DENSE_BLOCK_MAX_DIM or k >= (1 << r) - 1:
            M = operator_dense(r, block)
            vals = np.linalg.eigvalsh(M if M.imag.any() else M.real)[:k]
        else:
            vals = _lanczos_block(r, block, k, rng)
        levels = np.sort(np.concatenate([levels, vals]))[:k]
    return levels
