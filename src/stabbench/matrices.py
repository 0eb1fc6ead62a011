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
from .pauli import PauliString, multiply


def _z_parity_signs(z: int, dim: int) -> np.ndarray:
    basis = np.arange(dim, dtype=np.int64)
    par = np.bitwise_count(basis & np.int64(z)) & 1
    return 1.0 - 2.0 * par.astype(np.float64)


def pauli_dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Hermitian Pauli string."""
    dim = 1 << p.n
    basis = np.arange(dim, dtype=np.int64)
    phase = p.sign * (1j) ** ((p.x & p.z).bit_count() % 4)
    col_phases = phase * _z_parity_signs(p.z, dim)
    M = np.zeros((dim, dim), dtype=complex)
    M[basis ^ np.int64(p.x), basis] = col_phases
    return M


def operator_dense(n: int, terms) -> np.ndarray:
    """Dense matrix of sum_k coeff_k P_k given (coeff, PauliString) pairs."""
    dim = 1 << n
    basis = np.arange(dim, dtype=np.int64)
    M = np.zeros((dim, dim), dtype=complex)
    for coeff, p in terms:
        phase = coeff * p.sign * (1j) ** ((p.x & p.z).bit_count() % 4)
        M[basis ^ np.int64(p.x), basis] += phase * _z_parity_signs(p.z, dim)
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


def stabilizer_group(code, generators=None) -> list[PauliString]:
    """All signed products of an independent generating set (size 2^rank)."""
    if generators is None:
        generators = [code.checks[i] for i in independent_checks(code)]
    group = [PauliString.identity(code.n)]
    for g in generators:
        group += [multiply(h, g) for h in group]
    return group


def codespace_projector_dense(code) -> np.ndarray:
    """P = prod (I+Q)/2 as the normalized sum over the stabilizer group."""
    group = stabilizer_group(code)
    terms = [(1.0 / len(group), g) for g in group]
    return operator_dense(code.n, terms)


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
    out = {}
    for flat in np.nonzero(np.abs(t) > cutoff)[0]:
        code = int(flat)
        x = z = 0
        # least-significant base-4 digit is the last tensor axis = qubit 0
        for qb in range(n):
            a = code % 4
            code //= 4
            if a in (1, 2):
                x |= 1 << qb
            if a in (2, 3):
                z |= 1 << qb
        out[(x, z)] = complex(t[flat])
    return out


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
                diag += phase * _z_parity_signs(p.z, self.dim)
            elif p.z == 0:
                offdiag.append((basis ^ np.int64(p.x), complex(phase), None))
            else:
                vec = phase * _z_parity_signs(p.z, self.dim)
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
    """Operator 2-norm of a Pauli sum: dense SVD on small patches, Lanczos
    singular-value solve through the matvec on larger ones."""
    terms = list(terms)
    if not terms:
        return 0.0
    if len(terms) == 1:
        return abs(terms[0][0])  # Pauli strings are unitary
    if n <= 12:
        return float(np.linalg.norm(operator_dense(n, terms), 2))
    mv = PauliMatvec(n, terms)
    adj = PauliMatvec(n, [(np.conj(c), p) for c, p in terms])
    op = mv.as_linear_operator(adjoint=adj)
    rng = np.random.default_rng(11)
    v0 = rng.standard_normal(mv.dim)
    try:
        val = spla.svds(op, k=1, return_singular_vectors=False, v0=v0,
                        maxiter=5000)[0]
        return float(val)
    except Exception:
        return float(np.linalg.norm(operator_dense(n, terms), 2))


def lowest_eigenvalues_sparse(
    n: int, terms, k: int, seed: int = 7, tol: float = 0.0, maxiter: int = 50000
) -> np.ndarray:
    """Lowest k eigenvalues of a Pauli-sum Hamiltonian via Lanczos with a
    fixed seeded start vector (deterministic given the seed)."""
    mv = PauliMatvec(n, terms)
    op = mv.as_linear_operator()
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(mv.dim)
    if not mv.is_real:
        v0 = v0 + 1j * rng.standard_normal(mv.dim)
    vals = spla.eigsh(
        op, k=k, which="SA", v0=v0, tol=tol, maxiter=maxiter,
        return_eigenvectors=False,
    )
    return np.sort(vals)


def lowest_eigensystem_dense(H: np.ndarray):
    Hh = 0.5 * (H + H.conj().T)
    vals, vecs = np.linalg.eigh(Hh)
    return vals, vecs
