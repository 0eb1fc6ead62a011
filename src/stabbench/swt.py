"""Iterated Schrieffer-Wolff machinery on exactly materialized Hamiltonians.

Each order solves [H0, A] + V = PV term by term in closed form over the
group of the checks inside each term's strong support (the strong-support
structure makes the local solution exact globally), rotates the
Hamiltonian by the matrix exponential on the invariant coset blocks of
H0's and V's terms (``matrices.CosetFrame``), decomposes the remainder's
Pauli dict, read from its blocks, and routes wide-support terms into an
untracked garbage operator.  The blocks are real whenever H0 and V are
(checks plus X or Z fields), and the step then runs in real arithmetic,
all but the re-expansion: the exponential comes from one ``eigh`` of A^2,
and the conjugation residual, the unitarity defect and the garbage norm
are upper bounds on 2-norms from ``eigvalsh``, with no ``svd``.  Spectral
verification (ground clusters, gaps, splittings) runs through the coset
solver of ``matrices``: every level up to ``matrices.DENSE_MAX_QUBITS``
qubits, the lowest few beyond.  Projector distances are taken on the
coset blocks of the SWT run's frame, with no 2^n x 2^n matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CheckGroup, StabilizerCode, ball, num_logical_qubits
from .flow import kappa_m
from .gf2 import nullspace
from .matrices import (
    CosetFrame,
    code_hamiltonian_dense,
    code_hamiltonian_terms,
    codespace_projector_dense,
    codespace_projector_terms,
    lowest_eigenvalues_sparse,
    pauli_transform,
    refuse_dense,
)
from .pauli import PauliString, columns, commutes, restrict
# solve_generator and its error are re-exported from here.
from .quasilocal import (
    GeneratorConsistencyError,
    QuasiLocalOperator,
    block_diagonal_part,
    checks_inside,
    decompose,
    kappa_norm,
    solve_generator,
)


def _dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().swapaxes(-1, -2)


def _antihermitian_eigh(A: np.ndarray):
    """Eigenvalues and eigenvectors of the Hermitian -iA, so that
    e^{sA} = V diag(e^{i s vals}) V^dagger for every real s; a stack of
    matrices gives a stack of each."""
    M = -1j * A
    return np.linalg.eigh(0.5 * (M + _dagger(M)))


def _expm_antihermitian(A: np.ndarray) -> np.ndarray:
    """e^A for a stack of anti-Hermitian A, as cos(Theta) + A sinc(Theta)
    with Theta^2 = -A^2.  Both are even functions of Theta, so they come
    from one ``eigh`` of the Hermitian A A, real when A is, and A's
    eigenvalue pairs +-i theta are never split.  An A that is not
    anti-Hermitian gives a U that is not unitary, which the step's
    residual reports."""
    A2 = A @ A
    vals, W = np.linalg.eigh(0.5 * (A2 + _dagger(A2)))
    theta = np.sqrt(np.maximum(-vals, 0.0))[..., None, :]
    return (W * np.cos(theta) + (A @ W) * np.sinc(theta / np.pi)) @ _dagger(W)


def _max_norm(blocks: np.ndarray) -> float:
    """Upper bound on the largest 2-norm over a stack of blocks, the 2-norm
    of the operator they make up (the frame change and the coset order are
    unitary): per block, max |``eigvalsh``| of its Hermitian part plus the
    Frobenius norm of its anti-Hermitian part.  On a Hermitian stack the
    second term is zero and the bound is the 2-norm up to rounding."""
    herm = 0.5 * (blocks + _dagger(blocks))
    anti = np.linalg.norm(blocks - herm, axis=(-2, -1))
    vals = np.abs(np.linalg.eigvalsh(herm)).max(axis=-1)
    return float(np.max(vals + anti))


@dataclass
class StepResult:
    d_next: QuasiLocalOperator
    v_next: QuasiLocalOperator
    e_next: np.ndarray   # E on the engine's coset blocks
    generator: QuasiLocalOperator
    unitary: np.ndarray  # e^A on the engine's coset blocks
    conjugation_residual: float


class SwtEngine:
    """Runs exact SWT orders for one code at dense-tractable size.

    Every operator of a run (H0, V, D, the generator, U and the garbage E)
    lies in the algebra of H0's and V's terms, so it maps each coset of the
    frame built from those terms (``matrices.CosetFrame``) into itself.
    The engine holds H0, E and U as the frame's (cosets, 2^r, 2^r) blocks
    and builds D, V and the generator into blocks at each step, float64
    when every term's phase is real and complex128 otherwise
    (``matrices._batched_blocks``); the D and V that a step returns keep
    their blocks for the next step, matched by identity, so each is built
    once per order.  The remainder is re-expanded into Pauli strings from
    its blocks (``matrices.pauli_transform`` with the frame), with no 2^n x
    2^n matrix.  The exponential is e^A = cos(Theta) + A sinc(Theta) from
    one batched ``eigh`` of A A = -Theta^2 (``_expm_antihermitian``), and
    the conjugations are batched matmuls.
    The conjugation residual ||(H0 + D + V + E)_m U - U (H0 + D + V +
    E)_{m+1}||, ``unitarity_defect`` and ``garbage_norm`` are upper bounds
    on 2-norms (``_max_norm``), equal to them up to rounding on stacks that
    are Hermitian in exact arithmetic, as these three are.  V's terms fix
    the frame when the engine is built, and its wide-support terms
    (|S| >= d_s) go straight to garbage: the engine starts from (``v1``,
    ``e1``).  A term outside the frame's span raises ValueError.
    """

    def __init__(self, code: StabilizerCode, v_terms, d_s: int | None = None):
        refuse_dense(code.n)
        self.code = code
        self.d_s = d_s if d_s is not None else code.n + 1
        qlo = v_terms if isinstance(v_terms, QuasiLocalOperator) else decompose(
            v_terms, code
        )
        h0 = columns(code_hamiltonian_terms(code))
        self.frame = CosetFrame(code.n, tuple(
            map(np.concatenate, zip(h0, qlo.full_columns()))))
        self.h0 = self.frame.blocks(h0)
        small, big = [], []
        for t in qlo.terms:
            (small if len(t.support) < self.d_s else big).append(t)
        # (operator, blocks) of the last step's D_{m+1} and V_{m+1}.
        self._built = ()
        self.v1 = QuasiLocalOperator(code, tuple(small))
        self.e1 = self._blocks(QuasiLocalOperator(code, tuple(big)))

    def _blocks(self, op: QuasiLocalOperator) -> np.ndarray:
        for known, blocks in self._built:
            if known is op:
                return blocks
        return self.frame.blocks(op.full_columns())

    def step(self, d_m: QuasiLocalOperator, v_m: QuasiLocalOperator,
             e_m: np.ndarray, pv: QuasiLocalOperator) -> StepResult:
        """One order, given PV = ``block_diagonal_part(v_m)`` and E_m as
        coset blocks.  D_m and V_m reuse the blocks that the last step built
        for the very objects it returned as D_{m+1} and V_{m+1}; any other
        operator is built into blocks here."""
        code = self.code
        a_m = solve_generator(code, v_m)
        d_next = d_m.add(pv)
        U = _expm_antihermitian(self._blocks(a_m))
        Ud = _dagger(U)
        tracked = self.h0 + self._blocks(d_m) + self._blocks(v_m)
        self._built = ()
        d_next_blocks = self._blocks(d_next)
        remainder = Ud @ tracked @ U - self.h0 - d_next_blocks
        rdec = decompose(pauli_transform(remainder, frame=self.frame), code)
        v_next = QuasiLocalOperator(
            code, tuple(t for t in rdec.terms if len(t.support) < self.d_s))
        v_next_blocks = self._blocks(v_next)
        self._built = ((d_next, d_next_blocks), (v_next, v_next_blocks))
        # Garbage absorbs everything not tracked as a small term, including
        # re-expansion dust, so the conjugation identity is exact.
        e_next = (Ud @ e_m @ U) + (remainder - v_next_blocks)
        total_next = self.h0 + d_next_blocks + v_next_blocks + e_next
        # total_next is U^dagger (tracked + E_m) U up to rounding, so
        # multiplying back by U gives zero only when U is unitary.
        residual = _max_norm((tracked + e_m) @ U - U @ total_next)
        return StepResult(d_next, v_next, e_next, a_m, U, residual)


@dataclass
class SWTRunResult:
    orders: int
    v_norms: list          # v_m at kappa_m
    v_tilde_norms: list    # off-diagonal norms at kappa_m
    generator_norms: list  # ||A_m|| at kappa_m
    schedule_sup: float    # max_m 2^m ||A_m||_{kappa1/2}
    conjugation_residuals: list
    d_final: QuasiLocalOperator
    v_final: QuasiLocalOperator
    e_blocks: np.ndarray   # E on the frame's coset blocks
    generators: list
    u_blocks: np.ndarray   # U = e^{A_1} ... on the frame's coset blocks
    frame: CosetFrame
    diverging: bool

    @property
    def unitary(self) -> np.ndarray:
        """U as one 2^n x 2^n matrix, built on each request."""
        return self.frame.full(self.u_blocks)

    @property
    def e_final(self) -> np.ndarray:
        """The garbage E as one 2^n x 2^n matrix, built on each request."""
        return self.frame.full(self.e_blocks)

    def unitarity_defect(self) -> float:
        dim = self.u_blocks.shape[-1]
        return _max_norm(_dagger(self.u_blocks) @ self.u_blocks - np.eye(dim))

    def garbage_norm(self) -> float:
        return _max_norm(self.e_blocks)


def swt_run(code: StabilizerCode, v_terms, m_target: int,
            d_s: int | None = None, kappa1: float = 1.0) -> SWTRunResult:
    """Iterate SWT steps to order m_target, assembling U = e^{A_1} ... .

    Per order records the kappa_m-norms of V_m and its off-diagonal part,
    the generator norms, and the sup over the piecewise generator schedule
    A(t) = 2^m A_m measured at kappa_1/2.  Divergence (three consecutive
    growing v_m) is flagged, not fatal.
    """
    engine = SwtEngine(code, v_terms, d_s=d_s)
    v_m, e_m = engine.v1, engine.e1
    d_m = QuasiLocalOperator(code, ())
    U = np.zeros_like(e_m)
    U[:] = np.eye(U.shape[-1])
    v_norms, vt_norms, a_norms, residuals, gens = [], [], [], [], []
    schedule_sup = 0.0
    for m in range(1, m_target + 1):
        km = kappa_m(kappa1, m)
        v_norms.append(kappa_norm(v_m, km))
        pv, off = block_diagonal_part(v_m, keep_offdiag=True)
        vt_norms.append(kappa_norm(off, km))
        del off
        if m == m_target:
            break
        res = engine.step(d_m, v_m, e_m, pv)
        gens.append(res.generator)
        a_norms.append(kappa_norm(res.generator, km))
        schedule_sup = max(
            schedule_sup,
            2.0 ** m * kappa_norm(res.generator, kappa1 / 2.0),
        )
        residuals.append(res.conjugation_residual)
        U = U @ res.unitary
        d_m, v_m, e_m = res.d_next, res.v_next, res.e_next
    diverging = any(
        v_norms[i] < v_norms[i + 1] < v_norms[i + 2]
        for i in range(len(v_norms) - 2)
    )
    return SWTRunResult(
        orders=m_target,
        v_norms=v_norms,
        v_tilde_norms=vt_norms,
        generator_norms=a_norms,
        schedule_sup=schedule_sup,
        conjugation_residuals=residuals,
        d_final=d_m,
        v_final=v_m,
        e_blocks=e_m,
        generators=gens,
        u_blocks=U,
        frame=engine.frame,
        diverging=diverging,
    )


@dataclass
class SpectralReport:
    epsilon: float
    eigenvalues: np.ndarray
    k: int
    cluster_size: int
    splitting: float            # spread of the detected ground cluster
    gap: float                  # detected cluster to the next level
    splitting_2k: float         # spread of the lowest 2^k states
    gap_after_2k: float
    mode: str
    projector_distance: float | None = None


def identify_ground_cluster(vals: np.ndarray, k: int) -> int:
    """Cluster size = position of the largest gap within the lowest 2^k+1
    levels."""
    limit = min(2 ** k, len(vals) - 1)
    gaps = [vals[c] - vals[c - 1] for c in range(1, limit + 1)]
    return int(np.argmax(gaps)) + 1 if gaps else 1


def spectral_report(
    code: StabilizerCode,
    v_terms,
    epsilon: float,
    num_eigs: int | None = None,
    mode: str = "dense",
    k: int | None = None,
    seed: int = 7,
    swt_result: SWTRunResult | None = None,
) -> SpectralReport:
    """Low-lying spectrum of H0 + eps * V with ground-cluster statistics.

    Both modes take their levels from ``lowest_eigenvalues_sparse``, which
    solves each invariant coset of the terms' x-span separately (densely,
    or by seeded Lanczos on blocks above 2^9 states) and builds no 2^n x 2^n
    matrix.  Dense mode (n <= ``DENSE_MAX_QUBITS``) asks it for all 2^n
    levels, so every coset is solved densely and the full spectrum is
    exact.  Sparse mode takes the lowest ``num_eigs`` levels and skips the
    cosets whose certified cluster floor (``matrices._cluster_floor``, in
    closed form) lies above the levels found; it refuses a coset block or a
    coset count above 2^20 (``matrices.COSET_MAX_DIM``) with ValueError,
    and so does ``pauli.columns`` for a code past 63 qubits, before any
    mask is packed.

    Dense mode alone takes an SWT run; sparse mode refuses one with
    ValueError.  With a run, the distance between the perturbed ground
    projector and the rotated code space U P U^dagger (Bravyi, Hastings and
    Michalakis 2010) is the largest block norm (``_max_norm``) on the coset
    blocks of the run's frame: H, without its terms of coefficient 0, by
    one batched ``eigh``, its 2^k lowest levels over all blocks as the
    ground projector, P from ``codespace_projector_terms`` and U from the
    run.  A term of H outside the frame raises ``CosetFrame.reduce``'s
    ValueError.
    """
    if k is None:
        k = num_logical_qubits(code)
    if num_eigs is None:
        num_eigs = 2 ** k + 4
    if mode == "dense":
        refuse_dense(code.n)
    elif mode != "sparse":
        raise ValueError(f"unknown mode {mode!r}")
    elif swt_result is not None:
        raise ValueError("swt_result requires dense mode")
    h0, v = columns(code_hamiltonian_terms(code)), columns(v_terms)
    terms = tuple(map(np.concatenate, zip(h0, (epsilon * v[0], *v[1:]))))
    vals = lowest_eigenvalues_sparse(
        code.n, terms, k=num_eigs if mode == "sparse" else 1 << code.n,
        seed=seed)
    low = vals[: max(num_eigs, 2 ** k + 1)]
    csize = identify_ground_cluster(low, k)
    splitting = float(low[csize - 1] - low[0])
    gap = float(low[csize] - low[csize - 1]) if csize < len(low) else float("nan")
    splitting_2k = float(low[2 ** k - 1] - low[0]) if len(low) >= 2 ** k else float("nan")
    gap_after_2k = (
        float(low[2 ** k] - low[2 ** k - 1]) if len(low) > 2 ** k else float("nan")
    )
    proj_dist = None
    if swt_result is not None:
        frame = swt_result.frame
        nonzero = terms[0] != 0
        levels, vecs = np.linalg.eigh(
            frame.blocks(tuple(t[nonzero] for t in terms)))
        lowest = np.argsort(levels, axis=None, kind="stable")[:2 ** k]
        ground = np.zeros(levels.shape, dtype=bool)
        ground.flat[lowest] = True
        U = swt_result.u_blocks
        P = frame.blocks(codespace_projector_terms(code))
        proj_dist = _max_norm((vecs * ground[:, None, :]) @ _dagger(vecs)
                              - U @ P @ _dagger(U))
    return SpectralReport(
        epsilon=epsilon,
        eigenvalues=low,
        k=k,
        cluster_size=csize,
        splitting=splitting,
        gap=gap,
        splitting_2k=splitting_2k,
        gap_after_2k=gap_after_2k,
        mode=mode,
        projector_distance=proj_dist,
    )


@dataclass
class LtoReport:
    holds: bool
    counterexample: PauliString | None
    region: frozenset
    candidates_checked: int


def local_indistinguishability_check(
    code: StabilizerCode,
    s,
    r: int,
    region=None,
) -> LtoReport:
    """Test whether every operator supported in S is locally trivial on the
    enlarged region (the r-neighborhood of S unless given explicitly).

    Works symbolically: a Pauli in S that anticommutes with a check inside
    the region is compressed to zero by the local projector, so the only
    candidates are Paulis commuting with all inside checks; such a Pauli
    acts as a scalar on the local ground space iff (up to sign) it is a
    product of inside checks, a pure GF(2) membership question.  Both the
    candidates and the products of inside checks are GF(2) subspaces, so
    the check is exact on a basis of the candidates: it holds iff every
    basis vector reduces to zero against the inside checks, and the first
    basis vector that does not is returned as the counterexample
    (``CheckGroup.spans``).  Raises ValueError for qubits of S or of an
    explicit region outside range(n), and InvalidCodeError when two checks
    inside the region anticommute.
    """
    S = frozenset(s)
    explicit = frozenset(region) if region is not None else frozenset()
    outside = sorted(q for q in S | explicit if not 0 <= q < code.n)
    if outside:
        raise ValueError(f"qubits {outside} lie outside range({code.n})")
    region = ball(code, S, r) if region is None else explicit
    if not S <= region:
        raise ValueError("region must contain S")
    inside = checks_inside(code, region)
    squbits = tuple(sorted(S))
    ns = len(squbits)
    # Unknown Pauli on S: bits (x_0..x_{ns-1}, z_0..z_{ns-1}).  Commutation
    # with check c needs even overlap of x with c.z and z with c.x.
    rows = [r.z | r.x << ns
            for r in (restrict(code.checks[i], squbits) for i in inside)]
    cand_basis = nullspace(rows, 2 * ns)
    group = CheckGroup((code.checks[i] for i in inside), code.n)
    for checked, v in enumerate(cand_basis, 1):
        x = z = 0
        for j, q in enumerate(squbits):
            x |= (v >> j & 1) << q
            z |= (v >> (ns + j) & 1) << q
        p = PauliString(code.n, x, z)
        if not group.spans(p):
            return LtoReport(False, p, region, checked)
    return LtoReport(True, None, region, len(cand_basis))


def operator_locally_trivial(code: StabilizerCode, p: PauliString,
                             region) -> bool:
    """Whether a single Pauli acts as a scalar on the joint +1 space of the
    checks contained in ``region``: it either anticommutes with one of them
    or is (up to sign) a product of them."""
    inside = [code.checks[i] for i in checks_inside(code, frozenset(region))]
    if not all(commutes(c, p) for c in inside):
        return True
    return CheckGroup(inside, code.n).spans(p)


def relative_bound_estimate(code: StabilizerCode, d_matrix: np.ndarray,
                            tol: float = 1e-9):
    """Smallest c with (D - c_D)^2 <= c^2 H0^2 away from the H0 kernel.

    c_D is the codespace expectation of D; when D is not block diagonal
    within tolerance the offset is still the least-squares choice but a
    warning flag is set.  The optimal c comes from a generalized
    eigenproblem restricted to the excited eigenbasis of H0, where H0^2 is
    diagonal, so it is solved as an ordinary one.
    """
    H0 = code_hamiltonian_dense(code)
    P = codespace_projector_dense(code)
    tr = float(np.trace(P).real)
    c_d = float((np.trace(P @ d_matrix) / tr).real)
    off = P @ d_matrix @ (np.eye(d_matrix.shape[0]) - P)
    block_ok = np.linalg.norm(off, 2) <= tol * max(np.linalg.norm(d_matrix, 2), 1.0)
    vals, vecs = np.linalg.eigh(0.5 * (H0 + H0.conj().T))
    sel = vals > 1e-9
    B = vecs[:, sel]
    Dt = d_matrix - c_d * np.eye(d_matrix.shape[0])
    G1 = B.conj().T @ Dt.conj().T @ Dt @ B
    # G1 v = mu G2 v with G2 = diag(vals^2): the same mu as the ordinary
    # problem of G2^(-1/2) G1 G2^(-1/2), every vals[sel] being > 1e-9.
    s = 1.0 / vals[sel]
    gen = np.linalg.eigvalsh(s[:, None] * (0.5 * (G1 + G1.conj().T))
                             * s[None, :])
    c = float(np.sqrt(max(0.0, float(gen[-1]))))
    return c, c_d, block_ok
