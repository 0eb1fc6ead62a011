"""Syndrome-resolved quasi-local operators.

An operator is a sum of local terms keyed by (strong support S, syndrome s):
every Pauli in a term's payload acts inside S, shares the syndrome s, and
every check that anticommutes with the payload lies inside S.  The strong
support assigned here is the canonical minimal choice

    S(P) = support(P)  union  supports of all checks flipped by P,

which makes the key unique per Pauli and the decomposition exact.

A patch is the region S as a small code of its own (``_patch_code``): the
checks inside S, restricted to the qubits of S with ``pauli.restrict``,
with their lambdas.  The block split of a term is a closed form over the
signed group G_S of those checks, P_S = 2^-r sum_{g in G_S} g, computed on
int64 columns of patch bits.  The dense projector P_S and patch
Hamiltonian H_S are the code-level builders of ``matrices`` applied to
the patch code, kept as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .code import StabilizerCode, syndrome_of
from .gf2 import BitVector
from .matrices import (
    code_hamiltonian_dense,
    codespace_projector_dense,
    independent_checks,
    operator_dense,
    payload_norm,
)
from .pauli import (
    PauliString,
    commutes,
    multiply_phase,
    power_of_i,
    restrict,
    signed_span,
)

PATCH_LIMIT = 14  # norm evaluations refuse patches beyond 2^14 dimensions
DENSE_PATCH_LIMIT = 12  # patch algebra (projectors, splits, solves)
DROP_TOL = 1e-14  # summed coefficients at or below this are dropped


class PatchTooLargeError(ValueError):
    pass


def _expand_columns(bits: np.ndarray, positions: tuple[int, ...]) -> list:
    """Patch masks lifted to full qubit indices, as Python ints."""
    dtype = np.int64 if max(positions, default=0) < 63 else object
    weights = np.array([1 << pos for pos in positions], dtype=dtype)
    return (((bits[:, None] >> np.arange(len(positions))) & 1)
            @ weights).tolist()


@dataclass(frozen=True)
class LocalTerm:
    """Weighted Pauli sum with a declared strong support and syndrome."""

    n: int
    support: frozenset
    syndrome: BitVector
    paulis: tuple  # of (complex coeff, PauliString)

    @property
    def patch_qubits(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

    def patch_paulis(self) -> list:
        qubits = self.patch_qubits
        return [(coeff, restrict(p, qubits)) for coeff, p in self.paulis]

    def patch_matrix(self) -> np.ndarray:
        if len(self.support) > DENSE_PATCH_LIMIT:
            raise PatchTooLargeError(
                f"patch on {len(self.support)} qubits exceeds the dense limit"
            )
        return operator_dense(len(self.support), self.patch_paulis())

    def operator_norm(self) -> float:
        if len(self.support) > PATCH_LIMIT:
            raise PatchTooLargeError(
                f"norm evaluation rejected: |S| = {len(self.support)} > {PATCH_LIMIT}"
            )
        if not self.paulis:
            return 0.0
        return payload_norm(len(self.support), self.patch_paulis())

    def scaled(self, factor: complex) -> "LocalTerm":
        return LocalTerm(
            self.n,
            self.support,
            self.syndrome,
            tuple((factor * c, p) for c, p in self.paulis),
        )


@dataclass
class QuasiLocalOperator:
    code: StabilizerCode
    terms: tuple

    _norm_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def key_index(self) -> dict:
        return {(t.support, t.syndrome.bits): t for t in self.terms}

    def pauli_items(self) -> list:
        out = []
        for t in self.terms:
            out.extend(t.paulis)
        return out

    def to_dense(self) -> np.ndarray:
        return operator_dense(self.code.n, self.pauli_items())

    def term_norm(self, term: LocalTerm) -> float:
        key = (term.support, term.syndrome.bits)
        if key not in self._norm_cache:
            self._norm_cache[key] = term.operator_norm()
        return self._norm_cache[key]

    def scaled(self, factor: complex) -> "QuasiLocalOperator":
        return QuasiLocalOperator(
            self.code, tuple(t.scaled(factor) for t in self.terms)
        )

    def add(self, other: "QuasiLocalOperator") -> "QuasiLocalOperator":
        merged: dict = {}
        for t in list(self.terms) + list(other.terms):
            key = (t.support, t.syndrome.bits)
            if key in merged:
                merged[key] = _merge_terms(merged[key], t)
            else:
                merged[key] = t
        terms = tuple(t for t in merged.values() if t.paulis)
        return QuasiLocalOperator(self.code, terms)


def _merge_terms(a: LocalTerm, b: LocalTerm) -> LocalTerm:
    acc: dict = {}
    for coeff, p in list(a.paulis) + list(b.paulis):
        key = (p.x, p.z)
        acc[key] = acc.get(key, 0.0) + coeff * p.sign
    paulis = tuple(
        (c, PauliString(a.n, x, z)) for (x, z), c in acc.items()
        if abs(c) > DROP_TOL
    )
    return LocalTerm(a.n, a.support, a.syndrome, paulis)


def strong_support(code: StabilizerCode, p: PauliString,
                   synd: BitVector | None = None) -> frozenset:
    """Minimal strong support: the Pauli's own support plus every check it
    flips."""
    if synd is None:
        synd = syndrome_of(code, p)
    sup = set(p.support())
    for c in synd.indices():
        sup |= code.checks[c].support()
    return frozenset(sup)


def decompose(op_terms, code: StabilizerCode) -> QuasiLocalOperator:
    """Group a weighted Pauli sum into (strong support, syndrome) terms.

    ``op_terms`` is an iterable of (coeff, PauliString).  Paulis with equal
    (x, z) are combined first; the resulting decomposition reproduces the
    input exactly (coefficient-level identity).
    """
    combined: dict = {}
    for coeff, p in op_terms:
        if p.n != code.n:
            raise ValueError("operator qubit count differs from code")
        key = (p.x, p.z)
        combined[key] = combined.get(key, 0.0) + coeff * p.sign
    grouped: dict = {}
    for (x, z), coeff in combined.items():
        if abs(coeff) <= DROP_TOL:
            continue
        p = PauliString(code.n, x, z)
        synd = syndrome_of(code, p)
        sup = strong_support(code, p, synd)
        key = (sup, synd.bits)
        grouped.setdefault(key, []).append((coeff, p))
    terms = tuple(
        LocalTerm(code.n, sup, BitVector(code.num_checks, sbits), tuple(paulis))
        for (sup, sbits), paulis in grouped.items()
    )
    return QuasiLocalOperator(code, terms)


def kappa_norm(op: QuasiLocalOperator, kappa: float) -> float:
    """max_i sum_{S containing i} sum_s ||O_{S,s}|| e^{kappa |S|}.

    Terms with empty support (identity components) never contain a qubit
    and therefore do not contribute.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    per_qubit = np.zeros(op.code.n)
    for t in op.terms:
        if not t.support:
            continue
        w = op.term_norm(t) * np.exp(kappa * len(t.support))
        for q in t.support:
            per_qubit[q] += w
    return float(per_qubit.max()) if op.code.n else 0.0


def checks_inside(code: StabilizerCode, region: frozenset) -> list[int]:
    outside = ~sum(1 << q for q in region)
    return [i for i, c in enumerate(code.checks) if not (c.x | c.z) & outside]


def _patch_code(code: StabilizerCode, region) -> StabilizerCode:
    """The checks inside ``region``, restricted to its qubits in sorted
    order, with their lambdas, as a code on len(region) qubits.

    Raises PatchTooLargeError past ``DENSE_PATCH_LIMIT`` qubits.
    """
    region = frozenset(region)
    if len(region) > DENSE_PATCH_LIMIT:
        raise PatchTooLargeError(
            f"patch on {len(region)} qubits exceeds the dense limit"
        )
    qubits = sorted(region)
    inside = checks_inside(code, region)
    return StabilizerCode(
        len(qubits), tuple(restrict(code.checks[i], qubits) for i in inside),
        tuple(code.lambdas[i] for i in inside), code.kind)


def local_projectors(code: StabilizerCode, region):
    """(P_S, Q_S): projector onto the joint +1 space of the checks inside S
    and its complement, as 2^|S| matrices over the region's qubits in
    sorted order."""
    P = codespace_projector_dense(_patch_code(code, region))
    return P, np.eye(len(P)) - P


def patch_hamiltonian(code: StabilizerCode, region) -> np.ndarray:
    """H_S = sum over checks inside S of lambda (I - Q)/2, on the patch."""
    return code_hamiltonian_dense(_patch_code(code, region))


_I_POWERS = np.array([1, 1j, -1, -1j])


def _odd_overlap(ax, az, bx, bz) -> np.ndarray:
    """1 where the strings (ax, az) and (bx, bz) anticommute, else 0."""
    return (np.bitwise_count(ax & bz) + np.bitwise_count(az & bx)) & 1


def _patch_columns(term: LocalTerm, code: StabilizerCode):
    """The term's Paulis and the checks inside its support, as int64
    columns over patch bits.

    Returns (c, x, z, flipped, energy, group).  Pauli i is c_i times the
    string i^|x_i & z_i| X^x_i Z^z_i (its sign folded into c_i); flipped_i
    says whether it anticommutes with any inside check, and energy_i is the
    sum of lambda over those it does.  ``group`` = (gx, gz, ge) lists the
    2^r elements i^ge X^gx Z^gz of the signed group G_S the inside checks
    generate.
    """
    patch = _patch_code(code, term.support)
    paulis = term.patch_paulis()
    c = np.array([coeff * p.sign for coeff, p in paulis], dtype=complex)
    x = np.array([p.x for _, p in paulis], dtype=np.int64)
    z = np.array([p.z for _, p in paulis], dtype=np.int64)
    cx = np.array([q.x for q in patch.checks], dtype=np.int64)
    cz = np.array([q.z for q in patch.checks], dtype=np.int64)
    flips = _odd_overlap(cx[:, None], cz[:, None], x, z)
    energy = np.array(patch.lambdas) @ flips
    basis = independent_checks(patch)
    group = signed_span(cx[basis], cz[basis],
                        [power_of_i(patch.checks[k]) for k in basis])
    return c, x, z, flips.any(axis=0), energy, group


def _accumulate(c, x, z):
    """Sum the coefficients of equal strings: (c, x, z) with unique (x, z)."""
    keys, inverse = np.unique(x | (z << DENSE_PATCH_LIMIT), return_inverse=True)
    sums = (np.bincount(inverse, c.real, len(keys))
            + 1j * np.bincount(inverse, c.imag, len(keys)))
    return sums, keys & ((1 << DENSE_PATCH_LIMIT) - 1), keys >> DENSE_PATCH_LIMIT


def _group_products(c, x, z, group, anticommuting: bool = False):
    """2^(1-r) sum_i c_i sum g T_i over the g in G_S that commute with T_i
    (anticommute, with ``anticommuting``), as accumulated (c, x, z)."""
    gx, gz, ge = group
    odd = _odd_overlap(gx[:, None], gz[:, None], x, z).astype(bool)
    g, i = np.nonzero(odd if anticommuting else ~odd)
    px, pz = gx[g] ^ x[i], gz[g] ^ z[i]
    # (i^a X^gx Z^gz)(i^b X^x Z^z) = i^(a + b + 2|gz & x|) X^px Z^pz, and
    # the canonical string of (px, pz) carries i^|px & pz|.
    power = (ge[g] + np.bitwise_count(x[i] & z[i])
             + 2 * np.bitwise_count(gz[g] & x[i]) - np.bitwise_count(px & pz))
    scale = 2.0 / len(gx)
    return _accumulate(scale * c[i] * _I_POWERS[power % 4], px, pz)


def _columns_to_term(c, x, z, template: LocalTerm) -> LocalTerm:
    """Lift (c, x, z) patch columns into a term with the template's support
    and syndrome, dropping |c| <= 1e-13 max(max |c|, 1) as
    ``pauli_transform`` does."""
    keep = np.abs(c) > 1e-13 * max(np.max(np.abs(c), initial=0.0), 1.0)
    qubits = template.patch_qubits
    paulis = tuple(
        (coeff, PauliString(template.n, px, pz))
        for coeff, px, pz in zip(c[keep].tolist(),
                                 _expand_columns(x[keep], qubits),
                                 _expand_columns(z[keep], qubits))
    )
    return LocalTerm(template.n, template.support, template.syndrome, paulis)


def block_split(term: LocalTerm, code: StabilizerCode):
    """(P_S V P_S + Q_S V Q_S, P_S V Q_S + Q_S V P_S) for one local term.

    A Pauli T that flips no check inside S commutes with P_S and is block
    diagonal.  One that flips some has P_S T P_S = 0, so its off-diagonal
    part is P_S T + T P_S = 2^(1-r) sum over the g in G_S commuting with T
    of g T.  Both halves keep the term's support and syndrome; their sum is
    the input and neither operator norm exceeds the input's.
    """
    c, x, z, flipped, _, group = _patch_columns(term, code)
    off = _group_products(c[flipped], x[flipped], z[flipped], group)
    off_c, off_x, off_z = off
    diag = _accumulate(np.concatenate([c, -off_c]), np.concatenate([x, off_x]),
                       np.concatenate([z, off_z]))
    return _columns_to_term(*diag, term), _columns_to_term(*off, term)


def commutator_qlo(d: QuasiLocalOperator,
                   a: QuasiLocalOperator) -> QuasiLocalOperator:
    """[D, A] with the pairwise term assignment: the commutator of terms
    keyed (S', s') and (S, s) lands in key (S' u S, s' + s)."""
    code = d.code
    grouped: dict = {}
    for td in d.terms:
        for ta in a.terms:
            if not (td.support & ta.support) and td.support and ta.support:
                continue  # disjoint supports commute
            sup = td.support | ta.support
            sbits = td.syndrome.bits ^ ta.syndrome.bits
            acc = grouped.setdefault((sup, sbits), {})
            for cd, pd in td.paulis:
                for ca, pa in ta.paulis:
                    if commutes(pd, pa):
                        continue
                    phase, canon = multiply_phase(pd, pa)
                    key = (canon.x, canon.z)
                    acc[key] = acc.get(key, 0.0) + 2.0 * cd * ca * phase
    terms = []
    for (sup, sbits), acc in grouped.items():
        paulis = tuple(
            (c, PauliString(code.n, x, z)) for (x, z), c in acc.items()
            if abs(c) > DROP_TOL
        )
        if paulis:
            terms.append(
                LocalTerm(code.n, sup, BitVector(code.num_checks, sbits), paulis)
            )
    return QuasiLocalOperator(code, tuple(terms))


def block_diagonal_part(op: QuasiLocalOperator,
                        keep_offdiag: bool = False):
    """Apply the local block split across all terms of an operator."""
    diags, offs = [], []
    for t in op.terms:
        d, o = block_split(t, op.code)
        if d.paulis:
            diags.append(d)
        if o.paulis:
            offs.append(o)
    pv = QuasiLocalOperator(op.code, tuple(diags))
    if keep_offdiag:
        return pv, QuasiLocalOperator(op.code, tuple(offs))
    return pv
