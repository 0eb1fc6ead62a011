"""Syndrome-resolved quasi-local operators.

An operator is a sum of local terms keyed by (strong support S, syndrome s):
every Pauli in a term's payload acts inside S, shares the syndrome s, and
every check that anticommutes with the payload lies inside S.  The strong
support assigned here is the canonical minimal choice

    S(P) = support(P)  union  supports of all checks flipped by P,

which makes the key unique per Pauli and the decomposition exact.
``decompose`` finds it on the int masks of a {(x, z): c} dict or of pairs.

A term is stored as columns over the qubits of S in sorted order (its
patch, at most 63 of them): int64 bit masks x, z and complex c, Pauli i
being c_i i^|x_i & z_i| X^x_i Z^z_i, the column form that ``matrices``
takes.  All local algebra, dense matrices and norms work on these columns;
the (coeff, PauliString) pairs of ``paulis`` are a view on full qubits.

A patch is the region S as a small code of its own (``_patch_code``): the
checks inside S, restricted to the qubits of S with ``pauli.restrict``,
with their lambdas.  The block split and the SWT generator of a term are
closed forms over the signed group G_S of those checks,
P_S = 2^-r sum_{g in G_S} g.  The dense projector P_S and patch
Hamiltonian H_S are the code-level builders of ``matrices`` applied to
the patch code, kept as references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .code import CheckGroup, StabilizerCode
from .matrices import (
    DENSE_MAX_QUBITS,
    code_hamiltonian_dense,
    codespace_projector_dense,
    operator_dense,
    payload_norm,
)
from .pauli import I_POWERS, PauliString, columns, restrict

DROP_TOL = 1e-14  # summed coefficients at or below this are dropped


class PatchTooLargeError(ValueError):
    pass


def _refuse_wider(support) -> None:
    if len(support) > 63:  # bits of an int64 mask
        raise PatchTooLargeError(
            f"patch on {len(support)} qubits exceeds the limit of 63")


def _compress(strings, qubits) -> tuple:
    """(coeff, x, z) triples on full qubits as patch columns (c, x, z):
    bit qubits[j] of each mask moved to bit j, on Python ints, one shift
    per run of consecutive qubits of the sorted ``qubits``."""
    runs = []  # (first qubit, run mask, first patch bit)
    for j, q in enumerate(qubits):
        if runs and q == runs[-1][0] + runs[-1][1].bit_length():
            first, mask, start = runs[-1]
            runs[-1] = (first, mask << 1 | 1, start)
        else:
            runs.append((q, 1, j))
    c, x, z = [], [], []
    for coeff, sx, sz in strings:
        c.append(coeff)
        x.append(sum((sx >> q & mask) << j for q, mask, j in runs))
        z.append(sum((sz >> q & mask) << j for q, mask, j in runs))
    return (np.array(c, dtype=complex), np.array(x, dtype=np.int64),
            np.array(z, dtype=np.int64))


class LocalTerm:
    """Weighted Pauli sum with a declared strong support and syndrome,
    stored as patch columns (c, x, z)."""

    __slots__ = ("n", "support", "syndrome", "c", "x", "z")

    def __init__(self, n: int, support, syndrome: int, paulis):
        """From (coeff, PauliString) pairs, each acting inside ``support``."""
        self.n, self.support, self.syndrome = n, frozenset(support), syndrome
        _refuse_wider(self.support)
        qubits = self.patch_qubits
        outside = ~sum(1 << q for q in qubits)
        strings = []
        for coeff, p in paulis:
            if (p.x | p.z) & outside:
                raise ValueError(f"{p} acts outside the support {qubits}")
            strings.append((coeff * p.sign, p.x, p.z))
        self.c, self.x, self.z = _compress(strings, qubits)

    @classmethod
    def _from_columns(cls, n, support, syndrome, c, x, z) -> "LocalTerm":
        term = cls.__new__(cls)
        term.n, term.support, term.syndrome = n, support, syndrome
        term.c, term.x, term.z = c, x, z
        return term

    @property
    def patch_qubits(self) -> tuple[int, ...]:
        return tuple(sorted(self.support))

    def _masks_at(self, positions) -> list:
        """x and z with patch bit j moved to bit positions[j] (object arrays
        of Python ints past bit 62)."""
        dtype = np.int64 if max(positions, default=0) < 63 else object
        weights = np.array([1 << int(pos) for pos in positions], dtype=dtype)
        bits = np.arange(len(positions))
        return [((m[:, None] >> bits) & 1) @ weights for m in (self.x, self.z)]

    @property
    def paulis(self) -> tuple:
        """(coeff, PauliString) pairs on the full qubits."""
        x, z = self._masks_at(self.patch_qubits)
        return tuple((coeff, PauliString(self.n, px, pz)) for coeff, px, pz
                     in zip(self.c.tolist(), x.tolist(), z.tolist()))

    def patch_matrix(self) -> np.ndarray:
        return operator_dense(len(self.support), (self.c, self.x, self.z))

    def operator_norm(self) -> float:
        return float(operator_norms((self,))[0])

    def scaled(self, factor: complex) -> "LocalTerm":
        return LocalTerm._from_columns(self.n, self.support, self.syndrome,
                                       factor * self.c, self.x, self.z)


@dataclass
class QuasiLocalOperator:
    code: StabilizerCode
    terms: tuple

    _norms: np.ndarray | None = field(default=None, repr=False,
                                      compare=False)

    def key_index(self) -> dict:
        return {(t.support, t.syndrome): t for t in self.terms}

    def full_columns(self) -> tuple:
        """The operator as one Pauli sum (c, x, z) on the code's qubits."""
        # The empty sum columns(()) heads the parts: no terms, no rows.
        lifted = [(t.c, *t._masks_at(t.patch_qubits)) for t in self.terms]
        return tuple(map(np.concatenate, zip(columns(()), *lifted)))

    def to_dense(self) -> np.ndarray:
        return operator_dense(self.code.n, self.full_columns())

    def term_norms(self) -> np.ndarray:
        """The operator norm of each term, by position, from one
        ``operator_norms`` pass on first use."""
        if self._norms is None:
            self._norms = operator_norms(self.terms)
        return self._norms

    def scaled(self, factor: complex) -> "QuasiLocalOperator":
        return QuasiLocalOperator(
            self.code, tuple(t.scaled(factor) for t in self.terms)
        )

    def add(self, other: "QuasiLocalOperator") -> "QuasiLocalOperator":
        """Terms of equal key merge, dropping sums at or below DROP_TOL."""
        merged: dict = {}
        for t in list(self.terms) + list(other.terms):
            key = (t.support, t.syndrome)
            if key in merged:
                m = merged[key]
                t = _summed_term(t.n, t.support, t.syndrome,
                                 (m.c, m.x, m.z), (t.c, t.x, t.z))
            merged[key] = t
        terms = tuple(t for t in merged.values() if t.c.size)
        return QuasiLocalOperator(self.code, terms)


def decompose(op_terms, code: StabilizerCode) -> QuasiLocalOperator:
    """Group a weighted Pauli sum into (strong support, syndrome) terms.

    ``op_terms`` is the {(x, z): c} dict of ``pauli_transform`` (a bit at
    or past qubit n raises ValueError) or (coeff, PauliString) pairs,
    combined into one.  Check i joins a string's syndrome and support at an
    odd |x & z_i| + |z & x_i|, on the int masks, with no PauliString built.
    Sums at or below DROP_TOL are dropped; the rest is reproduced exactly.
    """
    n = code.n
    if not isinstance(op_terms, dict):
        pairs, op_terms = op_terms, {}
        for coeff, p in pairs:
            if p.n != n:
                raise ValueError("operator qubit count differs from code")
            op_terms[p.x, p.z] = op_terms.get((p.x, p.z), 0.0) + coeff * p.sign
    checks = [(q.x, q.z, q.x | q.z) for q in code.checks]
    grouped: dict = {}
    for (x, z), coeff in op_terms.items():
        if (x | z) >> n:
            raise ValueError(f"string ({x}, {z}) acts past qubit {n - 1}")
        if abs(coeff) <= DROP_TOL:
            continue
        synd, sup = 0, x | z
        for i, (cx, cz, cs) in enumerate(checks):
            if ((x & cz).bit_count() + (z & cx).bit_count()) & 1:
                synd |= 1 << i
                sup |= cs
        grouped.setdefault((sup, synd), []).append((coeff, x, z))
    terms = []
    for (sup, synd), strings in grouped.items():
        qubits = [q for q in range(sup.bit_length()) if sup >> q & 1]
        _refuse_wider(qubits)
        terms.append(LocalTerm._from_columns(
            n, frozenset(qubits), synd, *_compress(strings, qubits)))
    return QuasiLocalOperator(code, tuple(terms))


def operator_norms(terms) -> np.ndarray:
    """The operator norm of each local term on its patch, all from one
    ``payload_norm`` pass."""
    return payload_norm([(len(t.support), (t.c, t.x, t.z)) for t in terms])


def kappa_norm(op: QuasiLocalOperator, kappa: float) -> float:
    """max_i sum_{S containing i} sum_s ||O_{S,s}|| e^{kappa |S|}.

    The term norms are computed once per operator, all terms in one
    batched ``payload_norm`` call (``QuasiLocalOperator.term_norms``), and
    kept by term position, so two terms of one key each count their own
    norm.  Terms with empty support (identity components) never contain a
    qubit and therefore do not contribute.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    per_qubit = np.zeros(op.code.n)
    for t, norm in zip(op.terms, op.term_norms()):
        if not t.support:
            continue
        w = norm * np.exp(kappa * len(t.support))
        for q in t.support:
            per_qubit[q] += w
    return float(per_qubit.max()) if op.code.n else 0.0


def checks_inside(code: StabilizerCode, region: frozenset) -> list[int]:
    outside = ~sum(1 << q for q in region)
    return [i for i, c in enumerate(code.checks) if not (c.x | c.z) & outside]


def _patch_code(code: StabilizerCode, region) -> StabilizerCode:
    """The checks inside ``region``, restricted to its qubits in sorted
    order, with their lambdas, as a code on len(region) qubits."""
    region = frozenset(region)
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


def _odd_overlap(ax, az, bx, bz) -> np.ndarray:
    """1 where the strings (ax, az) and (bx, bz) anticommute, else 0."""
    return (np.bitwise_count(ax & bz) + np.bitwise_count(az & bx)) & 1


def _times(ae, ax, az, bx, bz):
    """(i^ae X^ax Z^az)(i^be X^bx Z^bz) = i^(ae + be + 2|az & bx|) X^px Z^pz
    elementwise, for be = |bx & bz|, as (phase, px, pz): the product is
    phase times the canonical string i^|px & pz| X^px Z^pz."""
    px, pz = ax ^ bx, az ^ bz
    power = (np.asarray(ae, dtype=np.int64) + np.bitwise_count(bx & bz)
             + 2 * np.bitwise_count(az & bx) - np.bitwise_count(px & pz))
    return I_POWERS[power % 4], px, pz


def _patch_columns(term: LocalTerm, code: StabilizerCode):
    """The checks inside the term's support, as int64 columns over patch
    bits, against the term's Paulis.

    Returns (flipped, energy, group): flipped_i says whether Pauli i
    anticommutes with any inside check, and energy_i is the sum of lambda
    over those it does.  ``group`` = (gx, gz, ge) lists the 2^r elements
    i^ge X^gx Z^gz of G_S, the ``CheckGroup`` of the inside checks.
    Raises PatchTooLargeError when G_S has rank above ``DENSE_MAX_QUBITS``,
    before its table is built.
    """
    patch = _patch_code(code, term.support)
    cx = np.array([q.x for q in patch.checks], dtype=np.int64)
    cz = np.array([q.z for q in patch.checks], dtype=np.int64)
    flips = _odd_overlap(cx[:, None], cz[:, None], term.x, term.z)
    energy = np.array(patch.lambdas) @ flips
    group = CheckGroup(patch.checks, patch.n)
    if group.rank > DENSE_MAX_QUBITS:
        raise PatchTooLargeError(f"patch on {patch.n} qubits has a check group"
                                 f" of rank {group.rank} > {DENSE_MAX_QUBITS}")
    return flips.any(axis=0), energy, group.signed_span()


def _accumulate(*parts):
    """Sum the coefficients of equal strings over (c, x, z) column parts:
    one (c, x, z) with unique (x, z)."""
    c, x, z = map(np.concatenate, zip(*parts))
    order = np.lexsort((z, x))
    x, z = x[order], z[order]
    first = np.ones(len(x), dtype=bool)
    first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
    starts = np.flatnonzero(first)
    return np.add.reduceat(c[order], starts), x[starts], z[starts]


def _group_products(c, x, z, group, anticommuting: bool = False):
    """2^(1-r) sum_i c_i sum g T_i over the g in G_S that commute with T_i
    (anticommute, with ``anticommuting``), as accumulated (c, x, z)."""
    gx, gz, ge = group
    odd = _odd_overlap(gx[:, None], gz[:, None], x, z).astype(bool)
    g, i = np.nonzero(odd if anticommuting else ~odd)
    phase, px, pz = _times(ge[g], gx[g], gz[g], x[i], z[i])
    scale = 2.0 / len(gx)
    return _accumulate((scale * c[i] * phase, px, pz))


def _summed_term(n, support, syndrome, *parts) -> LocalTerm:
    """The (c, x, z) column parts summed into one term, dropping sums at or
    below DROP_TOL."""
    c, x, z = _accumulate(*parts)
    keep = np.abs(c) > DROP_TOL
    return LocalTerm._from_columns(n, support, syndrome,
                                   c[keep], x[keep], z[keep])


def _columns_to_term(c, x, z, template: LocalTerm) -> LocalTerm:
    """(c, x, z) patch columns as a term with the template's support and
    syndrome, dropping |c| <= 1e-13 max(max |c|, 1) as ``pauli_transform``
    does."""
    keep = np.abs(c) > 1e-13 * max(np.max(np.abs(c), initial=0.0), 1.0)
    return LocalTerm._from_columns(template.n, template.support,
                                   template.syndrome, c[keep], x[keep], z[keep])


def block_split(term: LocalTerm, code: StabilizerCode):
    """(P_S V P_S + Q_S V Q_S, P_S V Q_S + Q_S V P_S) for one local term.

    A Pauli T that flips no check inside S commutes with P_S and is block
    diagonal.  One that flips some has P_S T P_S = 0, so its off-diagonal
    part is P_S T + T P_S = 2^(1-r) sum over the g in G_S commuting with T
    of g T.  Both halves keep the term's support and syndrome; their sum is
    the input and neither operator norm exceeds the input's.
    """
    flipped, _, group = _patch_columns(term, code)
    c, x, z = term.c, term.x, term.z
    off = _group_products(c[flipped], x[flipped], z[flipped], group)
    diag = _accumulate((c, x, z), (-off[0], off[1], off[2]))
    return _columns_to_term(*diag, term), _columns_to_term(*off, term)


class GeneratorConsistencyError(RuntimeError):
    """A zero-syndrome term produced a nonzero off-diagonal block."""


def solve_generator(code: StabilizerCode,
                    v: QuasiLocalOperator) -> QuasiLocalOperator:
    """Anti-Hermitian generator solving [H0, A] + V = PV term by term.

    Per term: A_{S,s} = P_S V Q_S H_S^+ - H_S^+ Q_S V P_S on the patch,
    with H_S^+ the pseudo-inverse of the patch Hamiltonian (kernel = local
    codespace).  In closed form over the group G_S of the checks inside S,
    P_S = 2^-r sum_{g in G_S} g: a Pauli T that flips inside checks of
    total weight E maps the local codespace into the eigenspace of H_S at
    E, so its part is (P_S T - T P_S) / E = 2^(1-r) sum over the g in G_S
    anticommuting with T of g T / E, and one that flips none adds nothing.

    Terms with empty syndrome contribute nothing; an off-diagonal block
    there, ||P_S V Q_S|| > 1e-10 max(||V||, 1) in the Frobenius norm, would
    contradict the decomposition invariant and raises
    GeneratorConsistencyError.
    """
    out_terms = []
    for t in v.terms:
        flipped, energy, group = _patch_columns(t, code)
        c, x, z = t.c, t.x, t.z
        if not t.syndrome:
            # P V Q = P V_f for the part V_f that flips inside checks, and
            # P V_f = ((P V_f + V_f P) + (P V_f - V_f P)) / 2.  A patch
            # Pauli has squared Frobenius norm 2^|S|.
            parts = [
                _group_products(c[flipped], x[flipped], z[flipped], group,
                                anticommuting=odd)
                for odd in (False, True)
            ]
            pvq = _accumulate(*parts)[0] / 2
            v_coeffs = _accumulate((c, x, z))[0]
            if np.linalg.norm(pvq) > 1e-10 * max(
                    np.linalg.norm(v_coeffs), 2.0 ** (-len(t.support) / 2)):
                raise GeneratorConsistencyError(
                    f"zero-syndrome term on {sorted(t.support)} has an "
                    "off-diagonal block"
                )
            continue
        a = _group_products(c[flipped] / energy[flipped], x[flipped],
                            z[flipped], group, anticommuting=True)
        term = _columns_to_term(*a, t)
        if term.c.size:
            out_terms.append(term)
    return QuasiLocalOperator(code, tuple(out_terms))


def commutator_qlo(d: QuasiLocalOperator,
                   a: QuasiLocalOperator) -> QuasiLocalOperator:
    """[D, A] with the pairwise term assignment: the commutator of terms
    keyed (S', s') and (S, s) lands in key (S' u S, s' + s).  Both terms
    are re-indexed into the patch of S' u S, and [P, Q] = 2 P Q is summed
    over the anticommuting pairs of their Paulis."""
    code = d.code
    grouped: dict = {}
    for td in d.terms:
        for ta in a.terms:
            if not td.support & ta.support:
                continue  # disjoint supports commute
            sup = td.support | ta.support
            _refuse_wider(sup)
            qubits = sorted(sup)
            (dx, dz), (ax, az) = (
                t._masks_at(np.searchsorted(qubits, t.patch_qubits))
                for t in (td, ta))
            i, j = np.nonzero(_odd_overlap(dx[:, None], dz[:, None], ax, az))
            phase, px, pz = _times(np.bitwise_count(dx & dz)[i], dx[i], dz[i],
                                   ax[j], az[j])
            grouped.setdefault(
                (sup, td.syndrome ^ ta.syndrome), []
            ).append((2.0 * td.c[i] * ta.c[j] * phase, px, pz))
    terms = (_summed_term(code.n, sup, synd, *parts)
             for (sup, synd), parts in grouped.items())
    return QuasiLocalOperator(code, tuple(t for t in terms if t.c.size))


def block_diagonal_part(op: QuasiLocalOperator,
                        keep_offdiag: bool = False):
    """Apply the local block split across all terms of an operator."""
    diags, offs = [], []
    for t in op.terms:
        d, o = block_split(t, op.code)
        if d.c.size:
            diags.append(d)
        if o.c.size:
            offs.append(o)
    pv = QuasiLocalOperator(op.code, tuple(diags))
    if keep_offdiag:
        return pv, QuasiLocalOperator(op.code, tuple(offs))
    return pv
