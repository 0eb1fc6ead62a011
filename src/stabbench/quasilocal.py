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
The kappa-norm of an operator takes all its term norms from one
``matrices.payload_norm`` call, which norms each term in the symplectic
frame of its strings: a term of commuting strings (most terms of an SWT
order) by a Walsh-Hadamard transform alone, the others by blocks of 2^g
states for their g anticommuting pairs, so its limit is 2^c 4^g entries
for a centre of rank c, not the patch width.

A patch is the region S as a small code of its own (``_patch_code``): the
checks inside S, restricted to the qubits of S with ``pauli.restrict``,
with their lambdas.  The block split and the SWT generator of a term are
closed forms over the signed group G_S of those checks,
P_S = 2^-r sum_{g in G_S} g.  Each support's group is built once per
code, into the code's table (``StabilizerCode.patch_groups``), and the
split and the generator of an operator are one vectorized pass over all
strings of all its terms (``_OperatorPass``), and so is the commutator
of two operators, over all pairs of their overlapping terms.  The dense
projector P_S and patch Hamiltonian H_S are the code-level builders of
``matrices`` applied to the patch code, kept as references.
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

    @property
    def support(self) -> frozenset:
        """The union of the terms' supports."""
        return frozenset().union(*(t.support for t in self.terms))

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


def _patch_group(code: StabilizerCode, support: frozenset) -> tuple:
    """The patch group of ``support`` from the code's table
    (``StabilizerCode.patch_groups``), built on first use.

    An entry is (cx, cz, lam, gx, gz, ge): the checks inside the support as
    int64 masks over its patch bits with their lambdas, and the 2^r
    elements i^ge X^gx Z^gz of G_S, the ``CheckGroup`` of those checks, row
    c the element with coordinate c (``CheckGroup.signed_span``).  Raises
    PatchTooLargeError when G_S has rank above ``DENSE_MAX_QUBITS``, before
    its table is built; nothing is kept for that support.
    """
    table = code.patch_groups
    entry = table.get(support)
    if entry is None:
        patch = _patch_code(code, support)
        group = CheckGroup(patch.checks, patch.n)
        if group.rank > DENSE_MAX_QUBITS:
            raise PatchTooLargeError(
                f"patch on {patch.n} qubits has a check group of rank "
                f"{group.rank} > {DENSE_MAX_QUBITS}")
        entry = table[support] = (
            np.array([q.x for q in patch.checks], dtype=np.int64),
            np.array([q.z for q in patch.checks], dtype=np.int64),
            np.array(patch.lambdas, dtype=float), *group.signed_span())
    return entry


class _OperatorPass:
    """Every string of an operator's terms against its term's patch group.

    The strings are the columns (c, x, z) of all terms, term by term, with
    ``term`` the position of each string's term.  The terms' groups come
    from the code's table, one entry per distinct support: their tables
    are stacked into (gx, gz, ge) with each term's first row and row count
    in ``group_start`` and ``group_size``, and their inside checks, padded
    with zero masks and zero lambdas to the widest patch, give each
    string's flips in one broadcast: ``flipped`` (it anticommutes with
    some inside check) and ``energy`` (the sum of lambda over those).
    """

    def __init__(self, terms, code: StabilizerCode):
        self.terms = terms
        position, groups = {}, []
        for t in terms:
            if t.support not in position:
                position[t.support] = len(groups)
                groups.append(_patch_group(code, t.support))
        slot = np.array([position[t.support] for t in terms], dtype=np.int64)
        width = max((len(g[0]) for g in groups), default=0)
        masks = np.zeros((2, len(groups), width), dtype=np.int64)
        lambdas = np.zeros((len(groups), width))
        for j, (cx, cz, lam, *_) in enumerate(groups):
            masks[:, j, :len(cx)] = cx, cz
            lambdas[j, :len(lam)] = lam
        sizes = np.array([len(g[3]) for g in groups], dtype=np.int64)
        self.group_size = sizes[slot]
        self.group_start = (np.cumsum(sizes) - sizes)[slot]
        self.gx, self.gz, self.ge = (
            np.concatenate([np.zeros(0, dtype=np.int64)]
                           + [g[b] for g in groups]) for b in (3, 4, 5))
        self.term = np.repeat(np.arange(len(terms)),
                              [t.c.size for t in terms])
        self.c, self.x, self.z = (
            np.concatenate([empty] + [getattr(t, a) for t in terms])
            for a, empty in zip("cxz", columns(())))
        owner = slot[self.term]
        flips = _odd_overlap(masks[0][owner], masks[1][owner],
                             self.x[:, None], self.z[:, None])
        self.flipped = flips.any(axis=1)
        self.energy = (flips * lambdas[owner]).sum(axis=1)

    def products(self, weights, keep) -> tuple:
        """2^(1-r) sum over the flipped strings i of each term and the g in
        its group G_S of weights_i g T_i, accumulated per term: one
        (c, term, x, z) with unique keys, sorted by term, then x, then z.

        ``weights`` holds one value per flipped string, and a (g, i) pair
        is kept when keep[term, parity] holds, parity 0 when g commutes
        with T_i and 1 when it anticommutes.  Pairs run group element by
        group element within each term, so equal strings of one term sum
        in the order of a one-term pass.  They are built in slices of 2^16
        pairs, so that no temporary outgrows the 2^16 entries or the
        products kept.
        """
        term = self.term[self.flipped]
        x, z = self.x[self.flipped], self.z[self.flipped]
        count = np.bincount(term, minlength=len(self.terms))
        first = np.cumsum(count) - count
        scale = 2.0 / self.group_size
        c, x0, _ = columns(())
        parts = [(c, x0, x0, x0)]
        for k, g, i in _pair_slices(self.group_size, count):
            g, i = self.group_start[k] + g, first[k] + i
            chosen = keep[k, _odd_overlap(self.gx[g], self.gz[g], x[i], z[i])]
            k, g, i = k[chosen], g[chosen], i[chosen]
            phase, px, pz = _times(self.ge[g], self.gx[g], self.gz[g],
                                   x[i], z[i])
            parts.append((scale[k] * weights[i] * phase, k, px, pz))
        return _accumulate(*parts)

    def local_terms(self, c, term, x, z) -> list:
        """One LocalTerm per term of the pass from accumulated
        (c, term, x, z), with that term's support and syndrome, dropping
        |c| <= 1e-13 max(max |c| over the term, 1) as ``pauli_transform``
        does; a term with nothing left is empty."""
        size = np.abs(c)
        top = np.zeros(len(self.terms))
        np.maximum.at(top, term, size)
        keep = size > 1e-13 * np.maximum(top, 1.0)[term]
        c, term, x, z = c[keep], term[keep], x[keep], z[keep]
        bounds = np.searchsorted(term, np.arange(len(self.terms) + 1)).tolist()
        return [LocalTerm._from_columns(t.n, t.support, t.syndrome,
                                        c[a:b], x[a:b], z[a:b])
                for t, a, b in zip(self.terms, bounds, bounds[1:])]


def _pair_slices(rows, cols):
    """All pairs (a, b) with a < rows[k] and b < cols[k], block k after
    block k and a-major within one, as (k, a, b) arrays in slices of 2^16
    pairs."""
    ends = np.cumsum(rows * cols)
    starts = ends - rows * cols
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, 1 << 16):
        pair = np.arange(lo, min(lo + (1 << 16), total))
        k = np.searchsorted(ends, pair, side="right")
        local = pair - starts[k]
        yield k, local // cols[k], local % cols[k]


def _accumulate(*parts):
    """Sum the coefficients of equal keys over column parts (c, *keys):
    one (c, *keys) with unique keys, sorted by the first key, then the
    next.  The sort is stable, so equal keys sum in input order."""
    c, *keys = map(np.concatenate, zip(*parts))
    order = np.lexsort(keys[::-1])
    keys = [key[order] for key in keys]
    first = np.ones(len(c), dtype=bool)
    first[1:] = False
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    return (np.add.reduceat(c[order], starts), *(key[starts] for key in keys))


def _summed_term(n, support, syndrome, *parts) -> LocalTerm:
    """The (c, x, z) column parts summed into one term, dropping sums at or
    below DROP_TOL."""
    c, x, z = _accumulate(*parts)
    keep = np.abs(c) > DROP_TOL
    return LocalTerm._from_columns(n, support, syndrome,
                                   c[keep], x[keep], z[keep])


def block_split(part, code: StabilizerCode):
    """(P_S V P_S + Q_S V Q_S, P_S V Q_S + Q_S V P_S) for a local term, or
    for every term of an operator in one pass.

    A Pauli T that flips no check inside S commutes with P_S and is block
    diagonal.  One that flips some has P_S T P_S = 0, so its off-diagonal
    part is P_S T + T P_S = 2^(1-r) sum over the g in G_S commuting with T
    of g T.  Both halves keep each term's support and syndrome; their sum
    is the input and neither operator norm exceeds the input's.

    ``part`` is a LocalTerm, whose two halves are returned as LocalTerms
    (empty ones included), or a QuasiLocalOperator, whose halves are
    returned as operators of their nonempty terms.  Either way all strings
    go through one ``_OperatorPass`` on the groups of the code's table
    (``_patch_group``), and a term's halves are the same, bit for bit,
    alone or in an operator.
    """
    terms = (part,) if isinstance(part, LocalTerm) else part.terms
    ops = _OperatorPass(terms, code)
    keep = np.tile([True, False], (len(terms), 1))  # commuting pairs
    off = ops.products(ops.c[ops.flipped], keep)
    diag = _accumulate((ops.c, ops.term, ops.x, ops.z),
                       (-off[0], *off[1:]))
    diag, off = ops.local_terms(*diag), ops.local_terms(*off)
    if isinstance(part, LocalTerm):
        return diag[0], off[0]
    return tuple(QuasiLocalOperator(code, tuple(t for t in half if t.c.size))
                 for half in (diag, off))


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
    All terms go through one ``_OperatorPass`` on the groups of the code's
    table, as in ``block_split``.

    Terms with empty syndrome contribute nothing; an off-diagonal block
    there, ||P_S V Q_S|| > 1e-10 max(||V||, 1) in the Frobenius norm, would
    contradict the decomposition invariant and raises
    GeneratorConsistencyError.
    """
    terms = v.terms
    ops = _OperatorPass(terms, code)
    zero = np.array([not t.syndrome for t in terms], dtype=bool)
    # A zero-syndrome term keeps every pair: its sum is 2 P_S V_f for the
    # part V_f that flips inside checks, and P V Q = P V_f.
    keep = np.ones((len(terms), 2), dtype=bool)
    keep[~zero, 0] = False
    f = ops.flipped
    weights = np.where(zero[ops.term[f]], ops.c[f], ops.c[f] / ops.energy[f])
    c, term, x, z = ops.products(weights, keep)
    checked = zero[term]
    for k in np.unique(term[checked]).tolist():
        t = terms[k]
        # A patch Pauli has squared Frobenius norm 2^|S|.
        pvq = c[term == k] / 2
        v_coeffs = _accumulate((t.c, t.x, t.z))[0]
        if np.linalg.norm(pvq) > 1e-10 * max(
                np.linalg.norm(v_coeffs), 2.0 ** (-len(t.support) / 2)):
            raise GeneratorConsistencyError(
                f"zero-syndrome term on {sorted(t.support)} has an "
                "off-diagonal block"
            )
    a = ops.local_terms(c[~checked], term[~checked], x[~checked],
                        z[~checked])
    return QuasiLocalOperator(code, tuple(t for t in a if t.c.size))


def commutator_qlo(d: QuasiLocalOperator,
                   a: QuasiLocalOperator) -> QuasiLocalOperator:
    """[D, A] with the pairwise term assignment: the commutator of terms
    keyed (S', s') and (S, s) lands in key (S' u S, s' + s), as the sum of
    [P, Q] = 2 P Q over the anticommuting pairs of their Paulis.

    One vectorized pass over all pairs of overlapping terms.  A loop over
    the term pairs assigns the keys in order of first occurrence (a union
    past 63 qubits is refused there, before any array is built).  Both
    terms of a pair are re-indexed into the patch of their union
    (``_union_columns``), and the (i, j) string pairs of all term pairs,
    term pair by term pair and i-major within one, are formed in slices of
    2^16: the anticommuting ones are multiplied (``_times``) and one stable
    ``_accumulate`` by (key, x, z) sums equal strings of a key in that
    order.  Sums at or below DROP_TOL are dropped, and a key left with
    nothing has no term.
    """
    code = d.code
    keys, pairs = {}, []
    for i, td in enumerate(d.terms):
        for j, ta in enumerate(a.terms):
            if not td.support & ta.support:
                continue  # disjoint supports commute
            key = (td.support | ta.support, td.syndrome ^ ta.syndrome)
            if key not in keys:
                _refuse_wider(key[0])
                keys[key] = len(keys)
            pairs.append((i, j, keys[key]))
    if not pairs:
        return QuasiLocalOperator(code, ())
    i, j, key = np.array(pairs, dtype=np.int64).T
    (dc, dx, dz, nd), (ac, ax, az, na) = _union_columns(d.terms, a.terms,
                                                        i, j)
    first_d, first_a = np.cumsum(nd) - nd, np.cumsum(na) - na
    c, x0, _ = columns(())
    parts = [(c, x0, x0, x0)]
    for k, r, s in _pair_slices(nd, na):
        r, s = first_d[k] + r, first_a[k] + s
        odd = _odd_overlap(dx[r], dz[r], ax[s], az[s]) == 1
        k, r, s = k[odd], r[odd], s[odd]
        phase, px, pz = _times(np.bitwise_count(dx[r] & dz[r]), dx[r], dz[r],
                               ax[s], az[s])
        parts.append((2.0 * dc[r] * ac[s] * phase, key[k], px, pz))
    c, slot, x, z = _accumulate(*parts)
    kept = np.abs(c) > DROP_TOL
    c, slot, x, z = c[kept], slot[kept], x[kept], z[kept]
    bounds = np.searchsorted(slot, np.arange(len(keys) + 1)).tolist()
    return QuasiLocalOperator(code, tuple(
        LocalTerm._from_columns(code.n, sup, synd, c[lo:hi], x[lo:hi],
                                z[lo:hi])
        for (sup, synd), lo, hi in zip(keys, bounds, bounds[1:]) if hi > lo))


def _runs(lengths, idx) -> tuple:
    """Runs idx[0], idx[1], ... of runs of ``lengths`` laid one after
    another, as (p, position, k) per element: the index p of its run in
    ``idx``, its position, and its place k within the run."""
    lengths = np.asarray(lengths, dtype=np.int64)
    size = lengths[idx]
    p = np.repeat(np.arange(len(idx)), size)
    k = np.arange(p.size) - (np.cumsum(size) - size)[p]
    return p, (np.cumsum(lengths) - lengths)[idx][p] + k, k


def _union_columns(d_terms, a_terms, i, j) -> list:
    """The columns of terms d_terms[i_p] and a_terms[j_p] of every pair p,
    re-indexed into the patch of the pair's union: for each side, (c, x, z)
    of the pairs' strings, pair after pair, and the string count of each
    pair.  A qubit's place in the union is its rank among the union's
    qubits, from one sorted array of (pair, qubit) cells."""
    sides = []
    for terms, idx in ((d_terms, i), (a_terms, j)):
        qubits = [t.patch_qubits for t in terms]
        pair, at, k = _runs([len(q) for q in qubits], idx)
        flat = np.array([q for qs in qubits for q in qs], dtype=np.int64)
        sides.append((terms, idx, pair, k, flat[at]))
    span = max(int(q.max()) for *_, q in sides) + 1
    union = np.unique(np.concatenate([pair * span + q
                                      for *_, pair, _, q in sides]))
    first = np.searchsorted(union, np.arange(len(i)) * span)
    out = []
    for terms, idx, pair, k, q in sides:
        # Row p: the place in the union of each patch qubit of p's term.
        places = np.zeros((len(idx), int(k.max()) + 1), dtype=np.int64)
        places[pair, k] = np.searchsorted(union, pair * span + q) - first[pair]
        sizes = np.array([t.c.size for t in terms], dtype=np.int64)
        owner, at, _ = _runs(sizes, idx)
        bits = np.arange(places.shape[1])
        c, x, z = (np.concatenate([getattr(t, a) for t in terms])[at]
                   for a in "cxz")
        x, z = (np.bitwise_or.reduce(((m[:, None] >> bits) & 1)
                                     << places[owner], axis=1)
                for m in (x, z))
        out.append((c, x, z, sizes[idx]))
    return out


def block_diagonal_part(op: QuasiLocalOperator,
                        keep_offdiag: bool = False):
    """The block-diagonal half of an operator (and the off-diagonal one,
    with ``keep_offdiag``), from one ``block_split`` call on it."""
    pv, off = block_split(op, op.code)
    return (pv, off) if keep_offdiag else pv
