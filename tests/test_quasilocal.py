"""Strong-support decomposition, kappa-norms, projectors, block splits.

The dense patch algebra (``local_projectors``, ``patch_hamiltonian``,
``pauli_transform``) is kept here as the oracle of the closed-form block
split and generator.  The first two build the patch code's group
projector and Hamiltonian with the code-level builders of ``matrices``;
they are pinned in turn against the product prod (I + Q)/2 and the sum
sum lambda (I - Q)/2 over the restricted checks inside the patch.  The
loop over pairs of Paulis (``pairwise_commutator``) is the oracle of the
column commutator, and the loop over pairs of terms that it replaced
(``commutator_per_pair``) pins its bits."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabbench import quasilocal
from stabbench.code import StabilizerCode
from stabbench.constructors import ising_toric, repetition_code, toric_code
from stabbench.matrices import (
    code_hamiltonian_terms,
    operator_dense,
    pauli_transform,
)
from stabbench.pauli import (
    PauliString,
    columns,
    commutes,
    hermitian_phase,
    multiply_phase,
    odd_overlap,
    restrict,
    times,
)
from stabbench.quasilocal import (
    DROP_TOL,
    GeneratorConsistencyError,
    LocalTerm,
    PatchTooLargeError,
    QuasiLocalOperator,
    block_diagonal_part,
    block_split,
    checks_inside,
    commutator_qlo,
    decompose,
    kappa_norm,
    local_projectors,
    operator_norms,
    patch_hamiltonian,
    solve_generator,
)
from tests.test_soundness import general_code


def field_code(n: int) -> StabilizerCode:
    """Single-qubit Z checks everywhere: the trivial gapped reference."""
    return StabilizerCode.from_checks(
        n, [PauliString.single(n, "Z", i) for i in range(n)]
    )


def random_pauli_sum(code, rng, num_terms=6, max_weight=2, scale=1.0,
                     hermitian=True):
    terms = []
    for _ in range(num_terms):
        w = rng.randint(1, max_weight)
        sup = rng.sample(range(code.n), w)
        x = z = 0
        for q in sup:
            kind = rng.choice(["X", "Z", "Y"])
            if kind in ("X", "Y"):
                x |= 1 << q
            if kind in ("Z", "Y"):
                z |= 1 << q
        coeff = scale * rng.uniform(-1, 1)
        if not hermitian:
            coeff = coeff * 1j
        terms.append((coeff, PauliString(code.n, x, z)))
    return terms


def test_decompose_identity():
    code = repetition_code(4)
    qlo = decompose([(2.5, PauliString.identity(4))], code)
    assert len(qlo.terms) == 1
    t = qlo.terms[0]
    assert t.support == frozenset()
    assert t.syndrome == 0


def test_decompose_midchain_x_strong_support():
    code = repetition_code(5)
    qlo = decompose([(1.0, PauliString.single(5, "X", 2))], code)
    (t,) = qlo.terms
    assert t.support == frozenset({1, 2, 3})
    assert t.syndrome == 0b110


def test_decompose_two_body_on_field_code():
    code = field_code(4)
    xx = PauliString.from_label("XXII")
    zz = PauliString.from_label("ZZII")
    qlo = decompose([(0.1, xx), (0.1, zz)], code)
    by_syndrome = {t.syndrome: t for t in qlo.terms}
    assert len(qlo.terms) == 2
    assert set(by_syndrome) == {0, 0b0011}
    for t in qlo.terms:
        assert t.support == frozenset({0, 1})


def test_decompose_reconstructs_exactly():
    code = toric_code(2)
    rng = random.Random(8)
    terms = random_pauli_sum(code, rng, num_terms=10, max_weight=3)
    qlo = decompose(terms, code)
    assert np.allclose(qlo.to_dense(), operator_dense(code.n, columns(terms)))


def assert_same_terms(got, want):
    """Equal keys in equal order, with equal columns under ==."""
    assert [(t.support, t.syndrome) for t in got.terms] == \
        [(t.support, t.syndrome) for t in want.terms]
    for a, b in zip(got.terms, want.terms):
        for col_a, col_b in zip((a.c, a.x, a.z), (b.c, b.x, b.z)):
            assert col_a.dtype == col_b.dtype
            assert np.array_equal(col_a, col_b)


@pytest.mark.parametrize("make_code", [
    lambda: repetition_code(5), lambda: toric_code(2), general_code],
    ids=["rep5", "toric2", "general"])
def test_decompose_dict_matches_pairs(make_code):
    # The dict of pauli_transform and the same strings as pairs give the
    # same terms.
    code = make_code()
    rng = random.Random(21)
    paulis = random_pauli_sum(code, rng, num_terms=12, max_weight=3)
    coeffs = pauli_transform(operator_dense(code.n, columns(paulis)))
    pairs = [(c, PauliString(code.n, x, z)) for (x, z), c in coeffs.items()]
    got = decompose(coeffs, code)
    assert got.terms
    assert_same_terms(got, decompose(pairs, code))


def test_decompose_dict_past_int64():
    # Strings on qubits 60..69 of a 70-qubit chain: the int masks pass
    # bit 63, and the patch columns still fit int64.
    code = repetition_code(70)
    coeffs = {(1 << 68, 0): 0.3, (0, 1 << 61 | 1 << 62): -0.2,
              (1 << 61 | 1 << 62, 1 << 62): 0.5j, (1 << 65, 1 << 65): 0.1}
    pairs = [(c, PauliString(70, x, z)) for (x, z), c in coeffs.items()]
    got = decompose(coeffs, code)
    assert len(got.terms) == 4
    assert_same_terms(got, decompose(pairs, code))


def test_decompose_dict_refuses_bits_past_n():
    code = repetition_code(5)
    for key in ((1 << 5, 0), (0, 1 << 7)):
        with pytest.raises(ValueError, match="past qubit 4"):
            decompose({(1, 0): 1.0, key: 1.0}, code)


def test_decompose_dict_drops_small_and_empty():
    code = repetition_code(5)
    assert decompose({}, code).terms == ()
    qlo = decompose({(1 << 2, 0): 1.0, (1, 0): DROP_TOL, (0, 1): -DROP_TOL,
                     (2, 2): DROP_TOL / 2}, code)
    (t,) = qlo.terms
    assert t.support == frozenset({1, 2, 3}) and t.syndrome == 0b110
    assert t.c.tolist() == [1.0]


def test_strong_support_contains_flipped_checks():
    code = toric_code(2)
    rng = random.Random(9)
    for coeff, p in random_pauli_sum(code, rng, num_terms=15, max_weight=3):
        qlo = decompose([(coeff, p)], code)
        for t in qlo.terms:
            for ci in range(code.num_checks):
                if t.syndrome >> ci & 1:
                    assert code.checks[ci].support() <= t.support


def test_kappa_norm_zero_and_midchain():
    code = repetition_code(5)
    zero = decompose([], code)
    assert kappa_norm(zero, 0.7) == 0.0
    qlo = decompose([(1.0, PauliString.single(5, "X", 2))], code)
    for kappa in (0.3, 1.0):
        assert kappa_norm(qlo, kappa) == pytest.approx(math.exp(3 * kappa))


@pytest.mark.parametrize("coeffs", [(0.3, 0.7), (0.7, 0.3)])
def test_kappa_norm_counts_each_term_of_one_key(coeffs):
    # 0.3 X_1 and 0.7 X_1 on repetition_code(4) as two terms of one key:
    # support {0, 1, 2}, syndrome 0b11.  Each counts its own norm, in
    # either order: (0.3 + 0.7) e^(0.5 * 3) on qubits 0, 1 and 2.
    code = repetition_code(4)
    x1 = PauliString.single(4, "X", 1)
    terms = tuple(decompose([(c, x1)], code).terms[0] for c in coeffs)
    assert {(t.support, t.syndrome) for t in terms} == {
        (frozenset({0, 1, 2}), 0b11)}
    op = QuasiLocalOperator(code, terms)
    assert kappa_norm(op, 0.5) == pytest.approx(math.exp(1.5), rel=1e-12)


def test_kappa_norm_monotone_in_kappa():
    code = toric_code(2)
    rng = random.Random(12)
    qlo = decompose(random_pauli_sum(code, rng, num_terms=8, max_weight=2), code)
    assert kappa_norm(qlo, 0.4) <= kappa_norm(qlo, 0.8) + 1e-12


def test_kappa_norm_wide_patch():
    code = field_code(16)
    # A weight-15 Pauli has strong support 15 and norm 1.
    p = PauliString.from_support(16, "X", range(15))
    qlo = decompose([(1.0, p)], code)
    assert kappa_norm(qlo, 0.5) == pytest.approx(math.exp(0.5 * 15))


def test_local_projectors_empty_and_full():
    code = toric_code(2)
    P, Q = local_projectors(code, frozenset())
    assert P.shape == (1, 1) and P[0, 0] == 1.0
    Pfull, _ = local_projectors(code, frozenset(range(8)))
    assert abs(np.trace(Pfull).real - 4.0) < 1e-9  # 2^k with k = 2
    assert np.allclose(Pfull @ Pfull, Pfull, atol=1e-10)


def test_local_projector_algebra_on_patch():
    code = repetition_code(5)
    region = frozenset({1, 2, 3})
    P, Q = local_projectors(code, region)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P @ Q, np.zeros_like(P), atol=1e-12)
    # region holds two checks; local ground space is 2^3 / 2^2 = 2 states
    assert abs(np.trace(P).real - 2.0) < 1e-12


def product_form(code: StabilizerCode, region: frozenset):
    """prod (I + Q)/2 and sum lambda (I - Q)/2 over the checks inside the
    region, each restricted to the region's qubits in sorted order."""
    qubits = sorted(region)
    eye = np.eye(1 << len(qubits))
    P, H = eye, np.zeros_like(eye)
    for i in checks_inside(code, region):
        Q = operator_dense(len(qubits),
                           columns([(1.0, restrict(code.checks[i], qubits))]))
        P = P @ (eye + Q) / 2
        H = H + code.lambdas[i] * (eye - Q) / 2
    return P, H


@pytest.mark.parametrize("code", [toric_code(2), repetition_code(5),
                                  general_code()],
                         ids=["toric2", "rep5", "general"])
def test_patch_references_match_product_form(code):
    weighted = StabilizerCode.from_checks(
        code.n, code.checks, [1.0 + 0.5 * i for i in range(code.num_checks)])
    s = [c.support() for c in code.checks]
    regions = [frozenset(), s[0], s[0] | s[1] | {code.n - 1},
               frozenset(range(code.n))]
    for region in regions:
        P_ref, H_ref = product_form(weighted, region)
        P, Q = local_projectors(weighted, region)
        assert np.allclose(P, P_ref, atol=1e-12)
        assert np.allclose(Q, np.eye(len(P)) - P_ref, atol=1e-12)
        assert np.allclose(patch_hamiltonian(weighted, region), H_ref,
                           atol=1e-12)


def test_patch_hamiltonian_full_region_matches_h0():
    from stabbench.matrices import code_hamiltonian_dense

    code = repetition_code(4)
    H = patch_hamiltonian(code, frozenset(range(4)))
    assert np.allclose(H, code_hamiltonian_dense(code), atol=1e-12)


def test_block_split_stabilizer_payload_is_diagonal():
    code = repetition_code(4)
    # a check itself commutes with P_S: off part must vanish
    qlo = decompose([(1.0, code.checks[1])], code)
    (t,) = qlo.terms
    diag, off = block_split(t, code)
    assert off.paulis == ()
    assert np.allclose(
        operator_dense(code.n, columns(diag.paulis)),
        operator_dense(code.n, columns(t.paulis)),
    )


def test_block_split_two_qubit_flip_on_field_code():
    code = field_code(2)
    eps = 0.25
    qlo = decompose([(eps, PauliString.from_label("XX"))], code)
    (t,) = qlo.terms
    diag, off = block_split(t, code)
    Md = operator_dense(2, columns(diag.paulis))
    Mo = operator_dense(2, columns(off.paulis))
    # basis order |00>,|01>,|10>,|11>: the block-diagonal piece couples the
    # excited pair |01>,|10>; the off part couples |00> and |11>
    expect_diag = np.zeros((4, 4), dtype=complex)
    expect_diag[1, 2] = expect_diag[2, 1] = eps
    expect_off = np.zeros((4, 4), dtype=complex)
    expect_off[0, 3] = expect_off[3, 0] = eps
    assert np.allclose(Md, expect_diag, atol=1e-12)
    assert np.allclose(Mo, expect_off, atol=1e-12)


def test_block_split_sum_and_norm_contract():
    code = toric_code(2)
    rng = random.Random(21)
    qlo = decompose(random_pauli_sum(code, rng, num_terms=8, max_weight=2), code)
    for t in qlo.terms:
        diag, off = block_split(t, code)
        total = operator_dense(code.n,
                               columns(list(diag.paulis) + list(off.paulis)))
        assert np.allclose(total, operator_dense(code.n, columns(t.paulis)),
                           atol=1e-11)
        vnorm, diag_norm, off_norm = operator_norms((t, diag, off))
        assert diag_norm <= vnorm + 1e-10
        assert off_norm <= vnorm + 1e-10
        # both halves keep the syndrome and support keys
        assert diag.support == t.support and off.support == t.support
        assert diag.syndrome == t.syndrome


def test_block_diagonal_part_commutes_with_local_projector():
    code = toric_code(2)
    rng = random.Random(33)
    qlo = decompose(random_pauli_sum(code, rng, num_terms=6, max_weight=2),
                    code)
    for t in qlo.terms:
        diag, _ = block_split(t, code)
        P, _ = local_projectors(code, t.support)
        M = operator_dense(len(t.support), (diag.c, diag.x, diag.z))
        assert np.linalg.norm(P @ M - M @ P) < 1e-10


# ---------------------------------------------------------------------------
# The dense patch algebra, kept as the oracle of the closed forms.

def patch_matrix_to_term(M: np.ndarray, template: LocalTerm,
                         drop_tol: float = 1e-13) -> LocalTerm:
    """Re-expand a patch matrix into Paulis lifted back to full indices."""
    qubits = template.patch_qubits

    def lift(bits: int) -> int:
        return sum(1 << q for j, q in enumerate(qubits) if (bits >> j) & 1)

    paulis = tuple(
        (c, PauliString(template.n, lift(x), lift(z)))
        for (x, z), c in pauli_transform(M, tol=drop_tol).items()
    )
    return LocalTerm(template.n, template.support, template.syndrome, paulis)


def dense_block_split(term: LocalTerm, code: StabilizerCode):
    P, Q = local_projectors(code, term.support)
    V = operator_dense(len(term.support), (term.c, term.x, term.z))
    diag = P @ V @ P + Q @ V @ Q
    return (patch_matrix_to_term(diag, term),
            patch_matrix_to_term(V - diag, term))


def dense_generator_term(term: LocalTerm, code: StabilizerCode) -> LocalTerm:
    """A = P V Q H^+ - H^+ Q V P with H^+ the pseudo-inverse of the patch
    Hamiltonian."""
    P, Q = local_projectors(code, term.support)
    V = operator_dense(len(term.support), (term.c, term.x, term.z))
    Hpinv = np.linalg.pinv(patch_hamiltonian(code, term.support), rcond=1e-12,
                           hermitian=True)
    return patch_matrix_to_term(P @ V @ Q @ Hpinv - Hpinv @ Q @ V @ P, term)


def coefficients(term: LocalTerm) -> dict:
    out: dict = {}
    for c, p in term.paulis:
        out[(p.x, p.z)] = out.get((p.x, p.z), 0.0) + c * p.sign
    return out


def assert_same_term(got: LocalTerm, want: LocalTerm, atol: float = 1e-12):
    assert got.support == want.support
    assert got.syndrome == want.syndrome
    a, b = coefficients(got), coefficients(want)
    for key in a.keys() | b.keys():
        assert abs(a.get(key, 0.0) - b.get(key, 0.0)) <= atol, key


ORACLE_CODES = {
    "toric2": toric_code(2),
    **{f"rep{n}": repetition_code(n) for n in range(4, 9)},
    "ising_toric2": ising_toric(2),
    "general": general_code(),
    # [[5, 1, 3]]: a check with Z where a later one has X, so products in
    # the check group pick up the sign of reordering them.
    "five_qubit": StabilizerCode.from_checks(
        5, [PauliString.from_label(s)
            for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]),
}


def drawn_pauli_sum(draw, n: int) -> list:
    """1 to 6 (coeff, signed Pauli) pairs of weight 1 to 3 on n qubits, the
    coefficients all real, all imaginary or complex."""
    kind = draw(st.sampled_from(("hermitian", "antihermitian", "complex")))
    scale = {"hermitian": 1.0, "antihermitian": 1j,
             "complex": complex(1, draw(st.floats(-1, 1)))}[kind]
    qubit_sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
    raw = draw(st.lists(
        st.tuples(st.floats(-1, 1, allow_nan=False), qubit_sets,
                  st.lists(st.sampled_from("XYZ"), min_size=3, max_size=3),
                  st.sampled_from((1, -1))),
        min_size=1, max_size=6))
    paulis = []
    for c, qubits, kinds, sign in raw:
        x = z = 0
        for q, k in zip(sorted(qubits), kinds):
            x |= (k in "XY") << q
            z |= (k in "YZ") << q
        paulis.append((scale * c, PauliString(n, x, z, sign)))
    return paulis


@st.composite
def oracle_cases(draw):
    """(code with drawn check weights, local terms): the terms of a
    decomposed Pauli sum, or one hand-built term with a drawn syndrome
    whose support is the Paulis' own support plus drawn qubits, so that it
    may omit checks they flip.  Coefficients are all real, all imaginary
    or complex."""
    base = ORACLE_CODES[draw(st.sampled_from(sorted(ORACLE_CODES)))]
    lambdas = draw(st.lists(st.sampled_from((1.0, 1.5, 2.0, 3.0)),
                            min_size=base.num_checks,
                            max_size=base.num_checks))
    code = StabilizerCode(base.n, base.checks, tuple(lambdas), base.kind)
    n = code.n
    paulis = drawn_pauli_sum(draw, n)
    if draw(st.booleans()):
        return code, decompose(paulis, code).terms
    support = frozenset().union(*(p.support() for _, p in paulis))
    support |= draw(st.sets(st.integers(0, n - 1), max_size=3))
    syndrome = draw(st.integers(1, (1 << code.num_checks) - 1))
    return code, (LocalTerm(n, support, syndrome, tuple(paulis)),)


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_block_split_matches_dense_patch_algebra(case):
    code, terms = case
    for t in terms:
        diag, off = block_split(t, code)
        want_diag, want_off = dense_block_split(t, code)
        assert_same_term(diag, want_diag)
        assert_same_term(off, want_off)


def test_block_split_term_omitting_a_flipped_check():
    # X_3 on rep5 flips Z2Z3 and Z3Z4; a term on {1, 2, 3} holds only the
    # first, and of the group {I, Z1Z2, Z2Z3, Z1Z3} of its inside checks
    # I and Z1Z2 commute with X_3: the off part is (X_3 + Z1Z2 X_3) / 2.
    code = repetition_code(5)
    p = PauliString.single(5, "X", 3)
    term = LocalTerm(5, frozenset({1, 2, 3}), 0b1100,
                     ((0.5, p), (0.25, PauliString.single(5, "Z", 1))))
    diag, off = block_split(term, code)
    want_diag, want_off = dense_block_split(term, code)
    assert_same_term(diag, want_diag)
    assert_same_term(off, want_off)
    assert coefficients(off) == pytest.approx(
        {(p.x, 0): 0.25, (p.x, 0b0110): 0.25})


def test_block_split_on_qubits_past_int64():
    # Patch masks are lifted back with Python ints when a qubit index does
    # not fit an int64 bit.
    code = repetition_code(70)
    v = decompose([(0.3, PauliString.single(70, "X", 68)),
                   (0.2, PauliString.from_support(70, "Y", (61, 62)))], code)
    for t in v.terms:
        diag, off = block_split(t, code)
        want_diag, want_off = dense_block_split(t, code)
        assert_same_term(diag, want_diag)
        assert_same_term(off, want_off)
        assert off.paulis


@pytest.mark.parametrize("qubits, width, rank",
                         [((0, 1, 2, 9), 14, 8), ((0, 1, 2, 6), 16, 12)])
def test_closed_forms_on_wide_toric_patches(qubits, width, rank):
    # Weight-4 X strings on toric L = 3 with strong supports of 14 and 16
    # qubits, past a dense patch matrix, whose patch groups have rank 8
    # and 12.  The string T flips E checks, all inside: ||P T Q|| = 1, so
    # the off-diagonal part has norm 0.3, and ||A|| = 0.3 / E.
    code = toric_code(3)
    v = decompose([(0.3, PauliString.from_support(code.n, "X", qubits))],
                  code)
    (term,) = v.terms
    assert len(term.support) == width
    assert term.support not in code.patch_groups
    diag, off = block_split(term, code)
    # The split built the support's group table: 2^rank elements.
    assert len(code.patch_groups[term.support][3]) == 1 << rank
    assert not QuasiLocalOperator(code, (diag, off)).add(v.scaled(-1)).terms
    # [H0, A] + V - PV cancels term by term.
    a = solve_generator(code, v)
    pv = block_diagonal_part(v)
    h0 = decompose(code_hamiltonian_terms(code), code)
    assert a.terms
    assert not commutator_qlo(h0, a).add(v).add(pv.scaled(-1)).terms
    scale = math.exp(0.5 * width)
    energy = term.syndrome.bit_count()
    for op, norm in ((v, 0.3), (QuasiLocalOperator(code, (off,)), 0.3),
                     (QuasiLocalOperator(code, (diag,)), 0.3),
                     (a, 0.3 / energy)):
        assert kappa_norm(op, 0.5) == pytest.approx(norm * scale, rel=1e-12)


def same_bits(got: LocalTerm, want: LocalTerm) -> bool:
    return (got.support == want.support and got.syndrome == want.syndrome
            and all(np.array_equal(getattr(got, a), getattr(want, a))
                    for a in "cxz"))


def mixed_operator() -> QuasiLocalOperator:
    """Terms on rep6 with unequal check weights: mixed supports, the
    support {1, 2, 3} carrying syndromes 0b110 (X_2 and Y_2, several
    strings) and 0 (Z_1 Z_2 Z_3, which flips nothing), Z_4 flipping nothing
    on its own support, and a hand-built term on {2, 3, 4} that omits the
    flipped check Z_4 Z_5, with strings of several syndromes."""
    base = repetition_code(6)
    code = StabilizerCode(6, base.checks, (1.0, 1.5, 2.0, 3.0, 1.5),
                          base.kind)

    def p(label):
        return PauliString.from_label(label)

    v = decompose([(0.4, p("IIXIII")), (0.3j, p("IIYIII")),
                   (0.2, p("IZZZII")), (0.5, p("IIIIZI")),
                   (0.25 - 0.1j, p("IIIXXI")), (0.1, p("XIIIII"))], code)
    hand = LocalTerm(6, frozenset({2, 3, 4}), 0b11000,
                     ((0.35, p("IIIIXI")), (-0.15j, p("IIIZYI")),
                      (0.05, p("IIZIII"))))
    return QuasiLocalOperator(code, v.terms + (hand,))


def test_operator_pass_matches_dense_and_one_term_passes():
    op = mixed_operator()
    code = op.code
    keys = [(t.support, t.syndrome) for t in op.terms]
    assert len(set(keys)) == len(keys)
    assert {s for sup, s in keys if sup == frozenset({1, 2, 3})} == {0, 0b110}
    assert any(t.c.size > 1 for t in op.terms)
    pv, off = block_split(op, code)
    for got, want in zip(block_diagonal_part(op, keep_offdiag=True),
                         (pv, off)):
        assert all(map(same_bits, got.terms, want.terms))
    a = solve_generator(code, op)
    alone = [block_split(t, code) for t in op.terms]
    # No term's strings leak into another term's segment: every half and
    # generator term equals its one-term pass bit for bit.
    for got, want in ((pv.terms, [d for d, _ in alone]),
                      (off.terms, [o for _, o in alone]),
                      (a.terms, [g for t in op.terms for g in solve_generator(
                          code, QuasiLocalOperator(code, (t,))).terms])):
        want = [t for t in want if t.c.size]
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want))
    flips_none = [t for t, (_, o) in zip(op.terms, alone) if not o.c.size]
    assert {len(t.support) for t in flips_none} == {1, 3}
    for t, (d, o) in zip(op.terms, alone):
        want_d, want_o = dense_block_split(t, code)
        assert_same_term(d, want_d)
        assert_same_term(o, want_o)
    got = a.key_index()
    for t in op.terms:
        if t.syndrome:
            want = dense_generator_term(t, code)
            assert want.paulis
            assert_same_term(got[(t.support, t.syndrome)], want)


def test_operator_pass_on_the_empty_operator():
    code = repetition_code(4)
    empty = QuasiLocalOperator(code, ())
    assert empty.support == frozenset()
    pv, off = block_split(empty, code)
    assert pv.terms == off.terms == ()
    assert block_diagonal_part(empty).terms == ()
    assert solve_generator(code, empty).terms == ()
    assert code.patch_groups == {}


def test_operator_refusals_name_the_term():
    # Z checks on 14 qubits: X on 13 of them has a patch group of rank 13.
    code = StabilizerCode.from_checks(
        14, [PauliString.single(14, "Z", i) for i in range(14)])
    small = decompose([(0.2, PauliString.single(14, "X", 13))], code).terms
    (big,) = decompose(
        [(1.0, PauliString.from_support(14, "X", range(13)))], code).terms
    op = QuasiLocalOperator(code, small + (big,))
    with pytest.raises(PatchTooLargeError, match="rank 13"):
        block_diagonal_part(op)
    with pytest.raises(PatchTooLargeError, match="rank 13"):
        solve_generator(code, op)
    assert big.support not in code.patch_groups
    assert list(code.patch_groups) == [small[0].support]
    # One bad zero-syndrome term among good ones.
    rep = repetition_code(4)
    bad = LocalTerm(4, frozenset({0, 1, 2}), 0,
                    ((0.3, PauliString.single(4, "Z", 1)),
                     (0.2, PauliString.single(4, "X", 1))))
    good = decompose([(0.1, PauliString.single(4, "X", 3)),
                      (0.2, PauliString.single(4, "Z", 0))], rep).terms
    with pytest.raises(GeneratorConsistencyError, match=r"\[0, 1, 2\]"):
        solve_generator(rep, QuasiLocalOperator(rep, good + (bad,) + good))


@pytest.mark.parametrize("first", [1.0, 2.0])
def test_patch_groups_belong_to_one_code(first):
    # Every energy on lam = 2 doubles, so every generator coefficient
    # halves, exactly: a power of two commutes with each rounding.
    codes = {lam: repetition_code(5, lam=lam) for lam in (1.0, 2.0)}
    pauli = [(0.3, PauliString.single(5, "X", 2)),
             (0.2j, PauliString.from_support(5, "X", (0, 1))),
             (0.1, PauliString.from_label("IYXII"))]
    terms = decompose(pauli, codes[1.0]).terms
    gens = {}
    for lam in (first, 3.0 - first):
        code = codes[lam]
        gens[lam] = solve_generator(code, QuasiLocalOperator(code, terms))
        assert set(code.patch_groups) == {t.support for t in terms}
    one, two = gens[1.0].terms, gens[2.0].terms
    assert len(one) == len(two) == len(terms)
    for a, b in zip(one, two):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
        assert np.array_equal(a.c, 2 * b.c)


def test_local_term_refuses_wide_supports_and_outside_paulis():
    zero = 0
    with pytest.raises(PatchTooLargeError):
        LocalTerm(70, range(64), zero, ())
    wide = LocalTerm(70, range(63), zero,
                     ((0.5, PauliString.single(70, "Y", 62)),))
    assert wide.x.tolist() == wide.z.tolist() == [1 << 62]
    with pytest.raises(ValueError, match="outside"):
        LocalTerm(4, {0, 1}, zero, ((1.0, PauliString.single(4, "X", 2)),))


# ---------------------------------------------------------------------------
# Merging and commutators.

def test_add_merges_equal_keys_to_the_dense_sum():
    code = toric_code(2)
    rng = random.Random(5)
    a = decompose(random_pauli_sum(code, rng, num_terms=10), code)
    b = decompose(random_pauli_sum(code, rng, num_terms=10), code)
    assert a.key_index().keys() & b.key_index().keys()
    total = a.add(b)
    assert len(total.key_index()) == len(total.terms)
    assert total.key_index().keys() == a.key_index().keys() | b.key_index().keys()
    assert np.allclose(total.to_dense(), a.to_dense() + b.to_dense(),
                       atol=1e-12)


def test_add_removes_an_exactly_cancelling_term():
    code = repetition_code(5)
    x2, z1 = PauliString.single(5, "X", 2), PauliString.single(5, "Z", 1)
    a = decompose([(0.3, x2), (0.2, z1)], code)
    assert a.add(a.scaled(-1)).terms == ()
    (left,) = a.add(decompose([(-0.3, x2)], code)).terms
    assert coefficients(left) == {(0, z1.z): 0.2}


def test_add_on_a_support_past_the_dense_limit():
    # On 14 patch qubits the masks x | z << 12 of X_12 and Z_0 coincide;
    # the merge must keep them apart.
    code = field_code(14)
    n, zero = 14, 0
    x12, z0 = PauliString.single(n, "X", 12), PauliString.single(n, "Z", 0)
    y3 = PauliString.single(n, "Y", 3)
    a = QuasiLocalOperator(code, (LocalTerm(n, range(n), zero,
                                            ((0.5, x12), (0.1, y3))),))
    b = QuasiLocalOperator(code, (LocalTerm(n, range(n), zero,
                                            ((0.25, z0), (-0.1, y3))),))
    (merged,) = a.add(b).terms
    assert coefficients(merged) == {(x12.x, 0): 0.5, (0, z0.z): 0.25}


def pairwise_commutator(d: QuasiLocalOperator, a: QuasiLocalOperator) -> dict:
    """[D, A] by the loop over pairs of Paulis of overlapping terms, as
    {(support, syndrome bits): {(x, z): coeff}}, dropping coefficients at
    or below DROP_TOL and keys left empty."""
    grouped: dict = {}
    for td in d.terms:
        for ta in a.terms:
            if not td.support & ta.support:
                continue
            acc = grouped.setdefault(
                (td.support | ta.support, td.syndrome ^ ta.syndrome),
                {})
            for cd, pd in td.paulis:
                for ca, pa in ta.paulis:
                    if commutes(pd, pa):
                        continue
                    phase, canon = multiply_phase(pd, pa)
                    key = (canon.x, canon.z)
                    acc[key] = acc.get(key, 0.0) + 2.0 * cd * ca * phase
    out = {}
    for key, acc in grouped.items():
        kept = {k: c for k, c in acc.items() if abs(c) > DROP_TOL}
        if kept:
            out[key] = kept
    return out


def assert_matches_pairwise(d, a, atol: float = 1e-12):
    """Same keys and coefficients as the pairwise loop; keys whose every
    coefficient is within atol of zero may sit on either side."""
    got = {(t.support, t.syndrome): coefficients(t)
           for t in commutator_qlo(d, a).terms}
    want = pairwise_commutator(d, a)

    def visible(terms):
        return {k for k, acc in terms.items()
                if max(map(abs, acc.values())) > atol}

    assert visible(got) == visible(want)
    for key in got.keys() | want.keys():
        g, w = got.get(key, {}), want.get(key, {})
        for pauli in g.keys() | w.keys():
            assert abs(g.get(pauli, 0.0) - w.get(pauli, 0.0)) <= atol, key


@st.composite
def commutator_cases(draw):
    """(code, D, A): two decomposed Pauli sums on one code of
    ORACLE_CODES, either of them with an identity term."""
    code = ORACLE_CODES[draw(st.sampled_from(sorted(ORACLE_CODES)))]
    ops = []
    for _ in range(2):
        paulis = drawn_pauli_sum(draw, code.n)
        if draw(st.booleans()):
            paulis.append((draw(st.floats(-1, 1)), PauliString.identity(code.n)))
        ops.append(decompose(paulis, code))
    return code, *ops


@settings(max_examples=150, deadline=None)
@given(commutator_cases())
def test_commutator_matches_pairwise_loop_and_dense(case):
    code, d, a = case
    assert_matches_pairwise(d, a)
    D, A = d.to_dense(), a.to_dense()
    assert np.allclose(commutator_qlo(d, a).to_dense(), D @ A - A @ D,
                       atol=1e-12)


def test_commutator_on_a_union_past_the_dense_limit():
    # Strong supports {0..7} and {6..15} on rep16 meet in a 16-qubit patch.
    code = repetition_code(16)
    d = decompose([(0.4, PauliString.from_support(16, "X", range(1, 7))),
                   (0.3, PauliString.from_support(16, "Y", (6, 7)))], code)
    a = decompose([(0.2j, PauliString.from_support(16, "Z", range(6, 16))),
                   (0.5j, PauliString.from_support(16, "X", range(7, 15)))],
                  code)
    comm = commutator_qlo(d, a)
    assert max(len(t.support) for t in comm.terms) == 16
    assert_matches_pairwise(d, a)


def commutator_per_pair(d: QuasiLocalOperator,
                        a: QuasiLocalOperator) -> QuasiLocalOperator:
    """The loop over pairs of terms that the one-pass ``commutator_qlo``
    replaced, kept as the reference: one numpy pass per overlapping pair,
    both terms re-indexed into the patch of their union, and one merge per
    key."""
    code = d.code
    grouped: dict = {}
    for td in d.terms:
        for ta in a.terms:
            if not td.support & ta.support:
                continue
            sup = td.support | ta.support
            quasilocal._refuse_wider(sup)
            qubits = sorted(sup)
            (dx, dz), (ax, az) = (
                t._masks_at(np.searchsorted(qubits, t.patch_qubits))
                for t in (td, ta))
            i, j = np.nonzero(odd_overlap(dx[:, None], dz[:, None], ax, az))
            e, px, pz = times(np.bitwise_count(dx & dz)[i], dx[i], dz[i],
                              np.bitwise_count(ax & az)[j], ax[j], az[j])
            grouped.setdefault(
                (sup, td.syndrome ^ ta.syndrome), []
            ).append((2.0 * td.c[i] * ta.c[j] * hermitian_phase(e, px, pz),
                      px, pz))
    terms = (quasilocal._summed_term(code.n, sup, synd, *parts)
             for (sup, synd), parts in grouped.items())
    return QuasiLocalOperator(code, tuple(t for t in terms if t.c.size))


def assert_same_operator(got: QuasiLocalOperator, want: QuasiLocalOperator):
    """The same terms in the same order: supports, syndromes and columns
    equal bit for bit, in the same dtypes."""
    assert len(got.terms) == len(want.terms)
    for g, w in zip(got.terms, want.terms):
        assert same_bits(g, w)
        assert [getattr(g, a).dtype for a in "cxz"] == \
            [getattr(w, a).dtype for a in "cxz"]


@settings(max_examples=150, deadline=None)
@given(commutator_cases())
def test_commutator_one_pass_equals_per_pair_loop(case):
    code, d, a = case
    for left, right in ((d, a), (a, d), (d, d)):
        assert_same_operator(commutator_qlo(left, right),
                             commutator_per_pair(left, right))


def test_commutator_of_disjoint_commuting_and_empty_operators():
    # Disjoint supports give no pair; overlapping terms whose strings all
    # commute give a key but no term; an empty operator gives nothing.
    code = repetition_code(8)
    d = decompose([(0.3, PauliString.single(8, "X", 1)),
                   (0.2, PauliString.identity(8))], code)
    far = decompose([(0.4, PauliString.single(8, "X", 6))], code)
    near = decompose([(0.5, PauliString.single(8, "X", 2)),
                      (0.1, PauliString.from_support(8, "X", (1, 2)))], code)
    assert all(t.support & u.support for t in d.terms[:1] for u in near.terms)
    empty = QuasiLocalOperator(code, ())
    for left, right in ((d, far), (far, d), (d, near), (d, empty),
                        (empty, near), (empty, empty)):
        assert commutator_qlo(left, right).terms == ()
        assert commutator_per_pair(left, right).terms == ()


def test_commutator_on_qubits_past_int64():
    # rep70 terms on qubits up to 69: each union has at most 5 qubits, so
    # its patch masks fit an int64, as masks on all 70 qubits would not.
    n = 70
    code = repetition_code(n)
    d = decompose([(0.3, PauliString.single(n, "X", 68)),
                   (0.2, PauliString.from_support(n, "Y", (61, 62))),
                   (0.1j, PauliString.single(n, "Z", 2))], code)
    a = decompose([(0.4j, PauliString.single(n, "Z", 68)),
                   (0.25, PauliString.single(n, "X", 69)),
                   (-0.5j, PauliString.single(n, "Z", 62)),
                   (0.3, PauliString.single(n, "X", 2))], code)
    comm = commutator_qlo(d, a)
    assert {max(t.support) for t in comm.terms} == {69, 63, 3}
    assert_same_operator(comm, commutator_per_pair(d, a))
    assert_matches_pairwise(d, a)


def test_commutator_refuses_a_union_past_63_qubits(monkeypatch):
    # Terms on 40 qubits each whose union spans 70: refused while the keys
    # are assigned, before any column is re-indexed.
    n = 70
    code = field_code(n)
    d = QuasiLocalOperator(code, (LocalTerm(
        n, range(40), 1, ((0.5, PauliString.single(n, "X", 0)),)),))
    a = QuasiLocalOperator(code, (LocalTerm(
        n, range(30, 70), 0, ((0.5, PauliString.single(n, "Z", 35)),)),))

    def unreached(*args):
        raise AssertionError("columns re-indexed before the refusal")

    monkeypatch.setattr(quasilocal, "_union_columns", unreached)
    with pytest.raises(PatchTooLargeError, match="70 qubits"):
        commutator_qlo(d, a)
