"""Dense materialization, the Pauli-basis transform, the coset eigensolver."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabbench import matrices, pauli
from stabbench.code import StabilizerCode
from stabbench.constructors import ising_toric, repetition_code, toric_code
from stabbench.experiments import plaquette_field_terms, uniform_field_terms
from stabbench.gf2 import Echelon, _span_table, _words
from stabbench.matrices import (
    PauliMatvec,
    code_hamiltonian_dense,
    codespace_projector_dense,
    lowest_eigenvalues_sparse,
    code_hamiltonian_terms,
    operator_dense,
    payload_norm,
    pauli_transform,
)
from stabbench.pauli import I_POWERS, PauliString, columns, symplectic_frame
from stabbench.quasilocal import PatchTooLargeError, block_split, decompose
from tests.test_quasilocal import ORACLE_CODES


def pauli_matrix(p: PauliString) -> np.ndarray:
    return operator_dense(p.n, columns([(1.0, p)]))


def dict_columns(coeffs: dict) -> tuple:
    """The {(x, z): c} dict of ``pauli_transform`` as columns (c, x, z)."""
    return (np.array(list(coeffs.values()), dtype=complex),
            np.array([x for x, _ in coeffs], dtype=np.int64),
            np.array([z for _, z in coeffs], dtype=np.int64))


def test_single_qubit_pauli_matrices():
    X = pauli_matrix(PauliString.from_label("X"))
    Y = pauli_matrix(PauliString.from_label("Y"))
    Z = pauli_matrix(PauliString.from_label("Z"))
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Y, [[0, -1j], [1j, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])


def test_dense_tensor_order():
    # qubit 0 is the least significant bit of the basis index
    zi = pauli_matrix(PauliString.from_label("ZI"))  # Z on qubit 0
    expect = np.diag([1, -1, 1, -1])
    assert np.allclose(zi, expect)


def test_pauli_transform_round_trip_random():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        terms = []
        seen = set()
        for _ in range(6):
            x, z = rng.getrandbits(n), rng.getrandbits(n)
            if (x, z) in seen:
                continue
            seen.add((x, z))
            terms.append(
                (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1),
                 PauliString(n, x, z))
            )
        M = operator_dense(n, columns(terms))
        coeffs = pauli_transform(M)
        expect = {(p.x, p.z): c * p.sign for c, p in terms}
        assert set(coeffs) == {k for k, v in expect.items() if abs(v) > 1e-13}
        for key, val in coeffs.items():
            assert val == pytest.approx(expect[key], abs=1e-12)
        back = operator_dense(n, dict_columns(coeffs))
        assert np.allclose(back, M, atol=1e-12)


@pytest.mark.parametrize("value, kept", [
    (0.5, True), (-3 + 2j, True), (5.0, True), (2e-13, True), (1e-14, False),
    (0.0, False)])
def test_pauli_transform_of_a_scalar(value, kept):
    # A 1 x 1 matrix is the identity on zero qubits: key (0, 0), dropped at
    # or below tol * max(|value|, 1).
    got = pauli_transform(np.array([[value]]))
    assert got == ({(0, 0): value} if kept else {})


def test_pauli_transform_asymmetric_string():
    # X on qubit 0 and Z on qubit 2: catches qubit-order mistakes
    p = PauliString.from_label("XIZ")
    coeffs = pauli_transform(pauli_matrix(p))
    assert coeffs == {(p.x, p.z): pytest.approx(1.0)}


def test_pauli_transform_matches_per_entry_decode():
    # The digit decode reproduces a per-entry base-4 decode exactly, in the
    # same key order.
    rng = np.random.default_rng(4)
    M = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    M[np.abs(M) < 1.0] = 0.0
    t = np.asarray(M).reshape((2,) * 10)
    for j in range(5):
        t = np.moveaxis(t, 5 - j, 1).reshape((4,) + t.shape[2:])
        t = np.moveaxis(np.tensordot(matrices._PAULI_T, t, axes=([1], [0])),
                        0, -1)
    t = t.reshape(-1)
    expect = {}
    for flat in np.nonzero(np.abs(t) > 0.05 * max(np.abs(t).max(), 1.0))[0]:
        x = z = 0
        for qb in range(5):
            digit = (int(flat) >> (2 * qb)) & 3
            x |= (digit in (1, 2)) << qb
            z |= (digit in (2, 3)) << qb
        expect[(x, z)] = complex(t[flat])
    got = pauli_transform(M, tol=0.05)
    assert list(got.items()) == list(expect.items())


def test_matvec_matches_dense():
    code = toric_code(2)
    terms = columns(code_hamiltonian_terms(code))
    H = operator_dense(code.n, terms)
    mv = PauliMatvec(code.n, terms)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(1 << code.n)
    assert np.allclose(mv(psi), H.real @ psi, atol=1e-10)
    assert mv.is_real


def test_sparse_eigenvalues_match_dense():
    code = repetition_code(6)
    terms = columns(code_hamiltonian_terms(code) + [
        (0.07, PauliString.single(6, "X", i)) for i in range(6)
    ])
    dense_vals = np.linalg.eigvalsh(operator_dense(6, terms).real)
    sparse_vals = lowest_eigenvalues_sparse(6, terms, k=5, seed=3)
    assert np.allclose(sparse_vals, dense_vals[:5], atol=1e-8)


def test_codespace_projector_rank():
    code = toric_code(2)
    P = codespace_projector_dense(code)
    vals = np.linalg.eigvalsh(P)
    assert np.allclose(np.sort(vals)[-4:], 1.0, atol=1e-10)
    assert np.allclose(np.sort(vals)[:-4], 0.0, atol=1e-10)
    H = code_hamiltonian_dense(code)
    assert np.linalg.norm(H @ P) < 1e-9


@st.composite
def pauli_sums(draw):
    """(n, terms) with real coefficients of both signs on X, Y and Z terms;
    an odd number of Y factors makes a term's matrix non-real."""
    n = draw(st.integers(1, 8))
    bits = st.integers(0, (1 << n) - 1)
    terms = draw(st.lists(
        st.tuples(st.floats(-1, 1, allow_nan=False), bits, bits,
                  st.sampled_from((1, -1))),
        min_size=1, max_size=10))
    return n, [(c, PauliString(n, x, z, sign)) for c, x, z, sign in terms]


def dense_from_pairs(n: int, pairs) -> np.ndarray:
    """The per-pair dense builder that the column form replaced, kept as
    the reference: coeff * sign * i^|x & z| times the Z-parity signs, added
    at rows b ^ x."""
    dim = 1 << n
    basis = np.arange(dim, dtype=np.int64)
    M = np.zeros((dim, dim), dtype=complex)
    for coeff, p in pairs:
        phase = coeff * p.sign * (1j) ** ((p.x & p.z).bit_count() % 4)
        signs = 1.0 - 2.0 * (np.bitwise_count(basis & np.int64(p.z)) & 1)
        M[basis ^ np.int64(p.x), basis] += phase * signs
    return M


@settings(max_examples=150, deadline=None)
@given(pauli_sums(), st.data())
def test_column_form_matches_per_pair_reference(case, data):
    # Repeated strings, and a complex second row of coefficients for a
    # two-row weight batch.
    n, pairs = case
    pairs = pairs + data.draw(st.lists(st.sampled_from(pairs), max_size=3))
    imag = data.draw(st.lists(st.floats(-1, 1), min_size=len(pairs),
                              max_size=len(pairs)))
    rows = [pairs, [(c + 1j * f, p) for (c, p), f in zip(pairs, imag)]]
    refs = [dense_from_pairs(n, row) for row in rows]
    for row, ref in zip(rows, refs):
        assert np.array_equal(operator_dense(n, columns(row)), ref)
    _, x, z = columns(pairs)
    weights = np.stack([columns(row)[0] for row in rows])
    assert np.array_equal(matrices._batched_blocks(n, x, z, weights),
                          np.stack(refs))
    # The CSR matrix keeps the per-pair rule: real data exactly when every
    # phase coeff * sign * i^|x & z| is real, one entry per distinct x-mask.
    for row in rows:
        mv = PauliMatvec(n, columns(row))
        real = all(
            complex(c * p.sign * (1j) ** ((p.x & p.z).bit_count() % 4)).imag
            == 0 for c, p in row)
        assert mv.is_real == real
        assert mv.matrix.dtype == (np.float64 if real else np.complex128)
        assert mv.matrix.indices.dtype == mv.matrix.indptr.dtype == np.int32
        assert mv.matrix.nnz == (1 << n) * len({p.x for _, p in row})


def batched_blocks_per_string(r, x, z, weights) -> np.ndarray:
    """The per-string loop that ``_batched_blocks`` replaced, kept as the
    reference: one Z-parity sign row and one scattered add per string, in
    the input order."""
    dim = 1 << r
    basis = np.arange(dim, dtype=np.int64)
    phases = matrices._phases(weights, x, z)
    out = np.zeros((len(weights), dim, dim), dtype=complex)
    for k, mask in enumerate(x):
        signs = 1.0 - 2.0 * (np.bitwise_count(basis & z[k]) & 1)
        out[:, basis ^ mask, basis] += phases[:, k, None] * signs
    return out


@st.composite
def block_batches(draw):
    """(r, x, z, weights): strings on up to 4 qubits whose x-masks come from
    a pool of at most three, so that masks repeat, often more than 2^r
    times; one to three weight rows of mixed magnitudes, so that the order
    of a sum shows in its rounding.  The weights are real, complex, or
    real values times (-i)^|x & z|, which makes every phase real (the
    float64 build) with strings of odd Y count among them."""
    r = draw(st.integers(0, 4))
    masks = st.integers(0, (1 << r) - 1)
    pool = draw(st.lists(masks, min_size=1, max_size=3))
    k = draw(st.integers(0, 14))
    x = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    z = draw(st.lists(masks, min_size=k, max_size=k))
    rows = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["real", "complex", "real phases"]))
    parts = 2 if kind == "complex" else 1
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=parts * rows * k,
                           max_size=parts * rows * k))
    weights = np.array(values).reshape(parts, rows, k)
    x, z = np.array(x, dtype=np.int64), np.array(z, dtype=np.int64)
    if kind == "complex":
        weights = weights[0] + 1j * weights[1]
    elif kind == "real phases":
        weights = weights * I_POWERS[-np.bitwise_count(x & z) % 4]
    return r, x, z, weights.reshape(rows, k)


@settings(max_examples=300, deadline=None)
@given(block_batches())
# r = 0 and one weight row: every string on the one entry, the case where a
# pairwise reduction over a contiguous axis rounds differently.
@example((0, np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64),
          np.array([[1e16, 1.0, -1e16, 1.0, 3.0]])))
# One mask, more strings than 2^r = 2: the running sum crosses a chunk.
@example((1, np.ones(5, dtype=np.int64), np.array([0, 1, 1, 0, 1]),
          np.array([[0.1, 1e16, 0.3, -1e16, 0.7 + 0.2j]])))
def test_batched_blocks_bit_identical_to_per_string_loop(case):
    # The reference builds complex blocks; when every phase is real the
    # float64 blocks equal its real parts.
    r, x, z, weights = case
    got = matrices._batched_blocks(r, x, z, weights)
    want = batched_blocks_per_string(r, x, z, weights)
    if matrices._phases(weights, x, z).imag.any():
        assert got.dtype == np.complex128
    else:
        assert got.dtype == np.float64
        want = want.real
    assert np.array_equal(got, want)


def test_batched_blocks_running_sum_crosses_chunks():
    # Three weight rows of 2^3 states take chunks of 2^16 / (3 * 8) = 2730
    # strings: 3000 strings on one mask, with weights of magnitudes 1e-8
    # to 1e8, carry the running sum across a chunk boundary.
    rng = np.random.default_rng(11)
    k = 3000
    x = np.full(k, 5, dtype=np.int64)
    z = rng.integers(0, 8, k)
    weights = rng.standard_normal((3, k)) * 10.0 ** rng.integers(-8, 9, (3, k))
    got = matrices._batched_blocks(3, x, z, weights)
    assert got.dtype == np.complex128
    assert np.array_equal(got, batched_blocks_per_string(3, x, z, weights))


def test_batched_blocks_dtype_follows_the_phases():
    def build(r, x, z, weights):
        return matrices._batched_blocks(
            r, np.array(x, dtype=np.int64), np.array(z, dtype=np.int64),
            np.array(weights))

    y = np.array([[0, -1j], [1j, 0]])
    # Y x Y: i^2 times the real X^x Z^z, so a real phase.
    yy = build(2, [3], [3], [[0.5]])
    assert yy.dtype == np.float64 and yy.flags.c_contiguous
    assert np.array_equal(yy[0], 0.5 * np.kron(y, y).real)
    # r = 0: every string on the one entry.
    assert build(0, [0, 0], [0, 0], [[1.0, 2.0]]).dtype == np.float64
    # One mask, five X x X and Y x Y strings: the running sum crosses
    # chunks of 2^r = 4.
    chunks = build(2, [3] * 5, [0, 3, 3, 0, 3],
                   [[0.1, 1e16, 0.3, -1e16, 0.7]])
    assert chunks.dtype == np.float64
    # A lone Y has phase i: complex; i times Y is real again.
    assert build(1, [1], [1], [[1.0]]).dtype == np.complex128
    assert build(1, [1], [1], [[1j]]).dtype == np.float64
    # One imaginary phase among real ones makes the whole batch complex.
    assert build(2, [3, 1], [3, 1], [[0.5, 1.0], [0.5, 0.0]]).dtype \
        == np.complex128
    assert operator_dense(2, (np.array([0.5]), np.array([3]),
                              np.array([3]))).dtype == np.float64


@settings(max_examples=100, deadline=None)
@given(pauli_sums())
def test_coset_frame_blocks_rebuild_the_sum(case):
    n, pairs = case
    terms = columns(pairs)
    frame = matrices.CosetFrame(n, terms)
    blocks = frame.blocks(terms)
    dim = 1 << frame.r
    assert blocks.shape == (1 << (n - frame.r), dim, dim)
    dense = operator_dense(n, terms)
    assert np.allclose(frame.full(blocks), dense, atol=1e-12)
    back = dict_columns(pauli_transform(blocks, frame=frame))
    assert np.allclose(operator_dense(n, back), dense, atol=1e-12)
    single = np.left_shift(1, np.array(frame.free, dtype=np.int64))
    assert np.array_equal(
        frame.representatives()[1 << np.arange(len(single))], single)


@pytest.mark.parametrize("labels, frame_name", [
    (("XXI", "IXX", "ZII", "IZI", "IIZ", "YYI"), "identity"),
    (("ZZI", "IZZ", "XII", "IXI", "IIX", "YYI"), "hadamard"),
])
def test_coset_frame_pauli_terms_rebuild_the_sum(labels, frame_name):
    # The block-native transform, mapped out of the frame, holds each
    # string of the sum with its coefficient (Y strings included, whose
    # sign the Hadamard frame flips).
    pairs = [(0.25 * (k + 1), PauliString.from_label(label))
             for k, label in enumerate(labels)]
    terms = columns(pairs)
    frame = matrices.CosetFrame(3, terms)
    assert frame.name == frame_name
    coeffs = pauli_transform(frame.blocks(terms), frame=frame)
    assert set(coeffs) == {(p.x, p.z) for _, p in pairs}
    for c, p in pairs:
        assert coeffs[p.x, p.z] == pytest.approx(c, abs=1e-12)


def scattered_transform(frame, blocks) -> dict:
    """The re-expansion that the block-native transform replaced, kept as
    the reference: ``pauli_transform`` of the scattered 2^n x 2^n matrix,
    each (x, z) mapped out of the Hadamard frame as ``_hadamard_frame``
    maps it."""
    coeffs = pauli_transform(frame.scatter(blocks))
    if frame.hadamard:
        coeffs = {(z, x): -c if (x & z).bit_count() & 1 else c
                  for (x, z), c in coeffs.items()}
    return coeffs


FRAME_CODES = {
    "toric2": toric_code(2),
    **{f"rep{n}": repetition_code(n) for n in range(2, 7)},
    "five_qubit": ORACLE_CODES["five_qubit"],
}


@st.composite
def framed_blocks(draw):
    """(frame, blocks): the coset frame of a code's Hamiltonian plus an X,
    Y or Z field on drawn qubits, so that both frames and 1 to 32 cosets
    occur, and a seeded random block stack of that frame, real or complex,
    with a drawn share of its entries set to zero."""
    code = FRAME_CODES[draw(st.sampled_from(sorted(FRAME_CODES)))]
    kind = draw(st.sampled_from("XYZ"))
    qubits = draw(st.sets(st.integers(0, code.n - 1)))
    frame = matrices.CosetFrame(code.n, columns(
        code_hamiltonian_terms(code)
        + [(0.1, PauliString.single(code.n, kind, q)) for q in qubits]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 1 << frame.r
    shape = (1 << (code.n - frame.r), dim, dim)
    blocks = rng.standard_normal(shape)
    if draw(st.booleans()):
        blocks = blocks + 1j * rng.standard_normal(shape)
    blocks[rng.random(shape) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0
    return frame, blocks


@settings(max_examples=150, deadline=None)
@given(framed_blocks())
def test_block_native_transform_matches_scattered_matrix(case):
    # The same strings in the same order, each coefficient within
    # 1e-14 max|c| of the full-matrix transform's; the blocks are not
    # touched.
    frame, blocks = case
    kept = blocks.copy()
    got = pauli_transform(blocks, frame=frame)
    want = scattered_transform(frame, blocks)
    assert np.array_equal(blocks, kept)
    assert list(got) == list(want)
    top = max(map(abs, want.values()), default=0.0)
    assert all(abs(got[k] - want[k]) <= 1e-14 * top for k in want)


@settings(max_examples=100, deadline=None)
@given(framed_blocks())
def test_real_stack_transform_equals_complex_path(case):
    # A real stack is expanded in float64, its Y entries carried as i^-1
    # times the coefficient: the same strings in the same order, each
    # coefficient == that of the stack cast to complex.  A full matrix is
    # the one-block case without a frame.
    frame, blocks = case
    real = np.ascontiguousarray(blocks.real)
    for stack, f in ((real, frame), (frame.full(real), None)):
        got = pauli_transform(stack, frame=f)
        want = pauli_transform(stack.astype(complex), frame=f)
        assert list(got) == list(want)
        assert all(got[key] == want[key] for key in want)


def test_block_native_transform_frames_and_coset_counts():
    # Frames the hypothesis cases draw from: the Hadamard frame with 32
    # cosets, and the identity frame with one coset, with two, and with
    # 2^n cosets of one state each.  A stack of the wrong shape is refused.
    def frame(code, kind):
        return matrices.CosetFrame(code.n, columns(
            code_hamiltonian_terms(code)
            + [(0.1, p) for _, p in uniform_field_terms(code.n, kind)]))

    cases = {(f.name, f.n - f.r) for f in (
        frame(toric_code(2), "X"), frame(toric_code(2), "Y"),
        frame(repetition_code(5), "Z"),
        frame(FRAME_CODES["five_qubit"], "Z"))}
    assert cases == {("hadamard", 5), ("identity", 0), ("identity", 5),
                     ("identity", 1)}
    f = frame(toric_code(2), "X")
    with pytest.raises(ValueError, match="hadamard frame has"):
        pauli_transform(np.zeros((1, 8, 8)), frame=f)


def test_coset_frame_refuses_terms_outside_its_span():
    # X_0 X_1 and Z_0: the x-span {0, X_0 X_1} has rank 1 = the z-span's,
    # so the identity frame; X_0 alone lies outside it.
    frame = matrices.CosetFrame(2, columns(
        [(1.0, PauliString.from_label("XX")),
         (0.5, PauliString.from_label("ZI"))]))
    assert frame.name == "identity" and frame.r == 1
    with pytest.raises(ValueError, match="outside the frame's span"):
        frame.blocks(columns([(1.0, PauliString.from_label("XI"))]))


@settings(max_examples=150, deadline=None)
@given(pauli_sums(), st.data())
def test_sparse_eigenvalues_match_dense_random_sums(case, data):
    n, terms = case[0], columns(case[1])
    k = data.draw(st.integers(1, (1 << n) - 1))
    dense = np.linalg.eigvalsh(operator_dense(n, terms))
    assert np.allclose(lowest_eigenvalues_sparse(n, terms, k), dense[:k],
                       atol=1e-10)


def _field(n: int, kind: str, eps: float) -> list:
    return [(eps * c, p) for c, p in uniform_field_terms(n, kind)]


_TC2 = code_hamiltonian_terms(toric_code(2))
# (n, terms, frame switched, qubits of every solved block, blocks solved):
# each case forces one path of the coset solver.
_PATH_CASES = {
    # x-masks span all 8 qubits, z-masks 3 plaquettes plus the Y bits: the
    # Hadamard frame, with H Y H = -Y flipping the Y terms' signs.
    "hadamard-frame-x-field-with-y": (
        8, _TC2 + _field(8, "X", 0.3) + [
            (0.2, PauliString.from_label("YIIIIIII")),
            (-0.15, PauliString.from_label("IYIIIYII", sign=-1))],
        True, 5, 8),
    # The Z field keeps the frame: 32 cosets of the 3 vertex checks' span.
    "z-field-cosets": (8, _TC2 + _field(8, "Z", 0.3), False, 3, 28),
    # X and Z bits both span all qubits: one coset, the whole space.
    "y-field-single-coset": (8, _TC2 + _field(8, "Y", 0.3), False, 8, 1),
    # Every term diagonal: 256 one-state blocks whose floors are exact, so
    # the visit stops after the k lowest.
    "rep8-z-field-pruned": (
        8, code_hamiltonian_terms(repetition_code(8)) + _field(8, "Z", 0.2),
        False, 0, 12),
    # XY chain: on a coset of the span of the XX rows, X_iX_j and Y_iY_j act
    # as reduced strings of opposite sign, so a lost i-power sign shows.
    "xy-chain-reduced-signs": (
        4, [(1.0, PauliString.from_support(4, kind, (i, i + 1)))
            for i in range(3) for kind in "XY"] + _field(4, "Z", 0.3),
        False, 3, 2),
    # Every term commutes (criterion 4b at L = 2): its closed-form ground
    # energy eps L^2 - 1.4 = -0.2.
    "plaquette-field-commuting": (
        8, code_hamiltonian_terms(ising_toric(2))
        + [(0.3 * c, p) for c, p in plaquette_field_terms(2)],
        False, 3, 8),
}


@pytest.mark.parametrize("name", sorted(_PATH_CASES))
def test_sparse_eigenvalue_paths(name, monkeypatch):
    n, terms, switched, qubits, blocks = _PATH_CASES[name]
    terms = columns(terms)
    dense = np.linalg.eigvalsh(operator_dense(n, terms))
    frames, solved = [], []
    frame, block_dense = matrices._hadamard_frame, matrices.operator_dense

    def spy_frame(ts):
        frames.append(len(ts))
        return frame(ts)

    def spy_dense(r, ts):
        solved.append(r)
        return block_dense(r, ts)

    monkeypatch.setattr(matrices, "_hadamard_frame", spy_frame)
    monkeypatch.setattr(matrices, "operator_dense", spy_dense)
    vals = lowest_eigenvalues_sparse(n, terms, k=12)
    assert np.allclose(vals, dense[:12], atol=1e-10)
    assert bool(frames) == switched
    assert solved == [qubits] * blocks
    if name == "plaquette-field-commuting":
        assert vals[0] == pytest.approx(-0.2, abs=1e-12)


def test_sparse_eigenvalues_lanczos_blocks_match_full_space():
    # Hadamard frame: 2 cosets of 2^10 states, each past the dense limit.
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "X", 0.3))
    # ARPACK on the CSR matrix of all 2^11 states: an independent oracle.
    full = spla.eigsh(PauliMatvec(n, terms).matrix, k=6, which="SA",
                      tol=0.0, return_eigenvectors=False)
    assert np.allclose(lowest_eigenvalues_sparse(n, terms, k=6),
                       np.sort(full), atol=1e-10)


def test_sparse_eigenvalues_residual_gate(monkeypatch):
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "X", 0.3))
    solve = matrices._thick_restart_lanczos

    def corrupted(*args):
        vals, vecs = solve(*args)
        return vals + 1e-6, vecs

    monkeypatch.setattr(matrices, "_thick_restart_lanczos", corrupted)
    with pytest.raises(ArithmeticError, match="residual"):
        lowest_eigenvalues_sparse(n, terms, k=6)


def _random_block(seed: int, real: bool) -> tuple:
    """A Pauli sum on 10 qubits, one coset of 2^10 states: a random X and
    Z field on every qubit and a dozen random strings.  Real-symmetric
    when ``real`` (an odd string loses a Y), complex-Hermitian otherwise
    (a Y on every qubit)."""
    n = 10
    rng = np.random.default_rng(seed)
    terms = [(rng.uniform(-1, 1), PauliString.single(n, kind, q))
             for q in range(n) for kind in "XZ"]
    for x, z in rng.integers(0, 1 << n, size=(12, 2)).tolist():
        if real and (x & z).bit_count() & 1:
            z ^= (x & z) & -(x & z)
        terms.append((rng.uniform(-1, 1), PauliString(n, x, z)))
    if not real:
        terms += [(rng.uniform(-1, 1), PauliString.single(n, "Y", q))
                  for q in range(n)]
    return columns(terms)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(1, 8))
def test_thick_restart_lanczos_matches_dense(seed, real, k):
    # The solver alone, on a block's CSR matvec: the k lowest levels of
    # the dense spectrum, orthonormal Ritz vectors, and residuals within
    # the gate.
    terms = _random_block(seed, real)
    mv = PauliMatvec(10, terms)
    assert mv.is_real == real
    rng = np.random.default_rng(seed)
    v0 = matrices._random_vector(rng, mv.dim, real)
    vals, vecs = matrices._thick_restart_lanczos(mv, v0, k, 1e-11, rng)
    dense = np.linalg.eigvalsh(operator_dense(10, terms))
    assert np.allclose(vals, dense[:k], rtol=0, atol=1e-9)
    assert np.allclose(vecs.conj() @ vecs.T, np.eye(k), rtol=0, atol=1e-10)
    for lam, vec in zip(vals, vecs):
        assert np.linalg.norm(mv(vec) - lam * vec) <= matrices.RESIDUAL_TOL


def test_lanczos_keeps_repeated_levels(monkeypatch):
    # X_0 + X_1 on 10 qubits, with zero-weight X_i and Z_i on every qubit
    # so that the x-span has rank 10: one block of 2^10 states whose
    # lowest level -2 has multiplicity 256.  A Krylov space from one start
    # vector spans 3 dimensions and holds one copy; each breakdown brings
    # in a fresh vector, and so another copy.
    n = 10
    terms = columns([(1.0, PauliString.single(n, "X", q)) for q in (0, 1)]
                    + [(0.0, PauliString.single(n, kind, q))
                       for q in range(n) for kind in "XZ"])
    assert matrices.CosetFrame(n, terms).r == n
    fresh, draw = [], matrices._fresh_vector

    def spy_fresh(rng, V):
        fresh.append(len(V))
        return draw(rng, V)

    monkeypatch.setattr(matrices, "_fresh_vector", spy_fresh)
    assert np.allclose(lowest_eigenvalues_sparse(n, terms, k=6), [-2.0] * 6,
                       rtol=0, atol=1e-12)
    assert fresh[:3] == [3, 6, 9]


def test_lanczos_one_basis_pass_per_matvec(monkeypatch):
    # rep11 under a 0.3 X field: two Lanczos blocks of 2^10 states.  Each
    # step subtracts the three-term recurrence and then makes one classical
    # Gram-Schmidt pass over the whole basis.  The arrowhead pass of the
    # first step after a restart and the rare DGKS second pass add at most
    # two per basis fill (one eigh of T each).  A step whose first pass ran
    # on H v_j itself needed a second nearly every time: 546 passes for 285
    # matvecs here.
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "X", 0.3))
    counts = dict.fromkeys(("matvec", "pass", "fill"), 0)

    def spy(key, f):
        def counted(*args):
            counts[key] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(PauliMatvec, "__call__",
                        spy("matvec", PauliMatvec.__call__))
    monkeypatch.setattr(matrices, "_project_out",
                        spy("pass", matrices._project_out))
    monkeypatch.setattr(np.linalg, "eigh", spy("fill", np.linalg.eigh))
    lowest_eigenvalues_sparse(n, terms, k=6)
    assert counts["fill"] > 2
    assert counts["pass"] <= counts["matvec"] + 2 * counts["fill"]


def test_lanczos_dgks_second_pass_keeps_levels(monkeypatch):
    # The same two blocks of 2^10 states with _DGKS = 2: every step's first
    # Gram-Schmidt pass leaves less than twice what it started from, so
    # the DGKS second pass runs on every step and the passes about double.
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "X", 0.3))
    dense = np.linalg.eigvalsh(operator_dense(n, terms))[:6]
    passes, project_out = [], matrices._project_out

    def counted(V, w):
        passes[-1] += 1
        return project_out(V, w)

    monkeypatch.setattr(matrices, "_project_out", counted)
    for dgks in (matrices._DGKS, 2.0):
        monkeypatch.setattr(matrices, "_DGKS", dgks)
        passes.append(0)
        assert np.allclose(lowest_eigenvalues_sparse(n, terms, k=6), dense,
                           rtol=0, atol=1e-12)
    assert 1.8 * passes[0] <= passes[1] <= 2.2 * passes[0]


def test_lanczos_complex_coset_keeps_levels():
    # rep11 (lam = 2) under a 0.2 Y field plus a 0.15 X field: one coset
    # of 2^11 complex-Hermitian states; the levels the ARPACK solver gave.
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "Y", 0.2) + _field(n, "X", 0.15))
    frame = matrices.CosetFrame(n, terms)
    assert frame.r == n and not PauliMatvec(n, frame.reduce(terms)[1]).is_real
    assert np.allclose(lowest_eigenvalues_sparse(n, terms, k=6), [
        -0.204057421278, -0.204056974244, 1.324324985728, 1.324325432763,
        1.403647767402, 1.403648214437], rtol=0, atol=1e-10)


def test_lanczos_same_seed_same_levels():
    terms = _random_block(3, real=False)
    runs = [matrices._lanczos_block(10, terms, 5, np.random.default_rng(9))
            for _ in range(2)]
    assert np.array_equal(*runs)


def test_lanczos_cycle_cap(monkeypatch):
    # Two blocks of 2^10 states that take more than one basis fill each.
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "X", 0.3))
    monkeypatch.setattr(matrices, "LANCZOS_MAX_CYCLES", 1)
    with pytest.raises(ArithmeticError, match="did not converge in 1 "):
        lowest_eigenvalues_sparse(n, terms, k=6)


def _fresh_interpreter(script: str) -> str:
    """Run ``script`` in a new Python process that imports this stabbench;
    returns its stdout."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(matrices.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scipy_loads_only_for_lanczos():
    # The certify, SWT and dense spectral paths run on numpy alone; the
    # first coset block above 2^9 states loads scipy.sparse for its CSR
    # matvec, and neither ARPACK's scipy.sparse.linalg nor scipy.linalg.
    out = _fresh_interpreter("""
import json, sys
import stabbench, stabbench.cli
from stabbench.code import code_parameters
from stabbench.constructors import repetition_code, toric_code
from stabbench.experiments import uniform_field_terms
from stabbench.matrices import code_hamiltonian_terms, lowest_eigenvalues_sparse
from stabbench.pauli import columns
from stabbench.soundness import soundness_profile
from stabbench.swt import spectral_report, swt_run

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

code_parameters(toric_code(3))
soundness_profile(toric_code(3))
swt_run(repetition_code(5),
        [(0.05 * c, p) for c, p in uniform_field_terms(5, "X")], 2)
spectral_report(repetition_code(6), uniform_field_terms(6, "X"), 0.1,
                mode="dense")
before = scipy_modules()
terms = columns(code_hamiltonian_terms(repetition_code(11, lam=2.0))
                + [(0.3 * c, p) for c, p in uniform_field_terms(11, "X")])
lowest_eigenvalues_sparse(11, terms, k=6)
print(json.dumps([before, scipy_modules()]))
""")
    before, after = json.loads(out.splitlines()[-1])
    assert before == []
    assert "scipy.sparse" in after
    assert not [m for m in after if m.startswith(("scipy.sparse.linalg",
                                                  "scipy.linalg"))]


def test_sparse_eigenvalues_k_range():
    terms = columns([(1.0, PauliString.from_label("XZ"))])
    assert np.allclose(lowest_eigenvalues_sparse(2, terms, k=4),
                       [-1, -1, 1, 1])
    for k in (0, 5):
        with pytest.raises(ValueError, match="outside"):
            lowest_eigenvalues_sparse(2, terms, k=k)
    # One coset of 2^10 states, past the dense limit, but too few states
    # for Lanczos to return k = 2^10 - 1 levels: solved densely.
    rng = np.random.default_rng(5)
    terms = columns([(rng.uniform(-1, 1), PauliString.single(10, kind, i))
                     for i in range(10) for kind in "XZ"])
    dense = np.linalg.eigvalsh(operator_dense(10, terms))
    assert np.allclose(lowest_eigenvalues_sparse(10, terms, k=1023),
                       dense[:1023], atol=1e-10)


def test_sparse_eigenvalues_toric3_x_field_levels(monkeypatch):
    code = toric_code(3)
    terms = columns(code_hamiltonian_terms(code) + _field(code.n, "X", 0.1))
    solved, block_dense = [], matrices.operator_dense

    def spy_dense(r, ts):
        solved.append(r)
        return block_dense(r, ts)

    monkeypatch.setattr(matrices, "operator_dense", spy_dense)
    vals = lowest_eigenvalues_sparse(code.n, terms, k=8)
    # Hadamard frame, 1024 cosets of 2^8 states: the cluster floor (each
    # plaquette with half the field on its four edges) admits only the four
    # blocks without a violated star; the Sigma |c| floor admitted 148.
    assert solved == [8] * 4
    expect = [-0.10524781911530995, -0.09328870777157455,
              -0.09328870777157224, -0.08302539033265915,
              1.1646619699916203, 1.3780005677777223,
              1.3780005677777234, 1.3780005677777236]
    assert np.allclose(vals, expect, atol=1e-10)
    # The 8th level is threefold degenerate; it must not be cut to one copy.
    assert vals[5:] == pytest.approx([1.37800056777772] * 3, abs=1e-10)


def test_coset_split_refuses_oversized_blocks_and_coset_counts(monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("a block was built")

    monkeypatch.setattr(matrices, "operator_dense", no_block)
    monkeypatch.setattr(matrices, "PauliMatvec", no_block)
    # Toric L = 4 under a Y field: x- and z-masks both span all 32 qubits,
    # one coset of 2^32 states.
    code = toric_code(4)
    terms = columns(code_hamiltonian_terms(code) + _field(code.n, "Y", 0.1))
    with pytest.raises(ValueError, match="2\\^0 cosets of 2\\^32 states"):
        lowest_eigenvalues_sparse(code.n, terms, k=8)
    # A Z field on a 22-qubit chain: every term diagonal, 2^22 cosets of
    # one state.
    terms = columns(code_hamiltonian_terms(repetition_code(22))
                    + _field(22, "Z", 0.1))
    with pytest.raises(ValueError, match="2\\^22 cosets of 2\\^0 states"):
        lowest_eigenvalues_sparse(22, terms, k=2)


@pytest.fixture
def no_large_zeros(monkeypatch):
    """numpy.zeros refusing arrays past 2^22 entries (64 MB complex), so
    that a refusal is seen to come before the array is built."""
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        if np.prod(shape) > 1 << 22:
            raise AssertionError(f"an array of shape {shape} was allocated")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)


def test_dense_block_past_limit_refused(no_large_zeros):
    # X and Z on each of 13 qubits: one coset of 2^13 states, which
    # k = 2^13 sends to the dense path, a 1 GB complex matrix.
    n = 13
    terms = columns([(0.5, PauliString.single(n, kind, i))
                     for i in range(n) for kind in "XZ"])
    with pytest.raises(ValueError, match="13 qubits exceeds the limit of 12"):
        lowest_eigenvalues_sparse(n, terms, k=1 << n)


def test_codespace_projector_past_limit_refused(no_large_zeros):
    # Toric L = 4: 32 qubits and a check group of 2^30 elements, whose
    # table alone would take 8 GB per column.
    with pytest.raises(ValueError, match="32 qubits exceeds the limit of 12"):
        codespace_projector_dense(toric_code(4))


def test_to_dense_past_limit_refused(no_large_zeros):
    # A 14-qubit operator as one 4 GB complex matrix.
    qlo = decompose(_field(14, "X", 0.1), repetition_code(14))
    with pytest.raises(ValueError, match="14 qubits exceeds the limit of 12"):
        qlo.to_dense()


@settings(max_examples=150, deadline=None)
@given(pauli_sums())
# X_0 heads the only cluster, and Z_0 Z_1, which it flips, lies outside its
# support: a term in no cluster, which random draws seldom give.
@example((2, [(0.5, PauliString(2, 1, 0)), (0.4, PauliString(2, 0, 3))]))
# 0.4 Z and -0.4 (-Z) add up: a cluster that dropped the strings' signs
# would see them cancel.
@example((1, [(0.5, PauliString(1, 1, 0)), (0.4, PauliString(1, 0, 1)),
              (-0.4, PauliString(1, 0, 1, -1))]))
def test_cluster_floor_bounds_every_block(case):
    # The cluster floor of each coset block lies at or below the block's
    # dense minimum, and at or above the Sigma |c| floor it replaced.
    n, terms = case[0], columns(case[1])
    frame = matrices.CosetFrame(n, terms)
    terms, (c, qx, qz) = frame.reduce(terms)
    reps, r = frame.representatives(), frame.r
    floors = matrices._coset_floors(n, terms, (c, qx, qz), reps)
    for rep, floor in zip(reps.tolist(), floors):
        signs = [-1 if (rep & z).bit_count() % 2 else 1
                 for z in terms[2].tolist()]
        block = (np.array(signs) * c, qx, qz)
        lowest = np.linalg.eigvalsh(operator_dense(r, block))[0]
        sum_abs = sum(
            s * ck.real if x == 0 and z == 0 else -abs(ck)
            for s, ck, x, z in zip(signs, c, qx, qz))
        assert floor <= lowest + 1e-10
        assert floor >= sum_abs - 1e-10


def dense_cluster_floor(n: int, terms, reduced) -> float:
    """The cluster floor by dense algebra, kept as the reference for the
    closed form: each cluster (a flipping term plus its share of every
    diagonal term inside its support) as an n-qubit matrix, and its lowest
    ``eigvalsh`` level; a diagonal term in no cluster counts -|c|."""
    c, x, z = terms
    _, m, zr = reduced
    support = x | z
    cores = np.flatnonzero(m).tolist()
    clusters = {core: ([c[core]], [core]) for core in cores}
    floor = 0.0
    for k in np.flatnonzero((m == 0) & (zr != 0)).tolist():
        hosts = [j for j in cores if support[k] & ~support[j] == 0]
        if not hosts:
            floor -= abs(c[k])
        for j in hosts:
            clusters[j][0].append(c[k] / len(hosts))
            clusters[j][1].append(k)
    for share, idx in clusters.values():
        M = operator_dense(n, (np.array(share), x[idx], z[idx]))
        floor += np.linalg.eigvalsh(M)[0]
    return floor


@settings(max_examples=150, deadline=None)
@given(pauli_sums())
@example((2, [(0.5, PauliString(2, 1, 0)), (0.4, PauliString(2, 0, 3))]))
@example((1, [(0.5, PauliString(1, 1, 0)), (0.4, PauliString(1, 0, 1)),
              (-0.4, PauliString(1, 0, 1, -1))]))
def test_cluster_floor_closed_form_matches_dense_clusters(case):
    # Each cluster is a direct sum of 2 x 2 blocks on {b, b ^ x}, so the
    # closed form equals the lowest dense eigenvalue of every cluster.
    n, terms = case[0], columns(case[1])
    frame = matrices.CosetFrame(n, terms)
    terms, reduced = frame.reduce(terms)
    got = matrices._cluster_floor(n, terms, reduced)
    assert got == pytest.approx(dense_cluster_floor(n, terms, reduced),
                                abs=1e-12)


@pytest.mark.parametrize("code", [toric_code(3), repetition_code(16)],
                         ids=["toric3", "rep16"])
def test_coset_floors_build_no_matrix(code, monkeypatch):
    terms = columns(code_hamiltonian_terms(code)
                    + [(0.1 * c, p)
                       for c, p in uniform_field_terms(code.n, "X")])
    frame = matrices.CosetFrame(code.n, terms)
    terms, reduced = frame.reduce(terms)
    reps = frame.representatives()

    def no_blocks(*args):
        raise AssertionError("a cluster floor built a dense block")

    monkeypatch.setattr(matrices, "_batched_blocks", no_blocks)
    floors = matrices._coset_floors(code.n, terms, reduced, reps)
    assert floors.shape == reps.shape and np.all(np.isfinite(floors))


def test_payload_norm_refuses_past_limit(no_large_zeros):
    # X and Z on each of 13 qubits: 13 anticommuting pairs, one block of
    # 2^13 states, a 1 GB complex matrix.
    n = 13
    terms = columns([(0.5, PauliString.single(n, kind, i))
                     for i in range(n) for kind in "XZ"])
    with pytest.raises(ValueError, match=r"\(c = 0\) of 2\^13 x 2\^13 "
                       r"blocks \(g = 13\)"):
        payload_norm([(n, terms)])
    # Z on each of 25 qubits: a centre of rank 25, 2^25 characters of one
    # entry each.
    terms = columns([(0.5, PauliString.single(25, "Z", i))
                     for i in range(25)])
    with pytest.raises(ValueError, match=r"2\^25 characters \(c = 25\) of "
                       r"2\^0 x 2\^0 blocks \(g = 0\)"):
        payload_norm([(25, terms)])
    # X on 13 qubits of a single-Z code: the patch group of the 13 flipped
    # checks has rank 13, a table of 2^13 elements per term.
    code = StabilizerCode.from_checks(
        14, [PauliString.single(14, "Z", i) for i in range(14)])
    (term,) = decompose(
        [(1.0, PauliString.from_support(14, "X", range(13)))], code).terms
    with pytest.raises(PatchTooLargeError, match="rank 13"):
        block_split(term, code)
    assert term.support not in code.patch_groups


def _clifford(gate: str, q: int, t: int, x: int, z: int) -> tuple:
    """The masks (x, z) of a string conjugated by H or S on qubit q, or by
    CNOT from q to t: each keeps the commutation form."""
    if gate == "H":
        flip = ((x ^ z) >> q & 1) << q
        return x ^ flip, z ^ flip
    if gate == "S":
        return x, z ^ (x & 1 << q)
    if q == t:
        return x, z
    return x ^ (x >> q & 1) << t, z ^ (z >> t & 1) << q


@st.composite
def framed_strings(draw):
    """(g, c, m, strings): (x, z) masks on m = g + c qubits whose span has
    exactly g anticommuting pairs and a centre of rank c, for g 0-4 and
    c 0-6 with m at most 8.  X_i, Z_i (i < g) and Z_g ... Z_(m-1) are
    conjugated by a random circuit of H, S and CNOT gates; the strings are
    these 2g + c elements and random products of them, in a random order,
    some repeated."""
    g = draw(st.integers(0, 4))
    c = draw(st.integers(0, min(6, 8 - g)))
    m = g + c
    basis = [(1 << i, 0) for i in range(g)] + [(0, 1 << i) for i in range(m)]
    if m:
        qubits = st.integers(0, m - 1)
        for gate, q, t in draw(st.lists(st.tuples(
                st.sampled_from("HSC"), qubits, qubits), max_size=3 * m)):
            basis = [_clifford(gate, q, t, x, z) for x, z in basis]
    strings = list(basis)
    for _ in range(draw(st.integers(0, 8))):
        x = z = 0
        for (bx, bz), take in zip(basis, draw(st.lists(
                st.booleans(), min_size=len(basis), max_size=len(basis)))):
            x, z = (x ^ bx, z ^ bz) if take else (x, z)
        strings.append((x, z))
    strings = draw(st.permutations(strings or [(0, 0)]))
    strings += draw(st.lists(st.sampled_from(strings), max_size=4))
    return g, c, m, strings


@st.composite
def norm_cases(draw):
    """(n, terms): random strings (``pauli_sums``) or strings of a drawn
    frame (``framed_strings``), with real (Hermitian), imaginary
    (anti-Hermitian) or complex coefficients, the first two with or without
    rounding dust of the other kind; complex ones make non-normal sums."""
    if draw(st.booleans()):
        n, terms = draw(pauli_sums())
    else:
        _, _, m, strings = draw(framed_strings())
        n = max(m, 1)
        coeffs = draw(st.lists(st.floats(-1, 1), min_size=len(strings),
                               max_size=len(strings)))
        terms = [(c, PauliString(n, x, z))
                 for c, (x, z) in zip(coeffs, strings)]
    kind = draw(st.sampled_from(("hermitian", "antihermitian", "complex")))
    other = draw(st.lists(st.floats(-1, 1), min_size=len(terms),
                          max_size=len(terms)))
    scale = 1.0 if kind == "complex" else draw(st.sampled_from((0.0, 1e-19)))
    terms = [(c + 1j * scale * f, p) for (c, p), f in zip(terms, other)]
    if kind == "antihermitian":
        terms = [(1j * c, p) for c, p in terms]
    return n, terms


@settings(max_examples=200, deadline=None)
@given(norm_cases())
def test_payload_norm_matches_dense_svd(case):
    n, terms = case[0], columns(case[1])
    expect = np.linalg.norm(operator_dense(n, terms), 2)
    assert payload_norm([(n, terms)])[0] == pytest.approx(expect, rel=1e-12,
                                                      abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(norm_cases(), st.integers(13, 20), st.randoms(use_true_random=False))
def test_payload_norm_keeps_relabeled_small_sums(case, wide, rng):
    # The sum's qubits moved injectively into 13-20 qubits: the extra
    # qubits carry identities, so the norm is the dense norm of the small
    # sum.
    n, terms = case
    place = rng.sample(range(wide), n)

    def moved(mask):
        return sum(1 << place[q] for q in range(n) if mask >> q & 1)

    wide_terms = [(c, PauliString(wide, moved(p.x), moved(p.z), p.sign))
                  for c, p in terms]
    expect = np.linalg.norm(operator_dense(n, columns(terms)), 2)
    assert payload_norm([(wide, columns(wide_terms))])[0] == pytest.approx(
        expect, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(norm_cases())
# Two terms on one x-mask (X_0 and Y_0) share one entry per row.
@example((2, [(0.5, PauliString(2, 1, 0)), (-0.3j, PauliString(2, 1, 1)),
              (0.2, PauliString(2, 0, 2))]))
# Identity only: a diagonal matrix, one entry per row.
@example((3, [(0.7, PauliString.identity(3)),
              (-0.2, PauliString.identity(3))]))
def test_matvec_matches_dense_random_sums(case):
    n, pairs = case
    terms = columns(pairs)
    mv = PauliMatvec(n, terms)
    dense = operator_dense(n, terms)
    psi = np.random.default_rng(n).standard_normal((1 << n, 2)) @ [1, 1j]
    assert np.allclose(mv(psi), dense @ psi, atol=1e-12)
    # Real exactly when every term's own matrix is real.
    assert mv.is_real == all(
        not operator_dense(n, columns([term])).imag.any() for term in pairs)
    assert mv.matrix.dtype == (np.float64 if mv.is_real else np.complex128)
    assert mv.matrix.has_sorted_indices
    widths = np.diff(mv.matrix.indptr)
    assert (widths == len({p.x for _, p in pairs})).all()


def test_matvec_csr_of_rep16_x_field_block():
    # The Lanczos block of the sparse_rep16 benchmark task: in the Hadamard
    # frame, 2 cosets of 2^15 states, 15 flipping checks plus the diagonal
    # per row, stored with int32 indices and float64 data (6 MB).
    n = 16
    terms = columns(code_hamiltonian_terms(repetition_code(n))
                    + _field(n, "X", 0.3))
    frame = matrices.CosetFrame(n, terms)
    terms, reduced = frame.reduce(terms)
    reps, r = frame.representatives(), frame.r
    assert r == 15 and reps[0] == 0
    mv = PauliMatvec(r, reduced)
    assert mv.matrix.nnz == (1 << 15) * 16
    assert mv.matrix.indices.dtype == np.int32
    assert mv.matrix.indptr.dtype == np.int32
    assert mv.matrix.data.dtype == np.float64


def test_payload_norm_above_n12():
    n = 13
    x0, y0, z0 = (PauliString.single(n, kind, 0) for kind in "XYZ")
    assert payload_norm([(n, columns([(0.3, x0), (0.4, z0)]))])[0] \
        == pytest.approx(0.5, rel=1e-8)
    # X + iY = 2 |0><1| is not normal; its singular values are 2 and 0.
    assert payload_norm([(n, columns([(1.0, x0), (1j, y0)]))])[0] \
        == pytest.approx(2.0, rel=1e-8)
    x_pair = columns([(1.0, PauliString.single(14, "X", q)) for q in (0, 1)])
    assert payload_norm([(14, x_pair)])[0] == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("n", [21, 40])
def test_payload_norm_builds_no_coset_list(n):
    # X_0 + X_1: the Hadamard frame has r = 0 and 2^n cosets of one state,
    # but the norm reads only the n representatives with one free bit.
    terms = columns([(1.0, PauliString.single(n, "X", q)) for q in (0, 1)])
    assert payload_norm([(n, terms)])[0] == 2.0


@pytest.mark.parametrize("phase", [1, 1j], ids=["hermitian", "antihermitian"])
def test_payload_norm_drops_rounding_dust(phase, monkeypatch):
    # Rounding-level parts of the other kind, as a transform leaves them,
    # still take the eigvalsh path, and the norm stays an upper bound.
    labels = ("XXI", "IZZ", "YIY", "ZII")
    coeffs = (0.3, -0.45, 0.2, 0.25)
    dust = (1e-19, -3e-19, 2e-19, 0.0)
    terms = columns([(phase * c + 1j * phase * d, PauliString.from_label(label))
                     for c, d, label in zip(coeffs, dust, labels)])
    expect = np.linalg.norm(operator_dense(3, terms), 2)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(matrices.np.linalg, "eigvalsh", spy)
    got = payload_norm([(3, terms)])[0]
    assert calls
    assert got == pytest.approx(expect, rel=1e-12)
    assert got >= expect - 1e-15


def test_payload_norm_non_normal_sum():
    # M = X + iZ: M M^dagger = 2 - 2Y and M^dagger M = 2 + 2Y, so M is not
    # normal; its singular values are 2 and 0.
    terms = columns([(1.0, PauliString.from_label("X")),
                     (1j, PauliString.from_label("Z"))])
    assert payload_norm([(1, terms)])[0] == pytest.approx(2.0, rel=1e-14)


_PAIRS_AND_CENTRE = ("ZIIIII", "IZIIII", "XXIIII", "IIXXII", "IIIIXX",
                     "YIIIII")


@pytest.mark.parametrize("phases", [(1, 1), (1j, 1j), (1, 0.6 + 0.8j)],
                         ids=["hermitian", "antihermitian", "mixed"])
def test_payload_norm_hadamard_frame_blocks(phases, monkeypatch):
    # x-masks span 4 dimensions, z-masks 2 (Z_0, Z_1; Y_0 adds no z), so
    # the coset frame would be the Hadamard frame with 4 sign patterns.
    # The symplectic frame has the same count: Z_0, Z_1, X_0 X_1 and Y_0
    # span all of qubits 0 and 1 (g = 2) and X_2 X_3, X_4 X_5 commute with
    # everything (c = 2), so one build makes 4 characters of 4 x 4 blocks.
    n = 6
    coeffs = (0.3, -0.4, 0.5, 0.2, 0.35, 0.25)
    terms = columns([(phases[j % 2] * c, PauliString.from_label(label))
                     for j, (c, label) in enumerate(zip(coeffs,
                                                        _PAIRS_AND_CENTRE))])
    # The reference is built before the spy goes in.
    expect = np.linalg.norm(operator_dense(n, terms), 2)
    shapes = []
    blocks = matrices._batched_blocks

    def spy_blocks(*args):
        out = blocks(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(matrices, "_batched_blocks", spy_blocks)
    assert payload_norm([(n, terms)])[0] == pytest.approx(expect, rel=1e-12)
    assert shapes == [(4, 4, 4)]


def _omega(s, t) -> int:
    """1 where the strings (x, z) s and t anticommute."""
    return ((s[0] & t[1]) ^ (s[1] & t[0])).bit_count() & 1


def _check_frame(n: int, x: list, z: list, g: int, basis) -> None:
    """The frame's basis: a_i and b_i anticommute in pairs, everything
    else commutes; each dual reads its own element as 1 and every other as
    0; and every string is the product of the elements its coordinates
    select, its image and centre coordinates read off the same bits."""
    elements = [(bx, bz) for bx, bz, _ in basis]
    for j, s in enumerate(elements):
        for k, t in enumerate(elements):
            paired = g and j != k and j % g == k % g and max(j, k) < 2 * g
            assert _omega(s, t) == paired
            dual = basis[j][2]
            assert ((t[0] | t[1] << n) & dual).bit_count() % 2 == (j == k)
    alpha, column, negative, images = pauli._frame_coordinates(
        n, x, z, g, basis)
    for k, (sx, sz) in enumerate(zip(x, z)):
        gx, gz = images[column[k]]
        picked = gx | gz << g | alpha[k] << 2 * g
        px = pz = 0
        for j, (bx, bz) in enumerate(elements):
            if picked >> j & 1:
                px, pz = px ^ bx, pz ^ bz
        assert (px, pz) == (sx, sz)
        assert negative[k] in (0, 2)


def test_payload_norm_frame_of_pairs_and_centre():
    # The sum of test_payload_norm_hadamard_frame_blocks: g = 2 pairs and a
    # centre of rank c = 2, so 4 characters of 4 x 4 blocks.
    terms = columns([(1.0, PauliString.from_label(label))
                     for label in _PAIRS_AND_CENTRE])
    x, z = terms[1].tolist(), terms[2].tolist()
    g, basis = symplectic_frame(6, x, z)
    assert (g, len(basis) - 2 * g) == (2, 2)
    _check_frame(6, x, z, g, basis)
    # Z_0 Z_1 of the pairs' span goes to Z on both pair qubits, with no
    # character bit: image (gx, gz) = (0, 3).
    _, column, _, images = pauli._frame_coordinates(6, [0], [3], g, basis)
    assert images[column[0]] == (0, 3)


@settings(max_examples=100, deadline=None)
@given(framed_strings())
def test_symplectic_frame_finds_pairs_and_centre(case):
    g, c, m, strings = case
    n = max(m, 1)
    x, z = [s[0] for s in strings], [s[1] for s in strings]
    found, basis = symplectic_frame(n, x, z)
    assert (found, len(basis) - 2 * found) == (g, c)
    _check_frame(n, x, z, found, basis)


def test_payload_norm_commuting_sums_run_no_eigensolver(monkeypatch):
    # Commuting strings have 1 x 1 blocks: the norm is the largest entry of
    # the Walsh-Hadamard transform, past both limits of the coset frame.
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(matrices.np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(matrices.np.linalg, "svd", refuse)
    # X_0 and Z_1 ... Z_13 on 14 qubits: 2^13 distinct coset sign
    # patterns, which the coset frame refused; a centre of rank 14.
    terms = columns([(0.5, PauliString.single(14, "X", 0))]
                    + [(0.5, PauliString.single(14, "Z", i))
                       for i in range(1, 14)])
    assert payload_norm([(14, terms)])[0] == 7.0
    # A diagonal sum on 20 qubits: max |diagonal| over its 2^20 states.
    n = 20
    rng = np.random.default_rng(20)
    z = np.concatenate([1 << np.arange(n), rng.integers(1, 1 << n, 12)])
    c = rng.uniform(-1, 1, len(z))
    states = np.arange(1 << n)
    diagonal = np.zeros(1 << n)
    for ck, zk in zip(c, z):
        diagonal += ck * (1.0 - 2.0 * (np.bitwise_count(states & zk) & 1))
    terms = (c.astype(complex), np.zeros_like(z), z)
    assert payload_norm([(n, terms)])[0] == pytest.approx(
        np.max(np.abs(diagonal)), rel=1e-12)


def _sign_rows(z, single) -> np.ndarray:
    """The one-sum norm's distinct coset sign rows: the span table of the
    sign rows of the one-free-bit representatives ``single``."""
    bits = np.bitwise_count(single[:, None] & z) & 1
    packed = np.packbits(bits, axis=1, bitorder="little")
    basis = list(Echelon(int.from_bytes(row.tobytes(), "little")
                         for row in packed).rows.values())
    if len(basis) > matrices.DENSE_MAX_QUBITS:
        raise ValueError(
            f"{len(z)} terms take 2^{len(basis)} distinct coset signs, "
            f"more than 2^{matrices.DENSE_MAX_QUBITS}")
    table = _span_table(_words(basis, len(z)))
    bits = np.unpackbits(table.view(np.uint8), axis=1, count=len(z),
                         bitorder="little")
    return 1.0 - 2.0 * bits


def one_sum_norm(n: int, terms) -> float:
    """The norm of one Pauli sum in its coset frame, kept as an independent
    reference of ``payload_norm``, which works in the symplectic frame: a
    ``CosetFrame``, its one-free-bit representatives' sign rows, and one
    ``_batched_blocks`` call."""
    if not terms[0].size:
        return 0.0
    if terms[0].size == 1:
        return float(abs(terms[0][0]))
    frame = matrices.CosetFrame(n, terms)
    (_, _, z), (c, rx, rz) = frame.reduce(terms)
    signs = _sign_rows(
        z, np.left_shift(1, np.array(frame.free, dtype=np.int64)))
    dust = 1e-14 * np.max(np.abs(c))
    if np.max(np.abs(c.imag)) <= dust:
        kept, dropped = c.real, c.imag
    elif np.max(np.abs(c.real)) <= dust:
        kept, dropped = c.imag, c.real
    else:
        blocks = matrices._batched_blocks(frame.r, rx, rz, c * signs)
        return float(np.max(np.linalg.svd(blocks, compute_uv=False)))
    blocks = matrices._batched_blocks(frame.r, rx, rz, kept * signs)
    vals = np.linalg.eigvalsh(blocks)
    return float(np.max(np.abs(vals)) + np.sum(np.abs(dropped)))


@st.composite
def batch_sums(draw):
    """(n, (c, x, z)) on 1-40 qubits: x- and z-masks drawn from spans of
    rank 0-4 (so both coset frames occur), or the strings of a drawn
    symplectic frame (``framed_strings``) moved onto random qubits;
    repeated strings, Hermitian, anti-Hermitian or general coefficients,
    and rounding dust of the other kind on some of them."""
    if draw(st.booleans()):
        _, _, m, strings = draw(framed_strings())
        n = draw(st.integers(max(m, 1), 40))
        place = draw(st.permutations(range(n)))

        def moved(mask):
            return sum(1 << place[q] for q in range(m) if mask >> q & 1)

        strings = [(moved(x), moved(z)) for x, z in strings]
    else:
        n = draw(st.integers(1, 40))
        masks = st.integers(0, (1 << n) - 1)
        spans = [draw(st.lists(masks, max_size=4)) for _ in "xz"]
        picks = st.lists(st.booleans(), min_size=4, max_size=4)

        def combination(span, picked):
            out = 0
            for mask, take in zip(span, picked):
                out ^= mask if take else 0
            return out

        strings = [tuple(combination(span, draw(picks)) for span in spans)
                   for _ in range(draw(st.integers(0, 8)))]
        if strings:
            strings += draw(st.lists(st.sampled_from(strings), max_size=4))
    size = len(strings)
    coeffs = np.array(draw(st.lists(st.floats(-1, 1), min_size=size,
                                    max_size=size)), dtype=complex)
    kind = draw(st.sampled_from(("hermitian", "antihermitian", "general")))
    other = np.array(draw(st.lists(st.floats(-1, 1), min_size=size,
                                   max_size=size)))
    if kind != "general":
        other *= draw(st.sampled_from((0.0, 1e-19)))
    coeffs = coeffs + 1j * other
    if kind == "antihermitian":
        coeffs = 1j * coeffs
    x = np.array([sx for sx, _ in strings], dtype=np.int64)
    z = np.array([sz for _, sz in strings], dtype=np.int64)
    return n, (coeffs, x, z)


@settings(max_examples=150, deadline=None)
@given(st.lists(batch_sums(), max_size=6))
# The Hadamard-frame sum of test_payload_norm_hadamard_frame_blocks between
# an empty sum and a single string.
@example([(3, columns(())),
          (6, columns([(0.25 * k - 0.4, PauliString.from_label(label))
                       for k, label in enumerate(
                           ("ZIIIII", "IZIIII", "XXIIII", "IIXXII",
                            "IIIIXX", "YIIIII"))])),
          (2, columns([(0.5j, PauliString.from_label("YX"))]))])
def test_payload_norm_batch_equals_one_sum_reference(sums):
    got = payload_norm(sums).tolist()
    assert got == [payload_norm([s])[0] for s in sums]
    assert got == pytest.approx([one_sum_norm(n, t) for n, t in sums],
                                rel=1e-12)


def test_payload_norm_batch_refuses_before_any_block(no_large_zeros,
                                                     monkeypatch):
    # One sum past the dense limit by its characters (Z on each of 25
    # qubits) or by its blocks (X and Z on each of 13 qubits) among small
    # ones raises the ValueError it raises alone, before any block or
    # character array is built.
    small = (2, columns([(0.5, PauliString.from_label("XI")),
                         (0.4, PauliString.from_label("ZZ"))]))
    centre = (25, columns([(0.5, PauliString.single(25, "Z", i))
                           for i in range(25)]))
    dense = (13, columns([(0.5, PauliString.single(13, kind, i))
                          for i in range(13) for kind in "XZ"]))
    built = []
    blocks, butterflies = matrices._batched_blocks, matrices._butterflies

    def spy_blocks(*args):
        built.append("blocks")
        return blocks(*args)

    def spy_butterflies(*args):
        built.append("characters")
        return butterflies(*args)

    monkeypatch.setattr(matrices, "_batched_blocks", spy_blocks)
    monkeypatch.setattr(matrices, "_butterflies", spy_butterflies)
    for bad, message in ((centre, r"2\^25 characters \(c = 25\)"),
                         (dense, r"blocks \(g = 13\)")):
        with pytest.raises(ValueError, match=message) as alone:
            payload_norm([bad])
        with pytest.raises(ValueError, match=message) as batch:
            payload_norm([small, bad, small])
        assert str(batch.value) == str(alone.value)
    assert built == []


def test_payload_norm_and_coset_frame_at_bit_62():
    # Masks up to bit 62, the widest an int64 mask holds, in one batch with
    # a small sum, each norm in closed form: 0.5 Y_62 and 0.3 X_0 X_62
    # anticommute (the Hadamard frame: x-rank 2, z-rank 1), and so do
    # 0.6 X_61 X_62 and 0.8 Z_62 (ranks 1 and 1, the identity frame), so
    # each sum squares to the sum of its squared coefficients times I;
    # X_0 + X_1 on 4 qubits has norm 2.
    n = 63
    wide = columns([(0.5, PauliString.single(n, "Y", 62)),
                    (0.3, PauliString.from_support(n, "X", (0, 62)))])
    both = columns([(0.6, PauliString.from_support(n, "X", (61, 62))),
                    (0.8, PauliString.single(n, "Z", 62))])
    small = columns([(1.0, PauliString.single(4, "X", q)) for q in (0, 1)])
    assert payload_norm([(n, wide), (4, small), (n, both)]).tolist() \
        == pytest.approx([np.hypot(0.5, 0.3), 2.0, 1.0], rel=1e-14)

    frame = matrices.CosetFrame(n, wide)
    assert (frame.name, frame.r, frame.pivots) == ("hadamard", 1, [62])
    assert frame.row_masks.tolist() == [1 << 62]
    assert frame.free == list(range(62))
    framed, (c, m, zr) = frame.reduce(wide)
    # -0.5 Y and 0.3 Z on the one reduced qubit: Y_62 is odd under the
    # Hadamard, and m picks the row that rebuilds each framed x-mask.
    assert (c.tolist(), m.tolist(), zr.tolist()) == ([-0.5, 0.3], [1, 0],
                                                     [1, 1])
    assert np.array_equal(np.where(m == 1, 1 << 62, 0), framed[1])
    for got, want in zip(matrices._hadamard_frame(framed), wide):
        assert np.array_equal(got, want)
