"""Dense materialization, the Pauli-basis transform, the coset eigensolver."""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabbench import matrices
from stabbench.code import StabilizerCode
from stabbench.constructors import ising_toric, repetition_code, toric_code
from stabbench.experiments import plaquette_field_terms, uniform_field_terms
from stabbench.matrices import (
    PauliMatvec,
    code_hamiltonian_dense,
    codespace_projector_dense,
    lowest_eigenvalues_sparse,
    code_hamiltonian_terms,
    operator_dense,
    payload_norm,
    pauli_transform,
    terms_from_transform,
)
from stabbench.pauli import I_POWERS, PauliString, columns
from stabbench.quasilocal import PatchTooLargeError, block_split, decompose


def pauli_matrix(p: PauliString) -> np.ndarray:
    return operator_dense(p.n, columns([(1.0, p)]))


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
        back = operator_dense(n, columns(terms_from_transform(n, coeffs)))
        assert np.allclose(back, M, atol=1e-12)


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
    back = columns(frame.pauli_terms(blocks))
    assert np.allclose(operator_dense(n, back), dense, atol=1e-12)
    single = frame.representatives(single=True)
    assert np.array_equal(
        frame.representatives()[1 << np.arange(len(single))], single)


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
    full = spla.eigsh(PauliMatvec(n, terms).as_linear_operator(), k=6,
                      which="SA", tol=0.0, return_eigenvectors=False)
    assert np.allclose(lowest_eigenvalues_sparse(n, terms, k=6),
                       np.sort(full), atol=1e-10)


def test_sparse_eigenvalues_residual_gate(monkeypatch):
    n = 11
    terms = columns(code_hamiltonian_terms(repetition_code(n, lam=2.0))
                    + _field(n, "X", 0.3))
    eigsh = spla.eigsh

    def corrupted(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals + 1e-6, vecs

    monkeypatch.setattr(matrices.spla, "eigsh", corrupted)
    with pytest.raises(ArithmeticError, match="residual"):
        lowest_eigenvalues_sparse(n, terms, k=6)


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


def test_payload_norm_refuses_past_limit(no_large_zeros):
    # X and Z on each of 13 qubits: one coset block of 2^13 states, a 1 GB
    # complex matrix.
    n = 13
    terms = columns([(0.5, PauliString.single(n, kind, i))
                     for i in range(n) for kind in "XZ"])
    with pytest.raises(ValueError, match="13 qubits exceeds the limit of 12"):
        payload_norm(n, terms)
    # X_0 and Z_1 ... Z_13 on 14 qubits: blocks of 2 states, but 2^13
    # distinct coset sign patterns.
    terms = columns([(0.5, PauliString.single(14, "X", 0))]
                    + [(0.5, PauliString.single(14, "Z", i))
                       for i in range(1, 14)])
    with pytest.raises(ValueError, match="2\\^13 distinct coset signs"):
        payload_norm(14, terms)
    # X on 13 qubits of a single-Z code: the patch group of the 13 flipped
    # checks has rank 13, a table of 2^13 elements per term.
    code = StabilizerCode.from_checks(
        14, [PauliString.single(14, "Z", i) for i in range(14)])
    (term,) = decompose(
        [(1.0, PauliString.from_support(14, "X", range(13)))], code).terms
    with pytest.raises(PatchTooLargeError, match="rank 13"):
        block_split(term, code)


@st.composite
def norm_cases(draw):
    """(n, terms) with real (Hermitian), imaginary (anti-Hermitian) or
    complex coefficients; complex ones make non-normal sums."""
    n, terms = draw(pauli_sums())
    kind = draw(st.sampled_from(("hermitian", "antihermitian", "complex")))
    if kind == "antihermitian":
        terms = [(1j * c, p) for c, p in terms]
    elif kind == "complex":
        phases = draw(st.lists(st.floats(-1, 1), min_size=len(terms),
                               max_size=len(terms)))
        terms = [(c + 1j * f, p) for (c, p), f in zip(terms, phases)]
    return n, terms


@settings(max_examples=200, deadline=None)
@given(norm_cases())
def test_payload_norm_matches_dense_svd(case):
    n, terms = case[0], columns(case[1])
    expect = np.linalg.norm(operator_dense(n, terms), 2)
    assert payload_norm(n, terms) == pytest.approx(expect, rel=1e-12, abs=1e-12)


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
    assert payload_norm(wide, columns(wide_terms)) == pytest.approx(
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
    assert payload_norm(n, columns([(0.3, x0), (0.4, z0)])) == pytest.approx(
        0.5, rel=1e-8)
    # X + iY = 2 |0><1| is not normal; its singular values are 2 and 0.
    assert payload_norm(n, columns([(1.0, x0), (1j, y0)])) == pytest.approx(
        2.0, rel=1e-8)
    x_pair = columns([(1.0, PauliString.single(14, "X", q)) for q in (0, 1)])
    assert payload_norm(14, x_pair) == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("n", [21, 40])
def test_payload_norm_builds_no_coset_list(n):
    # X_0 + X_1: the Hadamard frame has r = 0 and 2^n cosets of one state,
    # but the norm reads only the n representatives with one free bit.
    terms = columns([(1.0, PauliString.single(n, "X", q)) for q in (0, 1)])
    assert payload_norm(n, terms) == 2.0


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
    got = payload_norm(3, terms)
    assert calls
    assert got == pytest.approx(expect, rel=1e-12)
    assert got >= expect - 1e-15


def test_payload_norm_non_normal_sum():
    # M = X + iZ: M M^dagger = 2 - 2Y and M^dagger M = 2 + 2Y, so M is not
    # normal; its singular values are 2 and 0.
    terms = columns([(1.0, PauliString.from_label("X")),
                     (1j, PauliString.from_label("Z"))])
    assert payload_norm(1, terms) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("phases", [(1, 1), (1j, 1j), (1, 0.6 + 0.8j)],
                         ids=["hermitian", "antihermitian", "mixed"])
def test_payload_norm_hadamard_frame_blocks(phases, monkeypatch):
    # x-masks span 4 dimensions, z-masks 2 (Z_0, Z_1; Y_0 adds no z): the
    # Hadamard frame, 16 cosets of 4 states.  In that frame the coset signs
    # come from X2X3 and X4X5 alone, so 4 distinct blocks are built.
    n = 6
    labels = ("ZIIIII", "IZIIII", "XXIIII", "IIXXII", "IIIIXX", "YIIIII")
    coeffs = (0.3, -0.4, 0.5, 0.2, 0.35, 0.25)
    terms = columns([(phases[j % 2] * c, PauliString.from_label(label))
                     for j, (c, label) in enumerate(zip(coeffs, labels))])
    # The reference is built first: operator_dense runs on _batched_blocks.
    expect = np.linalg.norm(operator_dense(n, terms), 2)
    frames, shapes = [], []
    frame, blocks = matrices._hadamard_frame, matrices._batched_blocks

    def spy_frame(ts):
        frames.append(len(ts))
        return frame(ts)

    def spy_blocks(r, x, z, weights):
        out = blocks(r, x, z, weights)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(matrices, "_hadamard_frame", spy_frame)
    monkeypatch.setattr(matrices, "_batched_blocks", spy_blocks)
    assert payload_norm(n, terms) == pytest.approx(expect, rel=1e-12)
    assert frames and shapes == [(4, 4, 4)]
