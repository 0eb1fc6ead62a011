"""SWT engine: generator solves, iteration, spectra, local triviality."""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stabbench import matrices, swt
from stabbench.code import StabilizerCode
from stabbench.constructors import (
    ising_toric,
    repetition_code,
    toric_code,
    toric_face_support,
    toric_qubit_index,
)
from stabbench.experiments import uniform_field_terms
from stabbench.flow import kappa_m
from stabbench.gf2 import Echelon, nullspace
from stabbench.matrices import (
    code_hamiltonian_dense,
    operator_dense,
)
from stabbench.pauli import PauliString, columns, commutes, restrict
from stabbench.quasilocal import (
    LocalTerm,
    QuasiLocalOperator,
    block_diagonal_part,
    checks_inside,
    decompose,
    kappa_norm,
    local_projectors,
)
from stabbench.swt import (
    GeneratorConsistencyError,
    SwtEngine,
    _expm_antihermitian,
    _max_norm,
    local_indistinguishability_check,
    operator_locally_trivial,
    relative_bound_estimate,
    solve_generator,
    spectral_report,
    swt_run,
)
from tests.test_code import plain_distances
from tests.test_quasilocal import (
    ORACLE_CODES,
    assert_same_term,
    dense_generator_term,
    field_code,
    oracle_cases,
    random_pauli_sum,
)


def defining_equation_residual(code, v_qlo) -> float:
    """|| [H0, A] + V - PV || on the full space."""
    a = solve_generator(code, v_qlo)
    H0 = code_hamiltonian_dense(code)
    A = a.to_dense()
    V = v_qlo.to_dense()
    PV = block_diagonal_part(v_qlo).to_dense()
    return float(np.linalg.norm(H0 @ A - A @ H0 + V - PV, 2))


def test_generator_zero_for_block_diagonal_input():
    code = repetition_code(4)
    qlo = decompose([(0.3, code.checks[0])], code)
    a = solve_generator(code, qlo)
    assert a.terms == ()


def test_generator_two_qubit_example_norm():
    code = field_code(2)
    eps = 0.08
    qlo = decompose([(eps, PauliString.from_label("XX"))], code)
    a = solve_generator(code, qlo)
    (t,) = a.terms
    # the coupled excited state costs energy 2, so ||A|| = eps/2
    assert t.operator_norm() == pytest.approx(eps / 2.0, rel=1e-12)
    # anti-Hermitian
    Ad = a.to_dense()
    assert np.linalg.norm(Ad + Ad.conj().T) < 1e-12


def test_defining_equation_residual_random():
    rng = random.Random(31)
    for code in (repetition_code(5), toric_code(2)):
        for _ in range(5):
            terms = random_pauli_sum(code, rng, num_terms=5, max_weight=2,
                                     scale=0.1)
            qlo = decompose(terms, code)
            assert defining_equation_residual(code, qlo) < 1e-10


def test_generator_term_norm_bound():
    code = toric_code(2)
    rng = random.Random(5)
    terms = random_pauli_sum(code, rng, num_terms=6, max_weight=2, scale=0.2)
    v = decompose(terms, code)
    a = solve_generator(code, v)
    from stabbench.quasilocal import block_split

    v_index = v.key_index()
    for t in a.terms:
        vt = v_index[(t.support, t.syndrome)]
        _, off = block_split(vt, code)
        s_weight = t.syndrome.bit_count()
        assert t.operator_norm() <= off.operator_norm() / s_weight + 1e-12


def test_generator_kappa_contract():
    code = repetition_code(6)
    rng = random.Random(13)
    v = decompose(random_pauli_sum(code, rng, num_terms=8, max_weight=2,
                                   scale=0.05), code)
    a = solve_generator(code, v)
    _, off = block_diagonal_part(v, keep_offdiag=True)
    for kappa in (0.5, 1.0):
        assert kappa_norm(a, kappa) <= kappa_norm(off, kappa) + 1e-12


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_generator_matches_dense_patch_solve(case):
    code, terms = case
    terms = tuple(t for t in terms if t.syndrome)
    a = solve_generator(code, QuasiLocalOperator(code, terms))
    got = a.key_index()
    for t in terms:
        want = dense_generator_term(t, code)
        key = (t.support, t.syndrome)
        if key in got:
            assert_same_term(got[key], want)
        else:
            assert all(abs(c) <= 1e-12 for c, _ in want.paulis)


def test_generator_consistency_error_on_zero_syndrome_term():
    code = repetition_code(4)
    x1 = PauliString.single(4, "X", 1)
    z1 = PauliString.single(4, "Z", 1)
    zero = 0
    # X_1 flips Z0Z1 and Z1Z2, both inside {0, 1, 2}.
    bad = LocalTerm(4, frozenset({0, 1, 2}), zero, ((0.3, z1), (0.2, x1)))
    with pytest.raises(GeneratorConsistencyError, match=r"\[0, 1, 2\]"):
        solve_generator(code, QuasiLocalOperator(code, (bad,)))
    # The threshold is the dense one, ||P V Q||_F > tol max(||V||_F, 1):
    # on this patch ||P X_1 Q||_F = sqrt(2) and ||V||_F < 1.
    P, Q = local_projectors(code, bad.support)
    for factor, raises in ((0.7, False), (1.4, True)):
        term = LocalTerm(4, bad.support, zero,
                         ((0.3, z1), (factor * 1e-10 / np.sqrt(2), x1)))
        V = term.patch_matrix()
        dense = np.linalg.norm(P @ V @ Q) > 1e-10 * max(np.linalg.norm(V), 1)
        assert dense == raises
        qlo = QuasiLocalOperator(code, (term,))
        if raises:
            with pytest.raises(GeneratorConsistencyError):
                solve_generator(code, qlo)
        else:
            assert solve_generator(code, qlo).terms == ()


def test_step_with_zero_v_is_identity():
    code = repetition_code(4)
    engine = SwtEngine(code, [])
    from stabbench.quasilocal import QuasiLocalOperator

    zero = QuasiLocalOperator(code, ())
    res = engine.step(zero, zero, engine.e1, zero)
    assert res.generator.terms == ()
    assert np.allclose(engine.frame.full(res.unitary), np.eye(16))
    assert res.conjugation_residual < 1e-12


def _field_of_kinds(n, kinds):
    """sum_i c_i sum_{K in kinds[i mod len(kinds)]} K_i, with coefficients
    that differ per qubit.  The mixed field ("X", "Y", "XZ") puts an x on
    every qubit, and with the checks of rep5 or toric L = 2 a z as well."""
    return [(0.02 + 0.01 * (i % 5), PauliString.single(n, kind, i))
            for i in range(n) for kind in kinds[i % len(kinds)]]


def _odd_y_term(code):
    """X_0 times the first Z check on qubit 0: a Y_0 Z...Z string, Hermitian
    and imaginary, whose x- and z-masks lie in the spans of an X field and
    of the Z checks."""
    check = next(q for q in code.checks if q.z & 1 and not q.x)
    return (0.03, PauliString(code.n, 1, check.z))


@pytest.mark.parametrize("kinds", [("X",), ("Z",), ("X", "Y", "XZ"), "odd-y"],
                         ids=["x", "z", "mixed", "x-odd-y"])
@pytest.mark.parametrize("code", [repetition_code(5), toric_code(2)],
                         ids=["rep5", "toric2"])
def test_engine_matches_dense_oracle(code, kinds, monkeypatch):
    # The oracle uses only operator_dense and scipy's expm, none of the
    # coset blocks: each order's U is e^{A_m}, the run's unitary is their
    # product, and U^dagger (H0 + V) U = H0 + D + V + E.  A real H (the X
    # and Z fields) has no strings of odd Y count; the X field with one
    # such string keeps the Hadamard frame and makes H complex.
    steps, step = [], SwtEngine.step

    def recorded(engine, *args):
        steps.append((engine, step(engine, *args)))
        return steps[-1][1]

    monkeypatch.setattr(SwtEngine, "step", recorded)
    if kinds == "odd-y":
        terms = _field_of_kinds(code.n, ("X",)) + [_odd_y_term(code)]
    else:
        terms = _field_of_kinds(code.n, kinds)
    run = swt_run(code, terms, m_target=3)
    assert len(steps) == 2
    product = np.eye(1 << code.n)
    for engine, res in steps:
        U = scipy.linalg.expm(res.generator.to_dense())
        assert np.allclose(engine.frame.full(res.unitary), U, rtol=0,
                           atol=1e-10)
        product = product @ U
    if kinds == ("X", "Y", "XZ"):
        assert run.frame.r == code.n  # one coset of 2^n states
    if kinds == "odd-y":
        assert run.frame.name == "hadamard"
    assert np.allclose(run.unitary, product, rtol=0, atol=1e-10)
    H = code_hamiltonian_dense(code) + operator_dense(code.n, columns(terms))
    rotated = run.unitary.conj().T @ H @ run.unitary
    parts = (code_hamiltonian_dense(code) + run.d_final.to_dense()
             + run.v_final.to_dense() + run.e_final)
    assert np.allclose(rotated, parts, rtol=0, atol=1e-10)
    # With the default d_s every term is tracked, so E holds only the
    # transform's pruning dust; a remainder read with a wrong sign would
    # land there.
    assert np.allclose(run.e_final, 0, rtol=0, atol=1e-10)
    assert run.unitarity_defect() < 1e-12
    assert max(run.conjugation_residuals) < 1e-12


def test_block_norms_are_full_norms():
    # The unitarity defect and the garbage norm are largest 2-norms over
    # the coset blocks, equal to the 2-norms of the full matrices, so a
    # corrupted block shows as it would in the full matrix.
    code = toric_code(2)
    run = swt_run(code, _field_of_kinds(code.n, ("X",)), m_target=2)
    assert run.frame.name == "hadamard" and run.u_blocks.shape == (32, 8, 8)
    run.u_blocks = run.u_blocks.copy()
    run.u_blocks[5] *= 1.001
    U = run.unitary
    expect = np.linalg.norm(U.conj().T @ U - np.eye(256), 2)
    assert expect > 1e-3
    assert run.unitarity_defect() == pytest.approx(expect, rel=1e-9)
    noise = np.random.default_rng(3).standard_normal((8, 8))
    run.e_blocks = run.e_blocks.copy()
    run.e_blocks[7] += 0.01 * (noise + noise.T)
    expect = np.linalg.norm(run.e_final, 2)
    assert expect > 1e-3
    assert run.garbage_norm() == pytest.approx(expect, rel=1e-9)


def _antihermitian_stack(rng, dim, norms, complex_):
    """One random anti-Hermitian block per 2-norm in ``norms``, real or
    complex, then one with the eigenvalues +-i (each twice) and 0."""
    def draw():
        g = rng.standard_normal((dim, dim))
        return g + 1j * rng.standard_normal((dim, dim)) if complex_ else g

    blocks = []
    for norm in norms:
        g = draw()
        a = g - g.conj().T
        blocks.append(norm * a / np.linalg.norm(a, 2))
    q, _ = np.linalg.qr(draw())
    rot = np.zeros((dim, dim))
    rot[[0, 2], [1, 3]], rot[[1, 3], [0, 2]] = 1.0, -1.0
    blocks.append(q @ rot @ q.conj().T)
    return np.array(blocks)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_expm_antihermitian_matches_scipy(complex_):
    rng = np.random.default_rng(11)
    norms = [0.0, 1e-9, 0.3, np.pi / 2, np.pi, 2.5 * np.pi, 3 * np.pi]
    A = _antihermitian_stack(rng, 8, norms, complex_)
    U = _expm_antihermitian(A)
    assert U.dtype == (np.complex128 if complex_ else np.float64)
    for a, u in zip(A, U):
        assert np.allclose(u, scipy.linalg.expm(a), rtol=0, atol=1e-12)
    assert np.array_equal(U[0], np.eye(8))
    defect = U.conj().swapaxes(-1, -2) @ U - np.eye(8)
    assert np.max(np.abs(defect)) < 1e-13


def test_max_norm_bounds_the_2_norm():
    rng = np.random.default_rng(5)
    for complex_ in (False, True):
        g = rng.standard_normal((4, 16, 16))
        if complex_:
            g = g + 1j * rng.standard_normal((4, 16, 16))
        svd = np.linalg.svd(g, compute_uv=False).max()
        assert _max_norm(g) >= svd
        herm = g + g.conj().swapaxes(-1, -2)
        svd = np.linalg.svd(herm, compute_uv=False).max()
        assert _max_norm(herm) == pytest.approx(svd, rel=1e-12)


def test_residual_reports_a_corrupted_step(monkeypatch):
    # The residual compares (H0 + D + V + E)_m U with U (H0 + D + V + E)_{m+1},
    # so a generator block pushed off anti-Hermitian by 1e-3 (U no longer
    # unitary) shows in it.  A corrupted D or V block would not: E absorbs
    # whatever the tracked terms miss.
    code = repetition_code(5)
    engine = SwtEngine(code, _field_of_kinds(5, ("X",)))
    zero = QuasiLocalOperator(code, ())
    args = (zero, engine.v1, engine.e1, block_diagonal_part(engine.v1))
    assert engine.step(*args).conjugation_residual < 1e-12
    generators, solve, blocks = [], swt.solve_generator, SwtEngine._blocks

    def recorded(*a):
        generators.append(solve(*a))
        return generators[-1]

    def perturbed(self, op):
        out = blocks(self, op)
        if generators and op is generators[-1]:
            out[0] += 1e-3 * np.eye(out.shape[-1])
        return out

    monkeypatch.setattr(swt, "solve_generator", recorded)
    monkeypatch.setattr(SwtEngine, "_blocks", perturbed)
    assert engine.step(*args).conjugation_residual > 1e-4


def test_real_field_keeps_real_blocks():
    code = repetition_code(5)
    run = swt_run(code, _field_of_kinds(5, ("X",)), m_target=3)
    assert run.u_blocks.dtype == run.e_blocks.dtype == np.float64


def test_engine_refuses_terms_outside_its_frame():
    # rep5 under an X field: the ZZ checks' z-span (rank 4) is smaller than
    # the x-span (rank 5), so the Hadamard frame; Z_0 lies outside its span.
    code = repetition_code(5)
    engine = SwtEngine(code, _field_of_kinds(5, ("X",)))
    assert engine.frame.name == "hadamard" and engine.frame.r == 4
    stray = decompose([(0.1, PauliString.single(5, "Z", 0))], code)
    with pytest.raises(ValueError, match="outside the frame's span"):
        engine.step(QuasiLocalOperator(code, ()), stray, engine.e1,
                    block_diagonal_part(stray))


def two_body_mix(n, eps, seed):
    """(1/n) sum_{i<j} eps_ij (X_i X_j + Z_i Z_j) with |eps_ij| <= eps."""
    rng = random.Random(seed)
    terms = []
    eps_ij = {}
    for i in range(n):
        for j in range(i + 1, n):
            e = eps * rng.uniform(-1, 1)
            eps_ij[(i, j)] = e
            xx = PauliString(n, (1 << i) | (1 << j), 0)
            zz = PauliString(n, 0, (1 << i) | (1 << j))
            terms.append((e / n, xx))
            terms.append((e / n, zz))
    return terms, eps_ij


def test_step_produces_expected_d2_on_field_code():
    n = 5
    code = field_code(n)
    terms, eps_ij = two_body_mix(n, 0.1, seed=3)
    engine = SwtEngine(code, terms)
    from stabbench.quasilocal import QuasiLocalOperator

    v1, e1 = engine.v1, engine.e1
    res = engine.step(QuasiLocalOperator(code, ()), v1, e1,
                      block_diagonal_part(v1))
    assert res.conjugation_residual < 1e-9
    # D2 must contain each Z_i Z_j with coefficient eps_ij / n
    from stabbench.matrices import pauli_transform

    coeffs = pauli_transform(res.d_next.to_dense())
    for (i, j), e in eps_ij.items():
        key = (0, (1 << i) | (1 << j))
        assert coeffs.get(key, 0.0) == pytest.approx(e / n, abs=1e-12)


def test_v2_scales_quadratically():
    n = 4
    code = field_code(n)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        terms, _ = two_body_mix(n, eps, seed=11)
        run = swt_run(code, terms, m_target=2, kappa1=1.0)
        v2 = run.v_norms[1]
        ratios.append(v2 / eps ** 2)
    spread = max(ratios) / min(ratios)
    assert spread < 1.5  # clean second-order scaling


def test_swt_run_on_toric_field():
    code = toric_code(2)
    eps = 0.02
    terms = [(eps, PauliString.single(8, "X", i)) for i in range(8)]
    run = swt_run(code, terms, m_target=4, kappa1=1.0)
    assert run.unitarity_defect() < 1e-10
    assert all(r < 1e-9 for r in run.conjugation_residuals)
    # v_m decreases geometrically at small eps
    assert run.v_norms[1] < run.v_norms[0]
    assert run.v_norms[2] < run.v_norms[1]
    assert not run.diverging
    assert 0 < run.schedule_sup < float("inf")
    # spectrum invariance under the assembled unitary
    H = code_hamiltonian_dense(code) + operator_dense(code.n, columns(terms))
    vals = np.linalg.eigvalsh(H)
    rotated = run.unitary.conj().T @ H @ run.unitary
    vals_rot = np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().T))
    assert np.allclose(vals, vals_rot, atol=1e-9)


def test_swt_run_m_target_one_returns_input_split():
    code = repetition_code(4)
    terms = [(0.05, PauliString.single(4, "X", i)) for i in range(4)]
    run = swt_run(code, terms, m_target=1)
    assert run.orders == 1
    assert run.generators == []
    v1 = decompose(terms, code)
    assert run.v_norms[0] == pytest.approx(kappa_norm(v1, kappa_m(1.0, 1)))


def test_spectral_report_unperturbed():
    code = toric_code(2)
    rep = spectral_report(code, [], 0.0, mode="dense")
    assert rep.cluster_size == 4
    assert rep.splitting == pytest.approx(0.0, abs=1e-12)
    assert rep.gap >= 1.0


def test_spectral_report_toric_field_dense():
    code = toric_code(2)
    terms = [(1.0, PauliString.single(8, "X", i)) for i in range(8)]
    rep = spectral_report(code, terms, 0.05, mode="dense", weyl_check=True)
    assert rep.cluster_size == 4
    assert rep.gap > 0.5
    assert rep.weyl_margin is not None and rep.weyl_margin >= -1e-10


@pytest.mark.parametrize("code,kind", [(toric_code(2), "X"),
                                       (repetition_code(6), "X"),
                                       (repetition_code(6), "Y")],
                         ids=["toric2-x", "rep6-x", "rep6-y"])
def test_spectral_report_dense_matches_full_diagonalization(code, kind):
    # Dense reports come from the coset solver; the Weyl margin from the
    # H0 spectrum of that solver and ||V|| from payload_norm.  Both agree
    # with a diagonalization of the full 2^n x 2^n matrices.
    eps = 0.07
    terms = uniform_field_terms(code.n, kind)
    rep = spectral_report(code, terms, eps, mode="dense", num_eigs=1 << code.n,
                          weyl_check=True)
    H0 = code_hamiltonian_dense(code)
    V = operator_dense(code.n, columns(terms))
    vals = np.linalg.eigvalsh(H0 + eps * V)
    assert np.allclose(rep.eigenvalues, vals, atol=1e-10)
    margin = eps * np.linalg.norm(V, 2) - np.max(
        np.abs(vals - np.linalg.eigvalsh(H0)))
    assert rep.weyl_margin == pytest.approx(margin, abs=1e-10)


def test_spectral_report_sparse_toric4_x_field(monkeypatch):
    # n = 32, past the old n <= 20 limit: 2^17 cosets of 2^15 states, of
    # which the cluster floor admits the four without a violated star.
    solved, lanczos = [], matrices._lanczos_block

    def spy_lanczos(r, *args):
        solved.append(r)
        return lanczos(r, *args)

    monkeypatch.setattr(matrices, "_lanczos_block", spy_lanczos)
    rep = spectral_report(toric_code(4), uniform_field_terms(32, "X"), 0.1,
                          num_eigs=8, mode="sparse", k=2)
    assert solved == [15] * 4
    assert rep.cluster_size == 4
    assert rep.splitting == pytest.approx(6.18e-3, abs=5e-6)
    assert rep.gap == pytest.approx(1.169, abs=5e-4)


def test_spectral_report_sparse_matches_dense():
    code = toric_code(2)
    terms = [(1.0, PauliString.single(8, "X", i)) for i in range(8)]
    dense = spectral_report(code, terms, 0.07, mode="dense")
    sparse = spectral_report(code, terms, 0.07, mode="sparse", num_eigs=8)
    assert np.allclose(
        dense.eigenvalues[:8], sparse.eigenvalues[:8], atol=1e-7
    )
    assert sparse.cluster_size == 4


def test_projector_distance_decreases_with_order():
    code = toric_code(2)
    eps = 0.02
    terms = [(1.0, PauliString.single(8, "X", i)) for i in range(8)]
    scaled = [(eps * c, p) for c, p in terms]
    dists = []
    for m_target in (1, 3):
        run = swt_run(code, scaled, m_target=m_target)
        rep = spectral_report(code, terms, eps, mode="dense", swt_result=run)
        dists.append(rep.projector_distance)
    assert dists[1] < dists[0]


def ring_region_L4():
    """The 8-edge perimeter of the 2x2 plaquette block at the origin of the
    L=4 torus, its interior cross edges, and the Z-loop on the ring."""
    L = 4
    ring = [
        toric_qubit_index(L, 0, 0, 0), toric_qubit_index(L, 1, 0, 0),
        toric_qubit_index(L, 0, 2, 0), toric_qubit_index(L, 1, 2, 0),
        toric_qubit_index(L, 0, 0, 1), toric_qubit_index(L, 0, 1, 1),
        toric_qubit_index(L, 2, 0, 1), toric_qubit_index(L, 2, 1, 1),
    ]
    interior = [
        toric_qubit_index(L, 0, 1, 0), toric_qubit_index(L, 1, 1, 0),
        toric_qubit_index(L, 1, 0, 1), toric_qubit_index(L, 1, 1, 1),
    ]
    loop = PauliString.from_support(2 * L * L, "Z", ring)
    return frozenset(ring), frozenset(interior), loop


def test_ring_loop_is_product_of_hole_plaquettes():
    L = 4
    code = toric_code(L)
    ring, interior, loop = ring_region_L4()
    from stabbench.pauli import product

    faces = [
        PauliString.from_support(code.n, "Z", toric_face_support(L, x, y))
        for x in (0, 1) for y in (0, 1)
    ]
    assert product(faces).label() == loop.label()
    assert loop.support() == ring


def test_lto_annulus_counterexample_and_filled_hole():
    L = 4
    code = toric_code(L)
    ring, interior, loop = ring_region_L4()
    # r=1 ball fills the hole: the check passes
    rep_filled = local_indistinguishability_check(code, ring, r=1)
    assert interior <= rep_filled.region
    assert rep_filled.holds, rep_filled.counterexample
    # explicit annulus region (hole left open): the Z-loop is a counterexample
    annulus = rep_filled.region - interior
    rep_open = local_indistinguishability_check(code, ring, r=1,
                                                region=annulus)
    assert not rep_open.holds
    assert rep_open.counterexample is not None
    assert rep_open.counterexample.x == 0  # a pure Z loop
    assert not operator_locally_trivial(code, loop, annulus)
    assert operator_locally_trivial(code, loop, rep_filled.region)


def test_lto_plaquette_ball_holds():
    L = 4
    code = toric_code(L)
    ball = frozenset(toric_face_support(L, 2, 2))
    rep = local_indistinguishability_check(code, ball, r=1)
    assert rep.holds


def test_lto_ising_toric_faraway_plaquette_fails():
    # At L=3 the r=1 ball covers the whole torus (the pair checks are wide),
    # so the faraway-plaquette violation needs L=4, where the neighborhood
    # of face (2,2) genuinely excludes the pinned face.
    L = 4
    code = ising_toric(L)
    support = frozenset(toric_face_support(L, 2, 2))
    rep = local_indistinguishability_check(code, support, r=1)
    assert not rep.holds
    b_far = PauliString.from_support(code.n, "Z", support)
    assert not operator_locally_trivial(code, b_far, rep.region)
    # the standard toric code is fine on the same region
    assert operator_locally_trivial(toric_code(L), b_far, rep.region)


def test_lto_ising_toric_explicit_dual_neighborhood_L3():
    # L=3 variant with the enlarged region given explicitly as the faces
    # touching the target plaquette; the pinned face stays outside and the
    # plaquette operator cannot be expanded.
    L = 3
    code = ising_toric(L)
    region = set()
    for (x, y) in [(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)]:
        region |= set(toric_face_support(L, x, y))
    support = frozenset(toric_face_support(L, 1, 1))
    rep = local_indistinguishability_check(code, support, r=1, region=region)
    assert not rep.holds
    b_f = PauliString.from_support(code.n, "Z", support)
    assert not operator_locally_trivial(code, b_f, frozenset(region))


def enumerated_lto(code, s, r, region=None):
    """Reference local-indistinguishability check: (holds, counterexample,
    region) from every nonzero combination of the candidate basis, in the
    order of their bit patterns, the first combination outside the span of
    the inside checks being the counterexample."""
    S = frozenset(s)
    if region is None:
        region = frozenset(q for q, d in plain_distances(code, S).items()
                           if d <= r)
    region = frozenset(region)
    inside = checks_inside(code, region)
    squbits = sorted(S)
    ns = len(squbits)
    rows = [c.z | c.x << ns
            for c in (restrict(code.checks[i], squbits) for i in inside)]
    basis = nullspace(rows, 2 * ns) if rows else [
        1 << j for j in range(2 * ns)]
    span = Echelon(code.checks[i].x | code.checks[i].z << code.n
                   for i in inside)
    for combo in range(1, 1 << len(basis)):
        bits = 0
        for j, v in enumerate(basis):
            if combo >> j & 1:
                bits ^= v
        x = z = 0
        for j, q in enumerate(squbits):
            x |= (bits >> j & 1) << q
            z |= (bits >> (ns + j) & 1) << q
        if span.reduce(x | z << code.n):
            return False, PauliString(code.n, x, z), region
    return True, None, region


@st.composite
def lto_cases(draw):
    """(code, S, r, region or None) on the small oracle codes, with up to
    five qubits in S so that the reference enumerates at most 2^10
    combinations."""
    code = ORACLE_CODES[draw(st.sampled_from(sorted(ORACLE_CODES)))]
    qubits = st.integers(0, code.n - 1)
    s = draw(st.sets(qubits, min_size=1, max_size=5))
    region = None
    if draw(st.booleans()):
        region = s | draw(st.sets(qubits))
    return code, s, draw(st.integers(0, 2)), region


@settings(max_examples=200, deadline=None)
@given(lto_cases())
def test_lto_basis_check_matches_enumeration(case):
    code, s, r, region = case
    rep = local_indistinguishability_check(code, s, r, region=region)
    assert (rep.holds, rep.counterexample, rep.region) == \
        enumerated_lto(code, s, r, region)


def test_lto_79_candidate_dimensions():
    # One check Z0 Z1 on 40 qubits with S = region = every qubit leaves 79
    # candidate dimensions, past what a 2^dim enumeration could reach.
    n = 40
    code = StabilizerCode.from_checks(
        n, [PauliString.from_support(n, "Z", (0, 1))])
    everything = frozenset(range(n))
    rep = local_indistinguishability_check(code, everything, r=0,
                                           region=everything)
    assert not rep.holds
    assert 1 <= rep.candidates_checked <= 79
    assert commutes(rep.counterexample, code.checks[0])
    assert not operator_locally_trivial(code, rep.counterexample, everything)


def test_lto_toric8_block_holds_on_all_18_candidates():
    L = 8
    block = frozenset(toric_qubit_index(L, x, y, o)
                      for x in range(4) for y in range(4) for o in (0, 1))
    rep = local_indistinguishability_check(toric_code(L), block, r=1)
    assert rep.holds and rep.counterexample is None
    assert rep.candidates_checked == 18


@pytest.mark.parametrize("s, region", [
    ({100}, None),
    ({-1}, None),
    ({3}, {3, 100}),
], ids=["s_above_n", "s_negative", "region_above_n"])
def test_lto_rejects_qubits_outside_the_code(s, region):
    with pytest.raises(ValueError, match=r"qubits \[(100|-1)\] lie outside"):
        local_indistinguishability_check(toric_code(2), s, r=1, region=region)


def test_relative_bound_trivial_cases():
    code = repetition_code(4)
    dim = 1 << 4
    c, off, ok = relative_bound_estimate(code, np.zeros((dim, dim)))
    assert c == pytest.approx(0.0, abs=1e-12)
    H0 = code_hamiltonian_dense(code)
    c, off, ok = relative_bound_estimate(code, H0)
    assert c == pytest.approx(1.0, rel=1e-9)
    assert off == pytest.approx(0.0, abs=1e-12)
    assert ok


def test_relative_bound_on_step_one_d2():
    code = toric_code(2)
    eps = 0.05
    terms = [(eps, PauliString.single(8, "X", i)) for i in range(8)]
    run = swt_run(code, terms, m_target=2)
    D = run.d_final.to_dense()
    c, c_d, ok = relative_bound_estimate(code, D)
    assert ok and c > 0
    H0 = code_hamiltonian_dense(code)
    rng = np.random.default_rng(1)
    dim = 1 << 8
    eye = np.eye(dim)
    for _ in range(100):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        lhs = np.linalg.norm((D - c_d * eye) @ psi)
        rhs = c * np.linalg.norm(H0 @ psi)
        assert lhs <= rhs + 1e-9


def test_field_code_two_body_runs_geometric():
    n = 6
    code = field_code(n)
    eps = 0.02
    terms, _ = two_body_mix(n, eps, seed=2)
    run = swt_run(code, terms, m_target=4, kappa1=1.0)
    # geometric suppression order over order at small eps
    for a, b in zip(run.v_norms, run.v_norms[1:]):
        assert b < a
    ratios = [b / a for a, b in zip(run.v_norms, run.v_norms[1:])]
    assert max(ratios) < 0.3  # comfortably below any c_iter * eps scale


def test_hgp_ground_count_sparse():
    from stabbench.constructors import BipartiteTanner, hypergraph_product

    rep3 = BipartiteTanner.repetition(3)
    code = hypergraph_product(rep3, rep3)  # n = 13: dense is out of reach
    rep = spectral_report(code, [], 0.0, mode="sparse", num_eigs=6, k=1)
    assert rep.cluster_size == 2
    assert rep.splitting == pytest.approx(0.0, abs=1e-8)
    assert rep.gap >= 1.0 - 1e-8
