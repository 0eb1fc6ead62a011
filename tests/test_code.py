"""Stabilizer-code layer: validation, syndromes, logicals, parameters."""

from __future__ import annotations

import random

import numpy as np
import pytest

from stabbench.code import (
    InvalidCodeError,
    StabilizerCode,
    code_parameters,
    graph_distance,
    logicals,
    num_logical_qubits,
    syndrome_of,
    validate,
)
from stabbench.constructors import (
    BipartiteTanner,
    hypergraph_product,
    ising_toric,
    random_biregular_classical,
    repetition_code,
    toric_code,
)
from stabbench.gf2 import nullspace, rank, solve_affine
from stabbench.matrices import code_hamiltonian_dense, codespace_projector_dense
from stabbench.pauli import PauliString, commutes, multiply, symplectic_frame


def test_validate_counts_toric3():
    m = validate(toric_code(3))
    assert m.q == 4 and m.q_prime == 4
    assert m.delta <= m.q * m.q_prime - 1


def test_validate_counts_repetition5():
    m = validate(repetition_code(5))
    assert m.q == 2 and m.q_prime == 2
    assert m.delta == 2


def test_validate_rejects_anticommuting_pair():
    code = StabilizerCode.from_checks(
        1, [PauliString.from_label("X"), PauliString.from_label("Z")]
    )
    with pytest.raises(InvalidCodeError, match="0 and 1"):
        validate(code)


def test_from_checks_derives_kind_and_refuses_a_wrong_one():
    # The [[5, 1, 3]] checks mix X and Z: a "css" or "classical" label is
    # refused naming both kinds, and "general" (or none) is kept.
    checks = [PauliString.from_label("XZZXI"[-s:] + "XZZXI"[:-s])
              for s in range(4)]
    for kind in ("css", "classical"):
        with pytest.raises(InvalidCodeError,
                           match=f"kind 'general' labelled '{kind}'"):
            StabilizerCode.from_checks(5, checks, kind=kind)
    for kind in ("general", None):
        assert StabilizerCode.from_checks(5, checks, kind=kind).kind == \
            "general"
    zz = [PauliString.from_label("ZZI"), PauliString.from_label("IZZ")]
    assert StabilizerCode.from_checks(3, zz).kind == "classical"
    with pytest.raises(InvalidCodeError, match="'classical' labelled 'css'"):
        StabilizerCode.from_checks(3, zz, kind="css")


def test_validate_rejects_bad_lambda_and_sign():
    z = PauliString.from_label("ZZ")
    with pytest.raises(InvalidCodeError, match="< 1"):
        validate(StabilizerCode.from_checks(2, [z], [0.5]))
    neg = PauliString(2, 0, 0b11, sign=-1)
    with pytest.raises(InvalidCodeError, match="sign"):
        validate(StabilizerCode.from_checks(2, [neg]))


def test_growth_profile_bounds():
    m = validate(toric_code(3))
    for i in range(m.n):
        for r in range(m.diameter + 1):
            ball = m.ball_sizes[i][min(r, len(m.ball_sizes[i]) - 1)]
            assert m.gamma_shell(i, r) <= ball
            # shell volume obeys the degree envelope used by the bound sums
            assert m.gamma_shell(i, r) <= max(m.delta, 1) ** r
            assert ball <= 1 + sum(
                m.delta ** j for j in range(1, r + 1)
            )


def plain_distances(code, sources) -> dict:
    """Reference BFS: distances from ``sources`` on the graph whose qubits
    are adjacent when some check acts on both."""
    dist = {q: 0 for q in sources}
    queue = list(sources)
    for v in queue:
        for c in code.checks:
            sup = c.support()
            if v in sup:
                for w in sup:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
    return dist


@pytest.mark.parametrize("code", [
    toric_code(3),
    hypergraph_product(BipartiteTanner.repetition(3),
                       BipartiteTanner.repetition(4)),
    ising_toric(3),
], ids=["toric3", "hgp_rep3_rep4", "ising_toric3"])
def test_ball_sizes_and_graph_distance_match_plain_bfs(code):
    m = validate(code)
    for i in range(code.n):
        dist = plain_distances(code, [i])
        want = tuple(sum(d <= r for d in dist.values())
                     for r in range(max(dist.values()) + 1))
        assert m.ball_sizes[i] == want
        assert graph_distance(m, [i]) == dist
    rng = random.Random(3)
    for size in (0, 1, 2, 5):
        sources = rng.sample(range(code.n), size)
        assert graph_distance(m, sources) == plain_distances(code, sources)


def test_syndrome_identity_and_midchain_x():
    code = repetition_code(5)
    assert syndrome_of(code, PauliString.identity(5)) == 0
    s = syndrome_of(code, PauliString.single(5, "X", 2))
    # flips exactly the two adjacent Z_i Z_{i+1} checks
    assert s == 0b110


def test_syndrome_additivity_random():
    code = toric_code(2)
    rng = random.Random(4)
    for _ in range(40):
        p = PauliString(8, rng.getrandbits(8), rng.getrandbits(8))
        q = PauliString(8, rng.getrandbits(8), rng.getrandbits(8))
        if not commutes(p, q):
            continue
        s = syndrome_of(code, multiply(p, q))
        assert s == syndrome_of(code, p) ^ syndrome_of(code, q)


def test_logicals_repetition():
    code = repetition_code(5)
    pairs = logicals(code)
    assert len(pairs) == 1
    lx, lz = pairs[0]
    assert lx.label() == "XXXXX"
    assert lz.x == 0 and lz.z.bit_count() % 2 == 1
    assert not commutes(lx, lz)
    for c in code.checks:
        assert commutes(lx, c) and commutes(lz, c)


def test_logicals_full_rank_code_is_empty():
    checks = [PauliString.single(4, "Z", i) for i in range(4)]
    code = StabilizerCode.from_checks(4, checks)
    assert logicals(code) == []
    assert num_logical_qubits(code) == 0


def test_logicals_toric2_pairing():
    code = toric_code(2)
    pairs = logicals(code)
    assert len(pairs) == 2
    flat = [p for pair in pairs for p in pair]
    for p in flat:
        assert syndrome_of(code, p) == 0
    for i, (lx, lz) in enumerate(pairs):
        assert not commutes(lx, lz)
        for j, (mx, mz) in enumerate(pairs):
            if i != j:
                assert commutes(lx, mx) and commutes(lx, mz)
                assert commutes(lz, mx) and commutes(lz, mz)


def test_logicals_not_check_products():
    code = toric_code(2)
    from stabbench.gf2 import solve_affine

    sym = [c.x | (c.z << code.n) for c in code.checks]
    for lx, lz in logicals(code):
        for p in (lx, lz):
            vec = p.x | (p.z << code.n)
            assert solve_affine(sym, vec) is None


def _hgp_repetition(m: int) -> StabilizerCode:
    rep = BipartiteTanner.repetition(m)
    return hypergraph_product(rep, rep)


def _five_qubit_code() -> StabilizerCode:
    """[[5, 1, 3]]: XZZXI and its four cyclic shifts."""
    label = "XZZXI"
    return StabilizerCode.from_checks(5, [
        PauliString.from_label(label[-i:] + label[:-i]) for i in range(5)])


# CSS, classical and general codes with one to four logical pairs.
FRAME_CODES = {
    **{f"toric{L}": lambda L=L: toric_code(L) for L in (2, 3, 4)},
    **{f"hgp-rep{m}": lambda m=m: _hgp_repetition(m) for m in (3, 4, 5)},
    **{f"rb{b}-{s}": lambda b=b, s=s: random_biregular_classical(
        b, 3, 4, s).to_code() for b in (12, 16, 20) for s in range(3)},
    "rep5": lambda: repetition_code(5),
    "ising-toric3": lambda: ising_toric(3),
    "five-qubit": _five_qubit_code,
}


@pytest.mark.parametrize("name", FRAME_CODES)
def test_logicals_are_anticommuting_pairs_outside_the_check_span(name):
    code = FRAME_CODES[name]()
    n = code.n
    pairs = logicals(code)
    assert len(pairs) == num_logical_qubits(code)
    sym = [c.x | c.z << n for c in code.checks]
    for i, (a, b) in enumerate(pairs):
        assert not commutes(a, b)
        for j, pair in enumerate(pairs):
            if j != i:
                assert all(commutes(p, q) for p in (a, b) for q in pair)
        for p in (a, b):
            assert p.sign == 1 and syndrome_of(code, p) == 0
            assert solve_affine(sym, p.x | p.z << n) is None
        if code.kind != "general":  # pure X, then pure Z
            assert a.z == 0 and b.x == 0


@pytest.mark.parametrize("name", FRAME_CODES)
def test_centralizer_frame_has_k_pairs_around_the_stabilizer_group(name):
    code = FRAME_CODES[name]()
    n = code.n
    sym = [c.x | c.z << n for c in code.checks]
    centralizer = nullspace([c.z | c.x << n for c in code.checks], 2 * n)
    g, basis = symplectic_frame(n, [v & (1 << n) - 1 for v in centralizer],
                                [v >> n for v in centralizer])
    assert g == num_logical_qubits(code)
    centre = [x | z << n for x, z, _ in basis[2 * g:]]
    assert len(centre) == rank(sym) == rank(sym + centre)


@pytest.mark.parametrize("code, expected", [
    (toric_code(3), (18, 2, 3, 3, 3, True)),
    (_hgp_repetition(4), (25, 1, 4, 4, 4, True)),
    # certified is False although d_x is exact: a codeword heavier than
    # w_max = 8 clears it, as on the random code perfbench/reference.json
    # pins.
    (random_biregular_classical(12, 3, 4, 0).to_code(),
     (12, 4, 4, 4, 1, False)),
    (_five_qubit_code(), (5, 1, 3, None, None, True)),
], ids=["toric3", "hgp-rep4", "rb12-0", "five-qubit"])
def test_code_parameters_pinned(code, expected):
    p = code_parameters(code)
    assert (p.n, p.k, p.d, p.d_x, p.d_z, p.certified) == expected


def test_code_parameters_repetition():
    params = code_parameters(repetition_code(5))
    assert (params.n, params.k, params.d) == (5, 1, 5)
    assert params.d_x == 5 and params.d_z == 1 and params.certified


def test_code_parameters_toric():
    p2 = code_parameters(toric_code(2))
    assert (p2.n, p2.k, p2.d) == (8, 2, 2)
    p3 = code_parameters(toric_code(3))
    assert (p3.n, p3.k, p3.d) == (18, 2, 3)


def test_code_parameters_toric5():
    # 25 Z checks of rank 24: the rank, not the row count, picks the span
    # search of min_weight_codeword.
    p = code_parameters(toric_code(5))
    assert (p.n, p.k, p.d, p.d_x, p.d_z) == (50, 2, 5, 5, 5)


def test_code_parameters_hgp_rep3():
    rep3 = BipartiteTanner.repetition(3)
    code = hypergraph_product(rep3, rep3)
    params = code_parameters(code)
    assert (params.n, params.k, params.d) == (13, 1, 3)


def test_code_parameters_hgp_rep5():
    rep5 = BipartiteTanner.repetition(5)
    params = code_parameters(hypergraph_product(rep5, rep5))
    assert (params.n, params.k, params.d) == (41, 1, 5)
    assert params.d_x == 5 and params.d_z == 5 and params.certified


def _kernel_words(rows: list[int], n: int) -> list[int]:
    """Every v with H v = 0 for the parity rows of H, by plain elimination."""
    pivots: dict[int, int] = {}  # lowest set bit -> reduced row
    for r in rows:
        for col, prow in pivots.items():
            if (r >> col) & 1:
                r ^= prow
        if r:
            col = (r & -r).bit_length() - 1
            pivots = {c: p ^ r if (p >> col) & 1 else p for c, p in pivots.items()}
            pivots[col] = r
    words = [0]
    for free in range(n):
        if free not in pivots:
            v = 1 << free
            for col, prow in pivots.items():
                if (prow >> free) & 1:
                    v |= 1 << col
            words += [w ^ v for w in words]
    return words


@pytest.mark.parametrize("seed", [3, 6])
def test_code_parameters_random_biregular_matches_kernel_enumeration(seed):
    code = random_biregular_classical(20, 3, 4, seed).to_code()
    rows = [c.z for c in code.checks]
    kernel = _kernel_words(rows, code.n)
    # X logicals are the nonzero kernel words; a Z logical is any word
    # outside the rowspace of the checks, so d_z = 1 when a unit word is.
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    k = len(kernel).bit_length() - 1
    d_x = min(w.bit_count() for w in kernel if w)
    d_z = 1 if any(1 << i not in span for i in range(code.n)) else None
    params = code_parameters(code)
    # code_parameters searches up to weight 8 and reports 9 beyond it.
    assert (params.n, params.k, params.d_x, params.d_z) == (
        code.n, k, min(d_x, 9), d_z)
    assert params.d == params.d_x


def test_k_plus_rank_equals_n():
    rep3 = BipartiteTanner.repetition(3)
    for code in (repetition_code(4), toric_code(2),
                 hypergraph_product(rep3, rep3)):
        k = num_logical_qubits(code)
        assert k + rank(c.x | (c.z << code.n) for c in code.checks) == code.n


def test_toric2_spectrum_oracle():
    code = toric_code(2)
    H = code_hamiltonian_dense(code)
    vals = np.linalg.eigvalsh(H)
    assert np.allclose(vals[:4], 0.0, atol=1e-12)
    assert vals[4] >= 2.0 - 1e-12


def test_h0_kernel_is_codespace():
    for code in (repetition_code(4), toric_code(2)):
        H = code_hamiltonian_dense(code)
        P = codespace_projector_dense(code)
        k = num_logical_qubits(code)
        vals = np.linalg.eigvalsh(H)
        assert int(np.sum(vals < 1e-9)) == 2 ** k
        assert abs(np.trace(P).real - 2 ** k) < 1e-9
        assert np.linalg.norm(H @ P) < 1e-9


def test_redundant_minus_identity_rejected():
    # XX, ZZ, YY pairwise commute with +1 signs but multiply to -I
    checks = [PauliString.from_label(s) for s in ("XX", "ZZ", "YY")]
    with pytest.raises(InvalidCodeError, match="-I"):
        validate(StabilizerCode.from_checks(2, checks))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_syndrome_additivity(data):
    code = toric_code(2)
    p = PauliString(8, data.draw(st.integers(0, 255)),
                    data.draw(st.integers(0, 255)))
    q = PauliString(8, data.draw(st.integers(0, 255)),
                    data.draw(st.integers(0, 255)))
    if not commutes(p, q):
        return
    s = syndrome_of(code, multiply(p, q))
    assert s == syndrome_of(code, p) ^ syndrome_of(code, q)
