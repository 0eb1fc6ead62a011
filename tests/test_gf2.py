"""GF(2) kernel: elimination, affine solves, exact minimum-weight searches."""

from __future__ import annotations

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabbench import gf2
from stabbench.code import (
    CheckGroup,
    InvalidCodeError,
    StabilizerCode,
    validate,
)
from stabbench.constructors import toric_code
from stabbench.gf2 import (
    min_support_solution,
    min_weight_codeword,
    nullspace,
    rank,
    solve_affine,
)
from stabbench.pauli import PauliString, commutes, product


def brute_rank(rows: list[int]) -> int:
    span = {0}
    for r in rows:
        span |= {s ^ r for s in span}
    return len(span).bit_length() - 1


def xor_of(rows: list[int], sel: int) -> int:
    """XOR of the rows selected by the bits of ``sel``."""
    acc = 0
    for i, r in enumerate(rows):
        if (sel >> i) & 1:
            acc ^= r
    return acc


@pytest.mark.parametrize("cols", [1, 64, 130])
def test_span_table_matches_subset_xor(cols):
    # Row s of the doubling table is the XOR of the rows s selects, for
    # one-word and multi-word rows and for no rows at all.
    rng = random.Random(cols)
    for m in (0, 1, 7):
        rows = [rng.getrandbits(cols) for _ in range(m)]
        table = gf2._span_table(gf2._words(rows, cols))
        assert table.shape == (1 << m, -(-cols // 64))
        assert [int.from_bytes(row.tobytes(), "little") for row in table] == [
            xor_of(rows, s) for s in range(1 << m)]


def toric2_z_support_matrix() -> list[int]:
    code = toric_code(2)
    return [code.checks[i].z for i in code.z_type_indices()]


def test_rank_identity_and_zero():
    ident = [1 << i for i in range(3)]
    assert rank(ident) == 3
    zero = [0 for _ in range(3)]
    assert rank(zero) == 0


def test_rank_toric2_z_sector_has_one_redundancy():
    m = toric2_z_support_matrix()
    assert len(m) == 4
    assert rank(m) == 3
    assert rank(m) == brute_rank(m)


def test_solve_affine_identity_and_infeasible():
    ident = [1 << i for i in range(4)]
    b = 0b1010
    x, null = solve_affine(ident, b)
    assert x == 0b1010 and null == []
    zero = [0 for _ in range(2)]
    assert solve_affine(zero, b) is None


def test_solve_affine_toric2_two_plaquette_support():
    m = toric2_z_support_matrix()
    target = m[0] ^ m[1]
    got = solve_affine(m, target)
    assert got is not None
    x, _ = got
    assert xor_of(m, x) == target
    # Exhaustive over all 2^4 check combinations: a weight-2 solution exists.
    best = min(
        (bin(sel).count("1") for sel in range(16)
         if xor_of(m, sel) == target),
    )
    assert best == 2
    assert min_support_solution(m, target, cap=4) == 2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_affine_random_verified_by_multiplication(data):
    rows = data.draw(st.integers(1, 10))
    cols = data.draw(st.integers(1, 10))
    mat = [data.draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)]
    b = data.draw(st.integers(0, (1 << cols) - 1))
    got = solve_affine(mat, b)
    if got is None:
        # b outside the rowspace: no subset reproduces it.
        span = {0}
        for r in mat:
            span |= {s ^ r for s in span}
        assert b not in span
    else:
        x, null = got
        assert xor_of(mat, x) == b
        for v in null:
            assert xor_of(mat, v) == 0
        assert rank(mat) + len(null) == rows


def test_nullspace_annihilates():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = [rng.getrandbits(cols) for _ in range(rows)]
        for v in nullspace(mat, cols):
            # a v = 0 means every row has even overlap with v
            for r in mat:
                assert (r & v).bit_count() % 2 == 0


def test_min_support_trivial_cases():
    m = toric2_z_support_matrix()
    assert min_support_solution(m, 0, cap=4) == 0
    assert min_support_solution(m, m[2], cap=4) == 1


def test_min_support_agrees_with_exhaustive_small():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 10)
        mat = [rng.getrandbits(cols) for _ in range(rows)]
        b = rng.getrandbits(cols)
        best = None
        for sel in range(1 << rows):
            if xor_of(mat, sel) == b:
                w = bin(sel).count("1")
                best = w if best is None else min(best, w)
        assert min_support_solution(mat, b, cap=rows) == best


def test_min_support_mitm_matches_direct():
    rng = random.Random(5)
    rows, cols = 26, 9
    mat = [rng.getrandbits(cols) | 1 for _ in range(rows)]
    picks = rng.sample(range(rows), 3)
    target = 0
    for i in picks:
        target ^= mat[i]
    got = min_support_solution(mat, target, cap=26)
    # oracle: direct enumeration up to weight 3 plus feasibility of the pick
    best = None
    for w in range(1, 4):
        for comb in itertools.combinations(range(rows), w):
            acc = 0
            for i in comb:
                acc ^= mat[i]
            if acc == target:
                best = w
                break
        if best is not None:
            break
    assert got == best


def test_min_support_refuses_sweep_past_budget():
    rows = [(i % 63) + 1 for i in range(50)]
    # Half of a 50-row sweep is 2^25 subsets: it must raise, not enumerate.
    with pytest.raises(ValueError, match="50 rows"):
        min_support_solution(rows, rows[0] ^ rows[1], cap=50)


def test_min_support_searches_past_44_rows():
    # 60 rows of rank 40: the 2^20 solutions of the 20 redundant rows are
    # searched whole.
    rng = random.Random(7)
    basis = [1 << i | rng.getrandbits(40) << 40 for i in range(40)]
    rows = basis + [basis[i] ^ basis[i + 1] for i in range(20)]
    # Rows 0, 1 and 2 reach the target, so the exhaustive count to 3 is exact.
    target = basis[0] ^ basis[1] ^ basis[2]
    fewest = min(len(c) for w in (1, 2, 3)
                 for c in itertools.combinations(range(60), w)
                 if xor_of(rows, sum(1 << i for i in c)) == target)
    assert fewest == 2
    assert min_support_solution(rows, target, cap=60) == fewest


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_check_group_picks_rank_increments(data):
    n = data.draw(st.integers(1, 5))
    checks: list[PauliString] = []
    for _ in range(data.draw(st.integers(0, 10))):
        sign = data.draw(st.sampled_from((1, -1)))
        if checks and data.draw(st.booleans()):
            # A product of earlier checks: commutes, often redundant.
            sel = data.draw(st.integers(0, (1 << len(checks)) - 1))
            picked = [c for i, c in enumerate(checks) if (sel >> i) & 1]
            x = z = 0
            for c in picked:
                x ^= c.x
                z ^= c.z
            cand = PauliString(n, x, z, sign)
        else:
            cand = PauliString(n, data.draw(st.integers(0, (1 << n) - 1)),
                               data.draw(st.integers(0, (1 << n) - 1)), sign)
        if all(commutes(cand, c) for c in checks):
            checks.append(cand)
    group = CheckGroup(checks, n)
    rows = [c.x | (c.z << n) for c in checks]
    expect = [i for i in range(len(rows))
              if brute_rank(rows[: i + 1]) > brute_rank(rows[:i])]
    assert group.indices == expect
    # Brute force: the signs each (x, z) takes over all subset products.
    signs: dict = {}
    for sel in range(1 << len(checks)):
        p = product([c for i, c in enumerate(checks) if (sel >> i) & 1], n)
        signs.setdefault((p.x, p.z), set()).add(p.sign)
    has_minus = -1 in signs[0, 0]
    assert bool(group.minus) == has_minus
    assert group.rank == len(expect) + has_minus
    assert [group.element(m) for m in group.masks] == checks
    for x, z, sign in itertools.product(range(1 << n), range(1 << n), (1, -1)):
        p = PauliString(n, x, z, sign)
        assert group.spans(p) == ((x, z) in signs)
        coord = group.coordinate(p)
        assert (coord is not None) == (sign in signs.get((x, z), ()))
        if coord is not None:
            assert group.element(coord) == p
    if all(c.sign == 1 for c in checks):
        if has_minus:
            with pytest.raises(InvalidCodeError, match="-I"):
                validate(StabilizerCode.from_checks(n, checks))
        else:
            validate(StabilizerCode.from_checks(n, checks))


def test_check_group_names_the_first_anticommuting_pair():
    # (1, 2) is met first when checks are added in order; (0, 3) comes
    # first among all pairs.
    checks = [PauliString.from_label(s) for s in ("XI", "IZ", "IX", "ZI")]
    with pytest.raises(InvalidCodeError,
                       match="checks 0 and 3 are anticommuting"):
        CheckGroup(checks, 2)


def test_min_weight_codeword_allones_row():
    gen = [0b11111]
    assert min_weight_codeword(gen, 0, w_max=5) == 5


def test_min_weight_codeword_coset_cancellation():
    gen = [0b0110, 0b1001]
    assert min_weight_codeword(gen, gen[0], w_max=4) == 0


def test_min_weight_codeword_repetition_z_distance():
    # rows are Z_i Z_{i+1} supports; a single-bit coset has weight-1 cosets
    n = 5
    gen = [0b11 << i for i in range(n - 1)]
    assert min_weight_codeword(gen, 1, w_max=n) == 1


def test_min_weight_codeword_lower_bound_certificate():
    gen = [0b111111]
    assert min_weight_codeword(gen, 0, w_max=5) is None


def test_min_weight_codeword_wide_path_matches_gray():
    rng = random.Random(9)
    cols = 10
    gen = [rng.getrandbits(cols) | 1 for _ in range(22)]
    coset = rng.getrandbits(cols)
    wide = min_weight_codeword(gen, coset, w_max=4)
    # oracle: brute force over the rowspace (rank <= 10 so this is cheap)
    span = {0}
    for r in gen:
        span |= {s ^ r for s in span}
    weights = [bin(w ^ coset).count("1") for w in span]
    best = min(weights)
    assert wide == (best if best <= 4 else None)


def test_min_weight_codeword_walk_above_span_rank():
    # 27 rows of rank 25: the rank is above SPAN_MAX_ROWS, so the candidate
    # walk answers; the span search, allowed that rank, checks it.
    rng = random.Random(12)
    cols = 38
    rows = [rng.getrandbits(cols) for _ in range(25)]
    rows += [rows[0] ^ rows[1], rows[2] ^ rows[3] ^ rows[4]]
    assert rank(rows) == 25 > gf2.SPAN_MAX_ROWS
    weights = []
    for coset in (0, rng.getrandbits(cols), rng.getrandbits(cols)):
        with mock.patch.object(gf2, "_span_chunks", side_effect=AssertionError):
            walk = min_weight_codeword(rows, coset, w_max=4)
        with mock.patch.object(gf2, "SPAN_MAX_ROWS", 25):
            span = min_weight_codeword(rows, coset, w_max=4)
        assert walk == span
        weights.append(walk)
    assert weights == [4, 3, 3]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_min_weight_searches_match_span_enumeration(data):
    cols = data.draw(st.one_of(st.sampled_from([1, 63, 64, 65, 128, 150]),
                               st.integers(1, 150)))
    # Sparse supports and dense bytes both reach the high words.
    words = st.one_of(
        st.sets(st.integers(0, cols - 1)).map(lambda s: sum(1 << i for i in s)),
        st.binary(min_size=-(-cols // 8), max_size=-(-cols // 8)).map(
            lambda b: int.from_bytes(b, "little") & ((1 << cols) - 1)),
    )
    rows = [data.draw(words) for _ in range(data.draw(st.integers(1, 8)))]
    # Dependent rows: non-empty selections that give the zero word.
    for _ in range(data.draw(st.integers(0, 3))):
        sel = data.draw(st.integers(1, (1 << len(rows)) - 1))
        rows.append(xor_of(rows, sel))
    span = [(sel.bit_count(), xor_of(rows, sel)) for sel in range(1 << len(rows))]
    some_word = span[data.draw(st.integers(0, len(span) - 1))][1]
    other = data.draw(words)  # often infeasible
    # A small table makes the kernel stream several tables per search.
    table_rows = data.draw(st.sampled_from([1, 3, gf2.TABLE_ROWS]))

    coset = data.draw(st.sampled_from([0, some_word, other]))
    w_max = data.draw(st.integers(1, cols + 1))
    target = data.draw(st.sampled_from([0, some_word, other]))
    cap = data.draw(st.integers(0, len(rows)))
    # A zero coset drops every zero word, the dependent selections too.
    lightest = min(((w ^ coset).bit_count() for _, w in span if coset or w),
                   default=None)
    fewest = min((n for n, w in span if w == target), default=None)
    with mock.patch.object(gf2, "TABLE_ROWS", table_rows):
        got_word = min_weight_codeword(rows, coset, w_max)
        got_support = min_support_solution(rows, target, cap)
    assert got_word == (lightest if lightest is not None and lightest <= w_max
                        else None)
    assert got_support == (fewest if fewest is not None and fewest <= cap
                           else None)
