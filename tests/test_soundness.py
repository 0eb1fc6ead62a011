"""Soundness certification: expansions, profiles, growth sums."""

from __future__ import annotations

import itertools
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabbench import soundness
from stabbench.code import CheckGroup, StabilizerCode, validate
from stabbench.constructors import (
    BipartiteTanner,
    hypergraph_product,
    ising_toric,
    repetition_code,
    toric_code,
)
from stabbench.pauli import PauliString, commutes, multiply, product
from stabbench.soundness import (
    NotAStabilizerError,
    SoundnessFunction,
    as_int,
    expansion_profile,
    growth_bound_constants,
    min_expansion,
    soundness_profile,
    soundness_sum,
    sweep,
    tilde_f_eval,
)


def general_code():
    """Signed, non-CSS code whose last check ZZZZ is the product of the
    other four; XXII * YYII = -ZZII, so its group carries -1 signs."""
    labels = ("XXII", "YYII", "IIXX", "IIYY", "ZZZZ")
    return StabilizerCode.from_checks(4, [PauliString.from_label(s) for s in labels])


def all_sector_code(n, gens):
    """Drawn generators as one code swept in the single "all" sector,
    whatever their kind: the dataclass constructor keeps the kind it is
    given, where ``from_checks`` refuses one that ``classify_checks``
    contradicts."""
    return StabilizerCode(n, tuple(gens), (1.0,) * len(gens), "general")


def subset_products(checks, n):
    """(product, subset size) for every subset of ``checks``."""
    out = []
    for sel in range(1 << len(checks)):
        prod = PauliString.identity(n)
        t = sel
        while t:
            prod = multiply(prod, checks[(t & -t).bit_length() - 1])
            t &= t - 1
        out.append((prod, sel.bit_count()))
    return out


def exhaustive_min_expansion(code, stab):
    sizes = [w for prod, w in subset_products(code.checks, code.n) if prod == stab]
    return min(sizes, default=None)


def exhaustive_f_raw(checks, n):
    """Worst minimal expansion per weight over the +1-signed group elements."""
    best: dict = {}
    for prod, size in subset_products(checks, n):
        best[prod] = min(best.get(prod, size), size)
    f_raw: dict = {}
    for prod, size in best.items():
        if prod.sign == 1 and prod.weight():
            f_raw[prod.weight()] = max(f_raw.get(prod.weight(), 0), size)
    return f_raw


def bfs_oracle(generators, budget=None):
    """Signed-group BFS on plain (x, z, sign) triples, queue-driven.

    Returns (dist, complete): dist maps each visited element to its minimal
    generator count, in visit order; complete is False when the budget
    stopped the sweep.
    """
    gens = [(g.x, g.z, g.sign, (g.x & g.z).bit_count()) for g in generators]
    start = (0, 0, 1)
    dist = {start: 0}
    queue = deque([start])
    complete = True
    while queue:
        cur = queue.popleft()
        x, z, sign = cur
        dnext = dist[cur] + 1
        y = (x & z).bit_count()
        for gx, gz, gsign, gy in gens:
            nx, nz = x ^ gx, z ^ gz
            t = (y + gy + 2 * (z & gx).bit_count() - (nx & nz).bit_count()) & 3
            if t & 1:
                raise ValueError("product of anticommuting strings is not Hermitian")
            key = (nx, nz, -sign * gsign if t else sign * gsign)
            if key not in dist:
                if budget is not None and len(dist) >= budget:
                    complete = False
                    continue
                dist[key] = dnext
                queue.append(key)
    return dist, complete


def profile_oracle(dist, n, m_max):
    """(f_raw, witnesses) by one scan of ``dist`` in visit order."""
    f_raw: dict = {}
    witness: dict = {}
    for (x, z, sign), cnt in dist.items():
        w = (x | z).bit_count()
        if sign != 1 or w == 0 or w > m_max:
            continue
        if cnt > f_raw.get(w, -1):
            f_raw[w] = cnt
            witness[w] = str(PauliString(n, x, z))
    return f_raw, witness


def assert_matches_oracle(n, gens, budget=None):
    group = CheckGroup(gens, n)
    levels, complete = sweep(group, budget)
    dist, want_complete = bfs_oracle(gens, budget)
    visits = [((e.x, e.z, e.sign), d) for d, level in enumerate(levels)
              for e in (group.element(as_int(c)) for c in level)]
    assert visits == list(dist.items())
    assert complete == want_complete
    if budget is None:
        return
    code = all_sector_code(n, gens)
    if budget < 1:  # the sweep takes it; the profile refuses it
        with pytest.raises(ValueError, match="below 1"):
            soundness_profile(code, m_max=n - 1, budget=budget)
        return
    prof = soundness_profile(code, m_max=n - 1, budget=budget)["sectors"]["all"]
    f_raw, witnesses = profile_oracle(dist, n, n - 1)
    assert prof.f_raw == f_raw
    assert prof.witnesses == witnesses
    assert prof.group_size == len(dist)
    assert prof.certified == complete


def pauli_strategy(n):
    return st.builds(PauliString, st.just(n), st.integers(0, (1 << n) - 1),
                     st.integers(0, (1 << n) - 1), st.sampled_from([1, -1]))


@st.composite
def commuting_generators(draw):
    """Commuting strings in order, with dependent ones of random sign."""
    n = draw(st.integers(1, 4))
    gens = []
    for p in draw(st.lists(pauli_strategy(n), min_size=1, max_size=6)):
        if all(commutes(p, g) for g in gens):
            gens.append(p)
    for _ in range(draw(st.integers(0, 3))):
        sel = draw(st.lists(st.sampled_from(gens), max_size=len(gens)))
        prod = product(sel, n)
        sign = draw(st.sampled_from([1, -1]))
        gens.insert(draw(st.integers(0, len(gens))),
                    PauliString(n, prod.x, prod.z, sign))
    return n, gens


@settings(max_examples=150, deadline=None)
@given(commuting_generators(), st.sampled_from([1, 2, soundness.TABLE_ROWS]),
       st.sampled_from([1, 3, soundness.DECODE_BLOCK]),
       st.sampled_from([1, soundness.SWEEP_BLOCK]))
def test_group_sweep_matches_queue_bfs_at_every_budget(case, table_rows, block,
                                                       sweep_block):
    n, gens = case
    dist, _ = bfs_oracle(gens)
    # Small tables and blocks make the decode combine several of each, and
    # the sweep expand a level a few parents at a time.
    with mock.patch.multiple(soundness, TABLE_ROWS=table_rows,
                             DECODE_BLOCK=block, SWEEP_BLOCK=sweep_block):
        for budget in (None, *range(1, len(dist) + 2)):
            assert_matches_oracle(n, gens, budget)
    code = all_sector_code(n, gens)
    for (x, z, sign), d in dist.items():
        for s in (sign, -sign):
            stab = PauliString(n, x, z, s)
            if (x, z, s) in dist:
                assert min_expansion(code, stab) == dist[x, z, s]
            else:
                with pytest.raises(NotAStabilizerError):
                    min_expansion(code, stab)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(pauli_strategy(n), min_size=2, max_size=5)))
def test_group_sweep_rejects_anticommuting_generators(gens):
    n = gens[0].n
    code = all_sector_code(n, gens)
    anticommuting = any(not commutes(p, q) for p in gens for q in gens)
    for budget in (1, 2, 1 << 10):
        if anticommuting:
            with pytest.raises(ValueError, match="anticommuting"):
                soundness_profile(code, budget=budget)
        else:
            assert_matches_oracle(n, gens, budget)


def test_group_sweep_holds_minus_identity():
    # XX * ZZ = -YY, so the group {XX, ZZ, YY} holds -I.
    gens = [PauliString.from_label(s) for s in ("XX", "ZZ", "YY")]
    group = CheckGroup(gens, 2)
    assert group.rank == 3
    assert group.coordinate(PauliString.identity(2)) == 0
    assert group.element(group.coordinate(PauliString(2, sign=-1))).sign == -1
    dist, _ = bfs_oracle(gens)
    assert len(dist) == 8 and dist[0, 0, -1] == 3
    for budget in (None, *range(10)):
        assert_matches_oracle(2, gens, budget)


def test_decode_carries_the_phase_across_tables():
    # ZX * XZ = +YY: one table per generator gets the sign only through
    # the 2|z & x'| term between tables.
    gens = [PauliString.from_label(s) for s in ("ZX", "XZ")]
    code = StabilizerCode.from_checks(2, gens, kind="general")
    with mock.patch.object(soundness, "TABLE_ROWS", 1):
        prof = soundness_profile(code)["sectors"]["all"]
        assert_matches_oracle(2, gens, 4)
    assert prof.f_raw == {2: 2}
    assert prof.witnesses == {2: "YY"}


def test_group_sweep_truncates_groups_above_64_bits():
    # 81 X checks of rank 80: coordinates take two words, and a decode
    # table that would straddle them stops at the word boundary.
    code = toric_code(9)
    prof = soundness_profile(code, budget=1000)
    for p in prof["sectors"].values():
        assert not p.certified
        assert p.group_size == 1000
        assert p.f_raw == {4: 1, 6: 2, 8: 2}
    gens = [code.checks[i] for i in code.x_type_indices()]
    assert CheckGroup(gens, code.n).rank == 80
    assert 64 % soundness.TABLE_ROWS
    assert_matches_oracle(code.n, gens, 700)


def test_group_sweep_stops_when_the_budget_is_filled():
    # 36 X checks of rank 35: the budget cuts the sweep mid-level.
    code = toric_code(6)
    gens = [code.checks[i] for i in code.x_type_indices()]
    found = []

    class CountingVisits(soundness._SortedVisits):
        def first_new(self, keys):
            new = super().first_new(keys)
            found.append(len(new))
            return new

    with mock.patch.multiple(soundness, _SortedVisits=CountingVisits,
                             SWEEP_BLOCK=1):
        levels, complete = sweep(CheckGroup(gens, code.n), 5000)
    assert not complete
    assert sum(map(len, levels)) == 5000
    # Blocks of a few parents each; the one that filled the budget (after
    # the identity) was the last one built.
    assert len(found) > len(levels)
    assert 1 + sum(found[:-1]) < 5000 <= 1 + sum(found)


def test_min_expansion_trivial_cases():
    code = toric_code(2)
    assert min_expansion(code, PauliString.identity(8)) == 0
    for c in code.checks:
        assert min_expansion(code, c) == 1
    # Answered without sweeping the 2^30 and 2^23 group elements.
    for big in (toric_code(4), repetition_code(24)):
        assert min_expansion(big, big.checks[0]) == 1


def test_min_expansion_two_adjacent_plaquettes():
    code = toric_code(2)
    z = code.z_type_indices()
    stab = multiply(code.checks[z[0]], code.checks[z[1]])
    assert min_expansion(code, stab) == exhaustive_min_expansion(code, stab) == 2


def test_min_expansion_rejects_non_stabilizers():
    code = toric_code(2)
    with pytest.raises(NotAStabilizerError):
        min_expansion(code, PauliString.single(8, "X", 0))
    # correct group element but wrong sign
    neg = PauliString(8, code.checks[0].x, code.checks[0].z, sign=-1)
    with pytest.raises(NotAStabilizerError):
        min_expansion(code, neg)


def test_min_expansion_repetition_linear_in_separation():
    code = repetition_code(5)
    z15 = PauliString(5, 0, 0b10001)  # Z_1 Z_5: ends of the path
    assert min_expansion(code, z15) == 4
    code8 = repetition_code(8)
    z18 = PauliString(8, 0, 0b10000001)
    assert min_expansion(code8, z18) == 7


def test_min_expansion_methods_agree_with_exhaustive():
    rng = random.Random(23)
    toric = toric_code(2)  # 8 checks -> exhaustive is 256 products
    group = [prod for prod, _ in subset_products(toric.checks, toric.n)]
    general = general_code()
    cases = [(toric, rng.sample(group, 12)),
             (general, {p for p, _ in subset_products(general.checks, 4)})]
    for code, sample in cases:
        for stab in sample:
            assert min_expansion(code, stab) == exhaustive_min_expansion(code, stab)


def test_signed_general_code():
    code = general_code()
    validate(code)
    group = {p for p, _ in subset_products(code.checks, code.n)}
    assert len(group) == 16
    assert sum(p.sign == -1 for p in group) == 6
    prof = soundness_profile(code)["sectors"]["all"]
    assert prof.group_size == 16 and prof.certified
    assert prof.f_raw == {2: 1, 4: 2}
    minus_zz = PauliString.from_label("ZZII", sign=-1)
    assert min_expansion(code, minus_zz) == 2
    with pytest.raises(NotAStabilizerError):
        min_expansion(code, PauliString.from_label("ZZII"))


def test_soundness_profile_rejects_anticommuting_checks():
    code = StabilizerCode.from_checks(1, [PauliString.from_label("X"),
                                          PauliString.from_label("Y")])
    with pytest.raises(ValueError, match="anticommuting"):
        soundness_profile(code)


def test_soundness_profile_f_raw_matches_exhaustive():
    toric = toric_code(2)
    general = general_code()
    cases = [(general, "all", general.checks),
             (toric, "X", [toric.checks[i] for i in toric.x_type_indices()]),
             (toric, "Z", [toric.checks[i] for i in toric.z_type_indices()])]
    for code, sector, checks in cases:
        prof = soundness_profile(code)["sectors"][sector]
        assert prof.f_raw == exhaustive_f_raw(checks, code.n)


def test_min_expansion_cap_returns_none():
    code = repetition_code(8)
    z18 = PauliString(8, 0, 0b10000001)
    assert min_expansion(code, z18, cap=6) is None


def test_soundness_profile_toric_quadratic():
    for L in (2, 3):
        prof = soundness_profile(toric_code(L))
        for sector in ("X", "Z"):
            p = prof["sectors"][sector]
            assert p.certified
            for m, val in p.f_emp.items():
                assert val <= m * m
            # monotone envelope
            vals = [p.f_emp[m] for m in sorted(p.f_emp)]
            assert vals == sorted(vals)


def test_soundness_profile_hgp_quarter_quadratic():
    rep3 = BipartiteTanner.repetition(3)
    code = hypergraph_product(rep3, rep3)
    prof = soundness_profile(code)
    for sector in ("X", "Z"):
        p = prof["sectors"][sector]
        assert p.certified
        for m, val in p.f_emp.items():
            assert val <= m * m / 4.0
    assert prof["combined_rule"]  # rule-derived combination present


def test_soundness_profile_witnesses_are_stabilizers():
    prof = soundness_profile(toric_code(2))
    code = toric_code(2)
    p = prof["sectors"]["Z"]
    for m, label in p.witnesses.items():
        stab = PauliString.from_label(label.lstrip("-"))
        assert min_expansion(code, stab) == p.f_raw[m]


def test_ising_toric_f4_grows_with_L():
    f4 = {}
    for L in (2, 4):
        prof = soundness_profile(ising_toric(L))
        f4[L] = prof["sectors"]["Z"].f_emp[4]
    assert f4[4] > f4[2]


def test_profile_monotone_even_when_raw_is_not():
    rep3 = BipartiteTanner.repetition(3)
    code = hypergraph_product(rep3, rep3)
    p = soundness_profile(code)["sectors"]["Z"]
    raw = [p.f_raw[m] for m in sorted(p.f_raw)]
    assert raw != sorted(raw)  # the raw per-weight curve dips
    env = [p.f_emp[m] for m in sorted(p.f_emp)]
    assert env == sorted(env)


def test_expansion_profile_small_exact():
    code = repetition_code(5)
    prof = expansion_profile(code, size_max=3)
    assert prof.certified
    # single checks have weight 2; the telescoping pair has weight 2
    assert prof.min_weight_by_size[1] == 2
    assert prof.min_weight_by_size[2] == 2
    assert prof.eta_emp == pytest.approx(2 / 3)  # 3-chain telescopes to Z1 Z4


def test_expansion_profile_ising_toric_chains_saturate():
    code = ising_toric(3)
    prof = expansion_profile(code, size_max=4)
    assert prof.certified
    # chained pair checks keep the product weight at 8 while size grows:
    # B_f0 B_f1 * B_f1 B_f2 has weight 8 at size 2, and longer chains stay 8
    assert prof.min_weight_by_size[2] <= 8
    assert prof.min_weight_by_size[3] <= 8
    assert prof.eta_emp <= 8 / 3


def brute_min_weights(code, size_max):
    """Minimum product weight per subset size, by itertools."""
    out = {}
    for s in range(1, size_max + 1):
        weights = []
        for comb in itertools.combinations(code.checks, s):
            x = z = 0
            for c in comb:
                x, z = x ^ c.x, z ^ c.z
            weights.append((x | z).bit_count())
        out[s] = min(weights, default=None)
    return out


def test_expansion_profile_truncates_sizes_past_the_search_budget():
    code = toric_code(3)  # 18 checks: 18 + 153 + 816 = 987 subsets up to 3
    for budget, sizes in ((987, 3), (986, 2), (17, 0)):
        with mock.patch.object(soundness, "SEARCH_BUDGET", budget):
            prof = expansion_profile(code, size_max=10)
        assert not prof.certified
        assert prof.min_weight_by_size == brute_min_weights(code, sizes)
    assert prof.eta_emp == float("inf") and prof.witness_size == 0
    # Under the default budget: 199 checks, 1,333,199 subsets up to size 3,
    # and 64 million more of size 4.
    prof = expansion_profile(repetition_code(200), size_max=4)
    assert not prof.certified
    assert prof.min_weight_by_size == {1: 2, 2: 2, 3: 2}
    assert prof.eta_emp == pytest.approx(2 / 3) and prof.witness_size == 3


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_expansion_profile_matches_brute_force(data):
    code = data.draw(st.sampled_from([toric_code(2), general_code(),
                                      repetition_code(4), ising_toric(2)]))
    size_max = data.draw(st.integers(1, code.num_checks + 2))
    prof = expansion_profile(code, size_max)
    assert prof.certified
    assert prof.min_weight_by_size == brute_min_weights(code, size_max)


def test_tilde_f_linear_geometric_growth():
    f = SoundnessFunction(c_f=1.0, beta=1.0, d_c=1e9)
    for r in (1, 2, 3, 6, 10):
        assert tilde_f_eval(f, 3, r) == pytest.approx(
            (4.0 / 3.0) ** (r - 1), rel=1e-12
        )
    assert tilde_f_eval(f, 3, 0) == 0.0
    assert tilde_f_eval(f, 3, 1) == pytest.approx(1.0)


def test_tilde_f_monotone():
    f = SoundnessFunction(c_f=2.0, beta=0.5, d_c=50.0)
    vals = [tilde_f_eval(f, 4, r) for r in range(1, 15)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_soundness_sum_large_dk_approaches_one():
    f = SoundnessFunction(c_f=1.0, beta=0.5, d_c=100.0)
    res = soundness_sum(f, delta_kappa=60.0, growth=3)
    assert res.total == pytest.approx(1.0, abs=1e-10)
    assert res.holds


def test_soundness_sum_bound_holds_on_grid():
    for c_f in (0.5, 1.0, 3.0):
        for beta in (0.3, 0.6, 0.9, 1.0):
            for delta in (3, 6):
                for dk in (0.05, 0.3, 1.0, 5.0):
                    f = SoundnessFunction(c_f=c_f, beta=beta, d_c=200.0)
                    res = soundness_sum(f, dk, growth=delta)
                    assert res.holds, (c_f, beta, delta, dk, res)


def test_soundness_sum_finite_dimension_grid():
    for beta in (-0.5, 0.0, 0.5, 1.0):
        for dk in (0.1, 0.5, 2.0):
            f = SoundnessFunction(c_f=1.5, beta=beta, d_c=500.0)
            res = soundness_sum(f, dk, growth=4, dimension=(2, 4.0))
            assert res.holds, (beta, dk, res)


def test_soundness_sum_actual_metrics():
    from stabbench.code import validate

    metrics = validate(toric_code(3))
    f = SoundnessFunction(c_f=1.0, beta=0.5, d_c=18.0)
    res = soundness_sum(f, 0.4, growth=metrics)
    assert res.holds
    # envelope comparison: the true shell profile gives a smaller sum
    res_env = soundness_sum(f, 0.4, growth=metrics.delta)
    assert res.total <= res_env.total + 1e-12


def test_soundness_sum_rejects_nonpositive_beta_on_expander():
    f = SoundnessFunction(c_f=1.0, beta=0.0, d_c=10.0)
    with pytest.raises(ValueError, match="finite-dimension"):
        growth_bound_constants(f, 4)
    with pytest.raises(ValueError):
        soundness_sum(f, 0.5, growth=4)


def test_min_expansion_units_across_constructors():
    rep3 = BipartiteTanner.repetition(3)
    for code in (repetition_code(4), toric_code(2), ising_toric(2),
                 hypergraph_product(rep3, rep3)):
        assert min_expansion(code, PauliString.identity(code.n)) == 0
        for c in code.checks:
            assert min_expansion(code, c) == 1


def test_soundness_profile_toric4_recorded():
    """f_raw and witnesses of ``toric_code(4)`` as the queue-driven BFS
    recorded them."""
    prof = soundness_profile(toric_code(4))
    f_raw = {4: 1, 6: 2, 8: 8, 10: 7, 12: 8, 14: 8, 16: 8, 18: 8, 20: 8,
             22: 8, 24: 8, 26: 8, 28: 7, 32: 8}
    witnesses = {
        "X": {
            4: "XXIIIIIXIIIIIIIIIIIIIIIIXIIIIIII",
            6: "XIXXIIIXIIIIIIIIIIIIIIIIXIXIIIII",
            8: "IIIIIIIIXIXIXIXIIIIIIIIIXIXIXIXI",
            10: "IIIIIIXIXIXIXXIXIIIIIIIIXIXIXIXI",
            12: "IIIIIIXIIIXIXXIXXXIIIIIXXIXIXIXI",
            14: "IIIIIIXIXIXIXXXXIIIIIXXXXIXIXIXI",
            16: "IIIIXIXIIIXXXIIXXXIXXXIXXIXIXIXI",
            18: "IIXIIIXIXXXXXXIXXXXXIIIIIXXIXIXX",
            20: "IIXIIIXIXXXXXXXXIXXXIXXXXIXIXIXI",
            22: "IIXIIXIXXXXXXXXXXXXXIXXXIXXIXIIX",
            24: "XIIIXXXXXXXXXXXXXXXXXXIXXXIXXIII",
            26: "XIIIXXXXXXXXXXXXXXIXXXXXXIXIXXXX",
            28: "XXXXXXXXXXXXXXXXXXXXXXIXXXXXXIII",
            32: "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX",
        },
        "Z": {
            4: "ZZZIIIIIIZIIIIIIIIIIIIIIIIIIIIII",
            6: "ZZIZZIIIIZIZIIIIIIIIIIIIIIIIIIII",
            8: "IZIZIZIZIIIIIIIIIZIZIZIZIIIIIIII",
            10: "IZIZIZIZZIIIIIZZIZIZIZIIIIIIIIII",
            12: "IZIZIZIZZIIIIIZZZIZZIZIIIZIIIIII",
            14: "IZIZIZIZZIIIIIZZZZIZIZZZIIIIIIIZ",
            16: "IZIZIZIZZIIIZZIZZIZZZZZIIZIIIZII",
            18: "IIIZIZIZZIZZZIZZIZZZZZIIZZZZIIII",
            20: "IZIZIZIZZIZZZIZZZZZZZZZZIIIZIIIZ",
            22: "ZIIZIZZIZIZZZIZIZZZZZZZZZZZZIIIZ",
            24: "ZZIIIZZIZZZIZZZZZZZZZZZZIZZZZZII",
            26: "ZZIZIZZZZZZIZZZZZZZZZZZZZZIIIZZZ",
            28: "ZZZZZZZIZZZZZZZZZZZZZZZZIZZZZZII",
            32: "ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ",
        },
    }
    for sector in ("X", "Z"):
        p = prof["sectors"][sector]
        assert p.certified and p.group_size == 32768
        assert p.f_raw == f_raw
        assert p.witnesses == witnesses[sector]


def test_min_expansion_signs_past_24_checks():
    # XX * ZZ = -YY on qubits 0-1, so the group holds -I, next to a chain
    # of 22 ZZ checks on qubits 2-24: 25 checks in all.
    n = 25
    checks = [PauliString(n, 0b11, 0), PauliString(n, 0, 0b11),
              PauliString(n, 0b11, 0b11)]
    checks += [PauliString(n, 0, 0b11 << q) for q in range(2, 24)]
    code = StabilizerCode.from_checks(n, checks, kind="general")
    assert min_expansion(code, PauliString(n, 0b11, 0b11, -1)) == 2
    assert min_expansion(code, PauliString(n, sign=-1)) == 3
    ends = 1 << 2 | 1 << 24
    assert min_expansion(code, PauliString(n, 0, ends)) == 22
    assert min_expansion(code, PauliString(n, 0, ends, -1)) == 25
    assert min_expansion(code, PauliString(n, 0, ends, -1), cap=24) is None


@pytest.mark.parametrize("L", [5, 6, 8])
def test_min_expansion_toric_plaquette_products(L):
    # The L^2 plaquettes have one relation, their product over every face
    # is I, so a product over faces F has minimal expansion
    # min(|F|, L^2 - |F|).  50, 72 and 128 checks: each has 2 redundant.
    code = toric_code(L)
    faces = code.checks[L * L:]
    rng = random.Random(L)
    half = L * L // 2
    for size in (1, 3, half - 1, half + 1, L * L - 3, L * L - 1):
        picked = rng.sample(range(L * L), size)
        target = product(faces[f] for f in picked)
        assert min_expansion(code, target) == min(size, L * L - size)


def test_min_expansion_has_one_method():
    code = toric_code(2)
    assert min_expansion(code, code.checks[0], method="mitm") == 1
    with pytest.raises(ValueError, match="dijkstra"):
        min_expansion(code, code.checks[0], method="dijkstra")


def test_soundness_profile_budget_truncation_flagged():
    prof = soundness_profile(toric_code(3), budget=50)
    for p in prof["sectors"].values():
        assert not p.certified
        assert p.group_size <= 50
