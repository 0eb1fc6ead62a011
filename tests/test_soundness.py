"""Soundness certification: expansions, profiles, growth sums."""

from __future__ import annotations

import random

import pytest

from stabbench.code import StabilizerCode, validate
from stabbench.constructors import (
    BipartiteTanner,
    hypergraph_product,
    ising_toric,
    repetition_code,
    toric_code,
)
from stabbench.pauli import PauliString, multiply
from stabbench.soundness import (
    NotAStabilizerError,
    SoundnessFunction,
    expansion_profile,
    growth_bound_constants,
    min_expansion,
    soundness_profile,
    soundness_sum,
    tilde_f_eval,
)


def general_code():
    """Signed, non-CSS code whose last check ZZZZ is the product of the
    other four; XXII * YYII = -ZZII, so its group carries -1 signs."""
    labels = ("XXII", "YYII", "IIXX", "IIYY", "ZZZZ")
    return StabilizerCode.from_checks(4, [PauliString.from_label(s) for s in labels])


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
        if prod.sign == 1 and not prod.is_identity():
            f_raw[prod.weight()] = max(f_raw.get(prod.weight(), 0), size)
    return f_raw


def test_min_expansion_trivial_cases():
    code = toric_code(2)
    assert min_expansion(code, PauliString.identity(8)) == 0
    for c in code.checks:
        assert min_expansion(code, c) == 1


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
            expect = exhaustive_min_expansion(code, stab)
            assert min_expansion(code, stab, method="dijkstra") == expect
            assert min_expansion(code, stab, method="mitm") == expect


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
    for method in ("dijkstra", "mitm"):
        assert min_expansion(code, minus_zz, method=method) == 2
        with pytest.raises(NotAStabilizerError):
            min_expansion(code, PauliString.from_label("ZZII"), method=method)


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


def test_expansion_profile_sampled_mode_flags():
    code = toric_code(3)
    prof = expansion_profile(code, size_max=10, samples=500, seed=1,
                             enumeration_limit=100)
    assert not prof.certified
    assert prof.eta_emp > 0


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


def test_soundness_profile_budget_truncation_flagged():
    prof = soundness_profile(toric_code(3), budget=50)
    for p in prof["sectors"].values():
        assert not p.certified
        assert p.group_size <= 50
