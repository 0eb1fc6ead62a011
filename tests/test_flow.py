"""Flow-equation machinery: schedule, recursions, constants, certificate.

Frozen expected values were computed beforehand with an independent
high-precision (mpmath) evaluation of the same closed forms.
"""

from __future__ import annotations

import math

import pytest

from stabbench.flow import (
    FlowConstants,
    REFERENCE_CONSTANTS,
    c1_closed_form,
    c2_constant,
    c_iter_const,
    check_envelope,
    delta_kappa,
    delta_kappa_tilde,
    epsilon_zero_search,
    flow_step,
    flow_trajectory,
    initial_flow_state,
    kappa_m,
    stability_certificate,
    stopping_order,
)

KAPPA2 = 0.79530805457482062  # (1/2)(1 + 1/(1+ln 2))
DKAPPA1 = 1.0 - KAPPA2
C_ITER_REFERENCE = 2.1718997277276197e16  # mpmath oracle, reference constants


def test_kappa_schedule_endpoints():
    assert kappa_m(1.0, 1) == pytest.approx(1.0, rel=1e-15)
    assert kappa_m(1.0, 2) == pytest.approx(KAPPA2, rel=1e-14)
    assert kappa_m(2.5, 1) == pytest.approx(2.5, rel=1e-15)
    # decreases toward kappa1/2 from above
    prev = kappa_m(1.0, 1)
    for m in (2, 10, 100, 10_000, 10 ** 8):
        cur = kappa_m(1.0, m)
        assert 0.5 < cur < prev
        prev = cur
    assert kappa_m(1.0, 10 ** 12) == pytest.approx(0.5, abs=2e-2)


def test_delta_kappa_floors_up_to_1e4():
    for m in range(1, 10_001):
        dk, dkt = delta_kappa(1.0, m), delta_kappa_tilde(1.0, m)
        assert dk >= 1.0 / (6.0 * m * m) * (1 - 1e-12)
        assert dkt >= 1.0 / (5.0 * (1.0 + math.log(m)) ** 2) * (1 - 1e-12)


def test_delta_kappa_positive_decreasing():
    vals = [delta_kappa(1.0, m) for m in range(1, 200)]
    assert all(v > 0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_flow_zero_epsilon_stays_zero():
    traj = flow_trajectory(0.0, REFERENCE_CONSTANTS, 40)
    for st in traj:
        assert st.v == st.v_tilde == st.d == st.d_tilde == 0.0


def test_flow_hand_unrolled_second_order():
    eps = 1e-3
    st = flow_step(initial_flow_state(eps, REFERENCE_CONSTANTS),
                   REFERENCE_CONSTANTS)
    expected = 27.0 * eps ** 2 / (KAPPA2 * DKAPPA1)
    assert st.v_tilde == pytest.approx(expected, rel=1e-12)
    # with d_1 = d~_1 = 0 the v-recursion evaluates to the same quantity
    assert st.v == pytest.approx(expected, rel=1e-12)
    assert st.d_tilde == 0.0


def test_flow_d_recursion_odd_orders_only():
    eps = 1e-4
    traj = flow_trajectory(eps, REFERENCE_CONSTANTS, 6)
    d_vals = [st.d for st in traj]
    # gains at the 1->2, 3->4, 5->6 steps only
    assert d_vals[0] == 0.0
    assert d_vals[1] > 0.0 and d_vals[2] == d_vals[1]
    assert d_vals[3] > d_vals[2] and d_vals[4] == d_vals[3]
    assert d_vals[5] > d_vals[4]


def test_c_iter_reference_value():
    ci = c_iter_const(REFERENCE_CONSTANTS)
    assert ci.value == pytest.approx(C_ITER_REFERENCE, rel=1e-9)
    assert ci.value >= ci.floor_arm
    assert ci.floor_arm == pytest.approx(
        27.0 / (KAPPA2 * DKAPPA1) * max(1.0, DKAPPA1), rel=1e-12
    )
    assert ci.truncation_index < 10_000


def test_c_iter_gentler_constants_floor_arm_wins():
    consts = FlowConstants(kappa1=4.0, delta=4, c_f_prime=0.05,
                           c_f_dblprime=2.0, alpha=0.5,
                           c_tilde_f_dblprime=2.0)
    ci = c_iter_const(consts)
    assert ci.value == max(ci.sum_arm, ci.floor_arm)
    assert ci.value > 0


def test_epsilon_zero_properties():
    ci = c_iter_const(REFERENCE_CONSTANTS)
    e0 = epsilon_zero_search(REFERENCE_CONSTANTS, m_check=2000, c_iter=ci.value)
    assert 0 < e0.value < e0.cap
    assert ci.value * e0.value <= 0.25
    # reference constants admit the full cap
    assert e0.value == pytest.approx(min(0.25 / ci.value, DKAPPA1 / 3.0),
                                     rel=1e-9)
    from stabbench.flow import _admissibility_lhs

    # the admissibility left side is monotone in epsilon
    for m in (2, 3, 7, 50):
        assert _admissibility_lhs(REFERENCE_CONSTANTS, ci.value,
                                  e0.value / 2, m) < _admissibility_lhs(
            REFERENCE_CONSTANTS, ci.value, e0.value, m)


def test_stopping_order_frozen_scan():
    consts = FlowConstants(kappa1=1.0)
    c_iter = 1.0
    # c_iter * eps = 1/4
    assert stopping_order(consts, c_iter, 0.25, 20) == 14
    assert stopping_order(consts, c_iter, 0.25, 40) == 22
    assert stopping_order(consts, c_iter, 0.25, 40) > stopping_order(
        consts, c_iter, 0.25, 20)
    with pytest.raises(ValueError):
        stopping_order(consts, 5.0, 0.3, 10)


def test_stopping_order_linear_scaling():
    consts = FlowConstants(kappa1=1.0)
    ratios = [stopping_order(consts, 1.0, 0.25, ds) / ds
              for ds in range(40, 101, 10)]
    assert max(ratios) / min(ratios) < 1.3
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(d <= 0 for d in diffs)  # settling from above


def test_envelope_holds_along_trajectory():
    ci = c_iter_const(REFERENCE_CONSTANTS)
    e0 = epsilon_zero_search(REFERENCE_CONSTANTS, m_check=500, c_iter=ci.value)
    traj = flow_trajectory(e0.value, REFERENCE_CONSTANTS, 200)
    rows = check_envelope(traj, REFERENCE_CONSTANTS, ci.value, e0.value)
    for row in rows:
        assert row["valid_swt"], row
        for key in ("v_ok", "v_tilde_ok", "d_ok", "d_tilde_ok"):
            if key in row:
                assert row[key], row


def test_c2_and_certificate_frozen_example():
    assert c2_constant(1.0) == 24.0
    cert = stability_certificate(
        FlowConstants(kappa1=3.0), n=13, d_s=3, epsilon=1e-3, c1=1.0,
        m_check=200,
    )
    assert cert.c2 == 8.0
    assert cert.epsilon_star == pytest.approx(0.0011553356399771999, rel=1e-12)
    assert cert.splitting_bound == pytest.approx(2 * cert.epsilon_star)


def test_certificate_zero_epsilon():
    cert = stability_certificate(REFERENCE_CONSTANTS, n=100, d_s=10,
                                 epsilon=0.0, c1=1.0, m_check=100)
    assert cert.epsilon_star == 0.0
    assert cert.spectrum_intervals[0] == (0.0, 0.0)
    assert cert.spectrum_intervals[1][0] == pytest.approx(1.0)
    assert cert.valid


def test_certificate_monotonicity_of_eps_star():
    base = stability_certificate(REFERENCE_CONSTANTS, n=50, d_s=30,
                                 epsilon=1e-18, c1=1.0, m_check=100)
    more_n = stability_certificate(REFERENCE_CONSTANTS, n=100, d_s=30,
                                   epsilon=1e-18, c1=1.0, m_check=100)
    more_d = stability_certificate(REFERENCE_CONSTANTS, n=50, d_s=60,
                                   epsilon=1e-18, c1=1.0, m_check=100)
    assert more_n.epsilon_star > base.epsilon_star
    assert more_d.epsilon_star < base.epsilon_star


def test_certificate_flags_violations():
    cert = stability_certificate(REFERENCE_CONSTANTS, n=10, d_s=2,
                                 epsilon=0.3, c1=2.0, m_check=100)
    assert not cert.valid
    assert cert.reasons


def test_c1_closed_form_positive():
    assert c1_closed_form(REFERENCE_CONSTANTS) > 0
