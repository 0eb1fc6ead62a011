"""Norm-flow bookkeeping across transformation orders.

Implements the decaying locality-weight schedule kappa_m, the four coupled
recursions for (v_m, v~_m, d_m, d~_m) run as equalities (the worst-case
envelope), the iteration constant c_iter, the admissible perturbation
strength eps_0, the stopping order m*, and the final spectrum certificate.
All formulas are closed-form in the constants; nothing here touches
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def kappa_m(kappa1: float, m: int) -> float:
    """kappa_m = (kappa1/2)(1 + 1/(1 + ln m)); equals kappa1 at m = 1 and
    decreases toward kappa1/2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return 0.5 * kappa1 * (1.0 + 1.0 / (1.0 + math.log(m)))


def delta_kappa(kappa1: float, m: int) -> float:
    return kappa_m(kappa1, m) - kappa_m(kappa1, m + 1)


def delta_kappa_tilde(kappa1: float, m: int) -> float:
    return kappa_m(kappa1, m) - kappa_m(kappa1, 2 * m)


@dataclass(frozen=True)
class FlowConstants:
    """Inputs the flow bounds are computed from.

    c_f_prime, c_f_dblprime, alpha come from the growth-sum bound of the
    soundness machinery; c_tilde_f_dblprime (>= 2) is the commutator
    constant.  delta is the interaction-graph degree bound.
    """

    kappa1: float = 1.0
    delta: int = 5
    c_f_prime: float = 1.0
    c_f_dblprime: float = 2.0
    alpha: float = 1.0
    c_tilde_f_dblprime: float = 2.0

    def __post_init__(self):
        if self.kappa1 <= 0:
            raise ValueError("kappa1 must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.c_tilde_f_dblprime < 2:
            raise ValueError("c_tilde_f_dblprime must be >= 2")


REFERENCE_CONSTANTS = FlowConstants()


@dataclass(frozen=True)
class FlowState:
    """One point of the norm flow: order m plus (v, v~, d, d~)."""

    m: int
    kappa: float
    v: float
    v_tilde: float
    d: float
    d_tilde: float
    v_history: tuple  # v_history[i] = v_{i+1}

    def as_row(self) -> dict:
        return {
            "m": self.m,
            "kappa_m": self.kappa,
            "v_m": self.v,
            "v_tilde_m": self.v_tilde,
            "d_m": self.d,
            "d_tilde_m": self.d_tilde,
        }


def initial_flow_state(epsilon: float, consts: FlowConstants) -> FlowState:
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    return FlowState(
        m=1,
        kappa=kappa_m(consts.kappa1, 1),
        v=epsilon,
        v_tilde=epsilon,
        d=0.0,
        d_tilde=0.0,
        v_history=(epsilon,),
    )


def _growth_weight(consts: FlowConstants, m: int) -> float:
    dkt = delta_kappa_tilde(consts.kappa1, m)
    return consts.c_tilde_f_dblprime * math.exp(
        consts.c_f_prime * dkt ** (-consts.alpha)
    )


def flow_step(state: FlowState, consts: FlowConstants) -> FlowState:
    """Advance the four recursions one order, run as equalities.

    The update at order m uses delta kappa_m; the d-recursion gains a term
    only at odd m (a new completed half-window), and d~ is the windowed sum
    2 * sum of v_{m'} over floor(m/2)+1 <= m' <= m-1 evaluated at the new
    order.
    """
    m = state.m
    k1 = consts.kappa1
    dk = delta_kappa(k1, m)
    knext = kappa_m(k1, m + 1)
    common = (
        9.0
        / (knext * dk)
        * state.v_tilde
        * (3.0 * state.v + 4.0 / dk * state.v_tilde * (state.d + state.d_tilde))
    )
    v_next = (state.d * state.v_tilde + state.d_tilde * state.v_tilde) / dk + common
    vt_next = state.d * state.v_tilde + state.d_tilde * state.v_tilde / dk + common
    d_next = state.d
    if m % 2 == 1:
        idx = (m + 1) // 2
        d_next += _growth_weight(consts, idx) * state.v_history[idx - 1]
    hist = state.v_history + (v_next,)
    m_next = m + 1
    lo = m_next // 2 + 1
    dt_next = 2.0 * sum(hist[i - 1] for i in range(lo, m_next))
    return FlowState(
        m=m_next,
        kappa=knext,
        v=v_next,
        v_tilde=vt_next,
        d=d_next,
        d_tilde=dt_next,
        v_history=hist,
    )


def flow_trajectory(epsilon: float, consts: FlowConstants,
                    m_max: int) -> list[FlowState]:
    states = [initial_flow_state(epsilon, consts)]
    while states[-1].m < m_max:
        states.append(flow_step(states[-1], consts))
    return states


@dataclass(frozen=True)
class IterationConstant:
    value: float
    sum_arm: float
    floor_arm: float
    truncation_index: int


def c_iter_const(consts: FlowConstants) -> IterationConstant:
    """The iteration constant: max of the growth-weighted geometric sum arm
    and the 27/(kappa_2 delta kappa_1) floor arm.

    The infinite sum is truncated once the running term drops below 1e-12
    of the partial sum; the truncation index is reported.
    """
    k1 = consts.kappa1
    dkt1 = delta_kappa_tilde(k1, 1)
    total = math.exp(consts.c_f_prime * dkt1 ** (-consts.alpha))
    m = 1
    while True:
        m += 1
        dkt = delta_kappa_tilde(k1, m)
        term = (
            math.exp(consts.c_f_prime * dkt ** (-consts.alpha))
            * 4.0 ** (1 - m)
            / delta_kappa(k1, m - 1)
        )
        total += term
        if term < 1e-12 * total and m > 8:
            break
        if m > 100000:
            raise RuntimeError("iteration-constant sum failed to settle")
    sum_arm = 1.5 * consts.c_tilde_f_dblprime * total
    dk1 = delta_kappa(k1, 1)
    floor_arm = 27.0 / (kappa_m(k1, 2) * dk1) * max(1.0, dk1)
    return IterationConstant(max(sum_arm, floor_arm), sum_arm, floor_arm, m)


def _admissibility_lhs(consts: FlowConstants, c_iter: float,
                       eps: float, m: int) -> float:
    k1 = consts.kappa1
    dk_m = delta_kappa(k1, m)
    dk_m1 = delta_kappa(k1, m - 1)
    x = c_iter * eps
    return 3.0 / (dk_m * dk_m1) * x ** (m // 2) + (
        9.0
        / (kappa_m(k1, m + 1) * dk_m)
        * x ** (m - 1)
        * (3.0 / dk_m1 + 4.0 * eps / dk_m * (2.0 / 3.0 * c_iter + 3.0 / dk_m1))
    )


def _admissibility_rhs(consts: FlowConstants, c_iter: float) -> float:
    dk2 = delta_kappa(consts.kappa1, 2)
    return c_iter / 3.0 * min(1.0, 1.0 / dk2)


@dataclass(frozen=True)
class EpsilonZero:
    value: float
    cap: float
    m_checked: int
    tail_decreasing: bool


def epsilon_zero_search(consts: FlowConstants, m_check: int = 10_000,
                        c_iter: float | None = None) -> EpsilonZero:
    """Largest admissible strength eps_0 below min(1/(4 c_iter), dk_1/3).

    Binary-searches the monotone admissibility condition over all orders
    2 <= m <= m_check and flags whether the constraint's m-dependence is
    already decreasing at the horizon (heuristic tail check).
    """
    if c_iter is None:
        c_iter = c_iter_const(consts).value
    dk1 = delta_kappa(consts.kappa1, 1)
    cap = min(1.0 / (4.0 * c_iter), dk1 / 3.0)

    def feasible(eps: float) -> bool:
        rhs = _admissibility_rhs(consts, c_iter)
        for m in range(2, m_check + 1):
            lhs = _admissibility_lhs(consts, c_iter, eps, m)
            if lhs > rhs:
                return False
            if lhs < 1e-300 and m > 64:
                break  # geometric decay has bottomed out
        return True

    hi = cap * (1.0 - 1e-12)
    if feasible(hi):
        value = hi
    else:
        lo = 1e-12 * cap
        if not feasible(lo):
            raise RuntimeError(
                "no admissible eps_0 above 1e-12 of the cap; "
                "constants are too adversarial"
            )
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        value = lo
    tail_ok = _admissibility_lhs(consts, c_iter, value, m_check) <= (
        _admissibility_lhs(consts, c_iter, value, m_check - 1)
    )
    return EpsilonZero(value, cap, m_check, tail_ok)


def envelope_bounds(consts: FlowConstants, c_iter: float, epsilon: float,
                    m: int) -> dict:
    """Closed-form envelope that a trajectory from eps <= eps_0 must obey at
    order m >= 2."""
    k1 = consts.kappa1
    x = c_iter * epsilon
    out = {
        "v": epsilon / delta_kappa(k1, m - 1) * x ** (m - 1),
        "v_tilde": epsilon * x ** (m - 1),
        "d": 2.0 / 3.0 * c_iter * epsilon,
    }
    if m >= 3:
        out["d_tilde"] = 3.0 * epsilon / delta_kappa(k1, m - 2) * x ** (m // 2)
    else:
        out["d_tilde"] = 0.0
    return out


def check_envelope(traj: list[FlowState], consts: FlowConstants,
                   c_iter: float, epsilon: float) -> list[dict]:
    """Compare a trajectory against the envelope and the step-validity
    condition v~_m <= delta kappa_m / 3, each at relative tolerance 1e-10;
    returns one report row per order."""
    slack = 1.0 + 1e-10
    rows = []
    for st in traj:
        dk = delta_kappa(consts.kappa1, st.m)
        row = {
            "m": st.m,
            "valid_swt": st.v_tilde <= dk / 3.0 * slack,
        }
        if st.m >= 2:
            env = envelope_bounds(consts, c_iter, epsilon, st.m)
            row["v_ok"] = st.v <= env["v"] * slack
            row["v_tilde_ok"] = st.v_tilde <= env["v_tilde"] * slack
            row["d_ok"] = st.d <= env["d"] * slack
            row["d_tilde_ok"] = st.d_tilde <= env["d_tilde"] * slack or (
                st.m < 3 and st.d_tilde == 0.0
            )
        rows.append(row)
    return rows


def stopping_order(consts: FlowConstants, c_iter: float, epsilon: float,
                   d_s: int) -> int:
    """Smallest m with (6 m^2/kappa1)(c_iter eps)^{m-1} <= e^{-kappa1 d_s/2}."""
    x = c_iter * epsilon
    if x >= 1.0:
        raise ValueError("no stopping order: c_iter * epsilon >= 1")
    target = math.exp(-consts.kappa1 * d_s / 2.0)
    m = 1
    while True:
        lhs = 6.0 * m * m / consts.kappa1 * x ** (m - 1)
        if lhs <= target:
            return m
        m += 1
        if m > 10_000_000:
            raise RuntimeError("stopping order exceeded the scan bound")


def c2_constant(kappa1: float) -> float:
    return 4.0 * max(1.0, 6.0 / kappa1)


def c1_closed_form(consts: FlowConstants, c_iter: float | None = None) -> float:
    """Relative-boundedness constant assembled from the flow constants."""
    if c_iter is None:
        c_iter = c_iter_const(consts).value
    k1 = consts.kappa1
    prefactor = (
        2.0
        * (1.0 + consts.delta / k1)
        * consts.delta
        * math.exp(consts.c_f_prime * (k1 / 4.0) ** (-consts.alpha))
    )
    best = 0.0
    m = 3
    while True:
        term = 3.0 / delta_kappa(k1, m - 2) * 4.0 ** (-(m // 2))
        best = max(best, term)
        if term < best * 1e-16:
            break
        m += 1
        if m > 100000:
            break
    return prefactor * (2.0 / 3.0 * c_iter + consts.c_f_dblprime * best)


@dataclass(frozen=True)
class StabilityCertificate:
    epsilon: float
    epsilon0: float
    m_star: int | None
    epsilon_star: float
    c1: float
    c2: float
    spectrum_intervals: tuple  # ((lo1, hi1), (lo2, None)); None = +infinity
    gap_lower_bound: float
    splitting_bound: float
    valid: bool
    reasons: tuple = ()
    smallest_valid_n: int | None = None
    tail_decreasing: bool = True

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "epsilon0": self.epsilon0,
            "m_star": self.m_star,
            "epsilon_star": self.epsilon_star,
            "c1": self.c1,
            "c2": self.c2,
            "spectrum_intervals": [
                [self.spectrum_intervals[0][0], self.spectrum_intervals[0][1]],
                [self.spectrum_intervals[1][0], None],
            ],
            "gap_lower_bound": self.gap_lower_bound,
            "splitting_bound": self.splitting_bound,
            "valid": self.valid,
            "reasons": list(self.reasons),
            "smallest_valid_n": self.smallest_valid_n,
            "tail_decreasing": self.tail_decreasing,
        }


def stability_certificate(
    consts: FlowConstants,
    n: int,
    d_s: int,
    epsilon: float,
    c1: float,
    c_d: float | None = None,
    m_check: int = 10_000,
) -> StabilityCertificate:
    """Assemble the two-interval spectrum certificate.

    epsilon* = c2 n eps e^{-kappa1 d_s/2} with c2 = 4 max(1, 6/kappa1); the
    low interval is [-eps*, eps*] (holding 2^k states) and the high one
    [1 - c1 eps - eps*, inf).  Validity needs eps <= min(eps0, 1/(3 c1))
    and 3 eps* <= 1/6.
    """
    ci = c_iter_const(consts)
    e0 = epsilon_zero_search(consts, m_check=m_check, c_iter=ci.value)
    c2 = c2_constant(consts.kappa1)
    eps_star = c2 * n * epsilon * math.exp(-consts.kappa1 * d_s / 2.0)
    reasons = []
    if epsilon > e0.value:
        reasons.append(f"epsilon {epsilon} exceeds epsilon0 {e0.value}")
    if c1 > 0 and epsilon > 1.0 / (3.0 * c1):
        reasons.append(f"epsilon {epsilon} exceeds 1/(3 c1) = {1/(3*c1)}")
    if 3.0 * eps_star > 1.0 / 6.0:
        reasons.append(f"3 eps* = {3*eps_star} exceeds 1/6")
    m_star = None
    if epsilon == 0.0:
        m_star = 1
    elif ci.value * epsilon < 1.0:
        m_star = stopping_order(consts, ci.value, epsilon, d_s)
    else:
        reasons.append("c_iter * epsilon >= 1: no stopping order")
    low = (-eps_star, eps_star)
    high = (1.0 - c1 * epsilon - eps_star, None)
    disjoint = high[0] > low[1]
    if not disjoint:
        reasons.append("spectrum intervals are not disjoint")
    valid = not reasons
    smallest_n = None
    if c_d is not None and consts.kappa1 * c_d > 2.0 and epsilon > 0:
        # d_s = c_d log n makes eps*(n) decreasing; find the onset.
        expo = consts.kappa1 * c_d / 2.0 - 1.0
        target = 1.0 / (18.0 * c2 * epsilon)
        smallest_n = max(2, math.ceil(target ** (-1.0 / expo))
                         if target < 1.0 else 2)
        while 3.0 * c2 * smallest_n * epsilon * math.exp(
            -consts.kappa1 * c_d * math.log(smallest_n) / 2.0
        ) > 1.0 / 6.0:
            smallest_n *= 2
            if smallest_n > 10 ** 9:
                smallest_n = None
                break
    return StabilityCertificate(
        epsilon=epsilon,
        epsilon0=e0.value,
        m_star=m_star,
        epsilon_star=eps_star,
        c1=c1,
        c2=c2,
        spectrum_intervals=(low, high),
        gap_lower_bound=0.5 if valid else max(0.0, high[0] - low[1]),
        splitting_bound=2.0 * eps_star,
        valid=valid,
        reasons=tuple(reasons),
        smallest_valid_n=smallest_n,
        tail_decreasing=e0.tail_decreasing,
    )
