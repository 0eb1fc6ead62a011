"""Empirical check-soundness and check-expansion certification.

Soundness asks: what is the minimal number of checks whose product equals a
given small stabilizer?  Exact answers come from a breadth-first search
over the signed check group, walked as plain (x, z, sign) integer triples
(one sweep yields every minimal expansion), or, when the check count is
large, from ``gf2.min_support_solution`` over the symplectic check rows
plus one sign check.  The growth-sum bound machinery turns an assumed
power-law soundness function into the (alpha, c', c'') constants consumed
by the flow bounds.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

from .code import StabilizerCode, syndrome_of
from .gf2 import SEARCH_BUDGET, BitVector, min_support_solution, solve_affine
from .pauli import PauliString, product

# Method "auto" of ``min_expansion`` sweeps the signed group of up to this
# many checks; more checks go to the meet-in-the-middle of
# ``gf2.min_support_solution``.
BFS_MAX_CHECKS = 24


class NotAStabilizerError(ValueError):
    """Operator is outside the (+1-signed) check group."""


def _check_group_bfs(generators: list[PauliString], budget: int | None = None):
    """Minimal check counts over the signed group generated by ``generators``.

    Returns (dist, complete): dist maps (x, z, sign) to the minimal number
    of generators whose product equals that element; complete is False when
    the budget stopped the sweep early.  Product signs follow the phase
    count of ``pauli.multiply``.
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


def min_expansion(code: StabilizerCode, stab: PauliString,
                  cap: int | None = None, method: str = "auto"):
    """Exact minimal number of checks multiplying (sign included) to
    ``stab``; None when the minimum exceeds ``cap``.

    A -1 relative sign classifies the operator as not a stabilizer.  Method
    "dijkstra" sweeps the signed group breadth-first (best for few checks);
    "mitm" runs ``gf2.min_support_solution`` on the symplectic check rows
    and decides the sign from one product of checks; "auto" picks
    "dijkstra" up to ``BFS_MAX_CHECKS`` checks.

    Precondition: no product of checks equals -I, as ``code.validate``
    enforces.  Then the sign of a group element is a function of its
    (x, z), which the "mitm" sign check relies on.
    """
    if stab.n != code.n:
        raise ValueError("qubit count mismatch")
    if not syndrome_of(code, stab).is_zero():
        raise NotAStabilizerError("operator anticommutes with some check")
    sym = code.symplectic_matrix()
    vec = BitVector(2 * code.n, stab.x | (stab.z << code.n))
    sol = solve_affine(sym, vec)
    if sol is None:
        raise NotAStabilizerError("operator is outside the check group")
    if cap is None:
        cap = code.num_checks
    if stab.is_identity() and stab.sign == 1:
        return 0
    if method == "auto":
        method = "dijkstra" if code.num_checks <= BFS_MAX_CHECKS else "mitm"
    wrong_sign = "operator has -1 sign relative to the check group"
    if method == "dijkstra":
        dist, _ = _check_group_bfs(list(code.checks))
        best = dist.get((stab.x, stab.z, stab.sign))
        if best is None:
            raise NotAStabilizerError(wrong_sign)
        return best if best <= cap else None
    if method == "mitm":
        checks = [code.checks[i] for i in sol[0].indices()]
        if product(checks, code.n).sign != stab.sign:
            raise NotAStabilizerError(wrong_sign)
        return min_support_solution(sym, vec, cap)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SoundnessProfile:
    """Worst-case minimal expansions per stabilizer weight.

    ``f_emp`` is the monotone envelope (cumulative max over weights <= M) of
    the raw per-weight worst case ``f_raw``; witnesses give one worst
    stabilizer per weight.  ``certified`` is False when a budget truncated
    the sweep, turning the numbers into lower estimates.
    """

    m_max: int
    f_emp: dict
    f_raw: dict
    witnesses: dict
    certified: bool
    sector: str
    group_size: int

    def as_dict(self) -> dict:
        return {
            "sector": self.sector,
            "m_max": self.m_max,
            "certified": self.certified,
            "group_size": self.group_size,
            "rows": [
                {
                    "M": m,
                    "f_emp": self.f_emp[m],
                    "f_raw": self.f_raw[m],
                    "witness": self.witnesses[m],
                }
                for m in sorted(self.f_emp)
            ],
        }


def _profile_from_dist(dist: dict, m_max: int, n: int, sector: str,
                       certified: bool) -> SoundnessProfile:
    f_raw: dict = {}
    witness: dict = {}
    for (x, z, sign), cnt in dist.items():
        if sign != 1:
            continue  # -1-signed elements are not stabilizers
        w = (x | z).bit_count()
        if w == 0 or w > m_max:
            continue
        if cnt > f_raw.get(w, -1):
            f_raw[w] = cnt
            witness[w] = str(PauliString(n, x, z))
    f_emp: dict = {}
    running = 0
    for m in sorted(f_raw):
        running = max(running, f_raw[m])
        f_emp[m] = running
    return SoundnessProfile(
        m_max=m_max,
        f_emp=f_emp,
        f_raw=f_raw,
        witnesses=witness,
        certified=certified,
        sector=sector,
        group_size=len(dist),
    )


def soundness_profile(code: StabilizerCode, m_max: int | None = None,
                      budget: int = SEARCH_BUDGET) -> dict:
    """Certify worst-case minimal expansions for every stabilizer weight.

    CSS codes are swept sector by sector (a pure-X or pure-Z stabilizer
    only ever expands into checks of its own type); the combined profile
    for mixed stabilizers is the sum of the two sector envelopes, following
    the X-part/Z-part splitting rule, and is labeled as rule-derived rather
    than enumerated.
    """
    if m_max is None:
        m_max = code.n
    out: dict = {"m_max": m_max, "sectors": {}, "combined_rule": None}
    if code.kind in ("css", "classical"):
        for name, idxs in (("X", code.x_type_indices()),
                           ("Z", code.z_type_indices())):
            gens = [code.checks[i] for i in idxs]
            if not gens:
                continue
            dist, complete = _check_group_bfs(gens, budget=budget)
            out["sectors"][name] = _profile_from_dist(
                dist, m_max, code.n, name, complete
            )
        profiles = list(out["sectors"].values())
        combined: dict = {}
        for m in range(1, m_max + 1):
            vals = [
                max((p.f_emp[mm] for mm in p.f_emp if mm <= m), default=0)
                for p in profiles
            ]
            if any(vals):
                combined[m] = sum(vals)
        out["combined_rule"] = combined
    else:
        dist, complete = _check_group_bfs(list(code.checks), budget=budget)
        out["sectors"]["all"] = _profile_from_dist(
            dist, m_max, code.n, "all", complete
        )
    return out


@dataclass(frozen=True)
class ExpansionProfile:
    size_max: int
    eta_emp: float
    min_weight_by_size: dict
    witness_size: int
    certified: bool

    def as_dict(self) -> dict:
        return {
            "size_max": self.size_max,
            "eta_emp": self.eta_emp,
            "witness_size": self.witness_size,
            "certified": self.certified,
            "min_weight_by_size": {
                str(k): v for k, v in sorted(self.min_weight_by_size.items())
            },
        }


def expansion_profile(code: StabilizerCode, size_max: int,
                      samples: int = 20_000, seed: int = 0,
                      enumeration_limit: int = 10 ** 6) -> ExpansionProfile:
    """Minimum (product weight)/(subset size) over check subsets.

    Exact enumeration when the subset count fits the limit, otherwise
    seeded sampling (per-sample generators derived by counter so results
    do not depend on scheduling).  Product weights ignore signs.
    """
    if size_max < 1:
        raise ValueError("size_max must be >= 1")
    m = code.num_checks
    masks = [(c.x, c.z) for c in code.checks]
    total = sum(math.comb(m, s) for s in range(1, size_max + 1))
    min_by_size: dict = {}
    if total <= enumeration_limit:
        certified = True
        for s in range(1, size_max + 1):
            best = None
            for comb in itertools.combinations(range(m), s):
                x = z = 0
                for i in comb:
                    x ^= masks[i][0]
                    z ^= masks[i][1]
                w = (x | z).bit_count()
                if best is None or w < best:
                    best = w
            min_by_size[s] = best
    else:
        certified = False
        for counter in range(samples):
            rng = random.Random(seed * 1_000_003 + counter)
            s = rng.randint(1, size_max)
            comb = rng.sample(range(m), s)
            x = z = 0
            for i in comb:
                x ^= masks[i][0]
                z ^= masks[i][1]
            w = (x | z).bit_count()
            if s not in min_by_size or w < min_by_size[s]:
                min_by_size[s] = w
    eta = min(
        (w / s for s, w in min_by_size.items() if w is not None),
        default=float("inf"),
    )
    witness = min(
        (s for s, w in min_by_size.items() if w is not None and w / s == eta),
        default=0,
    )
    return ExpansionProfile(size_max, eta, min_by_size, witness, certified)


@dataclass(frozen=True)
class SoundnessFunction:
    """Power-law soundness envelope f(M) = c_f M^{2-beta} up to weight d_c."""

    c_f: float
    beta: float
    d_c: float

    def __post_init__(self):
        if self.c_f <= 0:
            raise ValueError("c_f must be positive")
        if self.beta > 1:
            raise ValueError("beta must be <= 1")

    def value(self, m: float) -> float:
        return self.c_f * m ** (2.0 - self.beta)

    def inverse(self, y: float) -> float:
        return (y / self.c_f) ** (1.0 / (2.0 - self.beta))


def tilde_f_eval(f: SoundnessFunction, delta: int, r: int) -> float:
    """Iterated inverse-growth function; r = 0 returns 0 by convention and
    r = 1 returns f^{-1}(1)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if r == 0:
        return 0.0
    val = f.inverse(1.0)
    for _ in range(r - 1):
        val = f.inverse(f.value(val) + min(f.d_c, val) / delta)
    return val


@dataclass(frozen=True)
class GrowthBound:
    alpha: float
    c_f_prime: float
    c_f_dblprime: float
    c_tilde_f: float
    beta_eff: float
    c_f_eff: float
    regime: str


def growth_bound_constants(f: SoundnessFunction, delta: int,
                           dimension: tuple | None = None) -> GrowthBound:
    """(alpha, c', c'') making sum_r gamma(r) e^{-dk f~(r)} <= c'' e^{c' dk^-alpha}.

    Exponential envelopes (gamma <= delta^r) give alpha = (1-beta)/beta and
    need beta > 0; a finite-dimension envelope gamma <= c_D r^{D-1} gives
    alpha = 1 - beta and tolerates beta <= 0.  beta values above 0.9 are
    clamped to 0.9 with the matching rescaling of c_f, which only weakens
    the assumed soundness envelope.
    """
    beta = f.beta
    if dimension is None and beta <= 0:
        raise ValueError(
            "beta <= 0 with an exponential growth envelope never converges; "
            "supply a finite-dimension envelope instead"
        )
    if delta < 2:
        raise ValueError("degree bound must be >= 2")
    beta_eff = min(beta, 0.9)
    c_f_eff = f.c_f ** ((2.0 - beta_eff) / (2.0 - beta))
    # iteration floor f~(r) >= c_tilde r^{1/(1-beta_eff)}
    p = 1.0 / (1.0 - beta_eff)
    c_g = (
        (1.0 - beta_eff)
        / ((2.0 - beta_eff) * delta * c_f_eff ** (1.0 / (2.0 - beta_eff)))
    ) ** ((2.0 - beta_eff) / (1.0 - beta_eff))
    c_tilde = (c_g / c_f_eff) ** (1.0 / (2.0 - beta_eff))
    if dimension is None:
        alpha = (1.0 - beta_eff) / beta_eff
        log_delta = math.log(delta)
        c_f_prime = (
            2.0 * beta_eff * log_delta
            * ((1.0 - beta_eff) * log_delta / c_tilde) ** alpha
        )
        tail = 1.0 - delta ** (1.0 - 2.0 ** (beta_eff / (1.0 - beta_eff)))
        c_f_dblprime = 1.0 + 1.0 / tail + 2.0 / (math.e * beta_eff * log_delta)
        regime = "expander"
    else:
        dim, c_dim = dimension
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        alpha = 1.0 - beta_eff
        c_f_prime = ((1.0 - beta_eff) * max(dim - 1.0, 1.0) / c_tilde) ** alpha
        # sum <= 1 + c_D (max term + integral), each beaten by e^{c' x}
        gamma_part = (
            math.gamma(dim * (1.0 - beta_eff))
            * (1.0 - beta_eff)
            * c_tilde ** (-dim * (1.0 - beta_eff))
            * (dim / (math.e * c_f_prime)) ** dim
        )
        if dim > 1:
            peak_part = (
                ((dim - 1.0) * (1.0 - beta_eff) / c_tilde)
                ** ((dim - 1.0) * (1.0 - beta_eff))
                * ((dim - 1.0) / (math.e * c_f_prime)) ** (dim - 1.0)
            )
        else:
            peak_part = 1.0
        c_f_dblprime = 1.0 + c_dim * (gamma_part + peak_part)
        regime = "finite-dimension"
    return GrowthBound(alpha, c_f_prime, c_f_dblprime, c_tilde, beta_eff,
                       c_f_eff, regime)


@dataclass(frozen=True)
class SumBoundResult:
    total: float
    bound: float           # may be inf when the closed form overflows
    log_bound: float       # always finite: ln c'' + c' dk^-alpha
    holds: bool
    terms: int
    constants: GrowthBound

    def as_dict(self) -> dict:
        return {
            "sum": self.total,
            "bound": self.bound,
            "log_bound": self.log_bound,
            "holds": self.holds,
            "terms": self.terms,
            "alpha": self.constants.alpha,
            "c_f_prime": self.constants.c_f_prime,
            "c_f_dblprime": self.constants.c_f_dblprime,
            "regime": self.constants.regime,
        }


def soundness_sum(f: SoundnessFunction, delta_kappa: float, growth,
                  dimension: tuple | None = None) -> SumBoundResult:
    """Evaluate sum over r of gamma(r) e^{-dk f~(r)} against its closed bound.

    ``growth`` is either a CodeGraphMetrics (actual shell volumes, summed to
    the graph diameter) or an integer degree bound for the generic delta^r
    envelope.  The r = 0 term contributes gamma(0) = 1 via the f~(0) = 0
    convention.  Only r with f~(r) < d_c enter.
    """
    if delta_kappa <= 0:
        raise ValueError("delta_kappa must be positive")
    if isinstance(growth, int):
        delta = growth
        gamma = None
        r_stop = None
    else:
        delta = growth.delta
        gamma = growth.gamma_shell_max
        r_stop = growth.diameter
    if dimension is not None:
        dim, c_dim = dimension
        if gamma is not None:
            for rr in range(1, (r_stop or 0) + 1):
                if gamma(rr) > c_dim * rr ** (dim - 1.0) * (1 + 1e-9):
                    raise ValueError(
                        f"shell profile violates the dimension envelope at r={rr}"
                    )
        else:
            # polynomial envelope replaces delta^r in the dimensional regime
            gamma = lambda rr: 1.0 if rr == 0 else c_dim * rr ** (dim - 1.0)
    consts = growth_bound_constants(f, delta, dimension=dimension)
    # log-domain accumulation: individual terms delta^r can overflow floats
    # long before the certified bound does.
    log_total = None
    log_delta = math.log(delta)
    r = 0
    terms = 0
    val = 0.0  # f~(r), iterated incrementally
    while True:
        if r == 1:
            val = f.inverse(1.0)
        elif r >= 2:
            val = f.inverse(f.value(val) + min(f.d_c, val) / delta)
        if val >= f.d_c and r > 0:
            break
        if gamma is not None:
            g = gamma(r)
            if g <= 0:
                log_term = None
            else:
                log_term = math.log(g) - delta_kappa * val
        else:
            log_term = r * log_delta - delta_kappa * val
        if log_term is not None:
            if log_total is None:
                log_total = log_term
            else:
                hi, lo = max(log_total, log_term), min(log_total, log_term)
                log_total = hi + math.log1p(math.exp(lo - hi))
        terms += 1
        r += 1
        if r_stop is not None and r > r_stop:
            break
        if r > 10 ** 6:
            raise RuntimeError("growth sum failed to terminate")
    log_bound = math.log(consts.c_f_dblprime) + (
        consts.c_f_prime * delta_kappa ** (-consts.alpha)
    )
    total = math.exp(log_total) if log_total < 700 else float("inf")
    bound = math.exp(log_bound) if log_bound < 700 else float("inf")
    holds = log_total <= log_bound + 1e-12
    return SumBoundResult(total, bound, log_bound, holds, terms, consts)
