"""Empirical check-soundness and check-expansion certification.

Soundness asks: what is the minimal number of checks whose product equals a
given small stabilizer?  Each answer is read off the signed check group in
the GF(2) coordinates of ``code.CheckGroup`` (the independent checks, plus
-I when the signs put it in the group).  ``sweep`` is a breadth-first
search from the identity over those coordinates, in numpy: each element is
a row of uint64 words, and a level is the XOR of the previous one with
every check's mask; one sweep yields every minimal expansion, and a budget
stops it once that many elements are visited, at any rank.  The elements
visited are decoded into weights and signs by ``pauli.times`` over
``pauli.signed_span`` tables.
``min_expansion`` answers one target from the same coordinates:
``gf2.min_support_solution`` over the generator masks searches the coset
of check subsets whose product is the target, exact with signs because -I
is a basis element, for up to 22 redundant checks.  ``expansion_profile``
enumerates check subsets exactly, up to ``gf2.SEARCH_BUDGET`` of them.
The growth-sum bound machinery turns an assumed power-law soundness
function into the (alpha, c', c'') constants consumed by the flow bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .code import CheckGroup, StabilizerCode
from .gf2 import (
    SEARCH_BUDGET,
    TABLE_ROWS,
    _words,
    min_support_solution,
    popcount,
)
from .pauli import (PauliString, hermitian_phase, power_of_i, signed_span,
                    times)

# Group elements decoded at a time by ``weights_and_signs``.
DECODE_BLOCK = 1 << 16
# Fewest sweep candidates built at a time by ``sweep``; a block grows with
# the elements visited, so it costs O(budget) words.
SWEEP_BLOCK = 1 << 18


class NotAStabilizerError(ValueError):
    """Operator is outside the (+1-signed) check group."""


def as_int(coord: np.ndarray) -> int:
    """The integer coordinate a row of coordinate words stands for."""
    return int.from_bytes(np.asarray(coord, "<u8").tobytes(), "little")


def sweep(group: CheckGroup, budget: int | None = None):
    """Breadth-first sweep from the identity over the generator masks.

    Returns (levels, complete): levels[d] holds, in visit order, the
    coordinates (rows of ceil(rank / 64) uint64 words) of the elements
    whose minimal generator count is d; complete is False when the budget,
    a cap on the elements visited, stopped the sweep early.  Each level
    keeps its candidates' first occurrences in (parent, generator) order,
    the insertion order of a queue-driven search, so a budget cuts the same
    elements.  Candidates are built a block of parents at a time and the
    sweep stops as soon as the budget is filled, so it holds O(budget)
    words.  A group within the budget (any group, without one) is marked
    off in a 2^rank array, a larger one in the sorted keys of the
    coordinates visited.
    """
    nwords = max(1, -(-group.rank // 64))
    masks = _words(group.masks, group.rank)
    levels = [np.zeros((1, nwords), np.uint64)]
    size = 1
    if budget is None or 1 << group.rank <= budget:
        visited = _DenseVisits(group.rank)
    else:
        visited = _SortedVisits(_keys(levels[0]))
    complete = True
    while complete and len(levels[-1]):
        frontier, parts = levels[-1], []
        step = max(1, max(SWEEP_BLOCK, size) // len(masks))
        for s in range(0, len(frontier), step):
            cand = (frontier[s:s + step, None] ^ masks).reshape(-1, nwords)
            keys = _keys(cand)
            new = visited.first_new(keys)
            if budget is not None and size + len(new) > budget:
                new = new[:max(budget - size, 0)]
                complete = False
            visited.mark(keys[new])
            parts.append(cand[new])
            size += len(new)
            if not complete:
                break
        levels.append(np.concatenate(parts))
    if not len(levels[-1]):
        levels.pop()
    return levels, complete


def weights_and_signs(group: CheckGroup, coords: np.ndarray):
    """Weight of each coordinate's element and whether its sign is +1.

    The elements are built a block at a time from ``signed_span`` tables
    of up to ``TABLE_ROWS`` basis elements each (none straddling a
    coordinate word), one table's rows multiplied on at a time
    (``pauli.times``).
    """
    tables = []
    lo = 0
    while lo < group.rank:
        hi = min(lo + TABLE_ROWS, group.rank, (lo // 64 + 1) * 64)
        part = group.basis[lo:hi]
        tx, tz, te = signed_span(_words([b.x for b in part], group.n),
                                 _words([b.z for b in part], group.n),
                                 [power_of_i(b) for b in part])
        tables.append((lo // 64, lo % 64, tx, tz, te))
        lo = hi
    weights = np.empty(len(coords), np.min_scalar_type(group.n))
    plus = np.empty(len(coords), bool)
    for s in range(0, len(coords), DECODE_BLOCK):
        block = coords[s:s + DECODE_BLOCK]
        x = z = e = 0
        for word, shift, tx, tz, te in tables:
            d = (block[:, word] >> shift) & (len(tx) - 1)
            e, x, z = times(e, x, z, te[d], tx[d], tz[d])
        weights[s:s + len(block)] = popcount(x | z)
        plus[s:s + len(block)] = hermitian_phase(e, x, z) == 1
    return weights, plus


class _DenseVisits:
    """Visited coordinates of a group of 2^rank elements, in a 2^rank
    array: -1 once visited, otherwise scratch for ``first_new``."""

    def __init__(self, rank: int):
        # Blocks stay below 2^31 candidates while 2^rank fits in memory.
        self.slot = np.zeros(1 << rank, np.int32)
        self.slot[0] = -1

    def first_new(self, keys: np.ndarray) -> np.ndarray:
        """Indices, in order, of the first occurrences of unvisited keys."""
        fresh = np.flatnonzero(self.slot[keys] >= 0)
        keys = keys[fresh]
        order = np.arange(len(keys), dtype=np.int32)
        self.slot[keys] = len(keys)
        np.minimum.at(self.slot, keys, order)
        return fresh[self.slot[keys] == order]

    def mark(self, keys: np.ndarray) -> None:
        self.slot[keys] = -1


class _SortedVisits:
    """Visited coordinates as sorted keys, for a group too large for
    ``_DenseVisits``: O(visited) words."""

    def __init__(self, keys: np.ndarray):
        self.keys = np.sort(keys)

    def first_new(self, keys: np.ndarray) -> np.ndarray:
        # Sorted queries keep the binary searches cache-friendly.
        unique, first = np.unique(keys, return_index=True)
        at = np.minimum(np.searchsorted(self.keys, unique), len(self.keys) - 1)
        return np.sort(first[self.keys[at] != unique])

    def mark(self, keys: np.ndarray) -> None:
        keys = np.sort(keys)
        self.keys = np.insert(self.keys, np.searchsorted(self.keys, keys), keys)


def _keys(coords: np.ndarray) -> np.ndarray:
    """One sortable key per row of coordinate words: the word itself, or
    the row's bytes when it spans several words."""
    if coords.shape[1] == 1:
        return coords[:, 0]
    return np.ascontiguousarray(coords).view(
        np.dtype((np.void, 8 * coords.shape[1])))[:, 0]


def min_expansion(code: StabilizerCode, stab: PauliString,
                  cap: int | None = None, method: str = "mitm"):
    """Exact minimal number of checks multiplying (sign included) to
    ``stab``; None when the minimum exceeds ``cap``.

    Raises NotAStabilizerError when ``stab`` (sign included) is outside the
    signed check group.  The target's coordinate in the check group's GF(2)
    basis, which holds -I when the signs put it in the group, carries the
    sign linearly, so ``gf2.min_support_solution`` over the generator masks
    is exact for every list of commuting checks.  It searches the 2^r check
    subsets whose product is the target, r being the number of redundant
    checks, and raises ValueError when r > 22 (2^r past
    ``gf2.SEARCH_BUDGET``).  ``method`` is kept for callers that pass it and
    has the single value "mitm".
    """
    if method != "mitm":
        raise ValueError(f"unknown method {method!r}")
    if stab.n != code.n:
        raise ValueError("qubit count mismatch")
    group = CheckGroup(code.checks, code.n)
    target = group.coordinate(stab)
    if target is None:
        raise NotAStabilizerError("operator is outside the signed check group")
    if cap is None:
        cap = code.num_checks
    return min_support_solution(group.masks, target, cap)


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


def _sector_profile(generators, n: int, m_max: int, sector: str,
                    budget: int) -> SoundnessProfile:
    group = CheckGroup(generators, n)
    levels, complete = sweep(group, budget)
    coords = np.concatenate(levels)
    dist = np.repeat(np.arange(len(levels), dtype=np.min_scalar_type(len(levels))),
                     [len(lv) for lv in levels])
    weights, plus = weights_and_signs(group, coords)
    # -1-signed elements are not stabilizers.
    idx = np.flatnonzero(plus & (weights >= 1) & (weights <= m_max))
    weights, dist = weights[idx], dist[idx]
    top = np.zeros(n + 1, np.int64)
    np.maximum.at(top, weights, dist)
    # Witness: the first-visited element of each weight at its top count.
    hit = np.flatnonzero(dist == top[weights])
    found, first = np.unique(weights[hit], return_index=True)
    f_raw = {m: int(top[m]) for m in found.tolist()}
    witness = {m: str(group.element(as_int(coords[i])))
               for m, i in zip(found.tolist(), idx[hit[first]].tolist())}
    f_emp: dict = {}
    running = 0
    for m in f_raw:
        running = max(running, f_raw[m])
        f_emp[m] = running
    return SoundnessProfile(
        m_max=m_max,
        f_emp=f_emp,
        f_raw=f_raw,
        witnesses=witness,
        certified=complete,
        sector=sector,
        group_size=len(coords),
    )


def soundness_profile(code: StabilizerCode, m_max: int | None = None,
                      budget: int = SEARCH_BUDGET) -> dict:
    """Certify worst-case minimal expansions for every stabilizer weight.

    CSS codes are swept sector by sector (a pure-X or pure-Z stabilizer
    only ever expands into checks of its own type); the combined profile
    for mixed stabilizers is the sum of the two sector envelopes, following
    the X-part/Z-part splitting rule, and is labeled as rule-derived rather
    than enumerated.  ``budget`` caps the group elements visited per
    sector.
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
            out["sectors"][name] = _sector_profile(gens, code.n, m_max, name,
                                                   budget)
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
        out["sectors"]["all"] = _sector_profile(code.checks, code.n, m_max,
                                                "all", budget)
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


def expansion_profile(code: StabilizerCode, size_max: int) -> ExpansionProfile:
    """Minimum (product weight)/(subset size) over check subsets of up to
    ``size_max`` checks.  Product weights ignore signs.

    The subsets are enumerated exactly, a size at a time, while the count
    of subsets up to that size stays within ``gf2.SEARCH_BUDGET``; the
    sizes past it are left out of ``min_weight_by_size`` and ``certified``
    is False.  A size with no subsets maps to None.  The products of one
    size are those of the previous size, as rows of uint64 words, each XOR
    one check past its last; those of the largest size are only scanned,
    one check at a time, never stored.
    """
    if size_max < 1:
        raise ValueError("size_max must be >= 1")
    m = code.num_checks
    top = counted = 0
    while top < size_max and counted + math.comb(m, top + 1) <= SEARCH_BUDGET:
        top += 1
        counted += math.comb(m, top)
    cx = _words([c.x for c in code.checks], code.n)
    cz = _words([c.z for c in code.checks], code.n)
    # The products of the current size and each one's last check, from
    # the empty subset.
    x = z = np.zeros((1, cx.shape[1]), np.uint64)
    last = np.array([-1])
    min_by_size: dict = {}
    for s in range(1, top + 1):
        ends = np.searchsorted(last, np.arange(m))  # products before check j
        best = code.n + 1
        xs, zs = [x[:0]], [z[:0]]
        for j, k in enumerate(ends):
            px, pz = x[:k] ^ cx[j], z[:k] ^ cz[j]
            best = int(popcount(px | pz).min(initial=best))
            if s < top:
                xs.append(px)
                zs.append(pz)
        min_by_size[s] = best if best <= code.n else None
        if s < top:
            x, z = np.concatenate(xs), np.concatenate(zs)
            last = np.repeat(np.arange(m), ends)
    ratios = {s: w / s for s, w in min_by_size.items() if w is not None}
    eta = min(ratios.values(), default=float("inf"))
    witness = min((s for s, r in ratios.items() if r == eta), default=0)
    return ExpansionProfile(size_max, eta, min_by_size, witness,
                            top == size_max)


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
