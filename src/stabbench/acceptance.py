"""The acceptance suite: nine numbered verification criteria.

Each criterion returns a structured result with its pass/fail verdict,
measured quantities, and timing; ``run_all`` executes a selection and the
CLI / pytest layers render the outcomes.  Tolerances are pinned here, not
in the callers.

Criterion 4b is the negative control: the Ising-coupled toric model has a
growing distance but is not check-sound, and under the few-body plaquette
field eps * sum_f B_f one O(1)-cost excitation that flips about L^2 faces
drops below its code space at eps_c ~ 1/L^2.  The toric code, which is
check-sound, keeps its code space up to eps_c = 1/2 at every L.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .constructors import (
    BipartiteTanner,
    SimpleGraph,
    hypergraph_product,
    ising_code,
    ising_toric,
    repetition_code,
    toric_code,
    toric_qubit_index,
)
from .flow import (
    REFERENCE_CONSTANTS,
    c_iter_const,
    check_envelope,
    delta_kappa,
    epsilon_zero_search,
    flow_step,
    flow_trajectory,
    initial_flow_state,
    kappa_m,
)
from .matrices import code_hamiltonian_dense, pauli_transform
from .pauli import PauliString, multiply
from .quasilocal import (
    block_diagonal_part,
    commutator_qlo,
    decompose,
    kappa_norm,
    operator_norms,
)
from .soundness import min_expansion, soundness_profile
from .swt import (
    _antihermitian_eigh,
    local_indistinguishability_check,
    operator_locally_trivial,
    solve_generator,
    spectral_report,
)
from .experiments import (
    plaquette_field_terms,
    splitting_versus_size,
    uniform_field_terms,
)


@dataclass
class CriterionResult:
    number: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] criterion {self.number}: {self.name} ({self.runtime_s:.1f}s)"

    def as_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "details": _jsonable(self.details),
            "runtime_s": self.runtime_s,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*a, **k):
        t0 = time.perf_counter()
        result = fn(*a, **k)
        result.runtime_s = time.perf_counter() - t0
        return result

    return wrapper


def _random_perturbation(code, rng, scale=0.1):
    """Five random Paulis of weight 1 or 2, coefficients uniform in
    [-scale, scale]."""
    terms = []
    for _ in range(5):
        w = rng.randint(1, 2)
        sup = rng.sample(range(code.n), w)
        x = z = 0
        for q in sup:
            kind = rng.choice("XZY")
            if kind in "XY":
                x |= 1 << q
            if kind in "ZY":
                z |= 1 << q
        terms.append((scale * rng.uniform(-1, 1), PauliString(code.n, x, z)))
    return terms


@functools.lru_cache(maxsize=None)
def _sparse_field_spectrum(family: str, L: int, eps: float, seed: int = 7):
    """Memoized Lanczos spectra shared between criteria 2, 3b, and 4b: the
    toric code under the uniform X field ("toric-x"), and the toric code or
    the Ising-coupled toric model under the plaquette field sum_f B_f
    ("toric-bsum", "ising-toric-bsum")."""
    if family == "toric-x":
        code = toric_code(L)
        terms = uniform_field_terms(code.n, "X")
    elif family in ("toric-bsum", "ising-toric-bsum"):
        code = toric_code(L) if family == "toric-bsum" else ising_toric(L)
        terms = plaquette_field_terms(L)
    else:
        raise ValueError(family)
    return spectral_report(code, terms, eps, num_eigs=8, mode="sparse",
                           k=2, seed=seed)


@_timed
def criterion_1_defining_equation(seed: int = 0) -> CriterionResult:
    """Residual of [H0, A] + V = PV stays below 1e-10 for 50 random
    quasi-local perturbations on repetition chains and the L=2 torus."""
    rng = random.Random(seed)
    worst = 0.0
    count = 0
    for trial in range(50):
        code = toric_code(2) if trial % 2 else repetition_code(rng.randint(4, 8))
        v = decompose(_random_perturbation(code, rng), code)
        a = solve_generator(code, v)
        H0 = code_hamiltonian_dense(code)
        A = a.to_dense()
        residual = float(
            np.linalg.norm(
                H0 @ A - A @ H0 + v.to_dense() - block_diagonal_part(v).to_dense(),
                2,
            )
        )
        worst = max(worst, residual)
        count += 1
    return CriterionResult(
        "1", "SWT defining equation residual <= 1e-10",
        worst <= 1e-10, {"perturbations": count, "worst_residual": worst},
    )


@_timed
def criterion_2_gap_stability() -> CriterionResult:
    """Toric L=2 (dense) and L=3 (sparse) under the uniform X field at
    eps <= 0.1: exactly 4 ground states, gap to state 5 above 1/2."""
    details = {}
    ok = True
    code2 = toric_code(2)
    terms2 = uniform_field_terms(8, "X")
    for eps in (0.05, 0.1):
        rep = spectral_report(code2, terms2, eps, mode="dense", k=2)
        details[f"L2_eps{eps}"] = {
            "cluster": rep.cluster_size, "gap": rep.gap,
            "splitting": rep.splitting,
        }
        ok &= rep.cluster_size == 4 and rep.gap > 0.5
    rep3 = _sparse_field_spectrum("toric-x", 3, 0.1)
    details["L3_eps0.1"] = {
        "cluster": rep3.cluster_size, "gap": rep3.gap,
        "splitting": rep3.splitting,
    }
    ok &= rep3.cluster_size == 4 and rep3.gap > 0.5
    return CriterionResult("2", "gap stability under uniform X field", ok,
                           details)


@_timed
def criterion_3_splitting() -> CriterionResult:
    """(a) transverse-field repetition splitting slope matches log(eps)
    within 25%; (b) toric splitting shrinks from L=2 to L=3 at equal eps.

    The repetition chain runs at check weight lambda = 2, the bare Ising
    energy scale (domain walls cost 2), under which the ground-pair
    splitting is epsilon^n up to a constant.
    """
    eps = 0.1
    fit = splitting_versus_size((4, 6, 8), eps, lam=2.0, kind="X")
    target = math.log(eps)
    rel_err = abs(fit["slope"] - target) / abs(target)
    ok_a = rel_err <= 0.25
    rep2 = spectral_report(toric_code(2), uniform_field_terms(8, "X"), eps,
                           mode="dense", k=2)
    rep3 = _sparse_field_spectrum("toric-x", 3, eps)
    ok_b = rep3.splitting < rep2.splitting
    return CriterionResult(
        "3", "distance-exponential splitting", ok_a and ok_b,
        {
            "slope": fit["slope"], "log_eps": target, "rel_err": rel_err,
            "rows": fit["rows"],
            "toric_L2_splitting": rep2.splitting,
            "toric_L3_splitting": rep3.splitting,
        },
    )


@_timed
def criterion_4a_longitudinal_control() -> CriterionResult:
    """Longitudinal Z field on the repetition chain splits the ground pair
    at first order: splitting/eps > 0.5 at eps = 0.05."""
    eps = 0.05
    code = ising_code(SimpleGraph.path(6), lam=2.0)
    rep = spectral_report(code, uniform_field_terms(6, "Z"), eps,
                          mode="dense", k=1)
    ratio = rep.splitting_2k / eps
    return CriterionResult(
        "4a", "longitudinal field breaks repetition degeneracy",
        ratio > 0.5, {"epsilon": eps, "splitting": rep.splitting_2k,
                      "ratio": ratio},
    )


_PLAQUETTE_FIELD_MODELS = {"ising-toric": ising_toric, "toric": toric_code}


def _plaquette_field_crossing(model: str, L: int, eps: float) -> dict:
    """Closed-form level crossing of H0 + eps * sum_f B_f on the L x L torus.

    Every term commutes, so each level is a pattern of flipped faces (B_f =
    -1), paid for in violated Z checks and rewarded with 2 eps per flipped
    face; the code space sits at eps L^2.  The first state to drop below it:

    - "ising-toric", even L: every face flipped, violating only the pinned
      check (cost 1, L^2 faces), so eps_c = 1/(2 L^2);
    - "ising-toric", odd L: prod_f B_f = I forbids flipping all faces, so
      every face but the pinned one flips and the pinned face's 4 pair
      checks are violated (cost 4, L^2 - 1 faces), so eps_c = 2/(L^2 - 1);
    - "toric": two faces flipped (cost 2, 2 faces), so eps_c = 1/2.

    Returns eps_c and the ground-energy offset E0 - eps L^2 = min(0, cost -
    2 eps faces), exact at every eps >= 0 for the Ising-toric model and at
    eps <= 1/2 for the toric code.
    """
    if model == "toric":
        cost, flipped = 2.0, 2
    elif model == "ising-toric":
        cost, flipped = (1.0, L * L) if L % 2 == 0 else (4.0, L * L - 1)
    else:
        raise ValueError(model)
    return {"eps_c": cost / (2.0 * flipped),
            "offset": min(0.0, cost - 2.0 * eps * flipped)}


def _plaquette_field_row(model: str, L: int, eps: float) -> dict:
    """Measured ground energy E0 of the model under eps * sum_f B_f (dense
    at L = 2, memoized Lanczos beyond) against its code-space energy
    eps L^2, next to the model's closed-form crossing."""
    if L == 2:
        rep = spectral_report(_PLAQUETTE_FIELD_MODELS[model](L),
                              plaquette_field_terms(L), eps, num_eigs=8,
                              mode="dense", k=2)
    else:
        rep = _sparse_field_spectrum(f"{model}-bsum", L, eps)
    e0 = float(rep.eigenvalues[0])
    code_space = eps * L * L
    closed = _plaquette_field_crossing(model, L, eps)
    return {
        "E0": e0, "code_space_energy": code_space, "offset": e0 - code_space,
        "eps_c": closed["eps_c"], "offset_closed_form": closed["offset"],
        "gap_after_2k": rep.gap_after_2k,
    }


def _level_crossed(row: dict, L: int, eps: float) -> bool:
    """The unsound half of 4b: E0 sits the Ising-toric closed-form amount
    below the code-space energy."""
    expected = _plaquette_field_crossing("ising-toric", L, eps)["offset"]
    return expected < 0.0 and abs(row["offset"] - expected) <= 1e-8


def _code_space_kept(row: dict, eps: float) -> bool:
    """The sound half of 4b: E0 equals the code-space energy and the gap is
    the two-face excitation's 2 - 4 eps."""
    return (abs(row["offset"]) <= 1e-8
            and abs(row["gap_after_2k"] - (2.0 - 4.0 * eps)) <= 1e-8)


@_timed
def criterion_4b_ising_toric_control() -> CriterionResult:
    """Negative control: under the plaquette field eps * sum_f B_f at
    eps = 0.3 (dense at L = 2, Lanczos at L = 3), the Ising-coupled toric
    model's ground energy sits the closed-form amount (1.4 at L = 2, 0.8 at
    L = 3) below its code-space energy eps L^2, within 1e-8, while the toric
    code's ground energy equals eps L^2 and its gap stays at 2 - 4 eps.

    Both models have the same ground space and a growing distance; only the
    toric code is check-sound, and only it keeps its code space, up to
    eps_c = 1/2 against the unsound model's eps_c ~ 1/L^2.
    """
    eps = 0.3
    details = {"epsilon": eps}
    ok = True
    for L in (2, 3):
        unsound = _plaquette_field_row("ising-toric", L, eps)
        sound = _plaquette_field_row("toric", L, eps)
        details[f"ising_toric_L{L}"] = unsound
        details[f"toric_L{L}"] = sound
        ok &= _level_crossed(unsound, L, eps) and _code_space_kept(sound, eps)
    return CriterionResult(
        "4b", "ising-toric code space lost to the plaquette field", ok,
        details,
    )


@_timed
def criterion_5_soundness() -> CriterionResult:
    """Certified soundness profiles: toric f(M) <= M^2, hypergraph product
    of the 3-bit repetition code f(M) <= M^2/4 per sector (exact), and the
    n=8 path expands Z_1 Z_n into exactly n-1 checks."""
    details = {}
    ok = True
    for L in (2, 3):
        prof = soundness_profile(toric_code(L))
        for name, p in prof["sectors"].items():
            key = f"toric_L{L}_{name}"
            viol = {m: v for m, v in p.f_emp.items() if v > m * m}
            details[key] = {"certified": p.certified, "f_emp": p.f_emp,
                            "violations": viol}
            ok &= p.certified and not viol
    rep3 = BipartiteTanner.repetition(3)
    hgp = hypergraph_product(rep3, rep3)
    prof = soundness_profile(hgp)
    for name, p in prof["sectors"].items():
        viol = {m: v for m, v in p.f_emp.items() if v > m * m / 4.0}
        details[f"hgp_{name}"] = {"certified": p.certified, "f_emp": p.f_emp,
                                  "violations": viol}
        ok &= p.certified and not viol
    code8 = repetition_code(8)
    got = min_expansion(code8, PauliString(8, 0, 0b10000001))
    details["rep8_z1zn"] = got
    ok &= got == 7
    return CriterionResult("5", "check-soundness certification", ok, details)


@_timed
def criterion_6_flow_fidelity() -> CriterionResult:
    """With kappa1 = 1 and computed (c_iter, eps0): the equality-run
    trajectory obeys all four envelope bounds and the step-validity
    condition for every m <= 200 at relative tolerance 1e-10, and the
    hand-unrolled second order matches 27 eps^2/(kappa_2 dk_1) to 1e-12."""
    consts = REFERENCE_CONSTANTS
    ci = c_iter_const(consts)
    e0 = epsilon_zero_search(consts, m_check=10_000, c_iter=ci.value)
    traj = flow_trajectory(e0.value, consts, 200)
    rows = check_envelope(traj, consts, ci.value, e0.value)
    bad = [
        r for r in rows
        if not all(v for k, v in r.items() if k != "m")
    ]
    eps = 1e-3
    st2 = flow_step(initial_flow_state(eps, consts), consts)
    expected = 27.0 * eps ** 2 / (kappa_m(1.0, 2) * delta_kappa(1.0, 1))
    hand_ok = abs(st2.v_tilde - expected) <= 1e-12 * expected
    ok = not bad and hand_ok
    return CriterionResult(
        "6", "flow-equation fidelity",
        ok,
        {
            "c_iter": ci.value, "epsilon0": e0.value,
            "orders_checked": len(rows), "violations": bad[:5],
            "v_tilde_2": st2.v_tilde, "v_tilde_2_expected": expected,
        },
    )


@_timed
def criterion_7_inequality_suite(seed: int = 1) -> CriterionResult:
    """Projection, generator, commutator, and conjugation-locality norm
    inequalities on 100 random quasi-local operator pairs at n <= 8, each
    as a strict numeric inequality with the worst margin reported."""
    rng = random.Random(seed)
    kap, kap_p = 1.0, 0.5
    dk = kap - kap_p
    margins = {"projection": np.inf, "generator": np.inf,
               "commutator": np.inf, "conjugation": np.inf,
               "conjugation_total": np.inf, "conjugation_integral": np.inf}
    pairs = 0
    nodes, weights = np.polynomial.legendre.leggauss(16)
    s_nodes = 0.5 * (nodes + 1.0)
    s_weights = 0.5 * weights
    while pairs < 100:
        # repetition chains keep patches small; the torus joins every tenth
        # pair to exercise wide strong supports within the runtime budget
        code = toric_code(2) if pairs % 10 == 9 else repetition_code(
            rng.randint(4, 8))
        v = decompose(_random_perturbation(code, rng, scale=0.05), code)
        d_src = decompose(_random_perturbation(code, rng, scale=0.3), code)
        d_op = block_diagonal_part(d_src)
        a_op = solve_generator(code, v)
        if not a_op.terms or not d_op.terms:
            continue
        pairs += 1
        # projections do not increase norms: each term's norm, then those
        # of its diagonal and off-diagonal parts (the halves of one split of
        # v, found by the term's unique key; an empty half has norm 0), all
        # in one batch
        halves = block_diagonal_part(v, keep_offdiag=True)
        off_v = halves[1]
        index = [h.key_index() for h in halves]
        parts = [[t] + [i.get((t.support, t.syndrome)) for i in index]
                 for t in v.terms]
        present = np.array([[p is not None for p in trio] for trio in parts])
        trios = np.zeros(present.shape)
        trios[present] = operator_norms([p for trio in parts for p in trio
                                         if p is not None])
        margins["projection"] = min(margins["projection"],
                                    float(np.min(trios[:, :1] - trios[:, 1:])))
        # generator norm below the off-diagonal input norm
        margins["generator"] = min(
            margins["generator"],
            kappa_norm(off_v, kap) - kappa_norm(a_op, kap),
        )
        # commutator inequality
        lhs = kappa_norm(commutator_qlo(d_op, a_op), kap_p)
        rhs = 2.0 / dk * kappa_norm(d_op, kap) * kappa_norm(a_op, kap)
        margins["commutator"] = min(margins["commutator"], rhs - lhs)
        # conjugation locality, generator rescaled into its hypothesis
        na = kappa_norm(a_op, kap)
        if na > dk / 3.0:
            a_op = a_op.scaled(0.99 * dk / (3.0 * na))
            na = kappa_norm(a_op, kap)
        o_op = decompose(_random_perturbation(code, rng, scale=0.4), code)
        o_dense = o_op.to_dense()
        # One eigendecomposition A = V diag(i vals) V^dagger serves U = e^A
        # and every quadrature node: in its basis U_s^dagger O U_s has the
        # entries e^{i s (vals_k - vals_j)} (V^dagger O V)_jk.
        vals, vecs = _antihermitian_eigh(a_op.to_dense())
        U = (vecs * np.exp(1j * vals)) @ vecs.conj().T
        conj = U.conj().T @ o_dense @ U
        no = kappa_norm(o_op, kap)
        bound = 18.0 / (kap_p * dk) * na * no

        def norm_of(matrix):
            return kappa_norm(decompose(pauli_transform(matrix), code), kap_p)

        margins["conjugation"] = min(margins["conjugation"],
                                     bound - norm_of(conj - o_dense))
        margins["conjugation_total"] = min(
            margins["conjugation_total"],
            (1.0 + 18.0 / (kap_p * dk) * na) * no - norm_of(conj),
        )
        phases = np.exp(1j * np.outer(s_nodes, vals))
        weights = (s_weights[:, None] * phases.conj()).T @ phases
        integral = (vecs @ (weights * (vecs.conj().T @ o_dense @ vecs))
                    @ vecs.conj().T - s_weights.sum() * o_dense)
        margins["conjugation_integral"] = min(
            margins["conjugation_integral"],
            bound - 2.0 * norm_of(integral),
        )
    ok = all(v >= -1e-12 for v in margins.values())
    return CriterionResult(
        "7", "operator-norm inequality suite", ok,
        {"pairs": pairs, "worst_margins": {k: float(v) for k, v in margins.items()}},
    )


@_timed
def criterion_8_local_indistinguishability() -> CriterionResult:
    """Toric L=4 annulus: with the hole left open the perimeter Z-loop is a
    counterexample; the r=1 neighborhood fills the hole and the check
    passes."""
    L = 4
    code = toric_code(L)
    ring = frozenset(
        [
            toric_qubit_index(L, 0, 0, 0), toric_qubit_index(L, 1, 0, 0),
            toric_qubit_index(L, 0, 2, 0), toric_qubit_index(L, 1, 2, 0),
            toric_qubit_index(L, 0, 0, 1), toric_qubit_index(L, 0, 1, 1),
            toric_qubit_index(L, 2, 0, 1), toric_qubit_index(L, 2, 1, 1),
        ]
    )
    interior = frozenset(
        [
            toric_qubit_index(L, 0, 1, 0), toric_qubit_index(L, 1, 1, 0),
            toric_qubit_index(L, 1, 0, 1), toric_qubit_index(L, 1, 1, 1),
        ]
    )
    filled = local_indistinguishability_check(code, ring, r=1)
    annulus = filled.region - interior
    open_hole = local_indistinguishability_check(code, ring, r=1,
                                                 region=annulus)
    loop = PauliString.from_support(code.n, "Z", ring)
    counterexample_is_z_loop = (
        not open_hole.holds
        and open_hole.counterexample is not None
        and open_hole.counterexample.x == 0
        and not operator_locally_trivial(code, loop, annulus)
    )
    ok = filled.holds and counterexample_is_z_loop
    return CriterionResult(
        "8", "local indistinguishability on the L=4 annulus", ok,
        {
            "filled_holds": filled.holds,
            "open_holds": open_hole.holds,
            "counterexample": str(open_hole.counterexample)
            if open_hole.counterexample else None,
            "region_size_filled": len(filled.region),
            "region_size_annulus": len(annulus),
        },
    )


def _dense_action_commutes(n: int):
    """Oracle: all-pairs commutation via explicit operator action on basis
    states (permutation + phase vectors), no symplectic shortcut."""
    dim = 1 << n
    basis = np.arange(dim, dtype=np.int64)
    codes = [(x, z) for x in range(1 << n) for z in range(1 << n)]
    xs = np.array([x for x, _ in codes], dtype=np.int64)
    phases = np.empty((len(codes), dim), dtype=complex)
    for i, (x, z) in enumerate(codes):
        par = np.bitwise_count(basis & np.int64(z)) & 1
        phases[i] = (1j) ** ((x & z).bit_count() % 4) * (1.0 - 2.0 * par)
    oracle = np.zeros((len(codes), len(codes)), dtype=bool)
    for ip in range(len(codes)):
        xp = xs[ip]
        # P Q |b> = phi_q(b) phi_p(b ^ x_q) |b ^ x_q ^ x_p>
        lhs = phases * phases[ip][basis[None, :] ^ xs[:, None]]
        rhs = phases[ip][None, :] * phases[:, basis ^ xp]
        oracle[ip] = np.all(np.abs(lhs - rhs) < 1e-12, axis=1)
    return codes, oracle


@_timed
def criterion_9_oracle_equivalences(seed: int = 2) -> CriterionResult:
    """Symplectic commutation vs dense action for all Pauli pairs at
    n <= 5; minimal expansions vs exhaustive subset enumeration; the
    hypergraph product of a cyclic repetition code with itself reproduces
    the torus check set for L in {2, 3}."""
    details = {}
    ok = True
    for n in range(1, 6):
        codes, oracle = _dense_action_commutes(n)
        xs = np.array([x for x, _ in codes], dtype=np.int64)
        zs = np.array([z for _, z in codes], dtype=np.int64)
        overlap = np.bitwise_count(xs[:, None] & zs[None, :]) + np.bitwise_count(
            zs[:, None] & xs[None, :]
        )
        symplectic = (overlap % 2) == 0
        agree = bool(np.array_equal(symplectic, oracle))
        details[f"commutes_n{n}"] = agree
        ok &= agree
    # minimal expansion vs exhaustive on an 8-check code
    code = toric_code(2)
    rng = random.Random(seed)
    group = {}
    for sel in range(1 << code.num_checks):
        prod = PauliString.identity(code.n)
        t = sel
        while t:
            prod = multiply(prod, code.checks[(t & -t).bit_length() - 1])
            t &= t - 1
        key = (prod.x, prod.z, prod.sign)
        w = sel.bit_count()
        if key not in group or w < group[key][0]:
            group[key] = (w, prod)
    mismatches = 0
    for w, stab in group.values():
        if min_expansion(code, stab) != w:
            mismatches += 1
    details["min_expansion_mismatches"] = mismatches
    ok &= mismatches == 0
    for L in (2, 3):
        rep = BipartiteTanner.repetition(L, cyclic=True)
        hgp = hypergraph_product(rep, rep)
        toric = toric_code(L)

        def relabel(q: int) -> int:
            if q < L * L:
                b, bt = divmod(q, L)
                return toric_qubit_index(L, b, bt, 0)
            c, ct = divmod(q - L * L, L)
            return toric_qubit_index(L, c + 1, ct, 1)

        def mapped(mask: int) -> int:
            out = 0
            for i in range(2 * L * L):
                if (mask >> i) & 1:
                    out |= 1 << relabel(i)
            return out

        same = {(mapped(c.x), mapped(c.z)) for c in hgp.checks} == {
            (c.x, c.z) for c in toric.checks
        }
        details[f"hgp_toric_L{L}"] = same
        ok &= same
    return CriterionResult("9", "oracle equivalences", ok, details)


CRITERIA = {
    "1": criterion_1_defining_equation,
    "2": criterion_2_gap_stability,
    "3": criterion_3_splitting,
    "4a": criterion_4a_longitudinal_control,
    "4b": criterion_4b_ising_toric_control,
    "5": criterion_5_soundness,
    "6": criterion_6_flow_fidelity,
    "7": criterion_7_inequality_suite,
    "8": criterion_8_local_indistinguishability,
    "9": criterion_9_oracle_equivalences,
}

GROUPS = {
    "swt": ("1",),
    "gap": ("2",),
    "splitting": ("3",),
    "controls": ("4a", "4b"),
    "soundness": ("5",),
    "flow": ("6",),
    "inequalities": ("7",),
    "lto": ("8",),
    "oracles": ("9",),
}


def run_all(selection=None, seed: int | None = None) -> list[CriterionResult]:
    if selection is None:
        keys = list(CRITERIA)
    else:
        keys = []
        for item in selection:
            if item in GROUPS:
                keys.extend(GROUPS[item])
            elif item in CRITERIA:
                keys.append(item)
            else:
                raise ValueError(f"unknown criterion or group {item!r}")
    results = []
    for i, k in enumerate(keys):
        fn = CRITERIA[k]
        if seed is not None and "seed" in fn.__wrapped__.__code__.co_varnames:
            results.append(fn(seed=seed + i))
        else:
            results.append(fn())
    return results
