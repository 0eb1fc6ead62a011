"""The three benchmark workloads: seeded inputs, task lists and checks.

``build(workload, seed)`` is the set-up: it generates every random input
from the seed, constructs and validates the codes, and returns the task
list.  Each task calls public stabbench functions on the prepared inputs
and returns a JSON-able summary of the outputs; its check lists what is
wrong with that summary (an empty list means verified).  Checks come in
two kinds: invariants that hold for any seed, and comparisons with
``reference.json``, recorded at the default seed.  Tasks without random
inputs are compared with the reference at every seed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from stabbench.code import code_parameters, validate
from stabbench.constructors import (
    BipartiteTanner,
    hypergraph_product,
    random_biregular_classical,
    repetition_code,
    toric_code,
    toric_qubit_index,
)
from stabbench.experiments import splitting_versus_size, uniform_field_terms
from stabbench.flow import (
    REFERENCE_CONSTANTS,
    c_iter_const,
    check_envelope,
    epsilon_zero_search,
    flow_trajectory,
)
from stabbench.matrices import code_hamiltonian_dense
from stabbench.pauli import PauliString, multiply
from stabbench.quasilocal import (
    block_diagonal_part,
    commutator_qlo,
    decompose,
    kappa_norm,
)
from stabbench.soundness import expansion_profile, min_expansion, soundness_profile
from stabbench.swt import (
    local_indistinguishability_check,
    operator_locally_trivial,
    solve_generator,
    spectral_report,
    swt_run,
)

DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

EXACT = ("exact", 0.0)


def ABS(tol: float) -> tuple:
    return ("abs", tol)


def REL(tol: float) -> tuple:
    return ("rel", tol)


@dataclass
class Task:
    """One timed unit of a workload.

    ``run`` returns the output summary; ``check`` returns the invariant
    violations; ``compare`` maps summary fields to the rule (EXACT, ABS or
    REL) by which they must match the reference; ``seeded`` marks tasks
    whose inputs depend on the seed (compared only at the default seed).
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    compare: dict
    seeded: bool = False


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _mismatches(got, want, rule: tuple, path: str) -> list:
    """Differences between two summary values under a comparison rule."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: {got} != {want}"]
        out = []
        for k in want:
            out += _mismatches(got[k], want[k], rule, f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _mismatches(g, w, rule, f"{path}[{i}]")
        return out
    kind, tol = rule
    if kind == "exact" or not isinstance(want, float):
        return [] if got == want else [f"{path}: {got} != {want}"]
    limit = tol * abs(want) if kind == "rel" else tol
    if not abs(got - want) <= limit:
        return [f"{path}: {got} differs from {want} by more than {limit:.3g}"]
    return []


def verify(task: Task, summary: dict, seed: int, reference: dict) -> list:
    """Invariant violations plus reference mismatches for one task run."""
    problems = list(task.check(summary))
    if task.seeded and seed != DEFAULT_SEED:
        return problems
    want = reference.get("tasks", {}).get(task.name)
    if want is None:
        return problems + [f"no reference output recorded for {task.name}"]
    for key, rule in task.compare.items():
        problems += _mismatches(summary.get(key), want.get(key), rule, key)
    return problems


# ---------------------------------------------------------------- certify

def _soundness_summary(profile: dict) -> dict:
    return {
        name: {
            "group_size": p.group_size,
            "certified": p.certified,
            "f_emp": [[m, p.f_emp[m]] for m in sorted(p.f_emp)],
        }
        for name, p in profile["sectors"].items()
    }


def _check_soundness(summary: dict) -> list:
    problems = []
    for name, sec in summary["sectors"].items():
        if not sec["certified"]:
            problems.append(f"sector {name} is not certified")
        values = [f for _, f in sec["f_emp"]]
        if values != sorted(values):
            problems.append(f"sector {name} f_emp is not monotone")
    return problems


def _params_summary(p) -> dict:
    return {"nkd": [p.n, p.k, p.d], "d_x": p.d_x, "d_z": p.d_z,
            "certified": p.certified}


def _kernel_min_weight(rows: list, n: int) -> tuple:
    """(dimension, minimum nonzero weight) of {v : H v = 0} by brute force.

    An oracle independent of stabbench.gf2: reduce H to echelon form,
    read off a kernel basis from the free columns, enumerate the kernel.
    """
    pivots = []  # (column, row) with the row's lowest set bit at column
    for r in rows:
        for col, prow in pivots:
            if (r >> col) & 1:
                r ^= prow
        if r:
            col = (r & -r).bit_length() - 1
            pivots = [(c, p ^ r if (p >> col) & 1 else p) for c, p in pivots]
            pivots.append((col, r))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = 1 << free
        for col, prow in pivots:
            if (prow >> free) & 1:
                v |= 1 << col
        basis.append(v)
    best = None
    for combo in range(1, 1 << len(basis)):
        word = 0
        for i, b in enumerate(basis):
            if (combo >> i) & 1:
                word ^= b
        w = word.bit_count()
        best = w if best is None else min(best, w)
    return len(basis), best


def _certify_tasks(rng: random.Random) -> list:
    tc4 = toric_code(4)
    rep4 = BipartiteTanner.repetition(4)
    rep5 = BipartiteTanner.repetition(5)
    hgp4 = hypergraph_product(rep4, rep4)
    hgp5 = hypergraph_product(rep5, rep5)
    rb_seed = rng.randrange(2 ** 31)
    # 20 bits, not 24: the 24-bit code is one 3-4 s call, which on a busy
    # shared machine made the workload's run-to-run spread too wide.
    rb = random_biregular_classical(20, 3, 4, rb_seed).to_code()
    for code in (tc4, hgp4, hgp5, rb):
        validate(code)

    # Two plaquettes sharing an edge: minimal expansion 2, weight 6.
    L = 4
    fx, fy = rng.randrange(L), rng.randrange(L)
    gx, gy = ((fx + 1) % L, fy) if rng.random() < 0.5 else (fx, (fy + 1) % L)
    faces = tc4.z_type_indices()
    stab = multiply(tc4.checks[faces[fx * L + fy]], tc4.checks[faces[gx * L + gy]])

    # Criterion-8 geometry: an annulus on the L = 4 torus around a hole.
    ring = frozenset(toric_qubit_index(L, *c) for c in (
        (0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 2, 0),
        (0, 0, 1), (0, 1, 1), (2, 0, 1), (2, 1, 1)))
    interior = frozenset(toric_qubit_index(L, *c) for c in (
        (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)))

    def soundness(code):
        return lambda: {"sectors": _soundness_summary(soundness_profile(code))}

    def params(code):
        return lambda: _params_summary(code_parameters(code))

    def expect_nkd(nkd: list):
        def check(s: dict) -> list:
            return [] if s["nkd"] == nkd else [f"[[n,k,d]] {s['nkd']} != {nkd}"]
        return check

    # code_parameters searches up to weight 8 and reports 9 beyond it.
    rb_k, rb_d = _kernel_min_weight([c.z for c in rb.checks], rb.n)
    rb_nkd = [rb.n, rb_k, min(rb_d, 9)]

    def run_mitm() -> dict:
        return {"expansion": min_expansion(tc4, stab, method="mitm"),
                "weight": stab.weight()}

    def run_expansion() -> dict:
        e = expansion_profile(tc4, 4)
        return {"eta": e.eta_emp, "certified": e.certified,
                "min_weight_by_size": [[s, e.min_weight_by_size[s]]
                                       for s in sorted(e.min_weight_by_size)]}

    def run_lto() -> dict:
        filled = local_indistinguishability_check(tc4, ring, r=1)
        annulus = filled.region - interior
        open_hole = local_indistinguishability_check(tc4, ring, r=1,
                                                     region=annulus)
        loop = PauliString.from_support(tc4.n, "Z", ring)
        ce = open_hole.counterexample
        return {
            "filled_holds": filled.holds,
            "open_holds": open_hole.holds,
            "counterexample_z_type": ce is not None and ce.x == 0,
            "loop_locally_trivial": operator_locally_trivial(tc4, loop, annulus),
            "region_sizes": [len(filled.region), len(annulus)],
        }

    def check_lto(s: dict) -> list:
        ok = (s["filled_holds"] and not s["open_holds"]
              and s["counterexample_z_type"] and not s["loop_locally_trivial"])
        return [] if ok else [f"annulus verdicts wrong: {s}"]

    def run_flow() -> dict:
        consts = REFERENCE_CONSTANTS
        ci = c_iter_const(consts)
        e0 = epsilon_zero_search(consts, c_iter=ci.value)
        traj = flow_trajectory(e0.value, consts, 200)
        rows = check_envelope(traj, consts, ci.value, e0.value)
        bad = [r["m"] for r in rows if not all(v for k, v in r.items() if k != "m")]
        return {"c_iter": ci.value, "epsilon0": e0.value, "orders": len(rows),
                "bad_orders": bad}

    return [
        Task("soundness_toric4", soundness(tc4), _check_soundness,
             {"sectors": EXACT}),
        Task("soundness_hgp_rep4", soundness(hgp4), _check_soundness,
             {"sectors": EXACT}),
        Task("params_toric4", params(tc4), expect_nkd([32, 2, 4]),
             {"nkd": EXACT, "d_x": EXACT, "d_z": EXACT, "certified": EXACT}),
        Task("params_hgp_rep5", params(hgp5), expect_nkd([41, 1, 5]),
             {"nkd": EXACT, "d_x": EXACT, "d_z": EXACT, "certified": EXACT}),
        Task("params_random_biregular", params(rb), expect_nkd(rb_nkd),
             {"nkd": EXACT, "d_x": EXACT, "d_z": EXACT, "certified": EXACT},
             seeded=True),
        Task("min_expansion_mitm", run_mitm,
             lambda s: [] if s == {"expansion": 2, "weight": 6}
             else [f"two-plaquette expansion {s} != 2 checks, weight 6"],
             {}, seeded=True),
        Task("expansion_profile_toric4", run_expansion,
             lambda s: [] if s["certified"] else ["expansion profile not certified"],
             {"eta": EXACT, "certified": EXACT, "min_weight_by_size": EXACT}),
        Task("local_indistinguishability", run_lto, check_lto,
             {"region_sizes": EXACT}),
        Task("flow_certificate", run_flow,
             lambda s: [f"envelope violated at orders {s['bad_orders']}"]
             if s["bad_orders"] else [],
             {"c_iter": REL(1e-12), "epsilon0": REL(1e-12), "orders": EXACT}),
    ]


# ------------------------------------------------------------- swt-orders

def _random_perturbation(code, rng: random.Random, scale: float, slot: int,
                         num_terms: int = 5) -> list:
    """Pauli terms of a fixed shape with coefficients in +-scale from ``rng``.

    Term j acts on 1 + j % 2 qubits, from qubit (slot + 3 j) mod n on, with
    Paulis that cycle through X, Z and Y.  Which qubits a term touches and
    which checks it anticommutes with set how large the patches of the
    local algebra grow, so they are fixed: with random supports and kinds,
    the work of one L = 2 torus pair varied by up to a factor of four from
    seed to seed.
    """
    n = code.n
    terms = []
    for j in range(num_terms):
        first = (slot + 3 * j) % n
        sup = [first, (first + 1 + j % (n - 1)) % n][: 1 + j % 2]
        x = z = 0
        for k, q in enumerate(sup):
            kind = "XZY"[(slot + j + k) % 3]
            if kind in "XY":
                x |= 1 << q
            if kind in "ZY":
                z |= 1 << q
        terms.append((scale * rng.uniform(-1, 1), PauliString(n, x, z)))
    return terms


def _swt_summary(res) -> dict:
    return {
        "v_norms": [float(v) for v in res.v_norms],
        "generator_norms": [float(v) for v in res.generator_norms],
        "residual_max": max(res.conjugation_residuals),
        "unitarity_defect": res.unitarity_defect(),
        "diverging": res.diverging,
    }


def _check_swt(s: dict) -> list:
    problems = []
    if not s["residual_max"] <= 1e-8:
        problems.append(f"conjugation residual {s['residual_max']} > 1e-8")
    if not s["unitarity_defect"] <= 1e-9:
        problems.append(f"unitarity defect {s['unitarity_defect']} > 1e-9")
    if s["diverging"]:
        problems.append("SWT orders flagged as diverging")
    return problems


PAIR_GROUPS, GROUP_SIZE = 4, 10


def _swt_tasks(rng: random.Random) -> list:
    rep9 = repetition_code(9, lam=2.0)
    tc2 = toric_code(2)
    validate(rep9)
    # Criterion-7-style operator pairs: repetition chains of 4 to 8 qubits
    # in a fixed rotation and the L = 2 torus for wide strong supports,
    # with Pauli terms of a fixed shape, so that only the coefficients, not
    # the amount of work, depend on the seed.  Groups of pairs are timed
    # separately: a short task is less likely than a long one to overlap a
    # burst of a busy machine.
    pair_codes = {}
    groups = []
    for _ in range(PAIR_GROUPS):
        group = []
        for i in range(GROUP_SIZE):
            size = 0 if i == GROUP_SIZE - 1 else 4 + i % 5
            if size not in pair_codes:
                code = tc2 if size == 0 else repetition_code(size)
                validate(code)
                pair_codes[size] = (code, code_hamiltonian_dense(code))
            code, h0 = pair_codes[size]
            group.append((code, h0,
                          _random_perturbation(code, rng, 0.05, i),
                          _random_perturbation(code, rng, 0.3, i + 1)))
        groups.append(group)
    field9 = [(0.05, p) for _, p in uniform_field_terms(rep9.n, "X")]
    field_tc2 = [(0.05, p) for _, p in uniform_field_terms(tc2.n, "X")]

    def run_pairs(pairs: list) -> dict:
        kap, kap_p = 1.0, 0.5
        worst = {"generator": math.inf, "commutator": math.inf}
        residual = 0.0
        norms = []
        for code, H0, v_terms, d_terms in pairs:
            v = decompose(v_terms, code)
            d_op = block_diagonal_part(decompose(d_terms, code))
            a_op = solve_generator(code, v)
            pv, off_v = block_diagonal_part(v, keep_offdiag=True)
            na, nd = kappa_norm(a_op, kap), kappa_norm(d_op, kap)
            n_comm = kappa_norm(commutator_qlo(d_op, a_op), kap_p)
            worst["generator"] = min(worst["generator"],
                                     kappa_norm(off_v, kap) - na)
            worst["commutator"] = min(worst["commutator"],
                                      2.0 / (kap - kap_p) * nd * na - n_comm)
            # Defining equation [H0, A] + V = PV, in the Frobenius norm.
            A = a_op.to_dense()
            residual = max(residual, float(np.linalg.norm(
                H0 @ A - A @ H0 + v.to_dense() - pv.to_dense())))
            norms.append([na, nd, n_comm])
        return {"worst_margins": worst, "defining_residual": residual,
                "kappa_norms": norms}

    def check_pairs(s: dict) -> list:
        problems = [f"{k} inequality margin {m} < -1e-12"
                    for k, m in s["worst_margins"].items() if not m >= -1e-12]
        if not s["defining_residual"] <= 1e-9:
            problems.append(f"[H0, A] + V - PV residual {s['defining_residual']}")
        return problems

    return [
        Task("swt_rep9", lambda: _swt_summary(swt_run(rep9, field9, 3)),
             _check_swt, {"v_norms": REL(1e-9), "generator_norms": REL(1e-9)}),
        Task("swt_toric2", lambda: _swt_summary(swt_run(tc2, field_tc2, 3)),
             _check_swt, {"v_norms": REL(1e-9), "generator_norms": REL(1e-9)}),
    ] + [
        Task(f"operator_pairs_{g}", functools.partial(run_pairs, pairs),
             check_pairs, {"kappa_norms": REL(1e-9)}, seeded=True)
        for g, pairs in enumerate(groups)
    ]


# ---------------------------------------------------------------- spectra

SPLITTING_SIZES = range(4, 11)


def _spectrum_summary(rep) -> dict:
    return {"eigenvalues": [float(v) for v in rep.eigenvalues],
            "cluster_size": rep.cluster_size, "gap": rep.gap}


def _check_cluster(size: int):
    def check(s: dict) -> list:
        problems = []
        if s["cluster_size"] != size:
            problems.append(f"ground cluster of {s['cluster_size']} != {size}")
        if not s["gap"] > 0.5:
            problems.append(f"gap {s['gap']} <= 0.5")
        return problems
    return check


def _spectra_tasks(rng: random.Random) -> list:
    tc3 = toric_code(3)
    rep16 = repetition_code(16, lam=2.0)
    tc2 = toric_code(2)
    for code in (tc3, rep16, tc2):
        validate(code)
    eps_split = 0.1

    def run_splitting() -> dict:
        fit = splitting_versus_size(SPLITTING_SIZES, eps_split, lam=2.0, kind="X")
        return {"slope": fit["slope"],
                "splittings": [r["splitting"] for r in fit["rows"]],
                "gaps": [r["gap"] for r in fit["rows"]]}

    def check_splitting(s: dict) -> list:
        target = math.log(eps_split)
        rel = abs(s["slope"] - target) / abs(target)
        return [] if rel <= 0.25 else [f"slope {s['slope']} is {rel:.0%} off log eps"]

    def run_toric2() -> dict:
        return {"reports": [_spectrum_summary(spectral_report(
            tc2, uniform_field_terms(tc2.n, "X"), eps, mode="dense", k=2))
            for eps in (0.05, 0.1)]}

    def check_toric2(s: dict) -> list:
        return [p for r in s["reports"] for p in _check_cluster(4)(r)]

    eig = {"eigenvalues": ABS(1e-8), "cluster_size": EXACT}
    return [
        Task("sparse_toric3", lambda: _spectrum_summary(spectral_report(
            tc3, uniform_field_terms(tc3.n, "X"), 0.1, num_eigs=8,
            mode="sparse", k=2)), _check_cluster(4), eig),
        Task("sparse_rep16", lambda: _spectrum_summary(spectral_report(
            rep16, uniform_field_terms(rep16.n, "X"), 0.3, mode="sparse")),
             _check_cluster(2), eig),
        Task("dense_splitting_sweep", run_splitting, check_splitting,
             {"slope": REL(1e-6), "splittings": ABS(1e-11), "gaps": ABS(1e-8)}),
        Task("dense_toric2", run_toric2, check_toric2, {"reports": ABS(1e-8)}),
    ]


# Workloads whose task times follow the reference kernel's as the host's
# speed changes, and are rescaled to a reference host speed (see
# refkernel.py).  The time of ``spectra``, spent in BLAS and in numpy on
# large vectors, does not follow it, and rescaling would only add noise.
RESCALED = frozenset({"certify", "swt-orders"})

BUILDERS = {"certify": _certify_tasks, "swt-orders": _swt_tasks,
             "spectra": _spectra_tasks}


def build(workload: str, seed: int) -> list:
    """Generate the workload's inputs from ``seed`` and return its tasks."""
    return BUILDERS[workload](random.Random(seed))
