"""Perturbation families, splitting sweeps, and code artifact serialization.

Everything here is seed-deterministic.
"""

from __future__ import annotations

import random

from .code import StabilizerCode, code_parameters
from .constructors import (
    BipartiteTanner,
    SimpleGraph,
    hypergraph_product,
    ising_code,
    ising_toric,
    load_alist,
    random_biregular_classical,
    toric_code,
    toric_face_masks,
)
from .pauli import PauliString
from .swt import spectral_report


def uniform_field_terms(n: int, kind: str):
    """sum_i P_i: per-qubit strength 1, scaled by epsilon at use."""
    return [(1.0, PauliString.single(n, kind, i)) for i in range(n)]


def two_body_mix_terms(n: int, seed: int):
    """(1/n) sum_{i<j} u_ij (X_i X_j + Z_i Z_j) with u_ij uniform in [-1, 1]."""
    rng = random.Random(seed)
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            u = rng.uniform(-1.0, 1.0)
            terms.append((u / n, PauliString(n, (1 << i) | (1 << j), 0)))
            terms.append((u / n, PauliString(n, 0, (1 << i) | (1 << j))))
    return terms


def plaquette_field_terms(L: int):
    """sum_f B_f over the faces of the L x L torus: per-face strength 1,
    scaled by epsilon at use (the plaquette analogue of uniform_field_terms).
    """
    n = 2 * L * L
    return [(1.0, PauliString(n, 0, mask)) for mask in toric_face_masks(L)]


PERTURBATION_FAMILIES = ("x-field", "z-field", "two-body", "plaquette-sum")


def perturbation_terms(family: str, code: StabilizerCode, seed: int = 0,
                       L: int | None = None):
    if family == "x-field":
        return uniform_field_terms(code.n, "X")
    if family == "z-field":
        return uniform_field_terms(code.n, "Z")
    if family == "two-body":
        return two_body_mix_terms(code.n, seed)
    if family == "plaquette-sum":
        if L is None:
            L = _torus_side(code.n)
        return [(c / (2 * L * L), p) for c, p in plaquette_field_terms(L)]
    raise ValueError(f"unknown perturbation family {family!r}")


def _torus_side(n: int) -> int:
    L = round((n / 2) ** 0.5)
    if 2 * L * L != n:
        raise ValueError("code size is not a torus; pass L explicitly")
    return L


def splitting_versus_size(sizes, epsilon: float, lam: float = 2.0,
                          kind: str = "X"):
    """log-splitting of the transverse(-or-longitudinal)-field repetition
    chain versus size, for the distance-exponential suites.

    lam = 2 matches the bare Ising energy scale (domain walls cost 2), under
    which the ground-pair splitting scales as epsilon^n.
    """
    import numpy as np

    rows = []
    for n in sizes:
        code = ising_code(SimpleGraph.path(n), lam=lam)
        terms = uniform_field_terms(n, kind)
        rep = spectral_report(code, terms, epsilon, mode="dense", k=1)
        rows.append({"n": n, "splitting": rep.splitting_2k,
                     "gap": rep.gap_after_2k})
    xs = np.array([r["n"] for r in rows], dtype=float)
    ys = np.array([np.log(r["splitting"]) for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return {"rows": rows, "slope": slope}


# The size arguments of each family, as named by the ``build`` flags.
_SIZES = {"repetition": "n", "cycle": "n", "toric": "L", "ising-toric": "L",
          "hgp": "left", "hgp-repetition": "n",
          "random-biregular": "n deg_bit deg_check"}


def build_code(family: str, **kw) -> tuple[StabilizerCode, dict]:
    """Construct a code family by name; returns (code, provenance dict).
    Raises ValueError naming the flags of missing size arguments."""
    missing = [f"--{k.replace('_', '-')}"
               for k in _SIZES.get(family, "").split() if kw.get(k) is None]
    if missing:
        raise ValueError(f"family {family!r} needs {', '.join(missing)}")
    meta = {"family": family, **{k: v for k, v in kw.items() if v is not None}}
    if family == "repetition":
        code = ising_code(SimpleGraph.path(kw["n"]), lam=kw.get("lam") or 1.0)
    elif family == "cycle":
        code = ising_code(SimpleGraph.cycle(kw["n"]), lam=kw.get("lam") or 1.0)
    elif family == "toric":
        code = toric_code(kw["L"])
    elif family == "ising-toric":
        code = ising_toric(kw["L"])
    elif family == "hgp":
        left = load_alist(kw["left"])
        right = load_alist(kw["right"]) if kw.get("right") else left
        code = hypergraph_product(left, right)
    elif family == "hgp-repetition":
        rep = BipartiteTanner.repetition(kw["n"], cyclic=kw.get("cyclic", False))
        code = hypergraph_product(rep, rep)
    elif family == "random-biregular":
        tanner = random_biregular_classical(
            kw["n"], kw["deg_bit"], kw["deg_check"], kw.get("seed") or 0
        )
        code = tanner.to_code()
    else:
        raise ValueError(f"unknown code family {family!r}")
    return code, meta


def code_to_dict(code: StabilizerCode, meta: dict | None = None,
                 w_max: int | None = None) -> dict:
    params = code_parameters(code, w_max=w_max)
    return {
        "n": code.n,
        "kind": code.kind,
        "checks": [
            {"pauli": c.label(), "lambda": lam}
            for c, lam in zip(code.checks, code.lambdas)
        ],
        "parameters": params.as_dict(),
        "meta": meta or {},
    }


def code_from_dict(data: dict) -> StabilizerCode:
    checks = [PauliString.from_label(row["pauli"]) for row in data["checks"]]
    lambdas = [row["lambda"] for row in data["checks"]]
    return StabilizerCode.from_checks(data["n"], checks, lambdas,
                                      kind=data.get("kind"))
