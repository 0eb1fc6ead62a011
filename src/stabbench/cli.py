"""Command-line driver: build codes, certify soundness, evaluate flow
bounds, run SWT orders, sweep spectra, and execute the acceptance suite.

Exit codes: 0 success, 2 usage error, 3 numeric failure, 4 acceptance
failure.  JSON reports embed their full input specification; grid sweeps
write CSV.  ``spectrum`` alone takes --format json|csv, and runs its
epsilon grid in one loop, in increasing epsilon; --seed is taken by the
commands that draw random numbers: build, swt, spectrum and suite.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import __version__
from .acceptance import run_all
from .code import code_parameters, validate
from .experiments import (
    PERTURBATION_FAMILIES,
    build_code,
    code_from_dict,
    code_to_dict,
    perturbation_terms,
)
from .flow import (
    FlowConstants,
    c1_closed_form,
    c_iter_const,
    check_envelope,
    epsilon_zero_search,
    flow_trajectory,
    stability_certificate,
)
from .gf2 import SEARCH_BUDGET
from .matrices import DENSE_MAX_QUBITS
from .soundness import expansion_profile, soundness_profile
from .swt import spectral_report, swt_run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_ACCEPTANCE = 4


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(rows: list[dict], path: str | None) -> None:
    if not rows:
        return
    fields = list(rows[0].keys())
    if path:
        fh = open(path, "w", newline="")
    else:
        fh = sys.stdout
    writer = csv.DictWriter(fh, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if path:
        fh.close()


def _load_code(path: str):
    with open(path) as fh:
        data = json.load(fh)
    return code_from_dict(data), data.get("meta", {})


def cmd_build(args) -> int:
    kw = {
        "n": args.n, "L": args.L, "lam": args.lam, "left": args.left,
        "right": args.right, "deg_bit": args.deg_bit,
        "deg_check": args.deg_check, "seed": args.seed,
        "cyclic": args.cyclic,
    }
    code, meta = build_code(args.family, **kw)
    validate(code)
    payload = code_to_dict(code, meta, w_max=args.w_max)
    _write_json(payload, args.out)
    p = payload["parameters"]
    cert = "exact" if p["certified"] else f">= {p['d']} (search capped)"
    print(
        f"[[{p['n']}, {p['k']}, {p['d']}]] distance {cert}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_params(args) -> int:
    code, meta = _load_code(args.code)
    params = code_parameters(code, w_max=args.w_max)
    _write_json({"input": {"code": meta, "w_max": args.w_max},
                 "parameters": params.as_dict()}, args.out)
    return EXIT_OK


def cmd_soundness(args) -> int:
    code, meta = _load_code(args.code)
    prof = soundness_profile(code, m_max=args.m_max, budget=args.budget)
    exp = expansion_profile(code, size_max=args.size_max)
    payload = {
        "input": {"code": meta, "m_max": args.m_max,
                  "size_max": args.size_max, "budget": args.budget},
        "soundness": {
            name: p.as_dict() for name, p in prof["sectors"].items()
        },
        "combined_rule": prof["combined_rule"],
        "expansion": exp.as_dict(),
    }
    _write_json(payload, args.out)
    if any(not p.certified for p in prof["sectors"].values()):
        print("warning: soundness sweep truncated at --budget elements: "
              "lower estimates, not certified", file=sys.stderr)
    if not exp.certified:
        print("warning: expansion profile truncated at the search budget: "
              f"subset sizes up to {max(exp.min_weight_by_size, default=0)} "
              "only, not certified", file=sys.stderr)
    return EXIT_OK


def cmd_flow(args) -> int:
    consts = FlowConstants(
        kappa1=args.kappa1, delta=args.delta, c_f_prime=args.cf_prime,
        c_f_dblprime=args.cf_dblprime, alpha=args.alpha,
        c_tilde_f_dblprime=args.ctf_dblprime,
    )
    try:
        ci = c_iter_const(consts)
        e0 = epsilon_zero_search(consts, m_check=args.m_check,
                                 c_iter=ci.value)
    except (RuntimeError, OverflowError) as exc:
        print(f"infeasible flow constants: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    epsilon = args.epsilon if args.epsilon is not None else e0.value
    c1 = args.c1 if args.c1 is not None else c1_closed_form(consts, ci.value)
    cert = stability_certificate(
        consts, n=args.n, d_s=args.ds, epsilon=epsilon, c1=c1,
        c_d=args.cd, m_check=args.m_check,
    )
    m_traj = min(args.orders, 200)
    traj = flow_trajectory(epsilon, consts, m_traj)
    # The envelope is stated for eps <= eps0 only (and overflows above it).
    envelope_ok = None if epsilon > e0.value else all(
        all(v for k, v in row.items() if k != "m")
        for row in check_envelope(traj, consts, ci.value, epsilon))
    payload = {
        "input": {
            "kappa1": args.kappa1, "delta": args.delta,
            "c_f_prime": args.cf_prime, "c_f_dblprime": args.cf_dblprime,
            "alpha": args.alpha, "c_tilde_f_dblprime": args.ctf_dblprime,
            "n": args.n, "d_s": args.ds, "epsilon": epsilon, "c1": c1,
            "c_d": args.cd,
        },
        "c_iter": {"value": ci.value, "sum_arm": ci.sum_arm,
                   "floor_arm": ci.floor_arm,
                   "truncation_index": ci.truncation_index},
        "epsilon0": {"value": e0.value, "cap": e0.cap,
                     "tail_decreasing": e0.tail_decreasing},
        "certificate": cert.as_dict(),
        "envelope_ok": envelope_ok,
    }
    _write_json(payload, args.out)
    if args.trajectory:
        rows = [st.as_row() for st in traj]
        _write_csv(rows, args.trajectory)
    return EXIT_OK


def cmd_swt(args) -> int:
    code, meta = _load_code(args.code)
    if code.n > DENSE_MAX_QUBITS:
        print(f"SWT engine requires n <= {DENSE_MAX_QUBITS}", file=sys.stderr)
        return EXIT_USAGE
    terms = perturbation_terms(args.perturbation, code, seed=args.seed)
    scaled = [(args.epsilon * c, p) for c, p in terms]
    run = swt_run(code, scaled, m_target=args.orders, d_s=args.ds,
                  kappa1=args.kappa1)
    payload = {
        "input": {"code": meta, "perturbation": args.perturbation,
                  "epsilon": args.epsilon, "orders": args.orders,
                  "d_s": args.ds, "kappa1": args.kappa1, "seed": args.seed},
        "v_norms": run.v_norms,
        "v_tilde_norms": run.v_tilde_norms,
        "generator_norms": run.generator_norms,
        "schedule_sup": run.schedule_sup,
        "conjugation_residuals": run.conjugation_residuals,
        "unitarity_defect": run.unitarity_defect(),
        "garbage_norm": run.garbage_norm(),
        "diverging": run.diverging,
        "cosets": {"frame": run.frame.name, "blocks": len(run.u_blocks),
                   "block_qubits": run.frame.r,
                   "dtype": run.u_blocks.dtype.name},
    }
    _write_json(payload, args.out)
    if max(run.conjugation_residuals, default=0.0) > 1e-8:
        print("conjugation identity exceeded tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_spectrum(args) -> int:
    code, meta = _load_code(args.code)
    terms = perturbation_terms(args.perturbation, code, seed=args.seed)
    eps_values = [float(tok) for tok in args.eps.split(",")]
    if args.swt_orders and (args.mode != "dense"
                            or code.n > DENSE_MAX_QUBITS):
        print("--swt-orders requires dense mode at n <= "
              f"{DENSE_MAX_QUBITS}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for eps in sorted(eps_values):
        run = None
        if args.swt_orders:
            run = swt_run(code, [(eps * c, p) for c, p in terms],
                          m_target=args.swt_orders)
        try:
            r = spectral_report(code, terms, eps, num_eigs=args.num_eigs,
                                mode=args.mode, seed=args.seed,
                                swt_result=run)
        except ArithmeticError as exc:
            # A Lanczos eigenpair past the residual gate, or a solve past
            # the restart cap.  A ValueError (a size refusal, k out of
            # range) reaches main as a usage error.
            print(f"eigensolver failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        row = {
            "epsilon": r.epsilon,
            "cluster_size": r.cluster_size,
            "splitting": r.splitting,
            "gap": r.gap,
            "splitting_2k": r.splitting_2k,
            "gap_after_2k": r.gap_after_2k,
        }
        if run is not None:
            row["projector_distance"] = r.projector_distance
            for m, v in enumerate(run.v_norms, start=1):
                row[f"v_{m}"] = v
        rows.append(row)
    if args.format == "csv":
        _write_csv(rows, args.out)
    else:
        _write_json(
            {
                "input": {"code": meta, "perturbation": args.perturbation,
                          "eps_grid": eps_values, "mode": args.mode,
                          "seed": args.seed},
                "rows": rows,
            },
            args.out,
        )
    return EXIT_OK


def cmd_suite(args) -> int:
    selection = args.only.split(",") if args.only else None
    t0 = time.time()
    results = run_all(selection, seed=args.seed if args.seed else None)
    payload = {
        "input": {"only": args.only, "seed": args.seed},
        "criteria": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
        "total_runtime_s": time.time() - t0,
    }
    for r in results:
        print(r.line())
    _write_json(payload, args.out)
    return EXIT_OK if payload["all_passed"] else EXIT_ACCEPTANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabbench",
        description="stabilizer-code stability workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("build", help="construct a code family")
    p.add_argument("--family", required=True,
                   choices=("repetition", "cycle", "toric", "ising-toric",
                            "hgp", "hgp-repetition", "random-biregular"))
    p.add_argument("--n", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--left", help="alist file for the first classical code")
    p.add_argument("--right", help="alist file for the second classical code")
    p.add_argument("--deg-bit", type=int, dest="deg_bit")
    p.add_argument("--deg-check", type=int, dest="deg_check")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--w-max", type=int, default=None, dest="w_max")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("params", help="recompute code parameters")
    p.add_argument("code", help="code artifact JSON")
    p.add_argument("--w-max", type=int, default=None, dest="w_max")
    common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("soundness", help="soundness / expansion profiles")
    p.add_argument("code")
    p.add_argument("--m-max", type=int, default=None, dest="m_max")
    p.add_argument("--size-max", type=int, default=4, dest="size_max")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    common(p)
    p.set_defaults(func=cmd_soundness)

    p = sub.add_parser("flow", help="flow bounds and stability certificate")
    p.add_argument("--kappa1", type=float, default=1.0)
    p.add_argument("--delta", type=int, default=5)
    p.add_argument("--cf-prime", type=float, default=1.0, dest="cf_prime")
    p.add_argument("--cf-dblprime", type=float, default=2.0,
                   dest="cf_dblprime")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--ctf-dblprime", type=float, default=2.0,
                   dest="ctf_dblprime")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--ds", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=None,
                   help="defaults to the computed epsilon0")
    p.add_argument("--c1", type=float, default=None,
                   help="defaults to the closed-form constant")
    p.add_argument("--cd", type=float, default=None,
                   help="distance growth rate d_s = cd log n, if known")
    p.add_argument("--orders", type=int, default=200)
    p.add_argument("--m-check", type=int, default=10000, dest="m_check")
    p.add_argument("--trajectory", default=None,
                   help="also write the flow trajectory CSV here")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("swt", help="run iterated transformation orders")
    p.add_argument("code")
    p.add_argument("--perturbation", choices=PERTURBATION_FAMILIES,
                   default="x-field")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--orders", type=int, default=3)
    p.add_argument("--ds", type=int, default=None)
    p.add_argument("--kappa1", type=float, default=1.0)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_swt)

    p = sub.add_parser("spectrum", help="spectral sweep over an eps grid")
    p.add_argument("code")
    p.add_argument("--perturbation", choices=PERTURBATION_FAMILIES,
                   default="x-field")
    p.add_argument("--eps", default="0.0,0.02,0.05,0.1",
                   help="comma-separated epsilon grid")
    p.add_argument("--mode", choices=("dense", "sparse"), default="dense")
    p.add_argument("--num-eigs", type=int, default=None, dest="num_eigs")
    p.add_argument("--swt-orders", type=int, default=0, dest="swt_orders",
                   help="also run this many transformation orders per point "
                        "and add per-order norms and projector distances")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--only", default=None,
                   help="comma-separated criteria or groups")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
