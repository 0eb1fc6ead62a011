"""One benchmark process: set up a workload, run its task list, report.

``run.py`` starts this script from the root of a checkout:

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|record
                                [--seconds S] [--trace 0|1]

It imports stabbench from the checkout's ``src`` directory, builds the
workload's inputs (the set-up) and prints ``READY``.  In ``setup`` mode it
stops there.  In ``run`` mode it runs the task list back to back in passes
until the next pass would end after ``--seconds``, and prints one JSON line
with every task's time and check result per pass.  With ``--trace 1``
untraced and traced passes alternate, for the per-layer metrics and the
tracing overhead.  ``record`` mode replaces the workload's entries in
``reference.json`` with the outputs and counts of one untraced and one
traced pass at the default seed; run it only on a commit whose outputs
have been checked.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext


def _import_package():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "stabbench", "__init__.py")):
        raise SystemExit(f"no stabbench package under {src}")
    sys.path.insert(0, src)
    import stabbench

    if not os.path.abspath(stabbench.__file__).startswith(src + os.sep):
        raise SystemExit(f"stabbench was imported from {stabbench.__file__}")


_import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import refkernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Counts that must repeat exactly between runs of the same code.
REPEATED_COUNTS = (
    "matrices.matvec.calls",
    "matrices.pauli_transform.entries_in",
    "quasilocal.block_split.calls",
    "soundness.group_elements",
)
# The same counts as measured for the ROADMAP baseline.
BASELINE_COUNTS = {
    "sparse_toric3": {"matrices.matvec.calls": 533},
    "soundness_toric4": {"soundness.group_elements": 2 * 32768},
}


def run_pass(tasks, seed: int, reference: dict, tracer=None) -> dict:
    """Run every task once; time it with its check and record problems."""
    times, problems, summaries = {}, {}, {}
    for task in tasks:
        start = time.perf_counter()
        try:
            with tracer.task_span(task.name) if tracer else nullcontext():
                summary = task.run()
                found = workloads.verify(task, summary, seed, reference)
        except Exception:
            summary, found = None, [traceback.format_exc()]
        times[task.name] = time.perf_counter() - start
        summaries[task.name] = summary
        if found:
            problems[task.name] = found
    return {"times": times, "problems": problems, "summaries": summaries}


def task_counts(tracer) -> dict:
    return {
        task: {name: counts[name] for name in REPEATED_COUNTS if counts[name]}
        for task, counts in tracer.counts.items() if task is not None
    }


def count_mismatches(counts: dict, seed: int, tasks, reference: dict) -> list:
    """Differences from the recorded and the ROADMAP baseline counts."""
    out = []
    recorded = reference.get("counts", {})
    for task in tasks:
        if task.seeded and seed != workloads.DEFAULT_SEED:
            continue
        got, want = counts.get(task.name, {}), recorded.get(task.name, {})
        if got != want:
            out.append(f"{task.name}: counts {got} != recorded {want}")
    names = {t.name for t in tasks}
    for task, want in BASELINE_COUNTS.items():
        got = {k: counts.get(task, {}).get(k, 0) for k in want}
        if task in names and got != want:
            out.append(f"{task}: counts {got} != ROADMAP baseline {want}")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def wall(passes: list) -> float:
    """Sum over tasks of each task's fastest time across passes.

    Other tenants of a shared machine slow single task runs by up to 1.7x
    for seconds at a time; the fastest of several runs is the estimate
    that such bursts disturb least.
    """
    names = passes[0]["times"]
    return sum(min(p["times"][n] for p in passes) for n in names)


def ref_wall(passes: list, workload: str) -> float:
    """Task time at the host speed where the kernel takes REFERENCE_S.

    For a workload in ``workloads.RESCALED`` each pass's task times are
    scaled by REFERENCE_S over the mean of the kernel runs just before and
    just after the pass, and the result is the sum over tasks of each
    task's median scaled time.  A host slowed by other tenants slows the
    kernel and the pass alike, which cancels.  Other workloads keep
    ``wall``.
    """
    if workload not in workloads.RESCALED:
        return wall(passes)
    scale = [refkernel.REFERENCE_S / statistics.mean(p["kernel_s"])
             for p in passes]
    return sum(statistics.median(p["times"][n] * k
                                 for p, k in zip(passes, scale))
               for n in passes[0]["times"])


def measure(tasks, args, reference: dict) -> dict:
    """Run passes for ``args.seconds``; with tracing, alternate untraced
    and traced passes so that both sample the same stretch of time."""
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    traced_layers = []
    refkernel.warm_up()
    kernel = [refkernel.kernel_s()]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracing = tracer is not None and len(traced) < len(untraced)
        if tracing:
            tracer.install([workloads])
            tracer.reset()
        result = run_pass(tasks, args.seed, reference,
                          tracer if tracing else None)
        del result["summaries"]
        kernel.append(refkernel.kernel_s())
        result["kernel_s"] = kernel[-2:]
        (traced if tracing else untraced).append(result)
        if tracing:
            tracer.uninstall()
            traced_layers.append((spans.layer_counts(tracer),
                                  spans.layer_self_s(tracer),
                                  task_counts(tracer)))
            if len(traced) == 1:
                first_spans = tracer.span_records()
        now = time.perf_counter()
        elapsed, last = now - start, now - pass_start
        done = tracer is None or bool(traced)
        if done and elapsed + last > args.seconds:
            break
    out = {"passes": untraced, "traced_passes": traced, "kernel_s": kernel,
           "wall_s": wall(untraced),
           "ref_wall_s": ref_wall(untraced, args.workload),
           # Set-up is interpreter start, imports and pure-Python input
           # generation, whose time follows the kernel's.
           "setup_scale": refkernel.REFERENCE_S / statistics.median(kernel),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment()}
    if tracer is not None:
        _write_spans(first_spans, args)
        out["per_layer"] = _per_layer(traced_layers, traced, untraced, tasks,
                                      args.seed, reference)
        out["per_layer"]["metrics"].update({
            "bench.wall_s": out["wall_s"],
            "bench.kernel_s": statistics.median(kernel)})
    return out


def _per_layer(traced_layers, traced, untraced, tasks, seed, reference) -> dict:
    counts, _, per_task = traced_layers[0]
    metrics = dict(counts)
    for name in traced_layers[0][1]:
        metrics[name] = statistics.median(s[name] for _, s, _ in traced_layers)
    mismatches = count_mismatches(per_task, seed, tasks, reference)
    for i, (later, _, _) in enumerate(traced_layers[1:], start=2):
        if later != counts:
            mismatches.append(f"traced pass {i} counts differ from pass 1")
    overhead = wall(traced) - wall(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / wall(untraced)
    metrics["trace.count_mismatches"] = len(mismatches)
    return {"metrics": metrics, "units": spans.layer_units(),
            "count_mismatches": mismatches}


def _write_spans(records: list, args) -> None:
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out",
                        f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(records, fh)


def record(tasks) -> None:
    seed = workloads.DEFAULT_SEED
    result = run_pass(tasks, seed, {})
    tracer = spans.Tracer()
    tracer.install([workloads])
    run_pass(tasks, seed, {}, tracer)
    reference = workloads.load_reference()
    reference["seed"] = seed
    reference.setdefault("tasks", {}).update(result["summaries"])
    reference.setdefault("counts", {}).update(task_counts(tracer))
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    broken = {t.name: t.check(result["summaries"][t.name]) for t in tasks}
    print(json.dumps({"invariant_problems": {k: v for k, v in broken.items() if v}}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "record"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "record":
        args.seed = workloads.DEFAULT_SEED
    tasks = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "record":
        record(tasks)
        return 0
    print(json.dumps(measure(tasks, args, workloads.load_reference())),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
