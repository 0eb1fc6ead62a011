"""Benchmark of stabbench: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify|swt-orders|spectra \\
        --seed N --seconds S --trace 0|1

The workloads are closed loops: one worker process runs the workload's
task list back to back, pass after pass, for about ``--seconds`` seconds.
Each task's outputs are checked (see workloads.py).  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.
Every result is also written, with the environment it was measured in, to
``.bench_out/`` in the checkout.

End-to-end metrics:
  ref_wall_s   sum over tasks of the fastest time of each task across the
               passes of the run (a task's time includes its check); for
               ``certify`` and ``swt-orders``, the sum of each task's
               median time rescaled to a reference host speed, measured
               around each pass by refkernel.py
  setup_s      median of several set-ups, each from process start to the
               first task: interpreter start, imports, input generation,
               code construction and validation; rescaled to the
               reference host speed by the run's median kernel time
  peak_rss_mb  peak resident memory of the measuring worker process
The share of task runs that failed (failed_frac) is printed as well and
carried by the ``attempted`` and ``failed`` fields.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("certify", "swt-orders", "spectra")
# Set-ups measured in separate processes, besides the measuring worker's.
SETUP_REPEATS = 2
# BLAS threads: dense eigh takes half the time at 2 threads as at 1; more
# threads than 2 would make results depend on the machine's core count.
BLAS_THREADS = 2
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(args, mode: str, env: dict, deadline: float):
    """Start a worker; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it if it is late."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    # Without cached bytecode every set-up compiles the package the same way.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    setups = []
    for _ in range(SETUP_REPEATS):
        proc, ready = start_worker(args, "setup", env, deadline)
        finish(proc, deadline)
        setups.append(ready)
    proc, ready = start_worker(args, "run", env, deadline)
    setups.append(ready)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setups_s"] = setups
    result["env"].update(git_sha=git_sha(), nproc=os.cpu_count(),
                         affinity=len(os.sched_getaffinity(0)),
                         cpu=cpu_model(), platform=platform.platform())
    return result


def report(args, result: dict) -> dict:
    passes = result["passes"] + result["traced_passes"]
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    for i, p in enumerate(passes):
        for task, problems in p["problems"].items():
            for problem in problems:
                print(f"FAILED pass {i} {task}: {problem}", file=sys.stderr)
    if args.trace:
        units = result["per_layer"]["units"]
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["per_layer"]["metrics"].items()}
        metrics["bench.setup_s"] = {
            "value": statistics.median(result["setups_s"]), "unit": "s"}
        for problem in result["per_layer"]["count_mismatches"]:
            print(f"count mismatch: {problem}")
    else:
        metrics = {
            "ref_wall_s": {"value": result["ref_wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(result["setups_s"])
                        * result["setup_scale"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(result['passes'])} untraced and "
          f"{len(result['traced_passes'])} traced passes")
    print(f"measured: wall_s {result['wall_s']:.6g} s, setup_s "
          f"{statistics.median(result['setups_s']):.6g} s, reference kernel "
          f"{statistics.median(result['kernel_s']):.6g} s (median)")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {shown} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of "
          f"{attempted} task runs)")
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"result-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, summary=summary), fh, indent=1)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "stabbench", "__init__.py")):
        print("run.py: no src/stabbench here; run it from the root of a "
              "stabbench checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
