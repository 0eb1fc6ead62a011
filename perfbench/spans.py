"""Spans and counts per stabbench module, recorded from the benchmark side.

A package function is wrapped at every module that binds its name: the
statement ``from .matrices import pauli_transform`` gives ``quasilocal``,
``swt`` and ``acceptance`` bindings of their own, so wrapping the name in
``matrices`` alone would miss their calls.  Methods are wrapped on their
class.  Spans (name, start, end, parent, task) are kept in memory; a
span's self time is its duration minus the time of the spans directly
beneath it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_soundness(tracer, args, result):
    code = args[0]
    gens = {"X": len(code.x_type_indices()), "Z": len(code.z_type_indices()),
            "all": code.num_checks}
    for name, prof in result["sectors"].items():
        tracer.count("soundness.group_elements", prof.group_size)
        tracer.count("soundness.budget_hits", int(not prof.certified))
        tracer.count("pauli.bfs_products", prof.group_size * gens[name])


def _count_pauli_transform(tracer, args, result):
    tracer.count("matrices.pauli_transform.entries_in", args[0].size)
    tracer.count("matrices.pauli_transform.terms_out", len(result))


def _count_eigs(tracer, args, result):
    tracer.count("matrices.eigenvalues_sparse", len(result))


def _patch_of_term(tracer, args, result):
    tracer.peak("quasilocal.patch_qubits_max", len(args[0].support))


def _patch_of_region(tracer, args, result):
    tracer.peak("quasilocal.patch_qubits_max", len(args[1]))


# (module, attribute or Class.method, span name, hook after the call)
TARGETS = (
    ("stabbench.gf2", "min_weight_codeword", "gf2.min_weight_codeword", None),
    ("stabbench.gf2", "solve_affine", "gf2.solve_affine", None),
    ("stabbench.code", "code_parameters", "code.code_parameters", None),
    ("stabbench.soundness", "soundness_profile", "soundness.soundness_profile",
     _count_soundness),
    ("stabbench.soundness", "min_expansion", "soundness.min_expansion", None),
    ("stabbench.soundness", "expansion_profile", "soundness.expansion_profile",
     None),
    ("stabbench.flow", "c_iter_const", "flow.certificate", None),
    ("stabbench.flow", "epsilon_zero_search", "flow.certificate", None),
    ("stabbench.flow", "flow_trajectory", "flow.certificate", None),
    ("stabbench.flow", "check_envelope", "flow.certificate", None),
    ("stabbench.quasilocal", "decompose", "quasilocal.decompose", None),
    ("stabbench.quasilocal", "block_split", "quasilocal.block_split",
     _patch_of_term),
    ("stabbench.quasilocal", "local_projectors", "quasilocal.local_projectors",
     _patch_of_region),
    ("stabbench.quasilocal", "patch_hamiltonian", "quasilocal.patch_hamiltonian",
     _patch_of_region),
    ("stabbench.quasilocal", "commutator_qlo", "quasilocal.commutator_qlo", None),
    ("stabbench.quasilocal", "kappa_norm", "quasilocal.kappa_norm", None),
    ("stabbench.matrices", "pauli_transform", "matrices.pauli_transform",
     _count_pauli_transform),
    ("stabbench.matrices", "operator_dense", "matrices.operator_dense", None),
    ("stabbench.matrices", "payload_norm", "matrices.payload_norm", None),
    ("stabbench.matrices", "PauliMatvec.__call__", "matrices.matvec", None),
    ("stabbench.matrices", "lowest_eigenvalues_sparse",
     "matrices.lowest_eigenvalues_sparse", _count_eigs),
    ("stabbench.swt", "solve_generator", "swt.solve_generator", None),
    ("stabbench.swt", "SwtEngine.step", "swt.step", None),
    ("stabbench.swt", "swt_run", "swt.swt_run", None),
    ("stabbench.swt", "spectral_report", "swt.spectral_report", None),
    ("stabbench.swt", "local_indistinguishability_check",
     "swt.local_indistinguishability_check", None),
    ("stabbench.experiments", "splitting_versus_size",
     "experiments.splitting_versus_size", None),
)

TASK_PREFIX = "task:"


class Tracer:
    """In-memory span recorder with per-task counters."""

    def __init__(self):
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, task]
        self._open: list = []  # [span index, time of direct children]
        self.task: str | None = None
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(lambda: defaultdict(int))

    def _enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else None
        self._open.append([len(self.spans), 0.0])
        self.spans.append([name, time.perf_counter(), None, parent, self.task])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, child_s = self._open.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - child_s
        if self._open:
            self._open[-1][1] += duration
        self.counts[self.task][span[0] + ".calls"] += 1

    @contextmanager
    def task_span(self, task: str):
        """Root span of one benchmark task; counts made inside go to it."""
        self.task = task
        self._enter(TASK_PREFIX + task)
        try:
            yield
        finally:
            self._exit()
            self.task = None

    def count(self, name: str, value: int) -> None:
        self.counts[self.task][name] += value

    def peak(self, name: str, value: int) -> None:
        counts = self.counts[self.task]
        counts[name] = max(counts[name], value)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self, extra_modules=()) -> None:
        """Wrap every target at each of its bindings in the stabbench
        modules and in ``extra_modules``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "stabbench" or n.startswith("stabbench.")]
        modules += list(extra_modules)
        for module_name, attr, name, hook in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def totals(self) -> dict:
        """Counts summed over tasks (maximum for ``*_max`` counters)."""
        out: dict = defaultdict(int)
        for counts in self.counts.values():
            for name, value in counts.items():
                if name.endswith("_max"):
                    out[name] = max(out[name], value)
                else:
                    out[name] += value
        return out

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "task": t}
            for n, s, e, p, t in self.spans
        ]


CALLS_AND_SELF = (
    "gf2.min_weight_codeword", "gf2.solve_affine",
    "quasilocal.decompose", "quasilocal.block_split",
    "quasilocal.local_projectors", "quasilocal.patch_hamiltonian",
    "quasilocal.commutator_qlo", "quasilocal.kappa_norm",
    "matrices.pauli_transform", "matrices.operator_dense",
    "matrices.payload_norm", "matrices.matvec",
    "swt.solve_generator", "swt.step",
)
SELF_ONLY = (
    "code.code_parameters", "soundness.soundness_profile",
    "soundness.min_expansion", "soundness.expansion_profile",
    "flow.certificate", "matrices.lowest_eigenvalues_sparse", "swt.swt_run",
    "swt.spectral_report", "swt.local_indistinguishability_check",
    "experiments.splitting_versus_size",
)
COUNTERS = (
    ("soundness.group_elements", "count"),
    ("soundness.budget_hits", "count"),
    ("pauli.bfs_products", "count"),
    ("quasilocal.patch_qubits_max", "qubits"),
    ("matrices.pauli_transform.entries_in", "count"),
    ("matrices.pauli_transform.terms_out", "count"),
)


def layer_counts(tracer: Tracer) -> dict:
    """Per-layer counts of one traced pass, by metric name."""
    totals = tracer.totals()
    out = {f"{name}.calls": totals[f"{name}.calls"] for name in CALLS_AND_SELF}
    out.update({name: totals[name] for name, _ in COUNTERS})
    eigs = totals["matrices.eigenvalues_sparse"]
    out["matrices.matvec_per_eig"] = (
        totals["matrices.matvec.calls"] / eigs if eigs else 0.0)
    return out


def layer_self_s(tracer: Tracer) -> dict:
    """Per-layer self times of one traced pass, by metric name.

    ``bench.task.self_s`` is the time the benchmark's own code spends in
    its task spans: building summaries and checking them.
    """
    out = {f"{name}.self_s": tracer.self_s[name]
           for name in CALLS_AND_SELF + SELF_ONLY}
    out["bench.task.self_s"] = sum(
        s for name, s in tracer.self_s.items() if name.startswith(TASK_PREFIX))
    return out


def layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in CALLS_AND_SELF}
    units.update({f"{name}.self_s": "s" for name in CALLS_AND_SELF + SELF_ONLY})
    units.update(dict(COUNTERS))
    units["matrices.matvec_per_eig"] = "matvec/eig"
    units["bench.task.self_s"] = "s"
    units["bench.wall_s"] = "s"
    units["bench.kernel_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    units["trace.count_mismatches"] = "count"
    return units
