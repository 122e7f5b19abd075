"""Spans and counters at the module boundaries of the package.

The tracer replaces each named function of the package by a wrapper, in
every module namespace that holds it (`from .x import f` binds a separate
name in each importing module), and puts the originals back afterwards.
A span wrapper records (name, start, end, parent span) in memory; a count
wrapper, used for the small per-game helpers that run millions of times,
only counts calls.  Hooks read counts off the arguments and return values
(partitions scored, layer evaluations, verifications passed).

A function the package no longer has is skipped: its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = "bench"  # the benchmark's own span around the timed operations


def _partitions_with_at_most(n: int, k: int) -> int:
    """Partitions of n items into at most k classes (Stirling sum)."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return sum(row[1:])


def _arg(sig, args, kwargs, name, default=None):
    if sig is None or name not in sig.parameters:
        return default
    bound = sig.bind_partial(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments.get(name, default)


def _global_cluster(tr, sig, args, kwargs, result):
    data = _arg(sig, args, kwargs, "data")
    k = _arg(sig, args, kwargs, "max_classes")
    if data is not None and k is not None:
        key = (len(data), int(k))
        if key not in tr.partition_counts:
            tr.partition_counts[key] = _partitions_with_at_most(*key)
        tr.counts["clustering.global_cluster.partitions_scored"] += tr.partition_counts[key]


def _solve(tr, sig, args, kwargs, result):
    tr.counts["abee.profiles"] += len(result.profiles)
    tr.counts["abee.continua"] += len(result.continua)


def _dist_verify(tr, sig, args, kwargs, result):
    tr.counts["abee.dist_abee_verify.passed"] += bool(result[0])


def _search(tr, sig, args, kwargs, result):
    tr.counts["equilibrium.evaluations"] += sum(rep.evaluations for rep in result.layers)
    tr.counts["equilibrium.layers"] += len(result.layers)
    tr.counts["equilibrium.layers_completed"] += sum(bool(rep.completed) for rep in result.layers)
    tr.counts["equilibrium.candidates"] += len(result.candidates)


def _verify(tr, sig, args, kwargs, result):
    tr.counts["equilibrium.cd_abee_verify.passed"] += bool(result.ok)


def _model1_name(sig, args, kwargs):
    how = _arg(sig, args, kwargs, "clustering", "global")
    return "learning.model1_step." + ("lloyd" if how == "lloyd" else "exhaustive")


def _model1(tr, sig, args, kwargs, result):
    pert = _arg(sig, args, kwargs, "perturbation")
    n = _arg(sig, args, kwargs, "n_subjects")
    if pert is not None and n is not None and getattr(pert, "epsilon", 0.0) > 0:
        tr.counts["learning.subject_steps"] += 2 * int(n)  # both roles


# (module, attribute, metric name, "span" or "count", hook, span namer)
TARGETS = (
    ("cabee.partitions", "partition_list", "partitions.partition_list", "span", None, None),
    ("cabee.partitions", "Partition.from_assignment", "partitions.from_assignment", "span", None, None),
    ("cabee.clustering", "global_cluster", "clustering.global_cluster", "span", _global_cluster, None),
    ("cabee.clustering", "is_locally_clustered", "clustering.is_locally_clustered", "span", None, None),
    ("cabee.clustering", "dispersion", "clustering.dispersion", "span", None, None),
    ("cabee.clustering", "divergence_eval", "clustering.divergence_eval", "count", None, None),
    ("cabee.abee", "dist_abee_solve_detailed", "abee.dist_abee_solve_detailed", "span", _solve, None),
    ("cabee.abee", "dist_abee_verify", "abee.dist_abee_verify", "span", _dist_verify, None),
    ("cabee.abee", "consistent_expectation", "abee.consistent_expectation", "count", None, None),
    ("cabee.env", "pure_payoffs_against", "env.pure_payoffs_against", "count", None, None),
    ("cabee.equilibrium", "cd_abee_search", "equilibrium.cd_abee_search", "span", _search, None),
    ("cabee.equilibrium", "cd_abee_verify", "equilibrium.cd_abee_verify", "span", _verify, None),
    ("cabee.learning", "model1_step", "learning.model1_step", "span", _model1, _model1_name),
    ("cabee.learning", "model2_step", "learning.model2_step", "span", None, None),
    ("cabee.learning", "steady_state_check", "learning.steady_state_check", "span", None, None),
    ("cabee.applications.beauty", "best_contiguous_dispersion",
     "applications.beauty.best_contiguous_dispersion", "span", None, None),
    ("cabee.applications.beauty", "self_consistent_contiguous",
     "applications.beauty.self_consistent_contiguous", "span", None, None),
    ("cabee.applications.matching_pennies", "two_class_refutation",
     "applications.matching_pennies.two_class_refutation", "span", None, None),
    ("cabee.applications.monitoring", "solve_monitoring_cdabee",
     "applications.monitoring.solve_monitoring_cdabee", "span", None, None),
    ("cabee.cli", "run_scenario", "cli.run_scenario", "span", None, None),
)

# span names reported with `.calls` and `.self_s`, in layer order
SPAN_METRICS = (
    "partitions.partition_list",
    "partitions.from_assignment",
    "clustering.global_cluster",
    "clustering.is_locally_clustered",
    "clustering.dispersion",
    "abee.dist_abee_solve_detailed",
    "abee.dist_abee_verify",
    "equilibrium.cd_abee_search",
    "equilibrium.cd_abee_verify",
    "learning.model1_step.exhaustive",
    "learning.model1_step.lloyd",
    "learning.model2_step",
    "learning.steady_state_check",
    "applications.beauty.best_contiguous_dispersion",
    "applications.beauty.self_consistent_contiguous",
    "applications.matching_pennies.two_class_refutation",
    "applications.monitoring.solve_monitoring_cdabee",
    "cli.run_scenario",
)
COUNT_METRICS = (
    "clustering.global_cluster.partitions_scored",
    "clustering.divergence_eval.calls",
    "abee.profiles",
    "abee.continua",
    "abee.consistent_expectation.calls",
    "env.pure_payoffs_against.calls",
    "equilibrium.evaluations",
    "equilibrium.candidates",
    "learning.subject_steps",
)
# ratio name -> (numerator count, denominator: a count or a span's calls); 0 without calls
RATIO_METRICS = {
    "abee.dist_abee_verify.pass_ratio": ("abee.dist_abee_verify.passed", "abee.dist_abee_verify"),
    "equilibrium.layers_completed_ratio": ("equilibrium.layers_completed", "equilibrium.layers"),
    "equilibrium.cd_abee_verify.pass_ratio": ("equilibrium.cd_abee_verify.passed", "equilibrium.cd_abee_verify"),
}

# the source files behind each layer's `src_lines`
LAYER_SOURCES = {
    "partitions": ("partitions.py",),
    "clustering": ("clustering.py",),
    "abee": ("abee.py",),
    "env": ("env.py",),
    "equilibrium": ("equilibrium.py",),
    "learning": ("learning.py",),
    "applications": ("applications",),
    "cli": ("cli.py",),
}


def src_lines(package_dir: Path) -> dict[str, int]:
    """Non-blank source lines per layer (0 for a module that is gone)."""
    out = {}
    for layer, names in LAYER_SOURCES.items():
        total = 0
        for name in names:
            path = package_dir / name
            files = sorted(path.glob("*.py")) if path.is_dir() else [path] if path.exists() else []
            for f in files:
                total += sum(1 for line in f.read_text().splitlines() if line.strip())
        out[f"{layer}.src_lines"] = total
    return out


class Tracer:
    """Span recorder for one traced repetition of a workload."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.partition_counts: dict = {}
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def root(self, fn):
        """Run fn inside the benchmark's own span; returns (result, seconds)."""
        idx = self._open(ROOT)
        try:
            result = fn()
        finally:
            self._close(idx)
        return result, self.span_end[idx] - self.span_start[idx]

    def _span_wrapper(self, orig, name, hook, namer, sig):
        def wrapper(*args, **kwargs):
            idx = self._open(namer(sig, args, kwargs) if namer else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, sig, args, kwargs, result)
            return result

        return functools.wraps(orig)(wrapper)

    def _count_wrapper(self, orig, name):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return functools.wraps(orig)(wrapper)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cabee" or n.startswith("cabee.")]
        for mod_name, attr, name, kind, hook, namer in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
            except ImportError:
                continue
            cls_name, _, fn_name = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            orig = getattr(holder, fn_name, None) if holder is not None else None
            if orig is None:
                continue
            try:
                sig = inspect.signature(orig)
            except (TypeError, ValueError):
                sig = None
            if kind == "span":
                wrapper = self._span_wrapper(orig, name, hook, namer, sig)
            else:
                wrapper = self._count_wrapper(orig, name)
            if cls_name:
                raw = holder.__dict__[fn_name]
                new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
                setattr(holder, fn_name, new)
                self._undo.append((holder, fn_name, raw))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, orig = self._undo.pop()
            setattr(holder, key, orig)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its child spans cover."""
        if self.stack != [-1]:
            raise RuntimeError("spans still open")
        start = np.asarray(self.span_start)
        dur = np.asarray(self.span_end) - start
        parent = np.asarray(self.span_parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        per_name = np.bincount(np.asarray(self.span_name, dtype=np.int64), weights=dur - covered,
                               minlength=len(self.name_ids))
        return {name: float(per_name[i]) for name, i in self.name_ids.items()}

    def span_calls(self) -> Counter:
        ids = np.bincount(np.asarray(self.span_name, dtype=np.int64), minlength=len(self.name_ids))
        return Counter({name: int(ids[i]) for name, i in self.name_ids.items()})

    def write(self, path: Path) -> None:
        """Write every span (name, start, end, parent) to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(self.name_ids, key=self.name_ids.get)
        start = np.asarray(self.span_start)
        np.savez(
            path,
            names=np.asarray(names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            start=start - (start[0] if len(start) else 0.0),
            end=np.asarray(self.span_end) - (start[0] if len(start) else 0.0),
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the recorded repetition: name -> (value, unit)."""
        calls = self.span_calls()
        own = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (own.get(name, 0.0), "s")
        for name in COUNT_METRICS:
            out[name] = (self.counts.get(name, 0), "count")
        for name, (num, den) in RATIO_METRICS.items():
            total = self.counts.get(den, 0) or calls.get(den, 0)
            out[name] = (self.counts.get(num, 0) / total if total else 0.0, "ratio")
        out["trace.bench_self_s"] = (own.get(ROOT, 0.0), "s")
        return out

