"""Layer-boundary spans for the traced benchmark run.

A :class:`Recorder` replaces the public functions of each fracra layer, as
each caller looks them up, with wrappers that record a span (name, start,
end, parent span, instance id) and pass the return value to hooks.  Spans
stay in memory and are written out once, at the end of the run.  With spans
off, only the wrappers that feed hooks are installed, so an untraced run
pays for nothing but its output checks.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

import numpy as np

import fracra.aaa as aaa
import fracra.experiments as experiments
import fracra.krylov as krylov
import fracra.operator as operator
import fracra.pencil as pencil

from oracle import PeriodicInterfaceSystem

# (owner, attribute, span name).  A name listed under several owners is the
# same layer function reached through different import bindings.
TARGETS = (
    (aaa, "sample_grid", "functions.sample_grid"),
    (aaa, "aaa_fit", "aaa.aaa_fit"),
    (aaa, "to_partial_fraction", "aaa.to_partial_fraction"),
    (aaa, "fit_fractional_sum", "aaa.fit_fractional_sum"),
    (experiments, "fit_fractional_sum", "aaa.fit_fractional_sum"),
    (aaa, "fit_for_pencil", "aaa.fit_for_pencil"),
    (experiments, "fit_for_pencil", "aaa.fit_for_pencil"),
    (np.linalg, "svd", "aaa.svd"),
    (pencil, "assemble_interface", "pencil.assemble_interface"),
    (experiments, "assemble_interface", "pencil.assemble_interface"),
    (experiments, "dense_eigendecomposition", "pencil.dense_eigendecomposition"),
    (operator.RationalOperator, "__init__", "operator.build"),
    (operator.RationalOperator, "apply", "operator.apply"),
    (operator, "splu", "operator.splu"),
    (experiments, "spd_audit", "operator.spd_audit"),
    (krylov, "minres", "krylov.minres"),
    (experiments, "minres", "krylov.minres"),
    (experiments, "pcg", "krylov.pcg"),
    (PeriodicInterfaceSystem, "apply", "krylov.system"),
    (experiments, "build_interface_system_dense", "experiments.build_interface_system_dense"),
    (experiments, "solve_interface", "experiments.solve_interface"),
    (experiments, "pole_sweep", "experiments.pole_sweep"),
    (experiments, "robustness_sweep", "experiments.robustness_sweep"),
)

# Spans recorded only while a span of the given name is open: the SVD is a
# dependency boundary of the fitter, not of every numpy caller.
WITHIN = {"aaa.svd": "aaa.aaa_fit"}

SPAN_FIELDS = ("name", "start", "end", "parent", "instance")


class Recorder:
    """Installs layer wrappers for the duration of :meth:`active`."""

    def __init__(self, spans):
        self.record_spans = spans
        self.spans = []  # [name, start, end, parent index or -1, instance]
        self.instance = 0
        self.hooks = defaultdict(list)  # span name -> [f(instance, args, result)]
        self.markers = set()  # span names whose call starts a new instance
        self.tally = defaultdict(float)
        self.samples = defaultdict(list)
        self.origin = time.perf_counter()
        self._open = []
        self._undo = []

    def on_return(self, name, hook):
        self.hooks[name].append(hook)

    @contextlib.contextmanager
    def active(self, hooks=(), markers=()):
        """Wrap the layers for this block; ``hooks`` are (name, function) pairs
        and ``markers`` span names, both dropped again when the block ends."""
        for name, hook in hooks:
            self.hooks[name].append(hook)
        self.markers = set(markers)
        for owner, attr, name in TARGETS:
            if self.record_spans or name in self.hooks or name in self.markers:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name))
                self._undo.append((owner, attr, original))
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)
            for name, hook in hooks:
                self.hooks[name].remove(hook)

    def _wrap(self, original, name):
        hooks = self.hooks[name]
        marker = name in self.markers
        within = WITHIN.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if marker:
                self.instance += 1
            if not self.record_spans or (within and not self._inside(within)):
                result = original(*args, **kwargs)
            else:
                span = [name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else -1, self.instance]
                self._open.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._open.pop()
            for hook in hooks:
                hook(self.instance, args, result)
            return result

        return wrapper

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._open)

    def trace_record(self):
        """Spans as rows of SPAN_FIELDS, times relative to the recorder's start."""
        return {
            "span_fields": list(SPAN_FIELDS),
            "spans": [[n, s - self.origin, e - self.origin, p, i]
                      for n, s, e, p, i in self.spans],
        }


def install_layer_hooks(rec):
    """Counts taken at the layer boundaries for the per-layer metrics."""
    def greedy(_inst, _args, form):
        rec.tally["aaa.greedy_steps"] += len(form.error_history)

    def applied_form(_inst, _args, pf):
        rec.samples["aaa.poles"].append(pf.degree)
        rec.tally["aaa.positive_poles"] += int(np.count_nonzero(pf.poles.real > 0))
        if max(pf.fit_error, pf.validation_error) > pf.tolerance:
            rec.tally["aaa.tol_miss"] += 1

    def factor(_inst, _args, lu):
        rec.tally["operator.factor_nnz"] += lu.nnz

    def built(_inst, args, _result):
        op = args[0]
        rec.samples["operator.shifts"].append(op.solves_per_apply)
        rec.samples["operator.complex_shifts"].append(
            int(np.count_nonzero(op.pf.poles.imag > 0)))

    def solved(_inst, _args, result):
        report = result[1]
        rec.samples["krylov.iterations"].append(report.iterations)
        rec.tally["krylov.not_converged"] += not report.converged

    rec.on_return("aaa.aaa_fit", greedy)
    rec.on_return("aaa.fit_fractional_sum", applied_form)
    rec.on_return("operator.splu", factor)
    rec.on_return("operator.build", built)
    rec.on_return("krylov.minres", solved)
    rec.on_return("krylov.pcg", solved)


# name -> (unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = {
    "functions.sample_s": ("s", "lower"),
    "aaa.fit_s": ("s", "lower"),
    "aaa.fit_calls": ("count", "lower"),
    "aaa.greedy_steps": ("count", "lower"),
    "aaa.svd_calls": ("count", "lower"),
    "aaa.svd_s": ("s", "lower"),
    "aaa.convert_s": ("s", "lower"),
    "aaa.poles_mean": ("count", "lower"),
    "aaa.poles_max": ("count", "lower"),
    "aaa.tol_miss": ("count", "lower"),
    "aaa.positive_poles": ("count", "lower"),
    "pencil.assemble_s": ("s", "lower"),
    "pencil.dense_eig_s": ("s", "lower"),
    "operator.build_s": ("s", "lower"),
    "operator.builds": ("count", "lower"),
    "operator.factorizations": ("count", "lower"),
    "operator.factorize_s": ("s", "lower"),
    "operator.factor_nnz": ("count", "lower"),
    "operator.shifts": ("count", "lower"),
    "operator.complex_shifts": ("count", "lower"),
    "operator.applies": ("count", "lower"),
    "operator.apply_s": ("s", "lower"),
    "operator.audit_s": ("s", "lower"),
    "operator.rel_err": ("1", "lower"),
    "krylov.solves": ("count", "lower"),
    "krylov.iterations_median": ("count", "lower"),
    "krylov.iterations_max": ("count", "lower"),
    "krylov.self_s": ("s", "lower"),
    "krylov.system_s": ("s", "lower"),
    "krylov.not_converged": ("count", "lower"),
    "experiments.system_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def span_times(spans):
    """Per span name: call count, total duration and total self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _inst in spans:
        if parent >= 0:
            child[parent] += end - start
    count, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    for k, (name, start, end, _parent, _inst) in enumerate(spans):
        count[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[k]
    return count, total, self_time


def layer_metrics(rec, passes, overhead_s, rel_err):
    """Per-layer values of LAYER_METRICS; sums and counts are per pass."""
    count, total, self_time = span_times(rec.spans)
    apply_s = [e - s for n, s, e, _p, _i in rec.spans if n == "operator.apply"]
    poles = rec.samples["aaa.poles"]
    iterations = rec.samples["krylov.iterations"]

    def median(values):
        return float(statistics.median(values)) if values else 0.0

    experiments_self = sum(v for k, v in self_time.items() if k.startswith("experiments."))
    values = {
        "functions.sample_s": self_time["functions.sample_grid"] / passes,
        "aaa.fit_s": total["aaa.aaa_fit"] / passes,
        "aaa.fit_calls": count["aaa.aaa_fit"] / passes,
        "aaa.greedy_steps": rec.tally["aaa.greedy_steps"] / passes,
        "aaa.svd_calls": count["aaa.svd"] / passes,
        "aaa.svd_s": total["aaa.svd"] / passes,
        "aaa.convert_s": self_time["aaa.to_partial_fraction"] / passes,
        "aaa.poles_mean": float(np.mean(poles)) if poles else 0.0,
        "aaa.poles_max": max(poles, default=0),
        "aaa.tol_miss": rec.tally["aaa.tol_miss"] / passes,
        "aaa.positive_poles": rec.tally["aaa.positive_poles"] / passes,
        "pencil.assemble_s": total["pencil.assemble_interface"] / passes,
        "pencil.dense_eig_s": total["pencil.dense_eigendecomposition"] / passes,
        "operator.build_s": total["operator.build"] / passes,
        "operator.builds": count["operator.build"] / passes,
        "operator.factorizations": count["operator.splu"] / passes,
        "operator.factorize_s": total["operator.splu"] / passes,
        "operator.factor_nnz": rec.tally["operator.factor_nnz"] / passes,
        "operator.shifts": median(rec.samples["operator.shifts"]),
        "operator.complex_shifts": median(rec.samples["operator.complex_shifts"]),
        "operator.applies": count["operator.apply"] / passes,
        "operator.apply_s": median(apply_s),
        "operator.audit_s": total["operator.spd_audit"] / passes,
        "operator.rel_err": rel_err,
        "krylov.solves": (count["krylov.minres"] + count["krylov.pcg"]) / passes,
        "krylov.iterations_median": median(iterations),
        "krylov.iterations_max": max(iterations, default=0),
        "krylov.self_s": (self_time["krylov.minres"] + self_time["krylov.pcg"]) / passes,
        "krylov.system_s": total["krylov.system"] / passes,
        "krylov.not_converged": rec.tally["krylov.not_converged"] / passes,
        "experiments.system_s": total["experiments.build_interface_system_dense"] / passes,
        "experiments.self_s": experiments_self / passes,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _better) in LAYER_METRICS.items()}


def pole_histogram(rec):
    """Applied-form pole counts -> number of forms, as a JSON-ready dict."""
    hist = defaultdict(int)
    for degree in rec.samples["aaa.poles"]:
        hist[int(degree)] += 1
    return {str(k): hist[k] for k in sorted(hist)}
