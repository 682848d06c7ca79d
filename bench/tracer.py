"""Spans and counters recorded around the calls into each sapsim module.

The wrappers are installed from the benchmark's side: every function named
in SPANNED gets a span, every function in COUNTED only a call count (they
are called thousands of times per operation, and a span each would distort
what is measured). A function is rewrapped at every module attribute that
binds it, so calls through ``sapsim.spectral.propagate``, ``sapsim.cli.propagate``
and the call-time ``from .propagator import propagate`` in
``sapsim.coupling`` are all seen.

A span is ``(name, start, end, parent, op)``: times from perf_counter,
``parent`` the index of the enclosing span or -1, ``op`` the benchmark
operation it belongs to. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

SPANNED = {
    "config": ("load_config", "model_from"),
    "geometry": ("build_layout",),
    "coupling": ("calibrated_model", "calibrate_strength"),
    "propagator": ("propagate",),
    "analysis": ("adiabaticity_margin",),
    "spectral": ("sweep_wavelength",),
    "farfield": ("facet_emitters", "farfield_pattern"),
    "design": ("grid_search", "evaluate_candidate"),
    "cli": ("main",),
}
COUNTED = {
    "propagator": ("hamiltonian_at",),
    "analysis": ("split_report", "eigensystem", "dark_state"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in SPANNED.items() for f in fs)
COUNT_NAMES = tuple(f"{m}.{f}" for m, fs in COUNTED.items() for f in fs)

# Counters that must repeat bit for bit for a fixed seed.
EXACT_COUNTERS = ("propagator.n_steps", "propagator.n_rhs_evals",
                  "propagator.propagate.calls", "design.evaluate_candidate.calls",
                  "design.valid", "coupling.calibrate_strength.points",
                  "cli.bytes_written")


class Tracer:
    """Records spans and per-operation counters while ``op`` is set."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)   # op -> counter name -> value
        self.op = None
        self._stack = []
        self._patched = []                   # (module, attribute, original)

    def install(self):
        """Wrap every listed function at each sapsim binding of it."""
        for module in SPANNED.keys() | COUNTED.keys():
            importlib.import_module(f"sapsim.{module}")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sapsim" or name.startswith("sapsim.")]
        hooks = {"propagator.propagate": self._after_propagate,
                 "design.evaluate_candidate": self._after_candidate}
        for module, names in SPANNED.items():
            for fn in names:
                name = f"{module}.{fn}"
                self._rebind(modules, module, fn,
                             self._spanned(name, hooks.get(name)))
        for module, names in COUNTED.items():
            for fn in names:
                self._rebind(modules, module, fn,
                             self._counted(f"{module}.{fn}"))

    def uninstall(self):
        """Put the original functions back."""
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    def _rebind(self, modules, module, fn, make_wrapper):
        original = getattr(sys.modules[f"sapsim.{module}"], fn)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, original))

    def _spanned(self, name, after):
        def make(fn):
            def wrapper(*args, **kwargs):
                op = self.op
                if op is None:
                    return fn(*args, **kwargs)
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent, op)
                if after is not None:
                    after(op, result)
                return result
            return wrapper
        return make

    def _counted(self, name):
        key = name + ".calls"

        def make(fn):
            def wrapper(*args, **kwargs):
                if self.op is not None:
                    self.counts[self.op][key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _after_propagate(self, op, traj):
        c = self.counts[op]
        c["propagator.n_steps"] += traj.stats.n_steps
        c["propagator.n_rhs_evals"] += traj.stats.n_rhs_evals
        c["propagator.max_norm_drift"] = max(c["propagator.max_norm_drift"],
                                             traj.stats.max_norm_drift)

    def _after_candidate(self, op, cand):
        self.counts[op]["design.valid"] += int(cand.valid)

    def snapshot(self):
        """Spans and counters as one JSON-ready object."""
        return {"spans": self.spans,
                "counts": {str(op): dict(c) for op, c in self.counts.items()}}


def select(spans, keep):
    """The spans whose op satisfies ``keep``, with parent indices renumbered."""
    index, out = {}, []
    for i, (name, start, end, parent, op) in enumerate(spans):
        if keep(op):
            index[i] = len(out)
            out.append((name, start, end, index.get(parent, -1), op))
    return out


def merge(dumps):
    """Concatenate the spans and counters of several dumps."""
    spans, counts = [], {}
    for d in dumps:
        offset = len(spans)
        spans += [(name, start, end, parent + offset if parent >= 0 else -1, op)
                  for name, start, end, parent, op in d["spans"]]
        counts.update(d["counts"])
    return spans, counts


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (clipped to the parent, overlaps merged)."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def op_counters(spans, counts):
    """Per-operation exact counters from spans plus the wrapper counts."""
    per_op = defaultdict(Counter)
    for op, c in counts.items():
        per_op[str(op)].update({k: v for k, v in c.items()
                                if k != "propagator.max_norm_drift"})
    for name, _, _, parent, op in spans:
        per_op[str(op)][name + ".calls"] += 1
        if (name == "propagator.propagate" and parent >= 0
                and spans[parent][0] == "coupling.calibrate_strength"):
            per_op[str(op)]["coupling.calibrate_strength.points"] += 1
    return per_op


def summarize(spans, counts, n_ops):
    """Per-layer metrics per operation: calls, inclusive and self seconds of
    each spanned function, call counts of the counted ones, and the
    integrator counters."""
    selfs = self_times(spans)
    calls, incl, excl = Counter(), defaultdict(float), defaultdict(float)
    for (name, start, end, _, _), self_s in zip(spans, selfs):
        calls[name] += 1
        incl[name] += end - start
        excl[name] += self_s
    totals = Counter()
    drift = 0.0
    for c in counts.values():
        drift = max(drift, c.get("propagator.max_norm_drift", 0.0))
        totals.update({k: v for k, v in c.items()
                       if k != "propagator.max_norm_drift"})
    n = max(n_ops, 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.s"] = incl[name] / n
        out[f"{name}.self_s"] = excl[name] / n
    for name in COUNT_NAMES:
        out[f"{name}.calls"] = totals[f"{name}.calls"] / n
    points = sum(c["coupling.calibrate_strength.points"]
                 for c in op_counters(spans, {}).values())
    out["coupling.calibrate_strength.points"] = points / n
    out["propagator.n_steps"] = totals["propagator.n_steps"] / n
    out["propagator.n_rhs_evals"] = totals["propagator.n_rhs_evals"] / n
    rhs = totals["propagator.n_rhs_evals"]
    out["propagator.us_per_rhs"] = (
        1e6 * excl["propagator.propagate"] / rhs if rhs else 0.0)
    out["propagator.max_norm_drift"] = drift
    attempted = calls["design.evaluate_candidate"]
    out["design.valid_ratio"] = (totals["design.valid"] / attempted
                                 if attempted else 0.0)
    return out
