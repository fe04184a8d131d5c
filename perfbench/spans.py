"""Spans around the calls into each delaydirac module, recorded from outside.

The traced run rebinds each function named in ``TARGETS`` to a wrapper in
every package module that holds it (``forward.delta_eval`` is also
``delaydirac.delta_eval``; ``inverse.synthesize_u`` is reached through the
module global of ``inverse`` itself), and restores the originals when the
operation ends.  Nothing inside the package changes, and the untraced run
wraps nothing.

A span is (name, operation id, parent span, thread, start, end).  Calls made
from a worker thread that has no open span of its own get the operation
thread's innermost open span as their parent, so the stability pool's trials
nest under ``stability.stability_experiment``.  Self time is a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "delaydirac"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _eval_points(args, kwargs, result):
    return {"delta_eval.points": np.size(_arg(args, kwargs, 2, "lam"))}


def _prime_points(args, kwargs, result):
    return {"delta_prime.points": np.size(_arg(args, kwargs, 2, "lam"))}


def _roots(args, kwargs, result):
    return {"find_spectrum.roots": result.lam.size}


def _defect_max(args, kwargs, result):
    return {"support_defect.max": float(result)}


def _trials(args, kwargs, result):
    return {"trials_ok": len(result.ratios), "trials_aborted": result.aborted}


def _calls(name):
    return lambda args, kwargs, result: {f"{name}.calls": 1}


def _bytes(args, kwargs, result):
    return {"bytes_written": len(_arg(args, kwargs, 1, "text").encode())}


@dataclass(frozen=True)
class Target:
    """One package function to trace.

    ``count`` maps (args, kwargs, result) to counts, added up per operation
    under ``"<module>.<key>"``; a key ending in ``.max`` keeps the maximum
    instead.  ``label`` tells calls of one function apart in the trace file.
    ``span=False`` records the counts only, so that the call's time stays in
    its caller's self time.
    """

    module: str
    name: str
    count: Callable | None = None
    label: Callable | None = None
    span: bool = True

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


TARGETS = (
    Target("core", "interpolate"),
    # Counted only: their time stays in the caller's self time, so that
    # support_defect.s and recover_inner.s hold the work of those stages.
    Target("core", "quadrature", _calls("quadrature"), span=False),
    Target("forward", "compute_kernels"),
    Target("forward", "find_spectrum", _roots, lambda a, k: f"j={_arg(a, k, 1, 'j')}"),
    # Private, but they split find_spectrum into contour count and Newton.
    Target("forward", "_winding_count"),
    Target("forward", "_newton"),
    Target("forward", "delta_eval", _eval_points),
    Target("forward", "delta_prime", _prime_points),
    Target("forward", "delta_oracle"),
    Target("hadamard", "delta_at_integers"),
    Target("inverse", "invert_spectra"),
    Target("inverse", "synthesize_u", label=lambda a, k: f"m={_arg(a, k, 1, 'grid').m}"),
    Target("inverse", "support_defect", _defect_max),
    Target("inverse", "assemble_w"),
    Target("inverse", "recover_inner"),
    Target("inverse", "gamma", _calls("gamma"), span=False),
    Target("stability", "stability_experiment", _trials),
    Target("stability", "perturb_spectrum"),
    Target("io", "read_spectrum_csv"),
    Target("io", "write_potentials_csv"),
    Target("io", "write_json"),
    Target("io", "atomic_write_text", _bytes, span=False),
    Target("cli", "main"),
)

# Per-layer metrics: name -> (unit, better).  ``.s`` is self time per
# operation and ``.calls`` a call count per operation, both medians over the
# traced operations.
LAYER_METRICS = {
    "forward.compute_kernels.s": ("s", "lower"),
    "forward.find_spectrum.s": ("s", "lower"),
    "forward._winding_count.s": ("s", "lower"),
    "forward._newton.s": ("s", "lower"),
    "forward.delta_eval.s": ("s", "lower"),
    "forward.delta_eval.points": ("count", "lower"),
    "forward.delta_prime.s": ("s", "lower"),
    "forward.delta_prime.points": ("count", "lower"),
    "forward.points_per_root": ("count", "lower"),
    "forward.delta_oracle.s": ("s", "lower"),
    "core.interpolate.s": ("s", "lower"),
    "core.interpolate.calls": ("count", "lower"),
    "core.quadrature.calls": ("count", "lower"),
    "hadamard.delta_at_integers.s": ("s", "lower"),
    "inverse.invert_spectra.s": ("s", "lower"),
    "inverse.synthesize_u.s": ("s", "lower"),
    "inverse.synthesize_u.calls": ("count", "lower"),
    "inverse.support_defect.s": ("s", "lower"),
    "inverse.support_defect.max": ("1", "lower"),
    "inverse.assemble_w.s": ("s", "lower"),
    "inverse.recover_inner.s": ("s", "lower"),
    "inverse.gamma.calls": ("count", "lower"),
    "stability.stability_experiment.s": ("s", "lower"),
    "stability.trial_s": ("s", "lower"),
    "stability.parallelism": ("1", "higher"),
    "stability.perturb_spectrum.s": ("s", "lower"),
    "stability.trials_ok": ("count", "higher"),
    "stability.trials_aborted": ("count", "lower"),
    "io.read_spectrum_csv.s": ("s", "lower"),
    "io.write_potentials_csv.s": ("s", "lower"),
    "io.write_json.s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
    "cli.main.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.missing": ("count", "lower"),
}


class Span:
    __slots__ = ("name", "op", "parent", "thread", "label", "start", "end")

    def __init__(self, name, op, parent, thread, label):
        self.name = name
        self.op = op
        self.parent = parent
        self.thread = thread
        self.label = label
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(span: Span, children) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total = 0.0
    lo = hi = None
    for start, end in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        if end <= start:
            continue
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


class Tracer:
    """Collects spans and counts in memory while an operation runs."""

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self.sums = defaultdict(float)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None
        self._op_stack: list[Span] = []
        self._bindings = []
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for target in targets:
            owner = sys.modules.get(f"{PACKAGE}.{target.module}")
            original = getattr(owner, target.name, None)
            if original is None:
                self.missing.append(target.qualname)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            if key.endswith(".max"):
                self.sums[(self._op, key)] = max(self.sums.get((self._op, key), value), value)
            else:
                self.sums[(self._op, key)] += value

    def _wrap(self, target: Target, fn):
        name = target.qualname

        def traced(*args, **kwargs):
            if target.span:
                stack = self._stack()
                op_stack = self._op_stack
                parent = stack[-1] if stack else (op_stack[-1] if op_stack else None)
                label = target.label(args, kwargs) if target.label else None
                span = Span(name, self._op, parent, threading.get_ident(), label)
                stack.append(span)
                span.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                    self.spans.append(span)
            else:
                result = fn(*args, **kwargs)
            if target.count is not None:
                for key, value in target.count(args, kwargs, result).items():
                    self._add(f"{target.module}.{key}", value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        return traced

    @contextlib.contextmanager
    def operation(self, op_id):
        """Trace the calls made inside the ``with`` block as operation ``op_id``."""
        self._op = op_id
        self._op_stack = self._stack()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._op = None

    # -- reduction ----------------------------------------------------------

    def _children(self) -> dict:
        kids = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                kids[id(span.parent)].append(span)
        return kids

    def per_operation(self, op_ids, kids) -> dict:
        """Self time, call counts and counts of each operation in ``op_ids``."""
        out = {op: defaultdict(float) for op in op_ids}
        for span in self.spans:
            if span.op in out:
                row = out[span.op]
                row[span.name + ".s"] += span.duration - covered(span, kids[id(span)])
                row[span.name + ".calls"] += 1
        for (op, key), value in self.sums.items():
            if op in out:
                out[op][key] = value
        return out

    def trial_spans(self, op_id, kids) -> list:
        """The stability trials' inversions: every child inversion but the first."""
        trials = []
        for span in self.spans:
            if span.op == op_id and span.name == "stability.stability_experiment":
                inner = sorted((c for c in kids[id(span)] if c.name == "inverse.invert_spectra"),
                               key=lambda c: c.start)
                trials.extend(inner[1:])
        return trials

    def layer_metrics(self, op_ids, overhead_s: float) -> dict:
        """Every metric of ``LAYER_METRICS`` over the traced operations."""
        kids = self._children()
        rows = self.per_operation(op_ids, kids)

        def median(values):
            values = list(values)
            return float(statistics.median(values)) if values else 0.0

        out = {}
        for key in LAYER_METRICS:
            if key.endswith(".max"):
                out[key] = max((rows[op].get(key, 0.0) for op in op_ids), default=0.0)
            else:
                out[key] = median(rows[op].get(key, 0.0) for op in op_ids)

        ratios, trial_times, parallel = [], [], []
        for op in op_ids:
            row = rows[op]
            roots = row.get("forward.find_spectrum.roots", 0.0)
            points = row.get("forward.delta_eval.points", 0.0) + row.get("forward.delta_prime.points", 0.0)
            ratios.append(points / roots if roots else 0.0)
            trials = self.trial_spans(op, kids)
            if trials:
                trial_times.extend(s.duration for s in trials)
                wall = max(s.end for s in trials) - min(s.start for s in trials)
                parallel.append(sum(s.duration for s in trials) / wall)
        out["forward.points_per_root"] = median(ratios)
        out["stability.trial_s"] = median(trial_times)
        out["stability.parallelism"] = median(parallel)
        out["trace.overhead_s"] = overhead_s
        out["trace.missing"] = float(len(self.missing))
        return out

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON line per span, then the counts."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            handle.write(json.dumps({"header": header, "missing": self.missing}) + "\n")
            for k, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": k, "op": span.op, "name": span.name, "label": span.label,
                    "thread": span.thread, "parent": index.get(id(span.parent)),
                    "start": span.start - t0, "end": span.end - t0,
                }) + "\n")
            for (op, key), value in sorted(self.sums.items(), key=str):
                handle.write(json.dumps({"op": op, "count": key, "value": value}) + "\n")
