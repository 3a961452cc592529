"""Span tracing for the benchmark's traced run, done entirely from outside the
package.

`Tracer.install` replaces every public function of the package, *as bound in
each module*, with a wrapper that records a span. Modules import by name, so
`askkm.fit_sskkm` and `evalx.fit_sskkm` are separate bindings of one function
and both are wrapped; a span is named after the binding the call went through
and attributed to the layer (module) that defines the function. `uninstall`
puts every original back, so untraced runs measure unwrapped code.

A span's self time is its duration minus the union of its children's
intervals: children of one span can overlap when `curve --workers N` runs
cells on threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import resource
import threading
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "misspec_ssl"
LAYERS = ("core", "datagen", "kernels", "misspec", "sskkm", "semgmm", "askkm", "evalx", "cli")
ROOT_LAYER = "op"
# Private functions that are a layer boundary worth a span: one curve cell.
EXTRA_BOUNDARIES = {"evalx": ("_evaluate_cell",)}


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# What a span records about its call, by function name: (args, result) -> notes.
NOTES = {
    "gram_matrix": lambda a, r: {"bytes": int(r.values.nbytes)},
    "fit_sskkm": lambda a, r: {"iterations": r.iterations_run, "converged": r.converged},
    "fit_askkm": lambda a, r: {"rounds": r.rounds, "final_k": r.n_clusters},
    "disagreement_criterion": lambda a, r: {"misspecified": r.misspecified},
    "fit_sem": lambda a, r: {"iterations": len(r.objective_trace) - 1},
    "kl_mc": lambda a, r: {"samples": r.n_samples},
    "cmd_fit": lambda a, r: {"model_bytes": os.path.getsize(a[0].out_model)},
}
# Functions whose spans also record the process's peak-RSS rise.
RSS_FUNCTIONS = {"gram_matrix"}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    op: int
    thread: int
    name: str  # binding the call went through: "<module>.<attribute>"
    fn: str  # function name where it is defined
    layer: str  # defining module, or "op" for the benchmark's root spans
    start: float
    end: float = float("nan")
    notes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack: list[Span] | None = None
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            extra = EXTRA_BOUNDARIES.get(layer, ())
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, f"{layer}.{attr}"))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, fn: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._op_stack:
            # A pool thread: the call was caused by the op thread's innermost span.
            parent = self._op_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, self._op, threading.get_ident(),
                    name, fn, layer, perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    @contextmanager
    def root(self, phase: str, op: int):
        """The benchmark's own span around one timed part of operation `op`."""
        self._op = op
        self._op_stack = self._stack()
        span = self._open(f"{ROOT_LAYER}.{phase}", phase, ROOT_LAYER)
        try:
            yield span
        finally:
            self._close(span)
            self._op_stack = None

    def _wrap(self, fn, name: str):
        fn_name = fn.__name__
        layer = fn.__module__.rpartition(".")[2]
        note = NOTES.get(fn_name)
        track_rss = fn_name in RSS_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = _maxrss_bytes() if track_rss else 0
            span = self._open(name, fn_name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if track_rss:
                span.notes["rss_rise"] = _maxrss_bytes() - rss0
            if note is not None:
                span.notes.update(note(args, result))
            return result

        return traced


@contextmanager
def untraced_root(phase: str, op: int):
    """Stand-in for `Tracer.root` in untraced runs."""
    yield None


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id]) for s in spans}


def _outermost(spans: list[Span], fns: set[str], by_id: dict[int, Span]) -> list[Span]:
    """Spans of `fns` with no ancestor that is also one of `fns`, so nested
    calls (gram_matrix -> cross_matrix) are not counted twice."""
    out = []
    for s in spans:
        if s.fn not in fns:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.fn not in fns:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the spans of a traced
    run. Times and counts are per operation; a layer the workload bypasses
    reads 0."""
    by_id = {s.id: s for s in spans}
    by_fn: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_fn[s.fn].append(s)
    selfs = self_times(spans)
    roots = [s for s in spans if s.layer == ROOT_LAYER]
    n_ops = len({s.op for s in roots}) or 1

    def outer_time(*fns: str) -> float:
        return sum(s.duration for s in _outermost(spans, set(fns), by_id))

    def per_op_time(*fns: str) -> float:
        return outer_time(*fns) / n_ops

    def calls(fn: str) -> float:
        return len(by_fn[fn]) / n_ops

    def noted(fn: str, key: str) -> float:
        return sum(s.notes.get(key, 0) for s in by_fn[fn])

    def mean_noted(fn: str, key: str) -> float:
        return _ratio(noted(fn, key), len(by_fn[fn]))

    def layer_self(layer: str) -> float:
        return sum(selfs[s.id] for s in spans if s.layer == layer) / n_ops

    grams = sorted(by_fn["gram_matrix"], key=lambda s: s.start)
    first_gram = grams[0].notes if grams else {}
    rss_rise = first_gram.get("rss_rise", 0)
    root_self = sum(selfs[s.id] for s in roots)
    return {
        "kernels.gram_s": per_op_time("gram_matrix"),
        "kernels.gram_calls": calls("gram_matrix"),
        "kernels.gram_bytes": noted("gram_matrix", "bytes") / n_ops,
        "kernels.gram_rss_mb": rss_rise / 2**20,
        "kernels.gram_rss_ratio": _ratio(rss_rise, first_gram.get("bytes", 0)),
        "kernels.cross_s": sum(s.duration for s in by_fn["cross_matrix"]
                               if not s.name.startswith("kernels.")) / n_ops,
        "kernels.self_s": layer_self("kernels"),
        "sskkm.init_s": per_op_time("init_assignments"),
        "sskkm.fit_s": per_op_time("fit_sskkm"),
        "sskkm.fits": calls("fit_sskkm"),
        "sskkm.iterations": noted("fit_sskkm", "iterations") / n_ops,
        "sskkm.iter_s": _ratio(outer_time("fit_sskkm"), noted("fit_sskkm", "iterations")),
        "sskkm.converged_ratio": mean_noted("fit_sskkm", "converged"),
        "sskkm.score_s": per_op_time("classify_batch", "score_batch"),
        "sskkm.self_s": layer_self("sskkm"),
        "askkm.fit_s": per_op_time("fit_askkm"),
        "askkm.self_s": layer_self("askkm"),
        "askkm.rounds": noted("fit_askkm", "rounds") / n_ops,
        "askkm.round_s": _ratio(outer_time("fit_askkm"), noted("fit_askkm", "rounds")),
        "askkm.final_k": mean_noted("fit_askkm", "final_k"),
        "misspec.criterion_s": per_op_time("disagreement_criterion"),
        "misspec.modify_s": per_op_time("modify_structure"),
        "misspec.flagged_ratio": mean_noted("disagreement_criterion", "misspecified"),
        "misspec.self_s": layer_self("misspec"),
        "semgmm.fit_s": per_op_time("fit_sem"),
        "semgmm.fits": calls("fit_sem"),
        "semgmm.iterations": noted("fit_sem", "iterations") / n_ops,
        "semgmm.iter_s": _ratio(outer_time("fit_sem"), noted("fit_sem", "iterations")),
        "semgmm.loglik_s": per_op_time("loglik"),
        "semgmm.loglik_calls": calls("loglik"),
        "semgmm.kl_s": per_op_time("kl_mc"),
        "semgmm.kl_samples": noted("kl_mc", "samples") / n_ops,
        "semgmm.score_s": per_op_time("bayes_classify_batch", "class_posteriors_batch"),
        "semgmm.self_s": layer_self("semgmm"),
        "evalx.curve_s": per_op_time("learning_curve"),
        "evalx.self_s": layer_self("evalx"),
        "evalx.cells": calls("_evaluate_cell"),
        "evalx.ap_s": per_op_time("average_precision", "interpolated_precision_points", "mean_ap"),
        "datagen.generate_s": per_op_time("generate", "sample_eval_set", "scenario_truth"),
        "datagen.load_csv_s": per_op_time("load_csv"),
        "datagen.write_csv_s": per_op_time("write_csv"),
        "datagen.self_s": layer_self("datagen"),
        "cli.fit_s": per_op_time("cmd_fit"),
        "cli.eval_s": per_op_time("cmd_eval"),
        "cli.curve_s": per_op_time("cmd_curve"),
        "cli.self_s": layer_self("cli"),
        "cli.load_model_s": per_op_time("load_model_scores"),
        "cli.model_bytes": mean_noted("cmd_fit", "model_bytes"),
        "core.validate_s": per_op_time("require_valid", "validate_dataset"),
        "core.validate_calls": calls("require_valid"),
        "core.self_s": layer_self("core"),
        "op.unaccounted_s": root_self / n_ops,
        "op.unaccounted_ratio": _ratio(root_self, sum(s.duration for s in roots)),
    }


def layer_calls(spans: list[Span]) -> dict[str, int]:
    """Number of spans per defining layer (root spans excluded)."""
    counts = dict.fromkeys(LAYERS, 0)
    for s in spans:
        if s.layer in counts:
            counts[s.layer] += 1
    return counts


def phase_breakdown(spans: list[Span], phase: str) -> dict[str, float]:
    """Self time per layer inside the root spans of one phase (e.g. "fit"),
    summed over operations, with the root's own uncovered time as
    "unaccounted" and the roots' wall time as "wall"."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    roots = {s.id for s in spans if s.layer == ROOT_LAYER and s.fn == phase}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        p = s
        while p is not None and p.id not in roots:
            p = by_id.get(p.parent)
        if p is None:
            continue
        if s.id in roots:
            out["unaccounted"] += selfs[s.id]
            out["wall"] += s.duration
        else:
            out[s.layer] += selfs[s.id]
    return dict(out)
