"""Spans around the public calls of each library layer, and the per-layer
metrics derived from them.

``Tracer.install`` replaces each traced function, wherever a ``siegelps``
module binds it, by a wrapper that records a span: layer, name, start, end,
parent span, task id and the work counts read off the call's arguments and
result.  ``uninstall`` puts the originals back, so untraced runs execute the
library's own functions.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

import numpy as np

import siegelps as sp


def _enumerate_counts(bound, result):
    return {"elements": len(result)}


def _save_counts(bound, result):
    return {"bytes_written": os.path.getsize(bound.arguments["path"])}


def _load_counts(bound, result):
    return {"bytes_read": os.path.getsize(bound.arguments["path"])}


def _series_counts(bound, result):
    return {"terms": result.terms, "term_points": result.terms}


def _quadrature_counts(bound, result):
    """Nodes of the accepted grid level, found by replaying the doublings."""
    base = (bound.arguments["domain"] or sp.FundamentalDomainSpec()).base_nodes
    total, nodes = 0, base
    while True:
        last = 2 * nodes * nodes
        total += last
        if total >= result.evaluations:
            break
        nodes *= 2
    return {"evaluations": result.evaluations, "final_level_evaluations": last}


def _n0_general_counts(bound, result):
    """Samples drawn over all escalation steps, and the number of steps."""
    count, drawn, steps = int(bound.arguments["samples"]), 0, 0
    budget = int(bound.arguments["budget"])
    while True:
        drawn += count
        if count >= result.samples:
            break
        count = min(4 * count, budget)
        steps += 1
    return {"samples": drawn, "escalations": steps}


def _mc_cmn_counts(bound, result):
    return {"samples": result.evaluations}


# (layer, defining module, function name, counts from the bound call and result)
TRACED = (
    ("enumerate", "siegelps.poincare", "enumerate_ball", _enumerate_counts),
    ("cache", "siegelps.poincare", "save_ball", _save_counts),
    ("cache", "siegelps.poincare", "load_ball", _load_counts),
    ("series", "siegelps.poincare", "poincare_f", _series_counts),
    ("series", "siegelps.poincare", "kernel_series", _series_counts),
    ("series", "siegelps.poincare", "poincare_F", _series_counts),
    ("quadrature", "siegelps.petersson", "petersson", _quadrature_counts),
    ("threshold", "siegelps.nonvanishing", "n0_detl_report", None),
    ("threshold", "siegelps.nonvanishing", "integral_phi", None),
    ("mc", "siegelps.nonvanishing", "n0_general", _n0_general_counts),
    ("mc", "siegelps.petersson", "mc_cmn", _mc_cmn_counts),
    ("kak", "siegelps.symplectic", "kak_decompose", None),
    ("nak", "siegelps.symplectic", "nak_decompose", None),
    ("coeff", "siegelps.discrete_series", "matrix_coeff_kak", None),
    ("coeff", "siegelps.discrete_series", "lift", None),
    ("coeff", "siegelps.discrete_series", "lift_nak", None),
)

# Per-layer metrics as (name, unit); the order of BENCHMARK.json.
LAYER_METRICS = (
    ("enumerate.calls", "count"), ("enumerate.elements", "count"),
    ("enumerate.busy_s", "s"), ("enumerate.elements_per_s", "1/s"),
    ("enumerate.budget_errors", "count"),
    ("cache.writes", "count"), ("cache.reads", "count"),
    ("cache.bytes_written", "bytes"), ("cache.bytes_read", "bytes"),
    ("cache.busy_s", "s"), ("cache.hit_ratio", "ratio"),
    ("series.calls", "count"), ("series.terms", "count"),
    ("series.term_points", "count"), ("series.busy_s", "s"),
    ("series.ns_per_term_point", "ns"),
    ("quadrature.calls", "count"), ("quadrature.evaluations", "count"),
    ("quadrature.self_s", "s"), ("quadrature.final_level_share", "ratio"),
    ("threshold.cells", "count"), ("threshold.integral_calls", "count"),
    ("threshold.busy_s", "s"), ("threshold.ambiguous", "count"),
    ("mc.samples", "count"), ("mc.escalations", "count"),
    ("mc.busy_s", "s"), ("mc.samples_per_s", "1/s"),
    ("kak.calls", "count"), ("kak.busy_s", "s"),
    ("nak.calls", "count"), ("nak.busy_s", "s"),
    ("coeff.calls", "count"), ("coeff.busy_s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)

LAYERS = ("enumerate", "cache", "series", "quadrature", "threshold", "mc",
          "kak", "nak", "coeff")


class Tracer:
    """Collects spans, one list per task list (round).

    A span is [id, layer, name, start, end, parent, task, counts, error];
    ``id`` and ``parent`` index the span's own round list.
    """

    def __init__(self):
        self.rounds: list[tuple[int, list[list]]] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._task = None
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_round(self, index: int) -> None:
        self.spans = []
        self.rounds.append((index, self.spans))

    def _open(self, layer: str, name: str) -> list:
        span = [len(self.spans), layer, name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self._task, {}, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def run_task(self, task_id: int, kind: str, fn) -> None:
        """Run ``fn`` under a task span whose id every child span carries."""
        self._task = task_id
        span = self._open("task", kind)
        try:
            fn()
        except BaseException as exc:
            span[8] = type(exc).__name__
            raise
        finally:
            self._close(span)
            self._task = None

    def _wrap(self, layer: str, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[8] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[7] = counts(bound, result)
            return result
        return traced

    def _wrap_evaluator_factory(self, factory):
        """The genus-1 evaluator returns a closure; trace the closure."""
        signature = inspect.signature(factory)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            evaluate = factory(*args, **kwargs)
            terms = len(signature.bind(*args, **kwargs).arguments["ball"])

            def traced_evaluate(z):
                span = self._open("series", "series_evaluator_genus1.evaluate")
                try:
                    return evaluate(z)
                finally:
                    self._close(span)
                    span[7] = {"terms": terms, "term_points": terms * int(np.size(z))}
            return traced_evaluate
        return traced_factory

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, replacement, name: str) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "siegelps" or modname.startswith("siegelps."):
                if getattr(module, name, None) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, replacement)

    def install(self) -> None:
        for layer, modname, name, counts in TRACED:
            original = getattr(sys.modules[modname], name)
            self._replace_everywhere(original, self._wrap(layer, original, counts), name)
        factory = sys.modules["siegelps.poincare"].series_evaluator_genus1
        self._replace_everywhere(factory, self._wrap_evaluator_factory(factory),
                                 "series_evaluator_genus1")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def span_cost(self, calls: int = 2000, repeats: int = 5) -> float:
        """Seconds one traced call adds: a wrapped no-op, arguments bound as
        for the counts, against the bare no-op; median of ``repeats``."""
        def noop(x=None):
            return x

        def per_call(fn):
            start = time.perf_counter()
            for _ in range(calls):
                fn(None)
            return (time.perf_counter() - start) / calls

        wrapped = self._wrap("probe", noop, lambda bound, result: {})
        spans, self.spans = self.spans, []
        try:
            return statistics.median(per_call(wrapped) - per_call(noop)
                                     for _ in range(repeats))
        finally:
            self.spans = spans

    # -- output ------------------------------------------------------------

    def write(self, path, header: dict, origin: float) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for index, spans in self.rounds:
                for sid, layer, name, start, end, parent, task, counts, error in spans:
                    fh.write(json.dumps({
                        "round": index, "id": sid, "layer": layer, "name": name,
                        "start": start - origin, "end": end - origin,
                        "parent": parent, "task": task, "counts": counts,
                        "error": error}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, _, _, start, end, _, _, _, _ in spans]
    for sid, _, _, start, end, parent, _, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict:
    """The per-layer metrics of one task list's spans."""
    own = self_times(spans)
    busy = dict.fromkeys(LAYERS, 0.0)
    calls: dict = {}
    totals: dict = {}
    errors: dict = {}
    for (sid, layer, name, _, _, _, _, counts, error), t in zip(spans, own):
        if layer == "task":
            continue
        busy[layer] += t
        calls[name] = calls.get(name, 0) + 1
        for key, value in counts.items():
            totals[layer, key] = totals.get((layer, key), 0) + value
        if error:
            errors[layer, error] = errors.get((layer, error), 0) + 1

    def total(layer, key):
        return totals.get((layer, key), 0)

    def rate(num, den):
        return num / den if den else 0.0

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    reads, writes = n("load_ball"), n("save_ball")
    series_calls = n("poincare_f", "kernel_series", "poincare_F",
                     "series_evaluator_genus1.evaluate")
    return {
        "enumerate.calls": n("enumerate_ball"),
        "enumerate.elements": total("enumerate", "elements"),
        "enumerate.busy_s": busy["enumerate"],
        "enumerate.elements_per_s": rate(total("enumerate", "elements"), busy["enumerate"]),
        "enumerate.budget_errors": errors.get(("enumerate", "BudgetError"), 0),
        "cache.writes": writes,
        "cache.reads": reads,
        "cache.bytes_written": total("cache", "bytes_written"),
        "cache.bytes_read": total("cache", "bytes_read"),
        "cache.busy_s": busy["cache"],
        "cache.hit_ratio": rate(reads, reads + writes),
        "series.calls": series_calls,
        "series.terms": total("series", "terms"),
        "series.term_points": total("series", "term_points"),
        "series.busy_s": busy["series"],
        "series.ns_per_term_point": rate(1e9 * busy["series"],
                                         total("series", "term_points")),
        "quadrature.calls": n("petersson"),
        "quadrature.evaluations": total("quadrature", "evaluations"),
        "quadrature.self_s": busy["quadrature"],
        "quadrature.final_level_share": rate(total("quadrature", "final_level_evaluations"),
                                             total("quadrature", "evaluations")),
        "threshold.cells": n("n0_detl_report"),
        "threshold.integral_calls": n("integral_phi"),
        "threshold.busy_s": busy["threshold"],
        "threshold.ambiguous": errors.get(("threshold", "AmbiguousThresholdError"), 0),
        "mc.samples": total("mc", "samples"),
        "mc.escalations": total("mc", "escalations"),
        "mc.busy_s": busy["mc"],
        "mc.samples_per_s": rate(total("mc", "samples"), busy["mc"]),
        "kak.calls": n("kak_decompose"),
        "kak.busy_s": busy["kak"],
        "nak.calls": n("nak_decompose"),
        "nak.busy_s": busy["nak"],
        "coeff.calls": n("matrix_coeff_kak", "lift", "lift_nak"),
        "coeff.busy_s": busy["coeff"],
        "trace.spans": len(spans),
    }


def summarize_rounds(per_round: list[dict]) -> dict:
    """Counts from the first traced list; times and ratios as medians."""
    units = dict(LAYER_METRICS)
    out = {}
    for key, value in per_round[0].items():
        if units[key] in ("count", "bytes"):
            out[key] = value
        else:
            out[key] = statistics.median(r[key] for r in per_round)
    return out


def self_time_by_kind(rounds: list[list[list]]) -> dict:
    """Self time per task kind and layer over several task lists; a task
    span's own time is 'other'."""
    out: dict = {}
    for spans in rounds:
        kinds = {task: name for _, layer, name, _, _, _, task, _, _ in spans
                 if layer == "task"}
        for (_, layer, _, _, _, _, task, _, _), t in zip(spans, self_times(spans)):
            bucket = out.setdefault(kinds[task], {})
            key = "other" if layer == "task" else layer
            bucket[key] = bucket.get(key, 0.0) + t
    return out
