"""Span tracing of colreg_risk's public functions, installed at run time.

A traced run replaces each public function named in ``LAYERS`` by a wrapper
in every namespace its callers look it up in (``colreg_risk.estimator``
looks up ``integrate`` in its own globals, the CLI looks up ``assess_kde``
in ``colreg_risk.cli``, the benchmark itself calls through the package).
The library source is untouched and ``uninstall`` puts every original
back.  A name that a later refactor removes is recorded as absent instead
of failing the run.

Each call records one span: id, name, start, end, parent span, operation
id and thread.  Spans stay in memory and are written out at the end.  A
worker thread with no open span of its own takes the span open on the main
thread as its parent, so the assessments that ``run_scenario`` hands to its
thread pool are children of ``run_scenario``.  Hooks derive exact counts
(kernel evaluations, samples drawn, ISJ attempts) from each call's
arguments and result; those counts are computed, not measured.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int


def _on_circle(estimate) -> bool:
    return getattr(estimate.topology, "value", None) == "circle360"


def _images(estimate) -> int:
    # Periodic kernel images the circle topology sums over; the line has one.
    if not _on_circle(estimate):
        return 1
    return 2 * max(1, math.ceil(8.0 * estimate.bandwidth / 360.0)) + 1


def _count_draw(tracer, op, args, result, exc):
    key = tuple(
        args.get(k) for k in ("mean_j", "unc_j", "mean_k", "unc_k", "n", "seed", "clamp_speed")
    )
    tracer.draw_keys[op].add(key)
    tracer.add(op, "draw_pair.samples", args["n"])
    if result is not None:
        negative = sum(
            int(np.count_nonzero(states.speed < 0.0))
            for states in (result.states_j, result.states_k)
        )
        tracer.add(op, "draw_pair.negative_speeds", negative)


def _count_cpa(tracer, op, args, result, exc):
    if result is not None:
        degenerate = result[2]
        tracer.add(op, "cpa_arrays.degenerate", int(np.count_nonzero(degenerate)))
        tracer.add(op, "cpa_arrays.pairs", int(degenerate.size))


def _count_isj(tracer, op, args, result, exc):
    tracer.add(op, "bandwidth_isj.attempts", 1)
    if exc is not None:
        tracer.add(op, "bandwidth_isj.failures", 1)


def _count_integrate(tracer, op, args, result, exc):
    estimate = args["estimate"]
    # A circle arc that crosses 0/360 is integrated as two segments.
    segments = 2 if _on_circle(estimate) and args["lo"] > args["hi"] else 1
    evals = estimate.samples.size * _images(estimate) * segments
    tracer.add(op, "integrate.kernel_evals", evals)


def _count_evaluate(tracer, op, args, result, exc):
    estimate = args["estimate"]
    points = np.atleast_1d(np.asarray(args["x"])).size
    evals = points * estimate.samples.size * _images(estimate)
    tracer.add(op, "evaluate.kernel_evals", evals)


def _count_grid_cv(tracer, op, args, result, exc):
    n = np.asarray(args["samples"]).size
    grid = np.arange(args["lo"], args["hi"] + 0.5 * args["step"], args["step"]).size
    folds = [len(c) for c in np.array_split(np.arange(n), args["folds"])]
    tracer.add(op, "bandwidth_grid_cv.kernel_evals", sum(t * (n - t) * grid for t in folds))


# Span name ("module.function") -> namespaces whose callers look the function
# up, and an optional counting hook.  The attribute is the name's last part.
LAYERS: tuple[tuple[str, tuple[str, ...], object], ...] = (
    ("sampling.draw_pair", ("colreg_risk.estimator", "colreg_risk"), _count_draw),
    ("kinematics.cpa_arrays", ("colreg_risk.estimator",), _count_cpa),
    ("kinematics.bearing_arrays", ("colreg_risk.estimator",), None),
    ("estimator.encounter_buffers", ("colreg_risk.estimator", "colreg_risk"), None),
    ("density.select_bandwidth", ("colreg_risk.estimator",), None),
    ("density.bandwidth_isj", ("colreg_risk.density", "colreg_risk.cli"), _count_isj),
    ("density.integrate", ("colreg_risk.estimator",), _count_integrate),
    ("density.fit", ("colreg_risk.estimator", "colreg_risk.cli"), None),
    ("density.evaluate", ("colreg_risk.cli",), _count_evaluate),
    ("density.bandwidth_grid_cv", ("colreg_risk.cli",), _count_grid_cv),
    ("colregs.situation_codes", ("colreg_risk.estimator",), None),
    ("assessment.assessment_from_counts", ("colreg_risk.estimator", "colreg_risk.automaton"), None),
    ("estimator.assess_kde", ("colreg_risk.cli", "colreg_risk"), None),
    ("estimator.assess_des", ("colreg_risk.cli", "colreg_risk"), None),
    ("estimator.propagation_study", ("colreg_risk.cli",), None),
    ("automaton.run_trace", ("colreg_risk", "colreg_risk.automaton"), None),
    ("automaton.estimate_behavioral_relation", ("colreg_risk",), None),
    ("cli.run_scenario", ("colreg_risk.cli",), None),
)

# Span a metric is derived from, where its name does not say.
_SOURCE = {
    "kinematics.degenerate_frac": "kinematics.cpa_arrays",
    "density.isj_fallback_ratio": "density.bandwidth_isj",
}

# Metrics that are exact counts derived from call arguments and results:
# they repeat exactly for a given workload and seed.
COMPUTED_COUNTS = (
    "sampling.draw_pair.calls",
    "sampling.draw_pair.samples",
    "sampling.draw_pair.redraw_ratio",
    "kinematics.degenerate_frac",
    "density.select_bandwidth.calls",
    "density.isj_fallback_ratio",
    "density.integrate.calls",
    "density.integrate.kernel_evals",
    "density.evaluate.kernel_evals",
    "density.bandwidth_grid_cv.kernel_evals",
    "automaton.run_trace.calls",
    "cli.analyze.bytes_written",
)


class NullTracer:
    """Stand-in for untraced runs: spans and counts cost nothing."""

    op = -1

    @contextmanager
    def span(self, name: str):
        yield

    def add(self, op: int, key: str, n: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.draw_keys: defaultdict[int, set] = defaultdict(set)
        self.op = -1
        self.absent: list[str] = []
        self.missing: list[str] = []
        self.hook_errors: Counter = Counter()
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    @contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls."""
        sid, parent, stack = self._open()
        op = self.op
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, op, threading.get_ident()))

    def add(self, op: int, key: str, n: int) -> None:
        with self._lock:
            self.counts[op][key] += n

    def _wrap(self, name: str, fn, hook):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = tracer._open()
            op = tracer.op
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, op, threading.get_ident())
                )
                if hook is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        hook(tracer, op, bound.arguments, result, exc)
                    except Exception:  # a changed signature must not stop the run
                        tracer.hook_errors[name] += 1

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, modules, hook in LAYERS:
            attr = name.rsplit(".", 1)[1]
            found = False
            for modname in modules:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
                found = True
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "op", "thread"])
            for s in self.spans:
                writer.writerow(
                    [s.id, s.name, f"{s.start - self.t0:.9f}", f"{s.end - self.t0:.9f}",
                     "" if s.parent is None else s.parent, s.op, s.thread]
                )

    @staticmethod
    def _self_time(span: Span, children: list[tuple[float, float]]) -> float:
        """Span duration minus the part of it that its child spans cover."""
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return (span.end - span.start) - covered

    def layer_metrics(self, n_ops: int, count_ops: int) -> dict[str, float | None]:
        """Every per-layer metric of BENCHMARK.json except the import ones.

        Times are milliseconds per workload operation over all ``n_ops``
        traced operations; counts are per operation over the first
        ``count_ops`` operations, so they repeat exactly for a seed.
        """
        by_name: defaultdict[str, list[Span]] = defaultdict(list)
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.op >= 0:  # skip the untraced reference operations' own spans
                by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))

        def ms(name: str) -> float:
            return 1e3 * sum(s.end - s.start for s in by_name[name]) / n_ops

        def self_ms(name: str) -> float:
            return 1e3 * sum(self._self_time(s, children[s.id]) for s in by_name[name]) / n_ops

        def calls(name: str) -> float:
            return sum(1 for s in by_name[name] if s.op < count_ops) / count_ops

        def count(key: str) -> int:
            return sum(self.counts[op][key] for op in range(count_ops))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        draws = sum(1 for s in by_name["sampling.draw_pair"] if s.op < count_ops)
        distinct = sum(len(self.draw_keys[op]) for op in range(count_ops))

        scenario_ids = {s.id: s for s in by_name["cli.run_scenario"]}
        busy = 0.0
        capacity = 0.0
        workers: defaultdict[int, set] = defaultdict(set)
        for name in ("estimator.assess_kde", "estimator.assess_des"):
            for s in by_name[name]:
                if s.parent in scenario_ids:
                    busy += s.end - s.start
                    workers[s.parent].add(s.thread)
        for sid, s in scenario_ids.items():
            capacity += (s.end - s.start) * max(1, len(workers[sid]))

        values: dict[str, float | None] = {
            "sampling.draw_pair.ms": ms("sampling.draw_pair"),
            "sampling.draw_pair.calls": calls("sampling.draw_pair"),
            "sampling.draw_pair.samples": count("draw_pair.samples") / count_ops,
            "sampling.draw_pair.redraw_ratio": ratio(draws, distinct),
            "kinematics.cpa_arrays.ms": ms("kinematics.cpa_arrays"),
            "kinematics.bearing_arrays.ms": ms("kinematics.bearing_arrays"),
            "kinematics.degenerate_frac": ratio(
                count("cpa_arrays.degenerate"), count("cpa_arrays.pairs")
            ),
            "estimator.encounter_buffers.self_ms": self_ms("estimator.encounter_buffers"),
            "density.select_bandwidth.ms": ms("density.select_bandwidth"),
            "density.select_bandwidth.calls": calls("density.select_bandwidth"),
            "density.bandwidth_isj.ms": ms("density.bandwidth_isj"),
            "density.isj_fallback_ratio": ratio(
                count("bandwidth_isj.failures"), count("bandwidth_isj.attempts")
            ),
            "density.integrate.ms": ms("density.integrate"),
            "density.integrate.calls": calls("density.integrate"),
            "density.integrate.kernel_evals": count("integrate.kernel_evals") / count_ops,
            "density.fit.ms": ms("density.fit"),
            "density.evaluate.ms": ms("density.evaluate"),
            "density.evaluate.kernel_evals": count("evaluate.kernel_evals") / count_ops,
            "density.bandwidth_grid_cv.ms": ms("density.bandwidth_grid_cv"),
            "density.bandwidth_grid_cv.kernel_evals": count("bandwidth_grid_cv.kernel_evals")
            / count_ops,
            "colregs.situation_codes.ms": ms("colregs.situation_codes"),
            "assessment.assessment_from_counts.ms": ms("assessment.assessment_from_counts"),
            "estimator.assess_kde.self_ms": self_ms("estimator.assess_kde"),
            "estimator.assess_des.self_ms": self_ms("estimator.assess_des"),
            "estimator.propagation_study.ms": ms("estimator.propagation_study"),
            "automaton.run_trace.ms": ms("automaton.run_trace"),
            "automaton.run_trace.calls": calls("automaton.run_trace"),
            "automaton.estimate_behavioral_relation.ms": ms(
                "automaton.estimate_behavioral_relation"
            ),
            "cli.run_scenario.ms": ms("cli.run_scenario"),
            "cli.run_scenario.busy_ms": 1e3 * busy / n_ops,
            "cli.run_scenario.parallel_eff": ratio(busy, capacity),
            "cli.analyze.self_ms": self_ms("cli.analyze"),
            "cli.analyze.bytes_written": count("analyze.bytes_written") / count_ops,
        }
        for metric in values:
            if _SOURCE.get(metric, metric.rsplit(".", 1)[0]) in self.absent:
                values[metric] = None
        return values

    def summary(self, count_ops: int) -> dict:
        """Counts that are not per-layer metrics but explain them."""
        totals: Counter = Counter()
        for op in range(count_ops):
            totals.update(self.counts[op])
        return {
            "count_ops": count_ops,
            "counts": dict(totals),
            "negative_speed_frac": (
                totals["draw_pair.negative_speeds"] / (2 * totals["draw_pair.samples"])
                if totals["draw_pair.samples"] else 0.0
            ),
            "spans": len(self.spans),
            "absent_layers": list(self.absent),
            "missing_targets": list(self.missing),
            "hook_errors": dict(self.hook_errors),
        }
