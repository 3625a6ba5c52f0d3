"""Outside-in tracing of pnrchan's public functions.

``installed(tracer)`` rebinds every alias the package holds for each traced
function -- module globals, re-exports and values in module-level dicts and
lists such as ``sweeps._MI_FUNCS`` -- to a wrapper that records a span, and
restores the originals on exit.  It refuses to run if any alias it cannot
rebind is left, because a missed alias silently charges a callee's time to
its caller's self time.  The program's files are never touched.

``pass_metrics(spans)`` turns the spans of one traced pass into per-layer
metrics.  A span's self time is its duration minus the time covered by its
child spans; the time the tracer spends summarising a result after a span
ends counts as covered too, so it is charged to no layer.
"""

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "pnrchan.cli": ("main",),
    "pnrchan.sweeps": ("run_sweep", "run_security"),
    "pnrchan.security": ("security_report_for", "mi_bob_eve", "holevo_chi_wf", "holevo_chi_bds"),
    "pnrchan.information": ("mi_wf", "mi_hl", "mi_bds", "mi_homodyne", "certified_error_bound"),
    "pnrchan.receivers": ("skellam_pmf_grid", "poisson_window", "poisson_pmf"),
    "pnrchan.montecarlo": ("run_experiment", "empirical_distributions", "plugin_mi",
                           "calibrate_params"),
    "pnrchan.recordio": ("write_shot_records", "read_shot_records", "render_table",
                         "write_text_atomic"),
}


# What to keep from a call, keyed by span name: f(arguments with defaults, result).
SUMMARIES = {
    "sweeps.run_sweep": lambda a, r: {"points": len(r[1])},
    "sweeps.run_security": lambda a, r: {"points": len(r[1])},
    "receivers.skellam_pmf_grid": lambda a, r: {"key": a, "lo": int(r[0][0]), "hi": int(r[0][-1])},
    "receivers.poisson_window": lambda a, r: {"key": a, "n_max": int(r[0])},
    "montecarlo.run_experiment": lambda a, r: {"shots": len(r)},
    "montecarlo.empirical_distributions": lambda a, r: {
        "dense_cells": int(r.wf.size), "support_cells": int(np.count_nonzero(r.wf.sum(axis=0)))},
    "recordio.write_shot_records": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "recordio.read_shot_records": lambda a, r: {"bytes": os.path.getsize(a[0])},
}


class Span:
    __slots__ = ("id", "name", "parent", "command", "start", "end", "tail", "info")

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "command": self.command, "start": self.start, "end": self.end}


class Tracer:
    """Collects spans in memory; ``command`` tags the spans of the running command."""

    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []

    def wrap(self, name, fn):
        summary = SUMMARIES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.id, span.name, span.command = len(self.spans), name, self.command
            span.parent = self._stack[-1].id if self._stack else None
            span.tail, span.info = 0.0, None
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if summary is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = summary(tuple(bound.arguments.values()), result)
                span.tail = time.perf_counter() - span.end
            return result

        return traced


def _package_modules():
    return [module for name, module in sys.modules.items()
            if name == "pnrchan" or name.startswith("pnrchan.")]


def _slots(module):
    """Every rebindable place at module level: globals and dict/list members."""
    namespace = vars(module)
    yield from ((namespace, key) for key in list(namespace))
    for value in list(namespace.values()):
        if isinstance(value, dict):
            yield from ((value, key) for key in list(value))
        elif isinstance(value, list):
            yield from ((value, index) for index in range(len(value)))


def _frozen_references(module):
    """Module-level references that cannot be rebound: tuple/set members, defaults."""
    for value in vars(module).values():
        if isinstance(value, (tuple, set, frozenset)):
            yield from value
        elif inspect.isfunction(value):
            yield from value.__defaults__ or ()
            yield from (value.__kwdefaults__ or {}).values()


@contextlib.contextmanager
def installed(tracer):
    """Trace every function in ``TRACED`` through all its aliases, then restore."""
    modules = {module.__name__: module for module in _package_modules()}
    wrappers = {}
    for module_name, names in TRACED.items():
        for name in names:
            original = getattr(modules[module_name], name)
            span_name = f"{module_name.rpartition('.')[2]}.{name}"
            wrappers[id(original)] = (original, tracer.wrap(span_name, original))
    patches = []
    try:
        for module in modules.values():
            for container, key in _slots(module):
                hit = wrappers.get(id(container[key]))
                if hit is not None and hit[0] is container[key]:
                    patches.append((container, key, hit[0]))
                    container[key] = hit[1]
        for module in modules.values():
            for value in _frozen_references(module):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    raise RuntimeError(f"{module.__name__} holds an alias of "
                                       f"{value.__qualname__} that cannot be rebound")
        yield
    finally:
        for container, key, original in reversed(patches):
            container[key] = original


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _mirrored_size(span):
    """Width of the mirrored difference window built from one Skellam grid."""
    lo, hi = span.info["lo"], span.info["hi"]
    return max(hi, -lo) - min(lo, -hi) + 1


def _self_times(spans):
    """Each span's duration minus the time its child spans cover, by span id."""
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start + span.tail
    return {s.id: s.end - s.start - covered[s.id] for s in spans}


def pass_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    self_times = _self_times(spans)
    children = defaultdict(list)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def duration(name):
        return sum(s.end - s.start for s in by_name[name])

    def info(name, key):
        return sum(s.info[key] for s in by_name[name])

    def distinct(name):
        return _ratio(len({s.info["key"] for s in by_name[name]}), len(by_name[name]))

    metrics = {}
    for module_name, names in TRACED.items():
        for name in names:
            span_name = f"{module_name.rpartition('.')[2]}.{name}"
            metrics[f"{span_name}.calls"] = len(by_name[span_name])
            metrics[f"{span_name}.self_s"] = sum(self_times[s.id] for s in by_name[span_name])

    metrics["sweeps.points"] = info("sweeps.run_sweep", "points") + info("sweeps.run_security", "points")
    metrics["security.mi_bob_eve.cells"] = sum(
        math.prod(_mirrored_size(c) for c in children[s.id] if c.name == "receivers.skellam_pmf_grid")
        for s in by_name["security.mi_bob_eve"])
    metrics["information.mi_wf.cells"] = sum(
        (max((c.info["n_max"] for c in children[s.id] if c.name == "receivers.poisson_window"),
             default=-1) + 1) ** 2
        for s in by_name["information.mi_wf"])
    metrics["receivers.skellam_pmf_grid.bins"] = sum(
        s.info["hi"] - s.info["lo"] + 1 for s in by_name["receivers.skellam_pmf_grid"])
    metrics["receivers.skellam_pmf_grid.distinct_ratio"] = distinct("receivers.skellam_pmf_grid")
    metrics["receivers.poisson_window.distinct_ratio"] = distinct("receivers.poisson_window")
    metrics["montecarlo.run_experiment.shots_per_s"] = _ratio(
        info("montecarlo.run_experiment", "shots"), duration("montecarlo.run_experiment"))
    metrics["montecarlo.empirical_distributions.dense_cells"] = info(
        "montecarlo.empirical_distributions", "dense_cells")
    metrics["montecarlo.empirical_distributions.support_cells"] = info(
        "montecarlo.empirical_distributions", "support_cells")
    for direction in ("write", "read"):
        name = f"recordio.{direction}_shot_records"
        metrics[f"{name}.MBps"] = _ratio(info(name, "bytes") / 1e6, duration(name))
    metrics["recordio.shot_file_bytes"] = max(
        (s.info["bytes"] for s in by_name["recordio.write_shot_records"]), default=0)
    metrics["trace.unattributed_frac"] = _ratio(metrics["cli.main.self_s"], duration("cli.main"))
    return metrics


def command_unattributed(spans):
    """Share of each command's ``cli.main`` time that no child span covers."""
    self_times = _self_times(spans)
    return {s.command: _ratio(self_times[s.id], s.end - s.start)
            for s in spans if s.name == "cli.main"}
