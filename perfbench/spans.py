"""In-memory spans around calls into emplab's public functions.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces each
function listed in ``LAYERS`` by a wrapper at every emplab module that
bound its name (``emplab.harness.basis_pursuit`` as well as
``emplab.recovery.basis_pursuit``), and ``uninstall`` puts the originals
back.  A span is (name, start, end, parent, counts); the counts are read
off the returned objects.  Pool workers forked while the tracer is
installed inherit the wrappers, but record nothing: only the parent is
traced.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass


def _rows(result):
    return {"rows": int(result.shape[0])}


def _draws(result):
    return {"draws": int(result.draws)}


def _unconfident(result):
    return {"unconfident": int(not result.confident)}


def _bp(result):
    return {"iterations": int(result.iterations), "unconverged": int(not result.converged)}


def _lasso(result):
    return {"sweeps": int(result.iterations), "unconverged": int(not result.converged)}


def _elements(result):
    return {"elements": int(result.size)}


# (module, function, counts read off the result)
LAYERS = (
    ("distributions", "sample_coordinates", _elements),
    ("distributions", "sample_batch", None),
    ("streams", "rng_from_path", None),
    ("geometry", "support_batch", _rows),
    ("geometry", "localized_support_batch", _rows),
    ("geometry", "gauge", None),
    ("geometry", "gaussian_mean_width", _draws),
    ("process", "multiplier_stats", None),
    ("gelfand", "empirical_process_width", _draws),
    ("gelfand", "r_G_fixed_point", _unconfident),
    ("gelfand", "r_X_fixed_point", _unconfident),
    ("gelfand", "kernel_section_diameter", None),
    ("recovery", "make_recovery_problem", None),
    ("recovery", "basis_pursuit", _bp),
    ("recovery", "lasso", _lasso),
    ("harness", "run", None),
)

ROOT_SPAN = "harness.run"
FIXED_POINTS = ("gelfand.r_G_fixed_point", "gelfand.r_X_fixed_point")
WIDTHS = ("geometry.gaussian_mean_width", "gelfand.empirical_process_width")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    counts: dict


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.recording = False
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self):
        self.recording = False

    def _wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                counts = count(result) if count and result is not None else {}
                tracer.spans[idx] = Span(name, start, end, parent, counts)

        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever an emplab module bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "emplab" or n.startswith("emplab."))]
        for modname, fname, count in LAYERS:
            orig = getattr(sys.modules[f"emplab.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self.spans = []
        self._stack = []
        self.recording = True

    def uninstall(self) -> list[Span]:
        """Restore the originals and return the spans recorded since install."""
        self.recording = False
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []
        spans, self.spans = self.spans, []
        if any(s is None for s in spans):
            raise RuntimeError("a span was left open")
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced ``harness.run`` call at one worker."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for modname, fname, _ in LAYERS:
        out[f"{modname}.{fname}.calls"] = 0
        out[f"{modname}.{fname}.self_s"] = 0.0
    for s, st in zip(spans, selfs):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += st
        for key, val in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + val
    out["gelfand.fixed_point.width_evals"] = sum(
        1 for s in spans
        if s.name in WIDTHS and s.parent >= 0 and spans[s.parent].name in FIXED_POINTS
    )
    out["trace.self_sum_s"] = sum(selfs)
    return out


def parent_metrics(spans: list[Span]) -> dict[str, float]:
    """Parent-side split of one traced ``harness.run`` call with a pool."""
    roots = [i for i, s in enumerate(spans) if s.name == ROOT_SPAN and s.parent == -1]
    if len(roots) != 1:
        raise RuntimeError(f"expected one {ROOT_SPAN} root span, found {len(roots)}")
    root = roots[0]
    busy = sum(s.end - s.start for s in spans if s.parent == root)
    wall = spans[root].end - spans[root].start
    return {"harness.run.self_s.w2": wall - busy, "harness.parent_busy_s.w2": busy}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over repeated runs; a key missing from a run counts 0."""
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}


# per-layer metrics printed by a traced benchmark run, in BENCHMARK.json order
PER_LAYER = (
    "distributions.sample_coordinates.calls",
    "distributions.sample_coordinates.elements",
    "distributions.sample_coordinates.self_s",
    "distributions.sample_batch.self_s",
    "gelfand.r_G_fixed_point.calls",
    "gelfand.r_G_fixed_point.self_s",
    "gelfand.r_G_fixed_point.unconfident",
    "gelfand.r_X_fixed_point.calls",
    "gelfand.r_X_fixed_point.self_s",
    "gelfand.r_X_fixed_point.unconfident",
    "gelfand.fixed_point.width_evals",
    "gelfand.empirical_process_width.calls",
    "gelfand.empirical_process_width.draws",
    "gelfand.empirical_process_width.self_s",
    "geometry.localized_support_batch.rows",
    "geometry.localized_support_batch.self_s",
    "geometry.gauge.calls",
    "geometry.gauge.self_s",
    "gelfand.kernel_section_diameter.calls",
    "gelfand.kernel_section_diameter.self_s",
    "geometry.support_batch.rows",
    "geometry.support_batch.self_s",
    "geometry.gaussian_mean_width.calls",
    "geometry.gaussian_mean_width.draws",
    "geometry.gaussian_mean_width.self_s",
    "process.multiplier_stats.calls",
    "process.multiplier_stats.self_s",
    "streams.rng_from_path.calls",
    "streams.rng_from_path.self_s",
    "recovery.basis_pursuit.calls",
    "recovery.basis_pursuit.iterations",
    "recovery.basis_pursuit.unconverged",
    "recovery.basis_pursuit.self_s",
    "recovery.lasso.calls",
    "recovery.lasso.sweeps",
    "recovery.lasso.unconverged",
    "recovery.lasso.self_s",
    "recovery.make_recovery_problem.calls",
    "recovery.make_recovery_problem.self_s",
    "harness.run.self_s.w2",
    "harness.parent_busy_s.w2",
    "harness.tasks",
    "harness.tasks_failed",
    "harness.run.self_s",
    "trace_overhead",
    "results.unconverged_share",
    "results.criteria_pass_share",
)


def unit(name: str) -> str:
    if name == "trace_overhead" or name.startswith("results."):
        return "ratio"
    if name.endswith(("self_s", "_s.w2")):
        return "s"
    return "count"
