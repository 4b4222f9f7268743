"""Spans and counters around psyslab's public names, installed from outside.

A ``Tracer`` replaces chosen module attributes with wrappers for the
duration of a ``with`` block and puts the originals back on exit, so the
package itself is never edited.  Each name is wrapped in the namespace
that calls it (``verify.run``, ``cli.run``, ``characteristics.trace``, ...),
because a module that did ``from .solver import run`` holds its own
reference.

Layer boundaries become spans (name, start, end, parent).  Calls too
frequent for one span each are aggregated: the Riemann functions the
tracer calls per curve sample (count and time) and numpy's rfft/irfft
(count and computed bytes, charged to the innermost open span; every
workload makes its FFTs inside a span, and any made outside one are
not counted).
``pressure`` and ``energy`` take under 1% of every workload and are not
wrapped.
"""

from __future__ import annotations

import importlib
import time
import weakref

import numpy.fft

# (module, attribute, span name); the span's layer is the name's prefix
SPANS = (
    ("psyslab.solver", "run", "solver.run"),
    ("psyslab.verify", "run", "solver.run"),
    ("psyslab.cli", "run", "solver.run"),
    ("psyslab.verify", "scenario_simple_wave_blowup", "verify.scenario_simple_wave_blowup"),
    ("psyslab.cli", "simple_wave_state", "verify.simple_wave_state"),
    ("psyslab.verify", "gradient_beta", "characteristics.gradient_beta"),
    ("psyslab.verify", "trace", "characteristics.trace"),
    ("psyslab.verify", "predict_blowup", "characteristics.predict_blowup"),
    ("psyslab.verify", "invariant_drift", "characteristics.invariant_drift"),
    ("psyslab.verify", "dual_growth_spotcheck", "characteristics.dual_growth_spotcheck"),
    ("psyslab.characteristics", "trace", "characteristics.trace"),
    ("psyslab.characteristics", "dual_growth_spotcheck", "characteristics.dual_growth_spotcheck"),
    ("psyslab.cli", "main", "cli.main"),
)

# Riemann calls made by the tracer, counted and timed in aggregate
RIEMANN = (
    ("psyslab.characteristics", "q_of_u"),
    ("psyslab.characteristics", "riccati_k"),
    ("psyslab.characteristics", "beta_from_gradient"),
)

FFTS = ("rfft", "irfft")

# entry points whose first call on a trajectory builds its space-time field
FIELD_BUILDERS = ("characteristics.trace", "characteristics.gradient_beta")

# spans that only drive the layers below them: their own time is left out
# of the span coverage, so that work moved out of the layer spans shows
SCENARIOS = ("verify.scenario_simple_wave_blowup",)


class Span:
    __slots__ = ("name", "parent", "start", "end", "ffts", "fft_bytes",
                 "first", "info")

    def __init__(self, name: str, parent):
        self.name = name
        self.parent = parent  # index into Tracer.spans, or None
        self.start = self.end = 0.0
        self.ffts = 0
        self.fft_bytes = 0
        self.first = False
        self.info = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "ffts": self.ffts,
                "fft_bytes_computed": self.fft_bytes, "first": self.first,
                **self.info}


class Tracer:
    """Context manager that records spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self._seen = {}  # id(trajectory) -> weakref, for first-call detection
        self.riemann_calls = 0
        self.riemann_s = 0.0

    # -- installation ------------------------------------------------------

    def __enter__(self):
        try:
            for modname, attr, span_name in SPANS:
                self._patch(importlib.import_module(modname), attr,
                            lambda fn, n=span_name: self._span_wrapper(fn, n))
            for modname, attr in RIEMANN:
                self._patch(importlib.import_module(modname), attr,
                            self._counted_wrapper)
            for attr in FFTS:
                self._patch(numpy.fft, attr, self._fft_wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _is_first(self, trajectory) -> bool:
        ref = self._seen.get(id(trajectory))
        if ref is not None and ref() is trajectory:
            return False
        self._seen[id(trajectory)] = weakref.ref(trajectory)
        return True

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        marks_first = name in FIELD_BUILDERS

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            if marks_first and args:
                span.first = self._is_first(args[0])
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            _annotate(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.riemann_s += time.perf_counter() - t0
                self.riemann_calls += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _fft_wrapper(self, fn):
        spans, stack = self.spans, self._stack

        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if stack:
                span = spans[stack[-1]]
                span.ffts += 1
                span.fft_bytes += numpy.asarray(a).nbytes + out.nbytes
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's time minus its children's, in span order."""
        self_s = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                self_s[s.parent] -= s.duration
        return self_s

    def layer_s(self) -> float:
        """Time spent in layer spans: the self time of every span except
        the scenarios.  Calls are single-threaded, so spans never overlap."""
        return sum(t for s, t in zip(self.spans, self.self_times())
                   if s.name not in SCENARIOS)

    def layer_metrics(self, runs: int, bytes_written: int = 0) -> dict:
        """Per-layer metrics of one traced run: totals divided by ``runs``,
        ratios taken between totals.  ``bytes_written`` is what one run
        wrote to disk."""
        spans = self.spans
        self_s = self.self_times()

        def seconds(group):
            return sum(s.duration for s in group)

        def self_seconds(layer):
            return sum(t for s, t in zip(spans, self_s) if s.layer == layer)

        solves = [s for s in spans if s.name == "solver.run"]
        traces = [s for s in spans if s.name == "characteristics.trace"]
        # a run that raised has no result, so no steps or snapshots
        steps = sum(s.info.get("steps", 0) for s in solves)
        # 1 evaluation at the curve start, 5 per RK4 step (4 stages + sample)
        point_evals = sum(1 + 5 * max(s.info.get("samples", 1) - 1, 0)
                          for s in traces)
        total = {
            "solver.run_s": seconds(solves),
            "solver.runs": len(solves),
            "solver.steps": steps,
            "solver.snapshots": sum(s.info.get("snapshots", 0) for s in solves),
            "field.fft_calls": sum(s.ffts for s in spans),
            "field.fft_bytes_computed": sum(s.fft_bytes for s in spans),
            "characteristics.trace_s": seconds(traces),
            "characteristics.first_trace_s": seconds(s for s in spans if s.first),
            "characteristics.spotcheck_s": seconds(
                s for s in spans if s.name == "characteristics.dual_growth_spotcheck"),
            "characteristics.curves": len(traces),
            "characteristics.samples": sum(s.info.get("samples", 0) for s in traces),
            "characteristics.point_evals": point_evals,
            "riemann.calls": self.riemann_calls,
            "riemann.s": self.riemann_s,
            "verify.self_s": self_seconds("verify"),
            "cli.command_s": seconds(s for s in spans if s.layer == "cli"),
            "cli.emit_s": self_seconds("cli"),
        }
        m = {k: v / runs for k, v in total.items()}
        m["solver.ms_per_step"] = _ratio(1e3 * total["solver.run_s"], steps)
        m["solver.ffts_per_step"] = _ratio(sum(s.ffts for s in solves), steps)
        m["characteristics.us_per_point_eval"] = _ratio(
            1e6 * total["characteristics.trace_s"], point_evals)
        m["cli.bytes_written"] = bytes_written
        m["cli.emit_mb_per_s"] = _ratio(bytes_written / 1e6, m["cli.emit_s"])
        return m


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _annotate(span: Span, result) -> None:
    if span.name == "solver.run":
        span.info["steps"] = result.steps
        span.info["snapshots"] = len(result.snapshots)
    elif span.name == "characteristics.trace":
        span.info["samples"] = len(result.samples)
