"""Span tracer for the benchmark's traced run.

The layers of ``liouville_lab`` are traced from outside the package: each
entry point listed in ``TARGETS`` is replaced by a wrapper at every module
attribute that binds it.  ``from .numerics import integrate_disk`` copies the
function into the importing module, so patching ``numerics`` alone would miss
the call sites; ``installed`` therefore scans every loaded module of the package
for the original function object.

Each wrapped call opens a span whose parent is the innermost span still open.
A span's self time is its duration minus the durations of its child spans.
Quadrature entry points and the ring mean also count the integrand points
they evaluate, by wrapping the integrand they are handed; ``ode_integrate``
counts right-hand-side calls the same way.  The wrappers return what the
wrapped function returns and let its exceptions through unchanged.

``wrapper_cost_s`` estimates what tracing added to a run from machine-local
per-call costs and the tracer's call counts, because on long passes the
difference between a traced and an untraced pass is smaller than the noise.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "liouville_lab"
RING = "numerics.ring"
QUADRATURE = ("numerics.integrate_plane", "numerics.integrate_disk",
              "numerics.integrate_circle")
EVALS = "trace.evals"   # calls through a counting integrand or right-hand side

# (module, attribute, span name, wrapper kind)
TARGETS = (
    ("numerics", "_circle_mean", RING, "ring"),
    ("numerics", "integrate_plane", "numerics.integrate_plane", "quadrature"),
    ("numerics", "integrate_disk", "numerics.integrate_disk", "quadrature"),
    ("numerics", "integrate_circle", "numerics.integrate_circle", "quadrature"),
    ("numerics", "ode_integrate", "numerics.ode_integrate", "ode"),
    ("numerics", "solve_with_diagnostics", "numerics.solve_with_diagnostics", "plain"),
    ("interaction", "moment_integrals", "interaction.moment_integrals", "plain"),
    ("interaction", "interaction_coefficient", "interaction.interaction_coefficient", "plain"),
    ("pohozaev", "pohozaev_check", "pohozaev.pohozaev_check", "plain"),
    ("pohozaev", "coefficient_contrast", "pohozaev.coefficient_contrast", "plain"),
    ("pohozaev", "byparts_identity", "pohozaev.byparts_identity", "plain"),
    ("bubbles", "total_mass", "bubbles.total_mass", "plain"),
    ("bubbles", "find_maxima", "bubbles.find_maxima", "plain"),
    ("kernels", "principal_eigenvalue", "kernels.principal_eigenvalue", "plain"),
    ("radial", "trace_branch", "radial.trace_branch", "plain"),
    ("radial", "branch_mass", "radial.branch_mass", "plain"),
    ("radial", "shoot_radial", "radial.shoot_radial", "plain"),
    ("harmonic", "grad_h_at_roots", "harmonic.grad_h_at_roots", "plain"),
    ("maxima", "solve_maxima_system", "maxima.solve_maxima_system", "plain"),
    ("report", "emit", "report.emit", "emit"),
    ("config", "load_defaults", "config.load_defaults", "plain"),
)


class Span:
    __slots__ = ("name", "parent", "start", "child_s")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Aggregates calls, self time and counts per span name."""

    def __init__(self, clock=time.perf_counter, budget_error=None):
        self.clock = clock
        self.budget_error = budget_error
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._budget_errors = []

    def open(self, name: str) -> Span:
        self.calls[name] += 1
        span = Span(name, self.stack[-1] if self.stack else None, self.clock())
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        duration = self.clock() - span.start
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.self_s[span.name] += duration - span.child_s
        if span.parent is not None:
            span.parent.child_s += duration

    def counted(self, f, key: str):
        """``f`` with the size of each argument added to ``counts[key]``."""
        counts = self.counts

        def counted_integrand(z):
            counts[key] += getattr(z, "size", 1)
            counts[EVALS] += 1
            return f(z)

        return counted_integrand

    def _note_error(self, exc: BaseException) -> None:
        if self.budget_error is not None and isinstance(exc, self.budget_error) \
                and not any(seen is exc for seen in self._budget_errors):
            self._budget_errors.append(exc)
            self.counts["numerics.quad_budget_errors"] += 1

    def wrap(self, name: str, fn, kind: str = "plain"):
        """A traced stand-in for ``fn``; ``kind`` selects what it counts."""
        tracer = self

        if kind == "plain":
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(span)
        elif kind in ("ring", "quadrature"):
            def traced(f, *args, **kwargs):
                span = tracer.open(name)
                if kind == "ring" and (span.parent is None or span.parent.name not in QUADRATURE):
                    tracer.counts[RING + ".orphan_calls"] += 1
                try:
                    return fn(tracer.counted(f, name + ".points"), *args, **kwargs)
                except BaseException as exc:
                    tracer._note_error(exc)
                    raise
                finally:
                    tracer.close(span)
        elif kind == "ode":
            def traced(rhs, *args, **kwargs):
                counts = tracer.counts

                def counted_rhs(*rhs_args):
                    counts[name + ".rhs_calls"] += 1
                    counts[EVALS] += 1
                    return rhs(*rhs_args)

                span = tracer.open(name)
                try:
                    return fn(counted_rhs, *args, **kwargs)
                finally:
                    tracer.close(span)
        elif kind == "emit":
            def traced(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
                path = args[2] if len(args) > 2 else kwargs["path"]
                tracer.counts[name + ".bytes"] += os.path.getsize(path)
                return result
        else:
            raise ValueError(f"unknown wrapper kind: {kind}")
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding site of each target in ``liouville_lab`` while the block runs."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    patched = []
    try:
        for module_name, attr, name, kind in TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            wrapper = tracer.wrap(name, original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values named ``<layer>.<fn>.<quantity>``."""
    out = {}
    for _, _, name, kind in TARGETS:
        out[name + ".calls"] = tracer.calls[name]
        out[name + ".self_s"] = tracer.self_s[name]
        if kind in ("ring", "quadrature"):
            out[name + ".points"] = tracer.counts[name + ".points"]
        elif kind == "ode":
            out[name + ".rhs_calls"] = tracer.counts[name + ".rhs_calls"]
        elif kind == "emit":
            out[name + ".bytes"] = tracer.counts[name + ".bytes"]
    calls = tracer.calls[RING]
    out[RING + ".points_per_call"] = tracer.counts[RING + ".points"] / calls if calls else 0.0
    out[RING + ".orphan_calls"] = tracer.counts[RING + ".orphan_calls"]
    out["numerics.quad_budget_errors"] = tracer.counts["numerics.quad_budget_errors"]
    return out


def _per_call_s(fn, calls: int = 20000, repeats: int = 5) -> float:
    """Fastest seconds per call of ``fn(None)`` over ``repeats`` loops of ``calls`` calls."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn(None)
        best = min(best, time.perf_counter() - start)
    return best / calls


def wrapper_cost_s(tracer: Tracer) -> float:
    """Estimated seconds the wrappers added to what ``tracer`` saw.

    The cost of one span and of one counted evaluation is measured here on a
    no-op, then multiplied by the spans and evaluations the tracer counted.
    """
    probe = Tracer()

    def noop(z):
        return z

    bare = _per_call_s(noop)
    span = _per_call_s(probe.wrap("probe", noop)) - bare
    evaluation = _per_call_s(probe.counted(noop, "probe.points")) - bare
    return sum(tracer.calls.values()) * span + tracer.counts[EVALS] * evaluation
