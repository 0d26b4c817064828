"""Tests of the benchmark's tracer and correctness gate.

    python3 -m pytest perfbench -q
"""

import json
import sys

import numpy as np
import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))


class Boom(Exception):
    pass


def fake_clock(*times):
    return iter(times).__next__


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer(clock=fake_clock(0.0, 2.0, 5.0, 6.0, 6.25, 6.75, 7.0, 10.0))
    outer = tracer.open("outer")
    a = tracer.open("a")
    tracer.close(a)
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    tracer.close(outer)
    assert dict(tracer.self_s) == {"outer": 6.0, "a": 3.0, "b": 0.5, "c": 0.5}
    assert dict(tracer.calls) == {"outer": 1, "a": 1, "b": 1, "c": 1}
    assert tracer.stack == []


def test_self_time_accumulates_over_calls():
    tracer = spans.Tracer(clock=fake_clock(0.0, 1.0, 1.5, 2.5, 3.0, 4.0))
    parent = tracer.open("p")
    for _ in range(2):
        child = tracer.open("c")
        tracer.close(child)
    tracer.close(parent)
    assert tracer.self_s["c"] == 1.0
    assert tracer.self_s["p"] == 3.0
    assert tracer.calls["c"] == 2


def test_close_out_of_order_is_an_error():
    tracer = spans.Tracer()
    first = tracer.open("first")
    tracer.open("second")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_plain_wrapper_is_transparent():
    result = object()

    def f(x, y=1):
        """doc"""
        return result

    tracer = spans.Tracer()
    traced = tracer.wrap("m.f", f)
    assert traced(3, y=2) is result
    assert traced.__name__ == "f" and traced.__doc__ == "doc" and traced.__wrapped__ is f
    assert tracer.calls["m.f"] == 1


@pytest.mark.parametrize("kind", ["plain", "quadrature", "ring", "ode", "emit"])
def test_wrapper_raises_the_same_exception(kind):
    error = Boom("x")

    def f(*args):
        raise error

    tracer = spans.Tracer()
    traced = tracer.wrap("m.f", f, kind)
    with pytest.raises(Boom) as info:
        traced(lambda z: z)
    assert info.value is error
    assert tracer.stack == [] and tracer.calls["m.f"] == 1


def test_quadrature_and_ring_count_points_and_keep_values():
    def ring(f, r):
        return float(np.mean(f(r * np.exp(2j * np.pi * np.arange(64) / 64))))

    def quadrature(f, radius):
        return sum(traced_ring(f, r) for r in (0.5 * radius, radius))

    tracer = spans.Tracer()
    traced_ring = tracer.wrap(spans.RING, ring, "ring")
    traced_quad = tracer.wrap("numerics.integrate_disk", quadrature, "quadrature")

    def integrand(z):
        return np.abs(z) ** 2

    expected = sum(ring(integrand, r) for r in (1.0, 2.0))
    assert traced_quad(integrand, 2.0) == expected
    metrics = spans.layer_metrics(tracer)
    assert metrics["numerics.integrate_disk.points"] == 128
    assert metrics["numerics.ring.points"] == 128
    assert metrics["numerics.ring.calls"] == 2
    assert metrics["numerics.ring.points_per_call"] == 64
    assert metrics["numerics.ring.orphan_calls"] == 0

    traced_ring(integrand, 1.0)
    assert spans.layer_metrics(tracer)["numerics.ring.orphan_calls"] == 1


def test_budget_error_counted_once_per_exception():
    def ring(f, r):
        raise Boom("budget")

    def quadrature(f):
        return traced_ring(f, 1.0)

    tracer = spans.Tracer(budget_error=Boom)
    traced_ring = tracer.wrap(spans.RING, ring, "ring")
    traced_quad = tracer.wrap("numerics.integrate_plane", quadrature, "quadrature")
    with pytest.raises(Boom):
        traced_quad(lambda z: z)
    assert tracer.counts["numerics.quad_budget_errors"] == 1


def test_ode_wrapper_counts_rhs_calls():
    def integrate(rhs, y0, steps):
        y = y0
        for k in range(steps):
            y = y + rhs(k, y)
        return y

    tracer = spans.Tracer()
    traced = tracer.wrap("numerics.ode_integrate", integrate, "ode")
    assert traced(lambda t, y: 2 * y, 1, 5) == integrate(lambda t, y: 2 * y, 1, 5)
    assert spans.layer_metrics(tracer)["numerics.ode_integrate.rhs_calls"] == 5


def test_emit_wrapper_keeps_value_and_counts_bytes(tmp_path):
    from liouville_lab import report

    entries = [report.ReportEntry(check_id="c", params={"N": 1}, measured=1.0,
                                  expected=1.0, tolerance=1e-12, provenance=report.PROVENANCES[0])]
    tracer = spans.Tracer()
    traced = tracer.wrap("report.emit", report.emit, "emit")
    plain_path, traced_path, keyword_path = (tmp_path / name for name in ("a", "b", "c"))
    assert traced(entries, "json", traced_path) == report.emit(entries, "json", plain_path)
    traced(entries, "json", path=keyword_path)
    assert traced_path.read_bytes() == keyword_path.read_bytes() == plain_path.read_bytes()
    metrics = spans.layer_metrics(tracer)
    assert metrics["report.emit.calls"] == 2
    assert metrics["report.emit.bytes"] == 2 * plain_path.stat().st_size


def test_wrapper_cost_scales_with_counted_calls():
    tracer = spans.Tracer()
    assert spans.wrapper_cost_s(tracer) == 0.0
    tracer.calls["m.f"] = 1000
    tracer.counts[spans.EVALS] = 1000
    assert spans.wrapper_cost_s(tracer) > 0.0


def test_installed_patches_every_binding_site_and_restores():
    from liouville_lab import bubbles, interaction, numerics, pohozaev
    from liouville_lab.bubbles import BubbleParams

    originals = (numerics.integrate_disk, numerics._circle_mean, bubbles.integrate_plane)
    params = BubbleParams(N=0, mu=2.0, p=0j, h=8.0)
    untraced = bubbles.total_mass(params)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for module in (numerics, interaction, pohozaev):
            assert module.integrate_disk.__wrapped__ is originals[0]
        traced = bubbles.total_mass(params)
    assert traced == untraced
    assert (numerics.integrate_disk, numerics._circle_mean, bubbles.integrate_plane) == originals
    metrics = spans.layer_metrics(tracer)
    assert metrics["bubbles.total_mass.calls"] == 1
    assert metrics["numerics.integrate_plane.calls"] == 1
    assert metrics["numerics.ring.calls"] > 0
    assert metrics["numerics.ring.points"] == metrics["numerics.integrate_plane.points"]
    assert metrics["numerics.ring.orphan_calls"] == 0


def test_grade_recomputes_each_verdict():
    def entry(measured, expected, tolerance, verdict):
        return {"measured": measured, "expected": expected, "tolerance": tolerance,
                "pass": verdict}

    report = json.dumps([entry(1.0, 1.0, 0.0, True), entry(0.0, 1e-13, 1e-12, True),
                         entry(2.0, 1.0, 0.1, True), entry(1.0, 1.0, 0.0, False)])
    assert run.grade(report.encode()) == (4, 2)

