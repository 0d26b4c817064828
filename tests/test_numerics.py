import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouville_lab import numerics, scenarios
from liouville_lab.bubbles import BubbleParams, bubble_density, bubble_gradient, density_peak
from liouville_lab.errors import NyquistError, QuadratureBudgetError, StiffODEError
from liouville_lab.numerics import (
    QuadratureSpec,
    _circle_mean,
    _peak_grading,
    _ring_nodes,
    circle_fourier,
    integrate_circle,
    integrate_disk,
    integrate_interval,
    integrate_plane,
    ode_integrate,
    peak_beta,
    sample_circle,
    solve_with_diagnostics,
)
from oracles import GradientMismatchError, fd_check, make_polar_grid, riemann_sum, trig_sum

SPEC = QuadratureSpec()


class TestIntegratePlane:
    def test_zero_integrand(self):
        assert integrate_plane(lambda z: np.zeros(np.shape(z)), SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_sixteen_pi_moment(self):
        val = integrate_plane(lambda z: z.real ** 2 / (1 + np.abs(z) ** 2 / 8) ** 3, SPEC)
        assert val == pytest.approx(16 * math.pi, rel=1e-8)

    def test_planar_bubble_integral(self):
        # oracle: with u = r^2/8, integral = 8 pi int_0^inf (1+u)^-2 du = 8 pi;
        # cross-checked by a brute-force polar Riemann sum
        grid = make_polar_grid(r_max=400.0, n_r=120000, n_theta=16)
        brute = riemann_sum(lambda z: 1 / (1 + np.abs(z) ** 2 / 8) ** 2, grid)
        assert brute == pytest.approx(8 * math.pi, rel=1e-2)
        val = integrate_plane(lambda z: 1 / (1 + np.abs(z) ** 2 / 8) ** 2, SPEC)
        assert val == pytest.approx(8 * math.pi, rel=1e-8)

    def test_rotation_invariance(self):
        def f(z):
            return (z.real ** 2 + 0.5 * z.real * z.imag) / (1 + np.abs(z) ** 2 / 8) ** 3

        rot = np.exp(0.7j)
        base = integrate_plane(f, SPEC)
        rotated = integrate_plane(lambda z: f(z * rot), SPEC)
        assert abs(rotated - base) <= 10 * SPEC.rel_tol * abs(base)

    def test_peak_hint_requires_the_symmetry(self):
        # the hint's K = 3 sector would average one third of an asymmetric f
        params = BubbleParams(N=2, mu=6.0, p=0.02, h=72.0)
        with pytest.raises(ValueError, match="3-fold symmetric"):
            integrate_plane(lambda z: bubble_density(params, z) * (1.0 + 0.1 * z.real), SPEC,
                            peak=density_peak(params))

    def test_peak_at_the_centre(self):
        # q = 0 puts the K peaks at r = 0, where the radial width in r is
        # width^(1/K); the planar bubble is radial, so any K is a symmetry
        val = integrate_plane(lambda z: 1 / (1 + np.abs(z) ** 2 / 8) ** 2, SPEC,
                              peak=(0j, 0.01, 2))
        assert val == pytest.approx(8 * math.pi, rel=1e-8)

    def test_budget_exceeded(self):
        # 1/(1+|z|^2) is not integrable over the plane: no budget suffices
        tiny = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)
        with pytest.raises(QuadratureBudgetError):
            integrate_plane(lambda z: 1 / (1 + np.abs(z) ** 2), tiny)


class TestIntegrateIntervalFailures:
    TINY = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)

    BUDGET = "quadrature budget exceeded: more than 200 panels"

    def test_subdivision_limit_is_a_budget_message(self):
        # sin(1/x) oscillates without end toward 0: no number of panels resolves it
        with pytest.raises(QuadratureBudgetError) as info:
            integrate_interval(lambda x: np.sin(1.0 / x), (1e-4, 1.0), self.TINY)
        assert str(info.value) == self.BUDGET
        assert np.isfinite(info.value.value) and info.value.estimate > 0
        # the tolerance the estimate missed is the global test's
        assert info.value.tolerance == max(self.TINY.abs_tol,
                                           self.TINY.rel_tol * abs(info.value.value))
        assert info.value.estimate > info.value.tolerance

    def test_vector_budget_error_names_the_component_that_missed(self):
        # the first component's estimate is the larger in size, but it is within
        # its own tolerance; the error reports the second, which is not
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14)
        with pytest.raises(QuadratureBudgetError) as info:
            integrate_interval(lambda x: np.stack([1e6 + 1e-3 * np.sin(1e5 * x),
                                                   1e-9 * np.sin(1e5 * x)]), (0.0, 1.0), spec)
        assert info.value.tolerance == max(spec.abs_tol, spec.rel_tol * abs(info.value.value[1]))
        assert info.value.estimate > info.value.tolerance

    def test_divergence_is_a_budget_message(self):
        # 1/(1-x), capped near x = 1, diverges like log: the panels halve toward 1
        # until the budget runs out
        with pytest.raises(QuadratureBudgetError) as info:
            integrate_interval(lambda x: 1 / (1 - np.minimum(x, 1 - 1e-15)), (0.0, 1.0),
                               self.TINY)
        assert str(info.value) == self.BUDGET
        assert np.isfinite(info.value.value) and info.value.estimate > 0
        # the same divergence on the plane, 1/(1+|z|^2)
        with pytest.raises(QuadratureBudgetError) as info:
            integrate_plane(lambda z: 1 / (1 + np.abs(z) ** 2), self.TINY)
        assert str(info.value) == self.BUDGET
        assert np.isfinite(info.value.value) and info.value.estimate > 0


def _recording(f):
    """f, plus the list of point arrays it was called with."""
    calls = []

    def g(z):
        calls.append(z)
        return f(z)

    return g, calls


class TestRingPointCounts:
    """The integrand points and calls the ring scenarios make at their
    defaults, counted at the ``_circle_mean`` boundary: a cheaper integrand
    must gain per point, with every convergence decision where it was, and the
    calls follow from the points and ``RING_BATCH_POINTS``.  A change of the
    first panels (``_peak_edges``) moves these counts."""

    @staticmethod
    def _counts(monkeypatch, run):
        counted = []

        def counting(f, *args, **kwargs):
            g, calls = _recording(f)
            try:
                return _circle_mean(g, *args, **kwargs)
            finally:
                counted.extend(z.size for z in calls)

        monkeypatch.setattr(numerics, "_circle_mean", counting)
        run()
        return sum(counted), len(counted)

    def test_moments(self, monkeypatch):
        assert self._counts(monkeypatch, scenarios.scenario_moments) == (1_001_856, 337)

    def test_pohozaev(self, monkeypatch):
        mu = scenarios.INPUTS["pohozaev"]["mu"].default
        assert self._counts(monkeypatch, lambda: scenarios.scenario_pohozaev(mu)) \
            == (434_304, 171)

    LIGHT_SUITE = {"bubble": (129_024, 42), "interaction": (134_400, 46),
                   "conjecture-disk": (18_816, 6)}

    @pytest.mark.parametrize("name", LIGHT_SUITE)
    def test_light_suite(self, monkeypatch, name):
        assert self._counts(monkeypatch, lambda: scenarios.run_scenario(name)) \
            == self.LIGHT_SUITE[name]


# the minor page faults of a second run of each scenario, after one run of
# every scenario, in a fresh interpreter: {scenario: faults}
_FAULTS = """
import json, resource
from liouville_lab import scenarios

def faults(name):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    scenarios.run_scenario(name)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

for name in scenarios.INPUTS:
    scenarios.run_scenario(name)
print(json.dumps({name: faults(name) for name in scenarios.INPUTS}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's trim threshold")
def test_warm_ring_scenarios_do_not_page_fault():
    # a freed heap top above glibc's trim threshold goes back to the OS, and
    # the next call faults it in again.  In this probe ring calls of 8,192
    # points read about 1,040 faults on interaction and up to 870 on
    # pohozaev, and calls of 3,500 points at most 24.  A call's z and F,
    # RING_BATCH_POINTS complex points each, stay under 64 KiB
    assert numerics.RING_BATCH_POINTS * np.dtype(complex).itemsize < 64 * 1024
    pytest.importorskip("resource")
    src = Path(numerics.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(faults) == set(scenarios.INPUTS)
    assert all(count < 1000 for count in faults.values()), faults


def _moment_fields(z):
    # three components of different size and sign, all decaying like |z|^-4
    base = 1.0 / (1.0 + np.abs(z) ** 2 / 8.0) ** 3
    return np.stack([z.real ** 2 * base, (z.real - 0.3 * z.imag) * base, base])


class TestCircleMean:
    PEAK = BubbleParams(N=1, mu=8.0, p=0j, h=32.0)   # maxima ring |y| = 1, width e^-4

    def test_each_angle_evaluated_once(self):
        f, calls = _recording(lambda z: bubble_density(self.PEAK, z))
        _circle_mean(f, 0j, 1.0, 1e-10, 1e-13)
        z = np.concatenate(calls)
        m_final = z.size
        assert m_final >= 512 and m_final & (m_final - 1) == 0   # several doublings
        k = np.sort(np.round(np.angle(z) / math.tau * m_final) % m_final)
        assert np.array_equal(k, np.arange(m_final))

    def test_nested_mean_matches_one_shot_trapezoid(self):
        def f(z):
            return bubble_density(self.PEAK, z)

        rec, calls = _recording(f)
        for r in (0.99, 1.0, 1.003):
            calls.clear()
            nested = _circle_mean(rec, 0.1j, r, 1e-10, 1e-13)
            m = sum(z.size for z in calls)
            one_shot = np.mean(f(0.1j + r * np.exp(1j * math.tau * np.arange(m) / m)))
            assert abs(nested - one_shot) <= 1e-14 * abs(one_shot)

    def test_vector_converges_on_every_component(self):
        # the smooth component alone stops at 128 points; the peaked one needs more
        def smooth(z):
            return np.ones(z.shape)

        def peaked(z):
            return bubble_density(self.PEAK, z)

        rec, calls = _recording(lambda z: np.stack([smooth(z), peaked(z)]))
        mean = _circle_mean(rec, 0j, 1.0, 1e-10, 1e-13)
        assert mean.shape == (2,)
        assert mean[0] == pytest.approx(1.0, rel=1e-15)
        assert mean[1] == pytest.approx(_circle_mean(peaked, 0j, 1.0, 1e-10, 1e-13), rel=1e-14)
        assert sum(z.size for z in calls) > 128

    def test_vector_budget_error_carries_value_and_estimate(self, monkeypatch):
        rng = np.random.default_rng(0)
        monkeypatch.setattr(numerics, "RING_MAX_POINTS", 1024)
        with pytest.raises(QuadratureBudgetError) as info:
            _circle_mean(lambda z: np.stack([np.ones(z.shape), rng.standard_normal(z.shape)]),
                         0j, 1.0, 1e-12, 1e-15)
        assert info.value.value.shape == (2,) and info.value.estimate > 0
        # the tolerance is the noisy component's, not the 1e-12 x 1 of the constant one
        assert info.value.estimate > info.value.tolerance and info.value.tolerance < 1e-12

    def test_budget_error_names_the_component_that_missed(self, monkeypatch):
        # cos(64 theta) is 1 on the 64 first points and -1 on the 64 new ones:
        # the first component moves by 1e-4, within its 1e-2, the second by
        # 1e-6, far outside its 1e-12; the error reports the second
        monkeypatch.setattr(numerics, "RING_MAX_POINTS", 128)

        def f(z):
            wave = np.cos(64 * np.angle(z))
            return np.stack([1e6 * (1.0 + 1e-10 * wave), 1e-6 * wave])

        with pytest.raises(QuadratureBudgetError) as info:
            _circle_mean(f, 0j, 1.0, 1e-8, 1e-12)
        assert info.value.tolerance == pytest.approx(1e-12)
        assert info.value.estimate == pytest.approx(1e-6)


def _peak_radius(params):
    """Radius of the ring through the N+1 maxima, |y|^(N+1) = |1 + p|."""
    return abs(1.0 + params.p) ** (1.0 / (params.N + 1))


def _mpmath_peak_mean(params):
    """Mean of the bubble density over the peak ring, from mpmath to 30 digits.

    With y = r0 e^(i theta), r0^(N+1) = a = |1 + p| and phi = (N+1) theta - psi0,
    |y^(N+1) - 1 - p|^2 = 2 a^2 (1 - cos phi), so the density is a function of
    phi alone and its ring mean is the 1-D periodic integral
    (1/2 pi) int r0^2N h e^mu / (1 + 2 c a^2 (1 - cos phi))^2 dphi.
    """
    with mpmath.workdps(40):
        a = abs(mpmath.mpc(1 + params.p.real, params.p.imag))
        r0_2n = a ** (mpmath.mpf(2 * params.N) / (params.N + 1))
        c = params.h * mpmath.exp(params.mu) / (8 * (params.N + 1) ** 2)
        amp = r0_2n * params.h * mpmath.exp(params.mu)

        def density(phi):
            return amp / (1 + 2 * c * a ** 2 * (1 - mpmath.cos(phi))) ** 2

        return float(mpmath.quad(density, [-mpmath.pi, 0, mpmath.pi]) / (2 * mpmath.pi))


class TestGradedRing:
    # the moment scenario's ring tolerances (rel_tol 1e-9 and abs_tol 1e-12, times 0.1)
    REL, ABS = 1e-10, 1e-13
    CASES = [BubbleParams(N=N, mu=8.0, p=0.1 * np.exp(0.9j), h=8.0 * (N + 1) ** 2)
             for N in range(4)]

    def test_each_phi_node_evaluated_once(self):
        params = BubbleParams(N=2, mu=8.0, p=0.05 - 0.08j, h=72.0)
        r = _peak_radius(params)
        K, psi0, beta = _peak_grading(*density_peak(params), r)
        # the peak's own grading converges at 128 points; one four times
        # coarser needs several doublings
        beta = 4.0 * beta
        assert beta < 1.0
        f, calls = _recording(lambda z: bubble_density(params, z))
        _circle_mean(f, 0j, r, self.REL, self.ABS, grading=(K, psi0, beta))
        z = np.concatenate(calls)
        m_final = z.size
        assert m_final >= 256 and m_final & (m_final - 1) == 0   # several doublings
        nodes, _ = _ring_nodes(m_final, False, K, float(beta))
        grid = np.sort(np.mod(np.angle(nodes) + psi0 / K, math.tau))
        seen = np.sort(np.mod(np.angle(z), math.tau))
        assert np.all(np.diff(seen) > 0)
        gap = np.abs(seen - grid)
        assert np.max(np.minimum(gap, math.tau - gap)) <= 1e-12

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"N{p.N}")
    def test_graded_matches_uniform(self, params):
        # every component (N+1)-fold symmetric, as the grading's sector requires
        def f(z):
            d = bubble_density(params, z)
            return np.stack([d, d * (z ** (params.N + 1)).real, d * (1.0 - np.abs(z) ** 2)])

        peak = density_peak(params)
        r0 = _peak_radius(params)
        for r in (r0, 0.97 * r0, 1.004 * r0, 1.1 * r0):
            uniform = _circle_mean(f, 0j, r, self.REL, self.ABS)
            graded = _circle_mean(f, 0j, r, self.REL, self.ABS,
                                  grading=_peak_grading(*peak, r))
            scale = abs(uniform[0])
            assert np.all(np.abs(graded - uniform) <= 1e-13 * scale)
            scalar = _circle_mean(lambda z: bubble_density(params, z), 0j, r, self.REL,
                                  self.ABS, grading=_peak_grading(*peak, r))
            assert scalar == pytest.approx(uniform[0], rel=1e-13)

    def test_budget_error_carries_value_and_estimate(self, monkeypatch):
        params = self.CASES[3]
        r = _peak_radius(params)
        # the smallest cap that makes one convergence test: 64 points, then 128
        monkeypatch.setattr(numerics, "RING_MAX_POINTS", 128)
        with pytest.raises(QuadratureBudgetError) as info:
            _circle_mean(lambda z: bubble_density(params, z), 0j, r, 1e-14, 1e-15,
                         grading=_peak_grading(*density_peak(params), r))
        assert np.isfinite(info.value.value) and info.value.estimate > 0

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"N{p.N}")
    def test_mpmath_oracle_at_peak_radius(self, params):
        r = _peak_radius(params)
        graded = _circle_mean(lambda z: bubble_density(params, z), 0j, r, self.REL,
                              self.ABS, grading=_peak_grading(*density_peak(params), r))
        assert graded == pytest.approx(_mpmath_peak_mean(params), rel=1e-13)

    def test_peak_ring_point_count(self):
        # N = 3, mu = 8: the uniform rule needs 16384 points on this ring; the
        # graded rule 128 on its quarter-circle sector (512 on the whole circle)
        params = BubbleParams(N=3, mu=8.0, p=0j, h=128.0)
        counts = []
        for grading in (None, _peak_grading(*density_peak(params), 1.0)):
            f, calls = _recording(lambda z: bubble_density(params, z))
            _circle_mean(f, 0j, 1.0, self.REL, self.ABS, grading=grading)
            counts.append(sum(z.size for z in calls))
        uniform, graded = counts
        assert graded <= 256 < uniform

    def test_unit_beta_is_the_uniform_rule(self):
        # the uniform rule on the sector [0, tau/3)
        nodes, weights = _ring_nodes(256, True, 3, 1.0)
        assert weights is None
        assert np.array_equal(nodes, np.exp(1j * math.tau * np.arange(1, 256, 2) / (3 * 256)))
        def f(z):
            return bubble_density(self.CASES[1], z)

        assert _circle_mean(f, 0j, 1.02, self.REL, self.ABS, grading=(2, 0.3, 1.0)) \
            == pytest.approx(_circle_mean(f, 0j, 1.02, self.REL, self.ABS), rel=1e-13)

    def test_node_opposite_the_peak_at_tiny_beta(self):
        # the node at x = pi sits at theta = pi with weight 1 / beta for every
        # beta = 2^-e, with no warning: cos(x/2) is exactly 0 there, where
        # sin(pi) = 1.2e-16 would move it by about 1e-16 / beta
        for e in range(1, 61):
            nodes, weights = _ring_nodes(64, False, 1, 2.0 ** -e)
            assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights)), e
            assert abs(nodes[32] + 1.0) <= 1e-15, e
            assert weights[32] == 2.0 ** e, e


@settings(max_examples=30, deadline=None)
@given(K=st.integers(min_value=2, max_value=4),
       scale=st.floats(min_value=0.6, max_value=1.4),
       psi0=st.floats(min_value=-math.pi, max_value=math.pi),
       exponent=st.integers(min_value=0, max_value=6))
def test_sector_rule_matches_the_whole_circle(K, scale, psi0, exponent):
    # the N = K - 1 bubble density is K-fold symmetric, so one graded sector
    # of tau/K gives the mean of the whole circle
    params = BubbleParams(N=K - 1, mu=8.0, p=0.1 * np.exp(0.9j), h=8.0 * K ** 2)
    r = scale * _peak_radius(params)
    beta = 0.5 ** exponent
    f, calls = _recording(lambda z: bubble_density(params, z))
    sector = _circle_mean(f, 0j, r, TestGradedRing.REL, TestGradedRing.ABS,
                          grading=(K, psi0, beta))
    whole = _circle_mean(lambda z: bubble_density(params, z), 0j, r, TestGradedRing.REL,
                         TestGradedRing.ABS)
    assert sector == pytest.approx(whole, rel=1e-13)
    # a graded sector starts at its peak psi0 / K, a uniform one (beta = 1) at 0
    start = psi0 / K if beta < 1.0 else 0.0
    offset = np.mod(np.angle(np.concatenate(calls)) - start + 1e-12, math.tau)
    assert np.all(offset < math.tau / K + 1e-12)


def _mpmath_ring_mean(params, center, r, psi):
    """Mean of the bubble density over the circle |y - center| = r, from mpmath.

    The density is written out in mpmath, (|y|^2N h e^mu) / (1 + c |y^(N+1) - 1 - p|^2)^2,
    and integrated in theta with breakpoints at the peak angle psi and near it.
    """
    with mpmath.workdps(30):
        c = params.h * mpmath.exp(params.mu) / (8 * (params.N + 1) ** 2)
        p = mpmath.mpc(params.p.real, params.p.imag)
        z0 = mpmath.mpc(center.real, center.imag)

        def density(theta):
            y = z0 + r * mpmath.expj(theta)
            g = abs(y ** (params.N + 1) - 1 - p) ** 2
            return abs(y) ** (2 * params.N) * params.h * mpmath.exp(params.mu) / (1 + c * g) ** 2

        cuts = [psi + d for d in (-mpmath.pi, -0.1, -0.01, 0, 0.01, 0.1, mpmath.pi)]
        return float(mpmath.quad(density, cuts) / (2 * mpmath.pi))


class TestGradedDiskRing:
    # rings off the maximum q0 = 1 of the bubble at mu = 10, width e^-5
    REL, ABS = 1e-10, 1e-13
    WIDTH = math.exp(-5.0)

    def _params(self, N):
        return BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)

    def _volume_integrand(self, params):
        # the Pohozaev volume integrand for constant h: 2N |y|^(2N-2) y h e^V
        def f(z):
            lever = 2 * params.N * bubble_density(params, z) / np.abs(z) ** 2
            return np.stack([lever * z.real, lever * z.imag])

        return f

    @pytest.mark.parametrize("N", [1, 2])
    def test_mpmath_oracle_off_centre(self, N):
        params = self._params(N)
        center = np.exp(0.25j)
        s = abs(1.0 - center)
        r = s + self.WIDTH   # passes within e^(-mu/2) of the maximum
        grading = _peak_grading(1.0 - center, self.WIDTH, 1, r)
        assert grading[0] == 1 and grading[2] < 1.0
        graded = _circle_mean(lambda z: bubble_density(params, z), center, r, self.REL,
                              self.ABS, grading=grading)
        psi = float(np.angle(1.0 - center))
        assert graded == pytest.approx(_mpmath_ring_mean(params, center, r, psi), rel=1e-12)

    def test_graded_disk_matches_uniform_with_fewer_points(self, monkeypatch):
        params = self._params(2)
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
        center, radius = np.exp(0.25j), 0.35
        results, counts = [], []
        for graded in (False, True):
            f, calls = _recording(self._volume_integrand(params))
            with monkeypatch.context() as patch:
                if not graded:  # the same breakpoints, every ring uniform
                    patch.setattr(numerics, "_peak_grading", lambda *args: None)
                results.append(integrate_disk(f, center, radius, spec, peak=(1.0, self.WIDTH)))
            counts.append(sum(z.shape[-1] for z in calls))
        uniform, graded = results
        assert np.all(np.abs(graded - uniform)
                      <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(uniform)))
        assert 3 * counts[1] <= counts[0]

    @pytest.mark.parametrize("quadrant", [1, 2, 3, 4])
    def test_peak_in_each_quadrant(self, quadrant):
        # the graded ring must point at the peak: a wrong angle or sign still
        # converges, but needs more points than the uniform rule
        params = self._params(1)
        angle = math.pi / 4 + (quadrant - 1) * math.pi / 2 + 0.1
        center = 1.0 - 0.2 * np.exp(1j * angle)
        grading = _peak_grading(1.0 - center, self.WIDTH, 1, 0.2)
        assert abs(math.remainder(grading[1] - angle, math.tau)) <= 1e-12
        counts, means = [], []
        for g in (None, grading):
            f, calls = _recording(lambda z: bubble_density(params, z))
            means.append(_circle_mean(f, center, 0.2, self.REL, self.ABS, grading=g))
            counts.append(sum(z.size for z in calls))
        assert means[1] == pytest.approx(means[0], rel=1e-12)
        assert 4 * counts[1] <= counts[0]

    def test_centred_peak_is_the_uniform_rule(self, monkeypatch):
        params = self._params(1)
        assert _peak_grading(0j, self.WIDTH, 1, 0.1) is None
        f = self._volume_integrand(params)
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
        peak = (1.0, self.WIDTH)
        graded = integrate_disk(f, 1.0 + 0j, 0.2, spec, peak=peak)
        monkeypatch.setattr(numerics, "_peak_grading", lambda *args: None)
        assert np.array_equal(graded, integrate_disk(f, 1.0 + 0j, 0.2, spec, peak=peak))

    @pytest.mark.parametrize("offset", [5e-324j, np.complex128(5e-324j)],
                             ids=["complex", "complex128"])
    def test_subnormal_offset_from_the_peak(self, offset):
        # the disk centre sits a subnormal distance s from the peak, so r s
        # underflows to 0 on every ring: the grading must give the uniform
        # rule there without dividing by it
        f = self._volume_integrand(self._params(1))
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
        peak = (1.0, self.WIDTH)
        centred = integrate_disk(f, 1.0 + 0j, 0.2, spec, peak=peak)
        shifted = integrate_disk(f, 1.0 + offset, 0.2, spec, peak=peak)
        assert np.all(np.abs(shifted - centred) <= spec.rel_tol * np.abs(centred))


class TestVectorisedGradings:
    """Each grading's array form equals its scalar form, element by element."""

    def test_peak_beta(self):
        w = np.geomspace(1e-6, 4.0, 97)
        beta = peak_beta(w)
        assert np.array_equal(beta, [peak_beta(x) for x in w])
        # min(1, 2w) rounded down to a power of two
        assert np.array_equal(beta, [2.0 ** math.floor(math.log2(min(1.0, 2.0 * x))) for x in w])

    @staticmethod
    def _check_peak_grading(q, width, K):
        s = abs(q) ** (1.0 / K)
        r = np.linspace(0.2 * s, 2.0 * s, 61)
        graded_K, psi0, beta = _peak_grading(q, width, K, r)
        assert graded_K == K and psi0 == math.atan2(q.imag, q.real)
        assert beta.shape == r.shape and 0 < beta.min() < beta.max() == 1.0
        for x, b in zip(r, beta):
            one = _peak_grading(q, width, K, x)
            assert (one is None and b == 1.0) or one == (K, psi0, b)

    def test_peak_grading(self):
        # K = 3: the three maxima of an N = 2 bubble
        self._check_peak_grading(*density_peak(BubbleParams(N=2, mu=8.0, p=0.05 - 0.08j, h=72.0)))

    def test_disk_grading(self):
        # K = 1: a disk's off-centre peak, seen from the disk centre
        self._check_peak_grading(1.0 - np.exp(0.25j), math.exp(-5.0), 1)


class TestGaussKronrod:
    """The qk21 constants against mpmath, independently of the panel rule."""

    @staticmethod
    def _moment_error(weights, degree):
        # |sum w_i x_i^n - int_-1^1 x^n dx|, evaluated in 40 digits
        with mpmath.workdps(40):
            nodes = [mpmath.mpf(float(x)) for x in numerics._GK_NODES]
            rule = mpmath.fsum(mpmath.mpf(float(w)) * x ** degree
                               for w, x in zip(weights, nodes))
            exact = mpmath.mpf(2) / (degree + 1) if degree % 2 == 0 else 0
            return float(abs(rule - exact))

    def test_gauss_nodes_are_the_roots_of_p10(self):
        gauss = numerics._GK_NODES[numerics._GK_GAUSS > 0]
        assert gauss.size == 10
        with mpmath.workdps(40):
            roots = sorted(float(mpmath.findroot(lambda x: mpmath.legendre(10, x), float(x)))
                           for x in gauss)
        assert np.max(np.abs(gauss - roots)) <= 1e-16

    def test_gauss_exact_to_degree_19(self):
        errors = [self._moment_error(numerics._GK_GAUSS, n) for n in range(21)]
        assert max(errors[:20]) <= 1e-15
        assert errors[20] > 1e-8   # and no further

    def test_kronrod_exact_to_degree_31(self):
        errors = [self._moment_error(numerics._GK_KRONROD, n) for n in range(33)]
        assert max(errors[:32]) <= 1e-15
        assert errors[32] > 1e-12   # and no further

    def test_local_error_estimate(self):
        # two components on the one panel [-1, 1]: 1 + x^2, and |x| with its kink
        x = numerics._GK_NODES
        value, err, _ = numerics._gk21(np.stack([1.0 + x ** 2, np.abs(x)])[:, None, :],
                                       np.array([1.0]))
        assert value.shape == err.shape == (2, 1)
        # a polynomial of degree <= 19 leaves only the roundoff floor 50 eps resabs
        assert value[0, 0] == pytest.approx(8.0 / 3.0, rel=1e-15)
        floor = 50.0 * np.finfo(float).eps * 8.0 / 3.0
        assert err[0, 0] == pytest.approx(floor, rel=1e-12, abs=0.0)
        # the kink is not resolved, and the estimate covers the true error
        assert 1e-3 < abs(value[1, 0] - 1.0) <= err[1, 0] < 1.0


class TestBatchedRings:
    PEAK = BubbleParams(N=1, mu=8.0, p=0.05 + 0.02j, h=32.0)
    REL, ABS = 1e-10, 1e-13

    def _f(self, z):
        # three 2-fold symmetric components, as K = 2 grading requires; the
        # third is d dV/dtheta = dd/dtheta, whose mean is 0 on every ring
        d = bubble_density(self.PEAK, z)
        vx, vy = bubble_gradient(self.PEAK, z)
        return np.stack([d, d * (z * z).real, d * (z.real * vy - z.imag * vx)])

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(min_value=0.6, max_value=1.4),
                                   st.integers(min_value=0, max_value=6),
                                   st.floats(min_value=-math.pi, max_value=math.pi)),
                         min_size=1, max_size=6))
    # the d dV/dtheta component's mean, 0 up to roundoff, keeps moving by
    # about 2e-11 > abs_tol: only the roundoff floor lets this ring converge
    @example(rows=[(1.015625, 5, 1.0)])
    def test_batch_equals_one_row_calls(self, rows):
        r, exponent, psi0 = (np.array(v) for v in zip(*rows))
        beta = 0.5 ** exponent
        batch = _circle_mean(self._f, 0j, r, self.REL, self.ABS, grading=(2, psi0, beta))
        assert batch.shape == (3, len(rows))
        for i in range(len(rows)):
            one = _circle_mean(self._f, 0j, r[i], self.REL, self.ABS,
                               grading=(2, psi0[i], beta[i]))
            assert np.all(np.abs(batch[:, i] - one) <= 1e-14 * np.abs(one))

    def test_converged_rows_are_not_evaluated_again(self):
        # a smooth ring converges at 128 points; the peak ring keeps doubling alone
        f, calls = _recording(lambda z: bubble_density(self.PEAK, z))
        smooth, peaked = 0.3, abs(1.0 + self.PEAK.p) ** 0.5
        _circle_mean(f, 0j, smooth, self.REL, self.ABS)
        alone = [sum(z.size for z in calls)]
        calls.clear()
        _circle_mean(f, 0j, peaked, self.REL, self.ABS)
        alone.append(sum(z.size for z in calls))
        calls.clear()
        _circle_mean(f, 0j, np.array([smooth, peaked]), self.REL, self.ABS)
        assert alone[0] == 128 < alone[1]
        assert [z.size for z in calls[:2]] == [128, 128]
        assert sum(z.size for z in calls) == sum(alone)

    def test_large_batches_split_by_rows(self):
        r = np.linspace(0.5, 1.5, 300)
        f, calls = _recording(lambda z: bubble_density(self.PEAK, z))
        batch = _circle_mean(f, 0j, r, self.REL, self.ABS)
        cap = numerics.RING_BATCH_POINTS
        full, rest = divmod(300, cap // 64)   # whole rings of 64 points per call
        assert full >= 2
        split = [cap // 64 * 64] * full + [rest * 64] * (rest > 0)
        assert [z.size for z in calls[:len(split)]] == split
        # a call over the cap holds the new points of one ring, which the
        # peak ring's last doublings exceed
        over = [z for z in calls if z.size > cap]
        assert over and all(np.allclose(np.abs(z), np.abs(z[0]), rtol=1e-14) for z in over)
        one = [_circle_mean(lambda z: bubble_density(self.PEAK, z), 0j, x, self.REL, self.ABS)
               for x in r[::37]]
        assert np.all(np.abs(batch[::37] - one) <= 1e-14 * np.abs(one))

    def test_ring_that_never_converges_in_a_batch(self, monkeypatch):
        rng = np.random.default_rng(1)

        def f(z):   # noise on the unit ring only
            noisy = np.abs(np.abs(z) - 1.0) < 1e-9
            return np.where(noisy, rng.standard_normal(z.shape), np.abs(z) ** 2)

        r = np.array([0.5, 1.0, 1.5])
        monkeypatch.setattr(numerics, "RING_MAX_POINTS", 1024)
        with pytest.raises(QuadratureBudgetError) as info:
            _circle_mean(f, 0j, r, self.REL, self.ABS)
        value = info.value.value
        assert value.shape == (3,) and np.all(np.isfinite(value)) and info.value.estimate > 0
        assert value[[0, 2]] == pytest.approx([0.25, 2.25], rel=1e-14)


# the half-decade steps of the peak mesh, 5 / sqrt(10) and 5 sqrt(10) widths
_R10 = math.sqrt(10.0)


class TestDiskBreakpoints:
    @pytest.mark.parametrize("center, peak, expected", [
        # centred: w/2 to 50w in half decades, and R/2
        (0.3 - 0.4j, (0.3 - 0.4j, 0.002),
         [0.001, 0.01 / _R10, 0.01, 0.01 * _R10, 0.1, 0.5]),
        # s = 0.7: s + 50w = 1.2 lies outside, s - 50w = 0.2 inside
        (0.1j, (0.7 + 0.1j, 0.01),
         [0.2, 0.5, 0.7 - 0.05 * _R10, 0.65, 0.7 - 0.05 / _R10, 0.695, 0.7, 0.705,
          0.7 + 0.05 / _R10, 0.75, 0.7 + 0.05 * _R10]),
        # s = 0.02: s - 5w < 0 and beyond drop out
        (0j, (0.02j, 0.01),
         [0.02 - 0.05 / _R10, 0.015, 0.02, 0.025, 0.02 + 0.05 / _R10, 0.07,
          0.02 + 0.05 * _R10, 0.5, 0.52]),
        # a peak outside the disk leaves R/2
        (0j, (2.0 + 0j, 0.01), [0.5]),
        (0j, None, None),
    ], ids=["centred", "off-centre", "near-centre", "outside", "no-peak"])
    def test_points_from_the_peak(self, monkeypatch, center, peak, expected):
        seen = []

        def spy(f, edges, spec):
            seen.append(edges)
            return 0.0

        monkeypatch.setattr(numerics, "integrate_interval", spy)
        integrate_disk(lambda z: np.ones(np.shape(z)), center, 1.0, SPEC, peak=peak)
        assert len(seen) == 1 and seen[0][0] == 0.0 and seen[0][-1] == 1.0
        if expected is None:
            assert seen[0] == [0.0, 1.0]
        else:
            assert seen[0][1:-1] == pytest.approx(expected, abs=1e-15)

    @given(s=st.floats(min_value=0.0, max_value=2.0),
           width=st.floats(min_value=1e-12, max_value=0.5),
           end=st.floats(min_value=1e-3, max_value=3.0))
    @example(s=0.7, width=0.01, end=1.0)
    @example(s=0.02, width=0.01, end=1.0)
    def test_mesh_refines_the_four_old_edges(self, s, width, end):
        # the half-decade mesh keeps every edge of the old rule s - 5w, s,
        # s + 5w, s + 50w that lies inside (0, end), bit for bit
        new = numerics._peak_edges(s, width, end)
        old = {x for x in (s - 5.0 * width, s, s + 5.0 * width, s + 50.0 * width)
               if 0.0 < x < end}
        assert old <= set(new)
        assert new == sorted(set(new))

    @pytest.mark.parametrize("R", [1e2, 1e4, 1e6, 1e7])
    def test_far_panel_closed_form(self, R):
        # oracle: the disk integral of (1 + |z|^2)^-2 is pi R^2 / (1 + R^2).
        # Past the mesh the first panel [50, R/2] spans up to 5 decades; at
        # R = 1e8 its 21 nodes miss mass and the result reads 4e-4 low
        val = integrate_disk(lambda z: 1.0 / (1.0 + np.abs(z) ** 2) ** 2, 0j, R,
                             QuadratureSpec(), peak=(0j, 1.0))
        assert val == pytest.approx(math.pi * R * R / (1.0 + R * R), abs=1e-14)

    def test_plane_points_from_the_peak(self, monkeypatch):
        # the N = 2, mu = 40 peaks lie at r_s = 1, about 7e-10 wide in r: the
        # plane's first edges must hold t(r_s) between edges 5 widths away
        q, width, K = density_peak(BubbleParams(N=2, mu=40.0, p=0j, h=72.0))
        r_s = abs(q) ** (1.0 / K)
        w = width / (K * r_s ** (K - 1))

        def t(r):
            return r * r / (numerics.PLANE_SCALE + r * r)

        seen = []

        def spy(f, edges, spec):
            seen.append(edges)
            return 0.0

        monkeypatch.setattr(numerics, "integrate_interval", spy)
        integrate_plane(lambda z: np.ones(np.shape(z)), SPEC, peak=(q, width, K))
        assert len(seen) == 1
        edges = np.asarray(seen[0])
        assert edges[0] == 0.0 and edges[-1] == 1.0 and np.all(np.diff(edges) > 0)
        below, above = edges[edges < t(r_s)], edges[edges > t(r_s)]
        assert below.max() >= t(r_s - 5.0 * w) - 1e-16
        assert above.min() <= t(r_s + 5.0 * w) + 1e-16


class TestNestedDisks:
    # the pohozaev scenario's radii about a centre turned 0.25 rad from the
    # N = 2, mu = 10 maximum q0 = 1: the peak lies 0.25 off, outside the
    # three inner disks and inside the last two
    RADII = (0.1, 0.15, 0.2, 0.28, 0.35)
    PARAMS = BubbleParams(N=2, mu=10.0, p=0j, h=72.0)
    PEAK = (1.0 + 0j, math.exp(-5.0))
    SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)

    def _scalar(self, z):
        return bubble_density(self.PARAMS, z)

    def _vector(self, z):
        # the Pohozaev volume integrand for constant h: 2N |y|^(2N-2) y h e^V
        lever = 2 * self.PARAMS.N * bubble_density(self.PARAMS, z) / np.abs(z) ** 2
        return np.stack([lever * z.real, lever * z.imag])

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("center, peak", [
        (np.exp(0.25j), PEAK),
        (1.0 + 0j, PEAK),
        # no hint: a smooth field whose first panels are the radii alone
        (0.4 - 0.2j, None),
    ], ids=["peak-outside-inner", "peak-at-centre", "no-peak"])
    def test_equals_one_call_per_radius(self, vector, center, peak):
        if peak is None:
            f = _moment_fields if vector else (lambda z: _moment_fields(z)[0])
            radii = (0.5, 1.0, 2.0, 3.0)
        else:
            f = self._vector if vector else self._scalar
            radii = self.RADII
        nested = integrate_disk(f, center, radii, self.SPEC, peak=peak)
        for j, radius in enumerate(radii):
            single = integrate_disk(f, center, radius, self.SPEC, peak=peak)
            assert nested[..., j] == pytest.approx(single, rel=1e-12, abs=1e-14)

    def test_shape(self):
        radii = np.array([0.5, 1.0, 2.0])
        assert integrate_disk(lambda z: _moment_fields(z)[2], 0j, radii, SPEC).shape == (3,)
        assert integrate_disk(_moment_fields, 0j, radii, SPEC).shape == (3, 3)
        assert integrate_disk(_moment_fields, 0j, [0.5, 1.0], SPEC).shape == (3, 2)
        assert integrate_disk(_moment_fields, 0j, [1.0], SPEC).shape == (3, 1)
        assert isinstance(integrate_disk(lambda z: _moment_fields(z)[2], 0j, 1.0, SPEC), float)
        assert integrate_disk(_moment_fields, 0j, 1.0, SPEC).shape == (3,)

    @pytest.mark.parametrize("peak", [None, PEAK], ids=["no-peak", "peak"])
    def test_inner_radii_are_first_edges(self, monkeypatch, peak):
        seen = []

        def spy(f, edges, spec):
            seen.append(edges)
            return np.zeros(len(self.RADII))

        monkeypatch.setattr(numerics, "integrate_interval", spy)
        integrate_disk(self._scalar, np.exp(0.25j), self.RADII, self.SPEC, peak=peak)
        assert len(seen) == 1
        edges = seen[0]
        assert edges[0] == 0.0 and edges[-1] == self.RADII[-1] and np.all(np.diff(edges) > 0)
        assert set(self.RADII) <= set(edges)
        if peak is None:
            assert edges == [0.0, *self.RADII]

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf, 0.0, [0.2, 0.1],
                                        [0.1, 0.1], [0.1, -0.2], [], [[0.1, 0.2]]],
                             ids=["negative", "nan", "inf", "zero", "decreasing", "repeated",
                                  "negative-in-sequence", "empty", "two-dimensional"])
    @pytest.mark.parametrize("peak", [None, (0.05 + 0j, 0.01)], ids=["no-peak", "peak"])
    def test_bad_radii_rejected(self, radius, peak):
        with pytest.raises(ValueError, match="radius"):
            integrate_disk(lambda z: np.ones(np.shape(z)), 0j, radius, SPEC, peak=peak)


class TestCircleRadii:
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf],
                             ids=["negative", "zero", "nan", "inf"])
    @pytest.mark.parametrize("in_array", [False, True], ids=["scalar", "in-array"])
    def test_bad_radius_rejected(self, bad, in_array):
        # unchecked, f = 1 integrates to -2 pi at radius -1 and to nan at a nan radius
        radius = np.array([0.5, bad]) if in_array else bad
        with pytest.raises(ValueError, match="radius"):
            integrate_circle(lambda z: np.ones(np.shape(z)), 0j, radius, SPEC)

    def test_good_radii_kept(self):
        def one(z):
            return np.ones(np.shape(z))

        assert integrate_circle(one, 0j, 0.5, SPEC) == pytest.approx(math.pi, rel=1e-14)
        both = integrate_circle(one, 0j, np.array([0.5, 2.0]), SPEC)
        assert both == pytest.approx([math.pi, 4.0 * math.pi], rel=1e-14)


class TestVectorIntegrands:
    def test_plane_components_match_scalar_calls(self):
        vec = integrate_plane(_moment_fields, SPEC)
        assert vec.shape == (3,)
        for i, v in enumerate(vec):
            scalar = integrate_plane(lambda z: _moment_fields(z)[i], SPEC)
            assert abs(v - scalar) <= SPEC.rel_tol * max(abs(scalar), 1.0)
        assert vec[0] == pytest.approx(16 * math.pi, rel=1e-8)

    def test_disk_components_match_scalar_calls(self):
        # a peak of width 0.1 at the origin, 0.45 from the centre: breakpoints
        # at about 0.45, 0.95 and 1.5, and graded rings
        center, radius, peak = 0.4 - 0.2j, 3.0, (0j, 0.1)
        vec = integrate_disk(_moment_fields, center, radius, SPEC, peak=peak)
        assert vec.shape == (3,)
        for i, v in enumerate(vec):
            scalar = integrate_disk(lambda z: _moment_fields(z)[i], center, radius, SPEC,
                                    peak=peak)
            assert abs(v - scalar) <= SPEC.rel_tol * max(abs(scalar), 1.0)

    def test_circle_components_match_scalar_calls(self):
        center, radius = 0.4 - 0.2j, 1.5
        vec = integrate_circle(_moment_fields, center, radius, SPEC)
        assert vec.shape == (3,)
        for i, v in enumerate(vec):
            scalar = integrate_circle(lambda z: _moment_fields(z)[i], center, radius, SPEC)
            assert abs(v - scalar) <= SPEC.rel_tol * max(abs(scalar), 1.0)

    def test_shared_rings_cost_less_than_separate_runs(self):
        def count_points(f):
            rec, calls = _recording(f)
            integrate_plane(rec, SPEC)
            return sum(z.size for z in calls)

        vector = count_points(_moment_fields)
        scalars = [count_points(lambda z, i=i: _moment_fields(z)[i]) for i in range(3)]
        assert vector < sum(scalars)

    def test_vector_budget_exceeded(self):
        tiny = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)

        def f(z):
            slow = 1 / (1 + np.abs(z) ** 2)   # not integrable over the plane
            return np.stack([slow, 2.0 * slow])

        with pytest.raises(QuadratureBudgetError) as info:
            integrate_plane(f, tiny)
        # the panel rule reports every component's current value
        assert info.value.value.shape == (2,)
        assert np.all(np.isfinite(info.value.value)) and info.value.estimate > 0
        # the second component is the first doubled, bit for bit, so the two miss
        # their tolerances by the same ratio: the pair reported is one component's own
        own = [max(tiny.abs_tol, tiny.rel_tol * abs(v)) for v in info.value.value]
        assert info.value.tolerance in own and info.value.estimate > info.value.tolerance


class TestCircleFourier:
    def test_cos_two_theta(self):
        theta = 2 * np.pi * np.arange(64) / 64
        coeffs = circle_fourier(np.cos(2 * theta), n_max=4)
        assert coeffs[2] == pytest.approx(1.0, abs=1e-12)
        others = np.concatenate([coeffs[:2], coeffs[3:]])
        assert np.max(np.abs(others)) <= 1e-12

    def test_constant_plus_sine(self):
        theta = 2 * np.pi * np.arange(64) / 64
        coeffs = circle_fourier(3.0 + np.sin(theta), n_max=4)
        assert coeffs[0] == pytest.approx(3.0, abs=1e-12)
        assert coeffs[1] == pytest.approx(-1j, abs=1e-12)   # c_1 = a_1 - i b_1

    def test_mode_above_truncation_ignored(self):
        theta = 2 * np.pi * np.arange(64) / 64
        coeffs = circle_fourier(np.cos(5 * theta), n_max=2)
        assert coeffs.shape == (3,)
        assert np.max(np.abs(coeffs)) <= 1e-12

    def test_nyquist_violation(self):
        with pytest.raises(NyquistError):
            circle_fourier(np.zeros(16), n_max=8)

    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                                    st.floats(min_value=-1.0, max_value=1.0)),
                          min_size=2, max_size=17),
           extra=st.integers(min_value=0, max_value=3))
    def test_synthesis_round_trip(self, parts, extra):
        # c[0] is a mean, so real; m >= 4 n_max samples of the term-by-term sum
        c = np.array([complex(x, y) for x, y in parts])
        c[0] = c[0].real
        n_max = c.size - 1
        m = 4 * n_max + extra
        back = circle_fourier(trig_sum(c, 1.0, math.tau * np.arange(m) / m), n_max)
        assert back.shape == c.shape
        assert np.max(np.abs(back - c)) <= 1e-14 * (1.0 + np.sum(np.abs(c)))

    def test_sample_circle_shape(self):
        vals = sample_circle(lambda z: np.abs(z) ** 2, 1.0 + 0j, 2.0, 32)
        assert vals.shape == (32,)


class TestOdeIntegrate:
    def test_logarithm(self):
        rs = np.linspace(1.0, 10.0, 30)
        states = ode_integrate(lambda r, y: [y[1], -y[1] / r], [0.0, 1.0], rs,
                               QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13))
        assert states.shape == (2, 30)
        assert states[0, 0] == 0.0
        assert np.max(np.abs(states[0] - np.log(rs))) <= 1e-9

    def test_mode_zero_closed_form(self):
        # candidate (1 - c r^2)/(1 + c r^2), c = 1/8, substituted into the ODE
        c = 0.125

        def g(r):
            return (1 - c * r ** 2) / (1 + c * r ** 2)

        def gp(r):
            return -4 * c * r / (1 + c * r ** 2) ** 2

        def rhs(r, y):
            return [y[1], -y[1] / r - 8 * c / (1 + c * r ** 2) ** 2 * y[0]]

        r0 = 0.1
        rs = np.linspace(r0, 10.0, 50)
        states = ode_integrate(rhs, [g(r0), gp(r0)], rs,
                               QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
        assert np.max(np.abs(states[0] - g(rs))) <= 1e-8

    def test_zero_rhs_constant(self):
        states = ode_integrate(lambda r, y: [0.0], [2.5], np.linspace(0, 5, 10), SPEC)
        assert np.max(np.abs(states[0] - 2.5)) <= 1e-12

    def test_tighter_tolerance_reduces_error(self):
        # a tenfold tolerance drop must cut the end-state error at least 4x
        def err(tol):
            spec = QuadratureSpec(rel_tol=tol, abs_tol=tol * 1e-4)
            states = ode_integrate(lambda r, y: [y[1], -y[1] / r], [0.0, 1.0], [1.0, 10.0], spec)
            return abs(states[0, -1] - math.log(10.0))

        assert err(1e-6) / err(1e-7) >= 4.0

    def test_stiff_failure(self):
        with pytest.raises(StiffODEError):
            ode_integrate(lambda r, y: [y[0] ** 2], [1.0], [0.0, 5.0],
                          QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12))

    def test_blow_up_emits_no_warning(self):
        # y' = y^2 blows up at r = 1: LSODA's failure is a StiffODEError with
        # its message, and no ODEintWarning leaves the call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StiffODEError, match="Excess work"):
                ode_integrate(lambda r, y: [y[0] ** 2], [1.0], [0.0, 5.0],
                              QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12))

    def test_rhs_overflow_is_stiff_failure(self):
        def rhs(r, y):
            raise OverflowError("math range error")

        with pytest.raises(StiffODEError, match="math range error"):
            ode_integrate(rhs, [1.0], [0.0, 1.0], SPEC)


class TestFdCheck:
    def test_quadratic_field(self):
        slope = fd_check(lambda z: np.abs(z) ** 2, 1 + 1j, (2.0, 2.0))
        assert 1.8 <= slope <= 2.2

    def test_log_field(self):
        slope = fd_check(lambda z: np.log(np.abs(z)), 2 + 0j, (0.5, 0.0))
        assert 1.8 <= slope <= 2.2

    def test_wrong_gradient(self):
        with pytest.raises(GradientMismatchError):
            fd_check(lambda z: np.abs(z) ** 2, 1 + 1j, (0.0, 0.0))


class TestRootFinding:
    def test_integrate_interval(self):
        val = integrate_interval(lambda x: np.exp(-x), (0.0, 5.0), SPEC)
        assert val == pytest.approx(1.0 - math.exp(-5.0), rel=1e-9)


class TestLinearAlgebra:
    def test_solve_with_diagnostics(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        x, min_sigma, cond, residual = solve_with_diagnostics(A, rhs)
        assert np.allclose(A @ x, rhs)
        svals = np.linalg.svd(A, compute_uv=False)
        assert min_sigma == pytest.approx(svals[-1])
        assert cond == pytest.approx(svals[0] / svals[-1])
        assert residual <= 1e-14


class TestQuadratureSpecValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)

    def test_polar_grid_validation(self):
        with pytest.raises(ValueError):
            make_polar_grid(1.0, 10, 5)  # odd angle count
