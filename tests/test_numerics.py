import math

import mpmath
import numpy as np
import pytest

from liouville_lab import numerics
from liouville_lab.bubbles import BubbleParams, bubble_density, peak_grading
from liouville_lab.errors import NyquistError, QuadratureBudgetError, StiffODEError
from liouville_lab.numerics import (
    FourierCoefficients,
    QuadratureSpec,
    _circle_mean,
    _disk_grading,
    _ring_nodes,
    circle_fourier,
    integrate_circle,
    integrate_disk,
    integrate_interval,
    integrate_plane,
    ode_integrate,
    polar_sum,
    sample_circle,
    solve_with_diagnostics,
)
from oracles import GradientMismatchError, fd_check, make_polar_grid, riemann_sum

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

    def test_budget_exceeded(self):
        # 1/(1+|z|^2) is not integrable over the plane: no budget suffices
        tiny = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)
        with pytest.raises(QuadratureBudgetError):
            integrate_plane(lambda z: 1 / (1 + np.abs(z) ** 2), tiny)


class TestIntegrateIntervalFailures:
    TINY = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15)

    def test_subdivision_limit_is_a_budget_message(self):
        with pytest.raises(QuadratureBudgetError) as info:
            integrate_interval(lambda x: math.sin(1.0 / x), 1e-4, 1.0, self.TINY)
        assert str(info.value) == ("quadrature budget exceeded: The maximum number of "
                                   "subdivisions (200) has been achieved")
        assert np.isfinite(info.value.value) and info.value.estimate > 0

    def test_other_failures_name_the_quadpack_report(self):
        # the non-integrable 1/(1+|z|^2) is bad integrand behaviour, not a budget
        with pytest.raises(QuadratureBudgetError) as info:
            integrate_plane(lambda z: 1 / (1 + np.abs(z) ** 2), self.TINY)
        assert str(info.value) == ("quadrature failed: Extremely bad integrand behavior "
                                   "occurs at some points of the integration interval")
        assert np.isfinite(info.value.value) and info.value.estimate > 0


def _recording(f):
    """f, plus the list of point arrays it was called with."""
    calls = []

    def g(z):
        calls.append(z)
        return f(z)

    return g, calls


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

    def test_vector_budget_error_carries_value_and_estimate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureBudgetError) as info:
            _circle_mean(lambda z: np.stack([np.ones(z.shape), rng.standard_normal(z.shape)]),
                         0j, 1.0, 1e-12, 1e-15, m_max=1024)
        assert info.value.value.shape == (2,) and info.value.estimate > 0


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
        K, psi0, beta = grading = peak_grading(params)(r)
        assert beta < 1.0
        f, calls = _recording(lambda z: bubble_density(params, z))
        _circle_mean(f, 0j, r, 1e-14, 1e-16, grading=grading)
        z = np.concatenate(calls)
        m_final = z.size
        assert m_final >= 256 and m_final & (m_final - 1) == 0   # several doublings
        nodes, _ = _ring_nodes(m_final, False, K, beta)
        grid = np.sort(np.mod(np.angle(nodes) + psi0 / K, math.tau))
        seen = np.sort(np.mod(np.angle(z), math.tau))
        assert np.all(np.diff(seen) > 0)
        gap = np.abs(seen - grid)
        assert np.max(np.minimum(gap, math.tau - gap)) <= 1e-12

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"N{p.N}")
    def test_graded_matches_uniform(self, params):
        def f(z):
            d = bubble_density(params, z)
            return np.stack([d, d * z.real, d * (1.0 - np.abs(z) ** 2)])

        hint = peak_grading(params)
        r0 = _peak_radius(params)
        for r in (r0, 0.97 * r0, 1.004 * r0, 1.1 * r0):
            uniform = _circle_mean(f, 0j, r, self.REL, self.ABS)
            graded = _circle_mean(f, 0j, r, self.REL, self.ABS, grading=hint(r))
            scale = abs(uniform[0])
            assert np.all(np.abs(graded - uniform) <= 1e-13 * scale)
            scalar = _circle_mean(lambda z: bubble_density(params, z), 0j, r, self.REL,
                                  self.ABS, grading=hint(r))
            assert scalar == pytest.approx(uniform[0], rel=1e-13)

    def test_budget_error_carries_value_and_estimate(self):
        params = self.CASES[3]
        r = _peak_radius(params)
        with pytest.raises(QuadratureBudgetError) as info:
            _circle_mean(lambda z: bubble_density(params, z), 0j, r, 1e-14, 1e-15,
                         m_max=64, grading=peak_grading(params)(r))
        assert np.isfinite(info.value.value) and info.value.estimate > 0

    @pytest.mark.parametrize("params", CASES, ids=lambda p: f"N{p.N}")
    def test_mpmath_oracle_at_peak_radius(self, params):
        r = _peak_radius(params)
        graded = _circle_mean(lambda z: bubble_density(params, z), 0j, r, self.REL,
                              self.ABS, grading=peak_grading(params)(r))
        assert graded == pytest.approx(_mpmath_peak_mean(params), rel=1e-13)

    def test_peak_ring_point_count(self):
        # N = 3, mu = 8: the uniform rule needs 16384 points on this ring
        params = BubbleParams(N=3, mu=8.0, p=0j, h=128.0)
        counts = []
        for grading in (None, peak_grading(params)(1.0)):
            f, calls = _recording(lambda z: bubble_density(params, z))
            _circle_mean(f, 0j, 1.0, self.REL, self.ABS, grading=grading)
            counts.append(sum(z.size for z in calls))
        uniform, graded = counts
        assert graded <= 1024 < uniform

    def test_unit_beta_is_the_uniform_rule(self):
        nodes, weights = _ring_nodes(256, True, 3, 1.0)
        assert weights is None
        assert np.array_equal(nodes, np.exp(1j * math.tau * np.arange(1, 256, 2) / 256))
        def f(z):
            return bubble_density(self.CASES[1], z)

        assert _circle_mean(f, 0j, 1.02, self.REL, self.ABS, grading=(2, 0.3, 1.0)) \
            == _circle_mean(f, 0j, 1.02, self.REL, self.ABS)


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
        grading = _disk_grading(center, (1.0, self.WIDTH), r)
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
                    patch.setattr(numerics, "_disk_grading", lambda *args: None)
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
        grading = _disk_grading(center, (1.0, self.WIDTH), 0.2)
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
        assert _disk_grading(1.0 + 0j, (1.0, self.WIDTH), 0.1) is None
        f = self._volume_integrand(params)
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
        peak = (1.0, self.WIDTH)
        graded = integrate_disk(f, 1.0 + 0j, 0.2, spec, peak=peak)
        monkeypatch.setattr(numerics, "_disk_grading", lambda *args: None)
        assert np.array_equal(graded, integrate_disk(f, 1.0 + 0j, 0.2, spec, peak=peak))


class TestDiskBreakpoints:
    @pytest.mark.parametrize("center, peak, expected", [
        # centred: 5w, 50w and R/2
        (0.3 - 0.4j, (0.3 - 0.4j, 0.002), [0.01, 0.1, 0.5]),
        # s = 0.7: s + 50w = 1.2 lies outside
        (0.1j, (0.7 + 0.1j, 0.01), [0.5, 0.65, 0.7, 0.75]),
        # s = 0.02: s - 5w < 0 drops out
        (0j, (0.02j, 0.01), [0.02, 0.07, 0.5, 0.52]),
        # a peak outside the disk leaves R/2
        (0j, (2.0 + 0j, 0.01), [0.5]),
        (0j, None, None),
    ], ids=["centred", "off-centre", "near-centre", "outside", "no-peak"])
    def test_points_from_the_peak(self, monkeypatch, center, peak, expected):
        seen = []

        def spy(ring, a, b, spec, points=None):
            seen.append(points)
            return 0.0

        monkeypatch.setattr(numerics, "_integrate_rings", spy)
        integrate_disk(lambda z: np.ones(np.shape(z)), center, 1.0, SPEC, peak=peak)
        if expected is None:
            assert seen == [None]
        else:
            assert seen[0] == pytest.approx(expected, abs=1e-15)


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
        assert np.isfinite(info.value.value) and info.value.estimate > 0


class TestCircleFourier:
    def test_cos_two_theta(self):
        theta = 2 * np.pi * np.arange(64) / 64
        coeffs = circle_fourier(np.cos(2 * theta), n_max=4)
        assert coeffs.a[2] == pytest.approx(1.0, abs=1e-12)
        others = np.concatenate([coeffs.a[:2], coeffs.a[3:], coeffs.b])
        assert np.max(np.abs(others)) <= 1e-12

    def test_constant_plus_sine(self):
        theta = 2 * np.pi * np.arange(64) / 64
        coeffs = circle_fourier(3.0 + np.sin(theta), n_max=4)
        assert coeffs.a[0] == pytest.approx(3.0, abs=1e-12)
        assert coeffs.b[1] == pytest.approx(1.0, abs=1e-12)

    def test_mode_above_truncation_ignored(self):
        theta = 2 * np.pi * np.arange(64) / 64
        coeffs = circle_fourier(np.cos(5 * theta), n_max=2)
        assert np.max(np.abs(coeffs.a)) <= 1e-12
        assert np.max(np.abs(coeffs.b)) <= 1e-12

    def test_nyquist_violation(self):
        with pytest.raises(NyquistError):
            circle_fourier(np.zeros(16), n_max=8)

    def test_synthesis_round_trip(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        b[0] = 0.0
        coeffs = FourierCoefficients(a=a, b=b)
        theta = 2 * np.pi * np.arange(64) / 64
        back = circle_fourier(polar_sum(coeffs.a, coeffs.b, 1.0, theta), n_max=8)
        assert np.max(np.abs(back.a - a)) <= 1e-10
        assert np.max(np.abs(back.b - b)) <= 1e-10

    def test_polar_sum_matches_term_by_term(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        r = rng.uniform(0.0, 2.0, (3, 4))
        th = rng.uniform(-np.pi, np.pi, (3, 4))
        ref = sum(r ** n * (a[n] * np.cos(n * th) + b[n] * np.sin(n * th)) for n in range(7))
        assert np.max(np.abs(polar_sum(a, b, r, th) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert polar_sum(a, b, r[0, 0], th[0, 0]) == pytest.approx(ref[0, 0], rel=1e-13)

    def test_sample_circle_shape(self):
        vals = sample_circle(lambda z: np.abs(z) ** 2, 1.0 + 0j, 2.0, 32)
        assert vals.shape == (32,)


class TestOdeIntegrate:
    def test_logarithm(self):
        traj = ode_integrate(lambda r, y: [y[1], -y[1] / r], [0.0, 1.0], 1.0, 10.0,
                             QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13))
        rs = np.linspace(1.0, 10.0, 30)
        assert np.max(np.abs(traj(rs)[0] - np.log(rs))) <= 1e-9

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
        traj = ode_integrate(rhs, [g(r0), gp(r0)], r0, 10.0,
                             QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14))
        rs = np.linspace(r0, 10.0, 50)
        assert np.max(np.abs(traj(rs)[0] - g(rs))) <= 1e-8

    def test_zero_rhs_constant(self):
        traj = ode_integrate(lambda r, y: [0.0], [2.5], 0.0, 5.0, SPEC)
        assert np.max(np.abs(traj(np.linspace(0, 5, 10))[0] - 2.5)) <= 1e-12

    def test_tighter_tolerance_reduces_error(self):
        # a tenfold tolerance drop must cut the end-state error at least 4x
        def err(tol):
            spec = QuadratureSpec(rel_tol=tol, abs_tol=tol * 1e-4)
            traj = ode_integrate(lambda r, y: [y[1], -y[1] / r], [0.0, 1.0], 1.0, 10.0, spec)
            return abs(traj.end_state[0] - math.log(10.0))

        assert err(1e-6) / err(1e-7) >= 4.0

    def test_stiff_failure(self):
        with pytest.raises(StiffODEError):
            ode_integrate(lambda r, y: [y[0] ** 2], [1.0], 0.0, 5.0,
                          QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12))


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
    def test_newton_complex(self):
        from liouville_lab.numerics import newton_complex
        root = newton_complex(lambda z: z ** 3 - 1.0, lambda z: 3 * z ** 2,
                              np.exp(2j * np.pi / 3) * 1.1)
        assert root == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-12)

    def test_integrate_interval(self):
        val = integrate_interval(lambda x: np.exp(-x), 0.0, 5.0, SPEC)
        assert val == pytest.approx(1.0 - math.exp(-5.0), rel=1e-9)


class TestLinearAlgebra:
    def test_solve_with_diagnostics(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        diag = solve_with_diagnostics(A, rhs)
        assert np.allclose(A @ diag.solution, rhs)
        svals = np.linalg.svd(A, compute_uv=False)
        assert diag.min_singular_value == pytest.approx(svals[-1])
        assert diag.condition_number == pytest.approx(svals[0] / svals[-1])
        assert diag.residual_norm <= 1e-14


class TestQuadratureSpecValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1.0)

    def test_polar_grid_validation(self):
        with pytest.raises(ValueError):
            make_polar_grid(1.0, 10, 5)  # odd angle count
