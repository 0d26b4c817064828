import math

import numpy as np
import pytest

from liouville_lab.errors import (
    GradientMismatchError,
    NyquistError,
    QuadratureBudgetError,
    StiffODEError,
)
from liouville_lab.numerics import (
    FourierCoefficients,
    QuadratureSpec,
    circle_fourier,
    fd_check,
    integrate_plane,
    make_polar_grid,
    ode_integrate,
    polar_sum,
    riemann_sum,
    sample_circle,
    solve_with_diagnostics,
)

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
        tiny = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=8)
        with pytest.raises(QuadratureBudgetError):
            integrate_plane(lambda z: np.cos(40 * np.abs(z) ** 2) / (1 + np.abs(z) ** 2 / 8) ** 2,
                            tiny)


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
        back = circle_fourier(coeffs.synthesize(theta), n_max=8)
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
    def test_bisect(self):
        from liouville_lab.numerics import bisect
        root = bisect(lambda x: x ** 3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-10)

    def test_bisect_rejects_same_sign(self):
        from liouville_lab.numerics import bisect
        with pytest.raises(ValueError):
            bisect(lambda x: x ** 2 + 1.0, -1.0, 1.0)

    def test_newton_complex(self):
        from liouville_lab.numerics import newton_complex
        root = newton_complex(lambda z: z ** 3 - 1.0, lambda z: 3 * z ** 2,
                              np.exp(2j * np.pi / 3) * 1.1)
        assert root == pytest.approx(np.exp(2j * np.pi / 3), abs=1e-12)

    def test_integrate_interval(self):
        from liouville_lab.numerics import integrate_interval
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
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=4)

    def test_polar_grid_validation(self):
        with pytest.raises(ValueError):
            make_polar_grid(1.0, 10, 5)  # odd angle count
