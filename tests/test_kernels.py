import math

import numpy as np
import pytest
import sympy as sp

from liouville_lab import kernels
from liouville_lab.errors import UnresolvedSpectrumError
from liouville_lab.kernels import (
    fundamental_pair,
    kernel_functions,
    kernel_residuals,
    mode_solve,
    potential,
    principal_eigenvalue,
)
from liouville_lab.radial import closed_form_profile
from liouville_lab.scenarios import run_scenario


class TestKernelFunctions:
    def test_center_values(self):
        phi0, phi1, phi2 = kernel_functions(0j, 0.125)
        assert (phi0, phi1, phi2) == (1.0, 0.0, 0.0)

    def test_sign_change_circle(self):
        phi0, _, _ = kernel_functions(math.sqrt(8) + 0j, 0.125)
        assert phi0 == pytest.approx(0.0, abs=1e-15)

    def test_translation_kernel_value(self):
        _, phi1, _ = kernel_functions(1 + 0j, 0.125)
        assert phi1 == pytest.approx(8.0 / 9.0, abs=1e-15)

    @pytest.mark.parametrize("c", [0.125, 1.0, 4.0])
    def test_residuals(self, c):
        rng = np.random.default_rng(11)
        zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
        for res in kernel_residuals(zs, c):
            assert np.max(np.abs(res)) <= 1e-9

    def test_laplacian_matches_finite_differences(self):
        c, z0, h = 0.5, 0.6 + 0.2j, 1e-4
        for i in range(3):
            def f(z, i=i):
                return kernel_functions(z, c)[i]
            fd = (f(z0 + h) + f(z0 - h) + f(z0 + 1j * h) + f(z0 - 1j * h) - 4 * f(z0)) / h ** 2
            from liouville_lab.kernels import kernel_laplacians
            assert fd == pytest.approx(kernel_laplacians(z0, c)[i], abs=1e-5)


def _sympy_mode_residual(expr, r, c, mode):
    v = 8 * c / (1 + c * r ** 2) ** 2 - mode ** 2 / r ** 2
    return sp.simplify(sp.diff(expr, r, 2) + sp.diff(expr, r) / r + v * expr)


class TestFundamentalPair:
    def test_mode0_values(self):
        pair = fundamental_pair(0)
        assert pair.g1(np.array([1e-12]))[0] == pytest.approx(1.0, abs=1e-10)
        assert pair.g1(np.array([1e6]))[0] == pytest.approx(-1.0, abs=1e-10)

    def test_mode1_closed_form_and_residual(self):
        c = 0.125
        pair = fundamental_pair(1)
        rs = np.linspace(0.2, 10.0, 25)
        assert np.max(np.abs(pair.g1(rs) - rs / (1 + c * rs ** 2))) <= 1e-15
        r = sp.symbols("r", positive=True)
        res = _sympy_mode_residual(r / (1 + sp.Rational(1, 8) * r ** 2), r, sp.Rational(1, 8), 1)
        assert abs(float(res.subs(r, 3.7))) <= 1e-9

    def test_mode0_second_solution_residual(self):
        # closed form g02 = g01 log(c r^2)/2 + 2/(1+c r^2), smooth through the
        # zero of g01 at r = 1/sqrt(c)
        r = sp.symbols("r", positive=True)
        c = sp.Rational(1, 8)
        g01 = (1 - c * r ** 2) / (1 + c * r ** 2)
        g02 = g01 * sp.log(c * r ** 2) / 2 + 2 / (1 + c * r ** 2)
        res = _sympy_mode_residual(g02, r, c, 0)
        for rv in (0.5, 1.0 / math.sqrt(0.125), 5.0):
            assert abs(float(res.subs(r, rv))) <= 1e-9

    def test_mode1_second_solution_behaviour(self):
        pair = fundamental_pair(1)
        assert pair.g2(np.array([1e-3]))[0] * 1e-3 == pytest.approx(-0.5, rel=1e-3)
        big = pair.g2(np.array([1e4]))[0] / 1e4
        assert abs(big) == pytest.approx(0.125 / 2, rel=1e-2)

    def test_mode0_log_growth(self):
        # at c = 1/8 the limit carries the offset -log(sqrt(c) r)
        pair = fundamental_pair(0)
        for r in (100.0, 1000.0):
            val = pair.g2(np.array([r]))[0]
            assert val == pytest.approx(-math.log(math.sqrt(0.125) * r), rel=5e-3)

    @pytest.mark.parametrize("mode", [2, 5, 8, 64])
    def test_asymptotic_bands(self, mode):
        pair = fundamental_pair(mode)
        for r in (0.01, 100.0):
            assert 0.1 <= pair.g1(np.array([r]))[0] / r ** mode <= 10.0
            assert 0.1 <= pair.g2(np.array([r]))[0] * r ** mode <= 10.0

    @pytest.mark.parametrize("mode", [0, 1, 2, 3, 8, 64])
    def test_wronskian_constant(self, mode):
        # r (g1 g2' - g1' g2) by five-point central differences of the values
        # against the closed-form constant that mode_solve divides by: 1, or
        # -2l for l >= 2
        pair = fundamental_pair(mode)
        rs = np.geomspace(0.05, 50.0, 40)
        h = 1e-4 * rs

        def deriv(g):
            return (8 * (g(rs + h) - g(rs - h)) - (g(rs + 2 * h) - g(rs - 2 * h))) / (12 * h)

        w = rs * (pair.g1(rs) * deriv(pair.g2) - deriv(pair.g1) * pair.g2(rs))
        expected = 1.0 if mode <= 1 else -2.0 * mode
        assert np.max(np.abs(w / expected - 1.0)) <= 1e-9

    @pytest.mark.parametrize("mode", [2, 3, 8, 64])
    def test_higher_mode_closed_form_residual(self, mode):
        # g1 = r^l (1 + a s)/(1 + s), g2 = r^-l (1 + s/a)/(1 + s), s = c r^2,
        # a = (l - 1)/(l + 1), against their values and the mode equation
        r = sp.symbols("r", positive=True)
        c = sp.Rational(1, 8)
        a = sp.Rational(mode - 1, mode + 1)
        s = c * r ** 2
        pair = fundamental_pair(mode)
        rs = np.geomspace(0.05, 50.0, 9)
        for g, num in ((r ** mode * (1 + a * s) / (1 + s), pair.g1),
                       (r ** -mode * (1 + s / a) / (1 + s), pair.g2)):
            assert _sympy_mode_residual(g, r, c, mode) == 0
            ref = np.array([float(g.subs(r, rv)) for rv in rs])
            assert np.max(np.abs(num(rs) / ref - 1.0)) <= 1e-13

    def test_numeric_mode_cross_validated(self):
        # independent integration of the mode-3 equation at brutal tolerance
        from liouville_lab.numerics import QuadratureSpec, ode_integrate

        pair = fundamental_pair(3)
        r0 = 1e-3
        c, l = 0.125, 3
        a2 = -2 * c / (l + 1)
        y0 = [r0 ** l * (1 + a2 * r0 ** 2), r0 ** (l - 1) * (l + (l + 2) * a2 * r0 ** 2)]
        rs = np.geomspace(0.01, 90.0, 60)
        states = ode_integrate(
            lambda r, y: [y[1], -y[1] / r - (8 * c / (1 + c * r * r) ** 2 - l * l / (r * r)) * y[0]],
            y0, np.concatenate([[r0], rs]), QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300))
        ref = states[0, 1:]
        assert np.max(np.abs(pair.g1(rs) - ref) / np.abs(ref)) <= 1e-10


class TestModeSolve:
    def test_zero_data_zero_solution(self):
        sol = mode_solve(2, lambda r: np.zeros_like(r))
        assert np.max(np.abs(sol.values)) <= 1e-30

    def test_mode0_log_certificate(self):
        sol = mode_solve(0, lambda r: (1 + r) ** -3.0)
        assert sol.certificate <= 50.0

    def test_mode1_linear_certificate(self):
        sol = mode_solve(1, lambda r: (1 + r) ** -3.0)
        assert sol.certificate <= 50.0

    def test_higher_mode_certificate(self):
        sol = mode_solve(4, lambda r: (1 + r) ** -3.0)
        assert sol.certificate <= 50.0
        assert abs(sol.values[-1]) <= 1e-12 * np.max(np.abs(sol.values))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_solves_the_mode_equation(self, mode):
        # g'' + g'/r + (V - l^2/r^2) g = f by central differences in t = log r,
        # where g'' + g'/r = g_tt / r^2; independent of the Wronskian's sign
        sol = mode_solve(mode, lambda r: (1 + r) ** -3.0)
        r, g = sol.grid, sol.values
        dt = math.log(r[1] / r[0])
        g_tt = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dt ** 2
        rr = r[1:-1]
        lhs = g_tt / rr ** 2 + (potential(rr, kernels.MODE_C) - mode ** 2 / rr ** 2) * g[1:-1]
        f = (1 + rr) ** -3.0
        inner = (rr >= 0.1) & (rr <= 50.0)
        assert np.max(np.abs(lhs - f)[inner] / f[inner]) <= 1e-2

    def test_linearity(self):
        a = mode_solve(1, lambda r: (1 + r) ** -3.0)
        b = mode_solve(1, lambda r: 5.0 * (1 + r) ** -3.0)
        rel = np.max(np.abs(5.0 * a.values - b.values)) / np.max(np.abs(b.values))
        assert rel <= 1e-10

    def test_growth_bound_violation_is_a_record(self, monkeypatch):
        # a certificate above the threshold fails its record; the solve itself
        # does not raise, so the scenario runs to the end
        monkeypatch.setattr(kernels, "CERTIFICATE_THRESHOLD", 1e-3)
        entries = run_scenario("branch", {"N": 1})
        records = [e for e in entries if e.check_id == "branch/mode-certificate"]
        assert len(records) == 3 and not any(e.pass_ for e in records)
        assert not [e for e in entries if e.check_id == "branch/error"]

    def test_mode_range(self):
        for mode in (-1, 65):
            with pytest.raises(ValueError):
                fundamental_pair(mode)


class TestPrincipalEigenvalue:
    def test_bessel_oracle(self):
        # smallest Dirichlet eigenvalue of -Delta on the unit disk: j_{0,1}^2
        from scipy.special import jn_zeros
        expected = jn_zeros(0, 1)[0] ** 2
        assert expected == pytest.approx(5.7832, abs=1e-4)
        ev = principal_eigenvalue(closed_form_profile(0, 0.0), 0, n=1024)
        assert ev == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("N", [0, 1])
    def test_fold_degeneracy(self, N):
        ev = principal_eigenvalue(closed_form_profile(N, 1.0), 0)
        assert abs(ev) <= 1e-3

    def test_high_mode_positive(self):
        for b in (0.5, 1.0, 100.0):
            ev = principal_eigenvalue(closed_form_profile(1, b), 8)
            assert ev > 0

    def test_monotone_in_mode(self):
        prof = closed_form_profile(0, 1.0)
        evs = [principal_eigenvalue(prof, m, n=256) for m in range(4)]
        assert all(b >= a - 1e-10 for a, b in zip(evs, evs[1:]))

    def test_unresolved_spectrum(self):
        with pytest.raises(UnresolvedSpectrumError):
            principal_eigenvalue(closed_form_profile(0, 1.0), 0, n=4)

    def test_requires_solution(self):
        prof = closed_form_profile(0, 1.0)
        prof.lam = prof.lam + 0.1   # lambda off the branch: no longer a solution
        with pytest.raises(ValueError):
            principal_eigenvalue(prof, 0)
