import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import kernels, radial, scenarios
from liouville_lab.errors import ShootingError
from liouville_lab.numerics import QuadratureSpec, ode_integrate
from liouville_lab.radial import (
    SHOT_RADII,
    RadialProfile,
    branch_mass,
    closed_form_u,
    harnack_diagnostic,
    lambda_of_b,
    shoot_radial,
    trace_branch,
)

SPEC = QuadratureSpec(rel_tol=1e-10)


def _spy_calls(monkeypatch, module, name):
    """Record one entry per call of module.name, then call through."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestClosedForm:
    def test_gelfand_base_case(self):
        prof = RadialProfile(0, 1.0)
        assert prof.lam == pytest.approx(2.0, rel=1e-15)
        assert prof.u_at(1e-12) == pytest.approx(math.log(4.0), abs=1e-9)

    def test_singular_weight_case(self):
        prof = RadialProfile(1, 1.0)
        assert prof.lam == pytest.approx(8.0, rel=1e-15)
        assert prof.u_at(1e-12) == pytest.approx(math.log(4.0), abs=1e-9)

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_solves_the_radial_problem(self, N):
        # u'' + u'/r + lambda(b) r^2N e^u simplifies to 0 for every b > 0
        r, b = sp.symbols("r b", positive=True)
        u = 2 * sp.log(1 + b) - 2 * sp.log(1 + b * r ** (2 * N + 2))
        lam = 8 * (N + 1) ** 2 * b / (1 + b) ** 2
        res = sp.diff(u, r, 2) + sp.diff(u, r) / r + lam * r ** (2 * N) * sp.exp(u)
        assert sp.simplify(res) == 0
        # and the profile evaluates these forms
        rs = np.geomspace(0.05, 1.0, 9)
        for bv in (0.3, 2.0, 17.0):
            prof = RadialProfile(N, bv)
            assert prof.lam == pytest.approx(float(lam.subs(b, bv)), rel=1e-14)
            ref = np.array([float(u.subs({b: bv, r: rv})) for rv in rs])
            assert np.max(np.abs(prof.u_at(rs) - ref)) <= 1e-13

    @pytest.mark.parametrize("N,b", [(0, 0.3), (1, 2.0), (3, 17.0)])
    def test_boundary_condition(self, N, b):
        assert RadialProfile(N, b).u_at(1.0) == 0.0

    @pytest.mark.parametrize("N,b", [(-1, 1.0), (0, -0.1)])
    def test_rejects_negative_parameters(self, N, b):
        with pytest.raises(ValueError):
            RadialProfile(N, b)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_b(self, b):
        # nan < 0 is False, so a sign test alone lets NaN through
        with pytest.raises(ValueError):
            RadialProfile(1, b)

    def test_center_blowup(self):
        u0 = [RadialProfile(0, b).u_at(1e-12) for b in (10.0, 100.0, 1000.0)]
        lam = [lambda_of_b(0, b) for b in (10.0, 100.0, 1000.0)]
        assert u0[0] < u0[1] < u0[2]
        assert lam[0] > lam[1] > lam[2]


def _shot_gap(u, N, b):
    """sup |u - closed form of the member b| on ``SHOT_RADII``."""
    return np.max(np.abs(u - closed_form_u(N, b, SHOT_RADII)))


def _u_tol(b, b_tol):
    """The sup-norm tolerance on u that a tolerance b_tol on b implies.

    du/db = 2/(1+b) - 2 r^(2N+2)/(1 + b r^(2N+2)) lies in [0, 2/(1+b)], with
    its largest value at the centre, so a member b + db departs from b by
    2 db/(1+b) in sup norm, to first order.
    """
    return 2.0 * b_tol / (1.0 + b)


LOWER_ROOT, UPPER_ROOT = 3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)


def _shoot_once_indexed(N, lam, u0, spec):
    """``radial._shoot_once`` with a right-hand side that indexes y per read."""
    m = N + 1
    r0 = SHOT_RADII[0]
    a = lam * math.exp(u0) / (2.0 * m) ** 2
    lift, slope = a * r0 ** (2 * m), -2.0 * m * a * r0 ** (2 * m - 1)

    def rhs(r, y):
        f = lam * r ** (2 * N) * math.exp(y[0])
        return [y[1], -y[1] / r - f, y[3], -y[3] / r - f * y[2]]

    return ode_integrate(rhs, [u0 - lift, slope, 1.0 - lift, slope], SHOT_RADII, spec)


class TestShooting:
    def test_lower_branch_root(self):
        u = shoot_radial(0, 1.0, 0.3)
        assert _shot_gap(u, 0, LOWER_ROOT) <= _u_tol(LOWER_ROOT, 1e-9)

    def test_upper_branch_root(self):
        u = shoot_radial(0, 1.0, 3.8)
        assert _shot_gap(u, 0, UPPER_ROOT) <= _u_tol(UPPER_ROOT, 1e-8)

    def test_fold_point(self):
        u = shoot_radial(1, 8.0, math.log(4.0) + 0.01)
        assert _shot_gap(u, 1, 1.0) <= _u_tol(1.0, 1e-4)

    def test_roots_bracket_fold(self):
        # at a fixed radius u rises with b, so the shots straddle the fold b = 1 there
        fold = closed_form_u(0, 1.0, SHOT_RADII[0])
        assert shoot_radial(0, 1.0, 0.3)[0] < fold < shoot_radial(0, 1.0, 3.8)[0]

    def test_singular_weight_branches(self):
        # N = 2: lambda(b) = 9 * 8b/(1+b)^2, so lambda = 9 has roots 3 +/- 2 sqrt 2
        lam = 9.0
        assert _shot_gap(shoot_radial(2, lam, 0.3), 2, LOWER_ROOT) <= 1e-8
        assert _shot_gap(shoot_radial(2, lam, 4.0), 2, UPPER_ROOT) <= 1e-8

    def test_above_fold_fails(self):
        with pytest.raises(ShootingError):
            shoot_radial(0, 3.0, 0.5)

    @pytest.mark.parametrize("N,lam,u0", [(0, 1.0, 0.3), (2, 9.0, 2.0)])
    def test_sensitivity_matches_central_difference(self, N, lam, u0):
        # the variational columns (v, v') at r = 1 against central differences
        # of (u, u') from two plain shots
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
        step = 1e-4
        _, _, v, vp = radial._shoot_once(N, lam, u0, spec)[:, -1]
        hi = radial._shoot_once(N, lam, u0 + step, spec)[:, -1]
        lo = radial._shoot_once(N, lam, u0 - step, spec)[:, -1]
        fd = (hi[:2] - lo[:2]) / (2.0 * step)
        assert v == pytest.approx(fd[0], rel=1e-6)
        assert vp == pytest.approx(fd[1], rel=1e-6)

    @pytest.mark.parametrize("u0", [0.3, 3.8, 2.0 * math.log1p(LOWER_ROOT),
                                    2.0 * math.log1p(UPPER_ROOT)])
    def test_float_callback_matches_the_indexed_one(self, u0):
        # the shot whose right-hand side unpacks y into Python floats equals,
        # bit for bit, the shot whose right-hand side indexes the array, at
        # lambda = 1 from both guesses and both roots' centre values
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
        assert np.array_equal(radial._shoot_once(0, 1.0, u0, spec),
                              _shoot_once_indexed(0, 1.0, u0, spec))

    def test_four_shots(self, monkeypatch):
        # Newton with the exact derivative, and the converged shot is the profile
        calls = _spy_calls(monkeypatch, radial, "ode_integrate")
        u = shoot_radial(0, 1.0, 0.3)
        assert _shot_gap(u, 0, LOWER_ROOT) <= _u_tol(LOWER_ROOT, 1e-9)
        assert len(calls) <= 4

    def test_above_fold_stops_when_stalled(self, monkeypatch):
        # no root above lambda* = 2: three improving shots, then five that do
        # not improve the best |u(1)|
        calls = _spy_calls(monkeypatch, radial, "ode_integrate")
        with pytest.raises(ShootingError, match="unchanged"):
            shoot_radial(0, 3.0, 0.5)
        assert len(calls) <= 8

    def test_near_fold_converges(self):
        # lambda = 1.99 lies just below the fold; one Newton step there does
        # not decrease |u(1)|, and the stall rule must not stop it.  The shot
        # lands on the upper root of 8b/(1+b)^2 = 1.99, b^2 - k b + 1 = 0
        lam = 1.99
        k = 8.0 / lam - 2.0
        b = 0.5 * (k + math.sqrt(k * k - 4.0))
        assert lambda_of_b(0, b) == pytest.approx(lam, rel=1e-15)
        # lambda within rel 1e-9 is b within 1e-9 lam / |lambda'(b)|
        b_tol = 1e-9 * lam / abs(8.0 * (1.0 - b) / (1.0 + b) ** 3)
        assert _shot_gap(shoot_radial(0, lam, 1.4), 0, b) <= _u_tol(b, b_tol)


class TestBranch:
    @pytest.mark.parametrize("N,expected", [(0, 2.0), (1, 8.0), (2, 18.0)])
    def test_fold_location(self, N, expected):
        trace = trace_branch(N, [0.1, 0.5, 1.0, 2.0, 10.0], SPEC)
        assert trace.lambda_star == pytest.approx(expected, rel=1e-4)
        assert trace.b_star == pytest.approx(1.0, abs=1e-3)

    def test_mass_monotone_and_bounded(self):
        trace = trace_branch(1, [0.1, 0.5, 1.0, 2.0, 10.0, 100.0], SPEC)
        masses = trace.masses
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert max(masses) <= 16 * math.pi

    def test_mass_limit(self):
        mass = branch_mass(RadialProfile(2, 1000.0), SPEC)
        assert mass == pytest.approx(24 * math.pi, rel=2e-2)
        # closed-form oracle: mass = 8 pi (N+1) b/(1+b)
        assert mass == pytest.approx(24 * math.pi * 1000.0 / 1001.0, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(min_value=0, max_value=8),
           log_b=st.floats(min_value=math.log(1e-3), max_value=math.log(1e5)))
    def test_mass_matches_closed_form(self, N, log_b):
        # the branch's quantized mass 8 pi (N+1) b/(1+b), across N and six decades of b
        b = math.exp(log_b)
        mass = branch_mass(RadialProfile(N, b), SPEC)
        assert mass == pytest.approx(8 * math.pi * (N + 1) * b / (1 + b), rel=1e-9)

    def test_requires_fold_coverage(self):
        with pytest.raises(ValueError):
            trace_branch(0, [2.0, 3.0], SPEC)


class TestHarnack:
    @pytest.mark.parametrize("N,expected", [(0, math.log(2.0)), (1, math.log(8.0))])
    def test_constant_value(self, N, expected):
        for b in (0.1, 1.0, 10.0, 100.0, 1000.0):
            assert harnack_diagnostic(RadialProfile(N, b)) == pytest.approx(expected,
                                                                                  abs=1e-6)

    # the branch scenario's five b, at N from its defaults to the ends of
    # its input range
    @pytest.mark.parametrize("prof", [RadialProfile(N, b) for N in (0, 1, 2, 8, 64)
                                      for b in (0.1, 1.0, 10.0, 100.0, 1000.0)],
                             ids=lambda p: f"N{p.N}-b{p.b:g}")
    def test_closed_form_value(self, prof):
        value = harnack_diagnostic(prof)
        assert abs(value - math.log(2.0 * (prof.N + 1) ** 2)) <= 1e-13

    def test_supremum_location(self):
        for N, b in ((0, 4.0), (1, 9.0), (2, 0.25)):
            r_star = b ** (-1.0 / (2 * (N + 1)))
            prof = RadialProfile(N, b)
            m = N + 1

            def diag(r):
                return closed_form_u(N, b, r) + math.log(prof.lam) + 2 * m * math.log(r)

            assert diag(r_star) >= diag(r_star * 1.01)
            assert diag(r_star) >= diag(r_star * 0.99)


class TestScenarioCost:
    def test_branch_integrations(self, monkeypatch):
        # two shootings of four shots each, and no other integration: every
        # mode pair is closed-form; the right-hand-side calls are counts, so
        # this guard does not depend on the machine's speed
        calls, rhs_calls = [], []
        real = radial.ode_integrate

        def spy(rhs, *args, **kwargs):
            calls.append(1)

            def counted(r, y):
                rhs_calls.append(1)
                return rhs(r, y)

            return real(counted, *args, **kwargs)

        monkeypatch.setattr(radial, "ode_integrate", spy)
        entries = scenarios.scenario_branch(1)
        assert entries and all(e.pass_ for e in entries)
        assert len(calls) <= 8
        assert len(rhs_calls) <= 5_000

    def test_branch_eigen_solves(self, monkeypatch):
        # two solves (n and 2n points) for each of the three fold eigenvalues,
        # the mode-8 one and the Bessel one, and one each at 256, 512 and 1024
        # points for the mode-2 refinement check; the six 2n-point solves of
        # principal_eigenvalue bisect only a window about the n-point value
        windows = []
        real = kernels._smallest_eig

        def spy(profile, mode, n, window):
            windows.append(window)
            return real(profile, mode, n, window)

        monkeypatch.setattr(kernels, "_smallest_eig", spy)
        entries = scenarios.scenario_branch(1)
        assert entries and all(e.pass_ for e in entries)
        assert len(windows) == 13
        assert sum(w is not None for w in windows) == 6

    def test_branch_masses(self, monkeypatch):
        # one mass per trace point (3 x 5) and per mass-limit check (3); the
        # Harnack diagnostic reads the profile only
        calls = _spy_calls(monkeypatch, radial, "branch_mass")
        entries = scenarios.scenario_branch(1)
        assert entries and all(e.pass_ for e in entries)
        assert len(calls) <= 18
