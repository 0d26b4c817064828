import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import radial, scenarios
from liouville_lab.errors import ShootingError
from liouville_lab.numerics import QuadratureSpec
from liouville_lab.radial import (
    RadialProfile,
    branch_mass,
    closed_form_profile,
    closed_form_u,
    harnack_diagnostic,
    lambda_of_b,
    profile_residual,
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
        prof = closed_form_profile(0, 1.0)
        assert prof.lam == pytest.approx(2.0, rel=1e-15)
        assert prof.u_at(1e-12) == pytest.approx(math.log(4.0), abs=1e-9)

    def test_singular_weight_case(self):
        prof = closed_form_profile(1, 1.0)
        assert prof.lam == pytest.approx(8.0, rel=1e-15)
        assert prof.u_at(1e-12) == pytest.approx(math.log(4.0), abs=1e-9)

    @pytest.mark.parametrize("N,b", [(0, 0.3), (1, 2.0), (3, 17.0)])
    def test_boundary_condition(self, N, b):
        prof = closed_form_profile(N, b)
        assert prof.u[-1] == 0.0
        assert abs(profile_residual(prof)) <= 1e-10

    def test_center_blowup(self):
        u0 = [closed_form_profile(0, b).u_at(1e-12) for b in (10.0, 100.0, 1000.0)]
        lam = [lambda_of_b(0, b) for b in (10.0, 100.0, 1000.0)]
        assert u0[0] < u0[1] < u0[2]
        assert lam[0] > lam[1] > lam[2]


class TestShooting:
    def test_lower_branch_root(self):
        prof = shoot_radial(0, 1.0, 0.3)
        b = 3.0 - 2.0 * math.sqrt(2.0)
        assert prof.b == pytest.approx(b, abs=1e-9)
        gap = np.max(np.abs(prof.u - closed_form_u(0, b, prof.r_grid)))
        assert gap <= 1e-8

    def test_upper_branch_root(self):
        prof = shoot_radial(0, 1.0, 3.8)
        assert prof.b == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-8)

    def test_fold_point(self):
        prof = shoot_radial(1, 8.0, math.log(4.0) + 0.01)
        assert prof.b == pytest.approx(1.0, abs=1e-4)

    def test_roots_bracket_fold(self):
        lo = shoot_radial(0, 1.0, 0.3)
        hi = shoot_radial(0, 1.0, 3.8)
        assert lo.b < 1.0 < hi.b

    def test_singular_weight_branches(self):
        # N = 2: lambda(b) = 9 * 8b/(1+b)^2, so lambda = 9 has roots 3 +/- 2 sqrt 2
        lam = 9.0
        lo = shoot_radial(2, lam, 0.3)
        hi = shoot_radial(2, lam, 4.0)
        gap_lo = np.max(np.abs(lo.u - closed_form_u(2, lo.b, lo.r_grid)))
        gap_hi = np.max(np.abs(hi.u - closed_form_u(2, hi.b, hi.r_grid)))
        assert gap_lo <= 1e-8 and gap_hi <= 1e-8
        assert lo.b < 1.0 < hi.b

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

    def test_four_shots(self, monkeypatch):
        # Newton with the exact derivative, and the converged shot is the profile
        calls = _spy_calls(monkeypatch, radial, "ode_integrate")
        prof = shoot_radial(0, 1.0, 0.3)
        assert prof.b == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-9)
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
        # not decrease |u(1)|, and the stall rule must not stop it
        prof = shoot_radial(0, 1.99, 1.4)
        assert lambda_of_b(0, prof.b) == pytest.approx(1.99, rel=1e-9)


class TestBranch:
    @pytest.mark.parametrize("N,expected", [(0, 2.0), (1, 8.0), (2, 18.0)])
    def test_fold_location(self, N, expected):
        trace = trace_branch(N, [0.1, 0.5, 1.0, 2.0, 10.0], SPEC)
        assert trace.fold.lambda_star == pytest.approx(expected, rel=1e-4)
        assert trace.fold.b_star == pytest.approx(1.0, abs=1e-3)

    def test_mass_monotone_and_bounded(self):
        trace = trace_branch(1, [0.1, 0.5, 1.0, 2.0, 10.0, 100.0], SPEC)
        masses = trace.masses
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert max(masses) <= 16 * math.pi

    def test_mass_limit(self):
        mass = branch_mass(closed_form_profile(2, 1000.0), SPEC)
        assert mass == pytest.approx(24 * math.pi, rel=2e-2)
        # closed-form oracle: mass = 8 pi (N+1) b/(1+b)
        assert mass == pytest.approx(24 * math.pi * 1000.0 / 1001.0, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(min_value=0, max_value=8),
           log_b=st.floats(min_value=math.log(1e-3), max_value=math.log(1e5)))
    def test_mass_matches_closed_form(self, N, log_b):
        # the branch's quantized mass 8 pi (N+1) b/(1+b), across N and six decades of b
        b = math.exp(log_b)
        mass = branch_mass(closed_form_profile(N, b), SPEC)
        assert mass == pytest.approx(8 * math.pi * (N + 1) * b / (1 + b), rel=1e-9)

    def test_requires_fold_coverage(self):
        with pytest.raises(ValueError):
            trace_branch(0, [2.0, 3.0], SPEC)


class TestHarnack:
    @pytest.mark.parametrize("N,expected", [(0, math.log(2.0)), (1, math.log(8.0))])
    def test_constant_value(self, N, expected):
        for b in (0.1, 1.0, 10.0, 100.0, 1000.0):
            assert harnack_diagnostic(closed_form_profile(N, b)) == pytest.approx(expected,
                                                                                  abs=1e-6)

    def test_supremum_location(self):
        for N, b in ((0, 4.0), (1, 9.0), (2, 0.25)):
            r_star = b ** (-1.0 / (2 * (N + 1)))
            prof = closed_form_profile(N, b)
            m = N + 1

            def diag(r):
                return closed_form_u(N, b, r) + math.log(prof.lam) + 2 * m * math.log(r)

            assert diag(r_star) >= diag(r_star * 1.01)
            assert diag(r_star) >= diag(r_star * 0.99)


class TestProfileValidation:
    def test_boundary_enforced(self):
        r = np.linspace(0.1, 1.0, 50)
        with pytest.raises(ValueError):
            RadialProfile(N=0, lam=1.0, b=0.5, r_grid=r, u=np.ones_like(r))


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

    def test_branch_masses(self, monkeypatch):
        # one mass per trace point (3 x 5) and per mass-limit check (3); the
        # Harnack diagnostic reads the profile only
        calls = _spy_calls(monkeypatch, radial, "branch_mass")
        entries = scenarios.scenario_branch(1)
        assert entries and all(e.pass_ for e in entries)
        assert len(calls) <= 18
