import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import numerics
from liouville_lab.bubbles import (
    BubbleParams,
    bubble_gradient,
    bubble_laplacian,
    bubble_residual,
    eval_bubble,
    far_field_gap,
    far_field_max_gap,
    find_maxima,
    rescaled_profile_gap,
    roots_of_unity,
    total_mass,
)
from liouville_lab.errors import QuadratureBudgetError
from liouville_lab.numerics import QuadratureSpec
from oracles import fd_check, make_polar_grid, maxima_mp, riemann_sum

SPEC = QuadratureSpec()


class TestEvalBubble:
    def test_maximum_point(self):
        params = BubbleParams(N=1, mu=0.0, p=0j, h=32.0)
        assert eval_bubble(params, 1.0 + 0j) == pytest.approx(0.0, abs=1e-15)

    def test_center_value(self):
        # coefficient h e^mu/(8(N+1)^2) = 32/32 = 1, so V(0) = -2 log 2
        params = BubbleParams(N=1, mu=0.0, p=0j, h=32.0)
        assert eval_bubble(params, 0j) == pytest.approx(-2 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("h", [1.0, 8.0])
    def test_unit_quadratic_circle(self, h):
        # any y with (h e^mu / 8) |y-1|^2 = 1 gives V = mu - 2 log 2;
        # the radius is sqrt(8/(h e^mu))
        mu = 5.0
        params = BubbleParams(N=0, mu=mu, p=0j, h=h)
        r = math.sqrt(8.0 / (h * math.exp(mu)))
        for ang in (0.0, 1.1, 3.9):
            y = 1.0 + r * np.exp(1j * ang)
            assert eval_bubble(params, y) == pytest.approx(mu - 2 * math.log(2), abs=1e-12)

    def test_bounded_by_mu(self):
        params = BubbleParams(N=2, mu=3.0, p=0.1, h=5.0)
        rng = np.random.default_rng(0)
        zs = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        assert np.all(eval_bubble(params, zs) <= params.mu)

    def test_rotation_invariance(self):
        params = BubbleParams(N=2, mu=4.0, p=0j, h=10.0)
        rng = np.random.default_rng(1)
        zs = rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)
        rot = np.exp(2j * np.pi / 3)
        assert np.max(np.abs(eval_bubble(params, zs * rot) - eval_bubble(params, zs))) <= 1e-12


class TestBubbleResidual:
    def test_example_n1(self):
        params = BubbleParams(N=1, mu=0.0, p=0j, h=32.0)
        assert abs(bubble_residual(params, 0.5 + 0.3j)) <= 1e-9

    def test_example_n2(self):
        params = BubbleParams(N=2, mu=4.0, p=0.05, h=10.0)
        assert abs(bubble_residual(params, -0.7 + 0.2j)) <= 1e-9

    @pytest.mark.parametrize("params", [
        BubbleParams(N=0, mu=2.0, p=0.1j, h=3.0),
        BubbleParams(N=1, mu=0.0, p=0j, h=32.0),
        BubbleParams(N=2, mu=4.0, p=0.05, h=10.0),
        BubbleParams(N=3, mu=8.0, p=0.02 - 0.04j, h=72.0),
    ])
    def test_random_sample(self, params):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) == 0 or abs(z) > 3:
                continue
            count += 1
            assert abs(bubble_residual(params, z)) <= 1e-9

    def test_laplacian_against_finite_differences(self):
        params = BubbleParams(N=1, mu=2.0, p=0.05, h=8.0)
        z0 = 0.8 + 0.4j
        slope = fd_check(lambda z: eval_bubble(params, z), z0,
                         bubble_gradient(params, z0))
        assert 1.8 <= slope <= 2.2
        h = 1e-4
        fd_lap = (eval_bubble(params, z0 + h) + eval_bubble(params, z0 - h)
                  + eval_bubble(params, z0 + 1j * h) + eval_bubble(params, z0 - 1j * h)
                  - 4 * eval_bubble(params, z0)) / h ** 2
        assert fd_lap == pytest.approx(bubble_laplacian(params, z0), abs=1e-5)


class TestTotalMass:
    # oracle: w = y^(N+1) reduces the weighted integral to the planar bubble
    # mass, h int |y|^2N e^V = 8 pi (N+1) exactly; the Riemann sum confirms it
    def test_brute_force_oracle(self):
        params = BubbleParams(N=1, mu=0.0, p=0j, h=32.0)
        grid = make_polar_grid(r_max=300.0, n_r=60000, n_theta=64)
        brute = riemann_sum(
            lambda z: params.h * np.abs(z) ** 2 * np.exp(eval_bubble(params, z)), grid)
        assert brute == pytest.approx(16 * math.pi, rel=1e-2)

    @pytest.mark.parametrize("params,expected", [
        (BubbleParams(N=0, mu=0.0, p=0j, h=8.0), 8 * math.pi),
        (BubbleParams(N=1, mu=6.0, p=0.02, h=32.0), 16 * math.pi),
        (BubbleParams(N=3, mu=10.0, p=0j, h=1.0), 32 * math.pi),
        # peaks 2.7e-7 and 1.5e-7 wide in r: the first panels must sit at the peak
        (BubbleParams(N=3, mu=30.0, p=0j, h=1.0), 32 * math.pi),
        (BubbleParams(N=1, mu=30.0, p=0j, h=32.0), 16 * math.pi),
    ])
    def test_examples(self, params, expected):
        assert total_mass(params, SPEC) == pytest.approx(expected, rel=1e-6)

    def test_unresolved_peak_raises(self, monkeypatch):
        # at mu = 40 the rings through the peak (about 7e-10 wide in r) do not
        # converge in absolute coordinates; the mass must end in a named error,
        # never come back as the 1.3e-13 of a quadrature that missed the peak.
        # A smaller ring budget reaches that error sooner.
        monkeypatch.setattr(numerics, "RING_MAX_POINTS", 1 << 12)
        with pytest.raises(QuadratureBudgetError):
            total_mass(BubbleParams(N=2, mu=40.0, p=0j, h=72.0), SPEC)

    def test_parameter_independence(self):
        # 3 x 3 x 3 grid: mass must not depend on mu, p, h
        spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
        expected = 16 * math.pi
        for mu in (2.0, 4.0, 6.0):
            for pval in (0j, 0.05, 0.1j):
                for h in (1.0, 8.0, 32.0):
                    params = BubbleParams(N=1, mu=mu, p=pval, h=h)
                    assert total_mass(params, spec) == pytest.approx(expected, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(min_value=0, max_value=3),
           mu=st.floats(min_value=0.0, max_value=12.0),
           p_abs=st.floats(min_value=0.0, max_value=0.2),
           p_arg=st.floats(min_value=0.0, max_value=math.tau),
           h=st.floats(min_value=1.0, max_value=100.0))
    def test_mass_independent_of_mu_p_h(self, N, mu, p_abs, p_arg, h):
        # the rings are graded toward the maxima; whatever the peak width and
        # angle, the mass stays 8 pi (N+1)
        params = BubbleParams(N=N, mu=mu, p=p_abs * complex(math.cos(p_arg), math.sin(p_arg)), h=h)
        assert total_mass(params, SPEC) == pytest.approx(8 * math.pi * (N + 1), rel=1e-8)


class TestFindMaxima:
    def test_exact_roots_of_unity(self):
        Q = find_maxima(BubbleParams(N=2, mu=8.0, p=0j, h=8.0))
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.max(np.abs(Q - expected)) <= 1e-14

    def test_first_order_prediction(self):
        Q = find_maxima(BubbleParams(N=1, mu=8.0, p=0.01, h=8.0))
        assert Q[0] == pytest.approx(math.sqrt(1.01), abs=1e-12)
        assert abs(Q[0] - (1 + 0.01 / 2)) <= 5 * 0.01 ** 2

    def test_antipodal_pair(self):
        Q = find_maxima(BubbleParams(N=1, mu=8.0, p=0.01, h=8.0))
        assert Q[1] == pytest.approx(-math.sqrt(1.01), abs=1e-12)

    def test_gradient_vanishes(self):
        for params in (BubbleParams(N=1, mu=8.0, p=0.01, h=8.0),
                       BubbleParams(N=3, mu=6.0, p=0.1j, h=20.0)):
            for q in find_maxima(params):
                assert np.hypot(*bubble_gradient(params, q)) <= 1e-10

    def test_root_property(self):
        params = BubbleParams(N=4, mu=5.0, p=0.2, h=8.0)
        assert np.max(np.abs(find_maxima(params) ** 5 - 1.2)) <= 1e-12

    @pytest.mark.parametrize("p", [0.1 * np.exp(-0.4j), -0.05j], ids=["0.1e^-0.4i", "-0.05i"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_root_order_for_negative_imaginary_offset(self, N, p):
        # Q[l] is the maximum nearest the l-th root of unity, so the gap
        # compares each maximum with its own first-order prediction, also
        # where arg Q_0 < 0
        Q = find_maxima(BubbleParams(N=N, mu=8.0, p=p, h=8.0))
        w = roots_of_unity(N)
        assert np.max(np.abs(Q - w * (1.0 + p / (N + 1)))) <= 5 * abs(p) ** 2
        nearest = np.argmin(np.abs(Q[:, None] - w[None, :]), axis=1)
        assert nearest.tolist() == list(range(N + 1))

    @pytest.mark.parametrize("N", range(7))
    def test_maxima_match_mpmath(self, N):
        # the roots of y^(N+1) = 1 + p at 30 digits, at offsets up to |p| = 0.9
        for p_abs in (0.0, 0.1, 0.5, 0.9):
            for angle in (0.4, -0.4, 2.5, -2.5):
                p = p_abs * complex(math.cos(angle), math.sin(angle))
                Q = find_maxima(BubbleParams(N=N, mu=8.0, p=p, h=8.0))
                assert np.max(np.abs(Q - maxima_mp(N, p))) <= 1e-14, (p_abs, angle)


class TestFarField:
    def test_gap_bound_paper_point(self):
        params = BubbleParams(N=1, mu=12.0, p=0j, h=32.0)
        gap = far_field_gap(params, 20.0, 0.0)
        assert abs(gap) <= 10 * (20.0 ** -6 + math.exp(-12.0) * 20.0 ** -4)

    def test_decay_slope(self):
        params = BubbleParams(N=1, mu=12.0, p=0j, h=32.0)
        Ls = np.array([10.0, 20.0, 40.0, 80.0])
        gaps = [far_field_max_gap(params, L) for L in Ls]
        slope = np.polyfit(np.log(Ls), np.log(gaps), 1)[0]
        assert slope <= -4.0

    def test_n2_point(self):
        params = BubbleParams(N=2, mu=14.0, p=0j, h=72.0)
        gap = far_field_gap(params, 10.0, math.pi / 3)
        assert abs(gap) <= 10 * (10.0 ** -9 + math.exp(-14.0) * 10.0 ** -6)

    def test_measured_subleading_coefficients(self):
        # Fourier extraction on |y| = L pins the two L^-(2N+2) coefficients:
        # no secular term, and 2 cos((2N+2) theta)
        N, mu = 1, 34.0
        params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
        L = 50.0
        th = 2 * np.pi * np.arange(2048) / 2048
        vals = eval_bubble(params, L * np.exp(1j * th))
        base = -mu + 2 * math.log(params.D / params.h) - 4 * (N + 1) * math.log(L)
        spec = np.fft.rfft(vals - base) / 2048
        secular = spec[0].real * L ** (2 * N + 2)
        cos_2n2 = 2 * spec[2 * N + 2].real * L ** (2 * N + 2)
        assert abs(secular) <= 1e-3
        assert cos_2n2 == pytest.approx(2.0, abs=1e-3)

    @pytest.mark.parametrize("mu", [12.0, 100.0])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("L", [10.0, 40.0])
    def test_gap_matches_mpmath(self, mu, N, L):
        # V minus the five terms at 60 digits, with e^mu exact; subtracting the
        # terms from V in floats erred by up to 5.2e-14 here, 2 ulp of |V|
        params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
        thetas = math.tau * np.arange(64) / 64
        n1 = N + 1
        exact = []
        with mpmath.workdps(60):
            mu_, h, D = mpmath.mpf(mu), mpmath.mpf(params.h), mpmath.mpf(params.D)
            c = h * mpmath.exp(mu_) / D
            for th in thetas:
                th = mpmath.mpf(th)
                y = L * mpmath.expj(th)
                V = mu_ - 2 * mpmath.log(1 + c * abs(y ** n1 - 1) ** 2)
                terms = (-mu_ + 2 * mpmath.log(D / h) - 4 * n1 * mpmath.log(L)
                         + 4 * mpmath.cos(n1 * th) / mpmath.mpf(L) ** n1
                         + 2 * mpmath.cos(2 * n1 * th) / mpmath.mpf(L) ** (2 * n1))
                exact.append(float(V - terms))
        err = np.max(np.abs(far_field_gap(params, L, thetas) - np.array(exact)))
        assert err <= 1e-16

    def test_offset_bubble_rejected(self):
        with pytest.raises(ValueError):
            far_field_gap(BubbleParams(N=1, mu=12.0, p=0.01, h=32.0), 10.0, 0.0)


class TestRescaledProfile:
    def test_zero_at_origin(self):
        params = BubbleParams(N=1, mu=16.0, p=0j, h=32.0)
        assert rescaled_profile_gap(params, 0j) == pytest.approx(0.0, abs=1e-12)

    def test_bound_at_z10(self):
        params = BubbleParams(N=1, mu=16.0, p=0j, h=32.0)
        assert abs(rescaled_profile_gap(params, 10.0 + 0j)) <= 20 * math.exp(-8.0)

    def test_halving_epsilon_halves_gap(self):
        z = 4.0 + 3.0j
        g1 = rescaled_profile_gap(BubbleParams(N=1, mu=16.0, p=0j, h=32.0), z)
        g2 = rescaled_profile_gap(BubbleParams(N=1, mu=16.0 + 2 * math.log(2), p=0j, h=32.0), z)
        assert abs(g2) / abs(g1) <= 0.7
