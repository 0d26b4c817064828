import math

import numpy as np
import pytest

from liouville_lab.bubbles import BubbleParams, find_maxima
from liouville_lab import interaction
from liouville_lab.interaction import (
    InteractionParams,
    closed_form_interaction,
    decompose_difference,
    fit_kernel_coefficients,
    interaction_coefficient,
    kernel_coefficients,
    moment_contributions,
    moment_integrals,
    second_moment,
)
from liouville_lab.numerics import QuadratureSpec
from liouville_lab.scenarios import run_scenario

SPEC = QuadratureSpec(rel_tol=1e-9)


def _params(N=1, mu=14.0, dp=0.0, dp_angle=0.7, p_s=0j, dmu=0.0, dh=0.0,
            M=1.0, beta_s=0.0):
    eps = math.exp(-mu / 2.0)
    return InteractionParams(N=N, mu_s=mu, mu_l=mu + dmu,
                             p_s=p_s, p_l=p_s - dp * eps * np.exp(1j * dp_angle),
                             h_s=1.0, h_l=1.0 + dh, M=M, beta_s=beta_s)


class TestDecomposeDifference:
    def test_identical_bubbles(self):
        params = _params(dp=0.0)
        dec = decompose_difference(params, 2.0 + 1.0j)
        for v in (dec.phi1, dec.phi2, dec.phi3, dec.phi4, dec.remainder):
            assert abs(v) <= 1e-12

    def test_z_zero_values(self):
        params = _params(dp=1e-2)
        eps = params.eps
        dec = decompose_difference(params, 0j)
        assert dec.phi2 == pytest.approx(0.0, abs=1e-16)
        expected_phi3 = abs(params.delta_p) ** 2 / (4 * (params.N + 1) ** 2 * eps ** 2)
        assert dec.phi3 == pytest.approx(expected_phi3, rel=1e-14)

    def test_remainder_small(self):
        params = _params(dp=1e-2)
        dec = decompose_difference(params, 2.0 + 1.0j)
        assert abs(dec.remainder) <= 0.1 * (abs(dec.phi2) + abs(dec.phi3) + abs(dec.phi4))

    def test_remainder_halves_with_eps(self):
        z = 2.0 + 1.0j

        def rem(mu):
            eps = math.exp(-mu / 2.0)
            params = InteractionParams(N=1, mu_s=mu, mu_l=mu + eps, p_s=0.3 * eps,
                                       p_l=0.3 * eps - 1e-2 * eps * np.exp(0.7j),
                                       h_s=1.0, h_l=1.0, M=1.0)
            return abs(decompose_difference(params, z).remainder)

        assert rem(14.0 + 2 * math.log(2)) / rem(14.0) <= 0.7

    def test_swap_antisymmetry(self):
        # swapping the bubble roles negates phi1 and phi4 up to remainder-size
        mu = 14.0
        eps = math.exp(-mu / 2.0)
        params = InteractionParams(N=1, mu_s=mu, mu_l=mu + 0.5 * eps, p_s=0j,
                                   p_l=-1e-2 * eps, h_s=1.0, h_l=1.0 + 1e-3, M=1.0)
        swapped = InteractionParams(N=1, mu_s=params.mu_l, mu_l=params.mu_s,
                                    p_s=params.p_l, p_l=params.p_s,
                                    h_s=params.h_l, h_l=params.h_s, M=1.0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            a = decompose_difference(params, z)
            b = decompose_difference(swapped, z)
            slack = 0.05 * (abs(a.phi1) + abs(a.phi4)) + 20 * abs(a.remainder) + 1e-12
            assert abs(a.phi1 + b.phi1) <= slack
            assert abs(a.phi4 + b.phi4) <= slack

    def test_total_matches_exact_difference(self):
        from liouville_lab.bubbles import eval_bubble
        params = _params(dp=5e-3, dmu=1e-4)
        z = 1.5 - 0.5j
        dec = decompose_difference(params, z)
        y = params.Q_s + params.eps * z
        exact = eval_bubble(params.bubble_s(), y) - eval_bubble(params.bubble_l(), y)
        total = dec.phi1 + dec.phi2 + dec.phi3 + dec.phi4 + dec.remainder
        assert total == pytest.approx(exact, abs=1e-15)


class TestMomentIntegrals:
    def test_vanishing_moments(self):
        i0, i1 = moment_integrals(BubbleParams(N=1, mu=6.0, p=0.05, h=32.0), SPEC)
        mass = 16 * math.pi
        assert abs(i0) <= 1e-6 * mass
        assert abs(i1) <= 1e-6 * mass

    def test_symmetric_case(self):
        i0, i1 = moment_integrals(BubbleParams(N=2, mu=8.0, p=0j, h=72.0), SPEC)
        mass = 24 * math.pi
        assert abs(i0) <= 1e-6 * mass
        assert abs(i1) <= 1e-6 * mass

    def test_steep_bubble(self):
        # at mu = 20 and p = 0 the I1 part is pure rounding of z^3 - 1 at the
        # maxima, 3e-7 of the peak value: the symmetry probe must pass between them
        i0, i1 = moment_integrals(BubbleParams(N=2, mu=20.0, p=0j, h=72.0), SPEC)
        mass = 24 * math.pi
        assert abs(i0) <= 1e-6 * mass
        assert abs(i1) <= 1e-6 * mass

    def test_sixteen_pi(self):
        assert second_moment(SPEC) == pytest.approx(16 * math.pi, rel=1e-6)


def _assert_pure_records_fail(mu):
    entries = run_scenario("interaction", {"mu": mu})
    pure = [e for e in entries if e.check_id in ("interaction/pure-separation",
                                                 "interaction/pure-coefficient")]
    assert len(pure) == 2 and not any(e.pass_ for e in pure)
    assert not [e for e in entries if e.check_id == "interaction/error"]


class TestInteractionCoefficient:
    def test_coincident_bubbles(self):
        params = _params(mu=16.0, dp=0.0, M=0.01)
        d = interaction_coefficient(params, SPEC)
        assert closed_form_interaction(params) == 0.0
        assert abs(d) <= 10 * params.eps

    def test_pure_separation(self):
        mu = 16.0
        params = _params(mu=mu, dp=0.01, M=0.01)   # |p_s - p_l| = eps M
        d = interaction_coefficient(params, SPEC)
        closed = closed_form_interaction(params)
        # derived closed form: 2 pi M / (3 (N+1)^2) = pi M / 6 for N = 1
        assert closed == pytest.approx(math.pi * 0.01 / 6.0, rel=1e-12)
        assert abs(d / closed - 1.0) <= 0.10

    def test_pure_coefficient(self):
        params = _params(mu=16.0, dp=0.0, dh=0.01 * 0.01, M=0.01)
        d = interaction_coefficient(params, SPEC)
        closed = closed_form_interaction(params)
        # derived closed form: 8 pi (h_l - h_s)/M = 0.08 pi
        assert closed == pytest.approx(0.08 * math.pi, rel=1e-10)
        assert abs(d / closed - 1.0) <= 0.10

    def test_pure_separation_higher_order(self):
        mu, M = 16.0, 0.01
        eps = math.exp(-mu / 2.0)
        params = InteractionParams(N=2, mu_s=mu, mu_l=mu, p_s=0j, p_l=-eps * M,
                                   h_s=1.0, h_l=1.0, M=M, beta_s=2 * math.pi / 3.0)
        d = interaction_coefficient(params, SPEC)
        closed = closed_form_interaction(params)
        assert closed == pytest.approx(2 * math.pi * M / 27.0, rel=1e-12)
        assert abs(d / closed - 1.0) <= 0.10

    def test_wrong_quadrature_fails_the_records(self, monkeypatch):
        # a phi3 + phi4 quadrature 20% too large fails both pure records; the
        # phi1, phi2 quadrature is the one whose integrand returns two rows
        real = interaction.integrate_disk

        def scaled(*args, **kwargs):
            value = real(*args, **kwargs)
            return value if np.ndim(value) else 1.2 * value

        monkeypatch.setattr(interaction, "integrate_disk", scaled)
        _assert_pure_records_fail(10.0)

    def test_moment_contributions_small(self):
        params = _params(mu=16.0, dp=0.01, M=0.01)
        phi1_integral, phi2_integral = moment_contributions(params, SPEC)
        assert abs(phi1_integral) <= 10 * params.eps
        assert abs(phi2_integral) <= 10 * params.eps

    def test_additive_sources(self):
        sep = _params(mu=16.0, dp=0.01, M=0.01)
        coef = _params(mu=16.0, dp=0.0, dh=1e-4, M=0.01)
        both = _params(mu=16.0, dp=0.01, dh=1e-4, M=0.01)
        total = closed_form_interaction(both)
        assert total == pytest.approx(
            closed_form_interaction(sep) + closed_form_interaction(coef), rel=1e-3)


class TestKernelCoefficients:
    def test_zero_separation(self):
        assert kernel_coefficients(_params(dp=0.0)) == (0.0, 0.0)

    def test_aligned_unit_case(self):
        # beta_s + theta_sl = 0 and |p_s - p_l|/(eps M) = 2(N+1) gives (1, 0)
        mu, N, M = 16.0, 1, 0.01
        eps = math.exp(-mu / 2.0)
        params = InteractionParams(N=N, mu_s=mu, mu_l=mu, p_s=0j,
                                   p_l=-2 * (N + 1) * eps * M, h_s=1.0, h_l=1.0, M=M)
        c1, c2 = kernel_coefficients(params)
        assert c1 == pytest.approx(1.0, rel=1e-14)
        assert c2 == pytest.approx(0.0, abs=1e-14)

    def test_quarter_turn(self):
        base = _params(mu=16.0, dp=0.01, dp_angle=0.9, M=0.01)
        rotated = InteractionParams(N=1, mu_s=base.mu_s, mu_l=base.mu_l, p_s=0j,
                                    p_l=base.p_l * np.exp(1j * math.pi / 2),
                                    h_s=1.0, h_l=1.0, M=0.01)
        c1, c2 = kernel_coefficients(base)
        r1, r2 = kernel_coefficients(rotated)
        assert r1 == pytest.approx(-c2, abs=1e-14)
        assert r2 == pytest.approx(c1, abs=1e-14)

    def test_least_squares_recovery(self):
        params = _params(N=2, mu=16.0, dp=0.02, dp_angle=0.9, M=0.01,
                         beta_s=2 * math.pi / 3)
        c1, c2 = kernel_coefficients(params)
        f1, f2, residual = fit_kernel_coefficients(params)
        assert math.hypot(f1 - c1, f2 - c2) <= 0.05 * math.hypot(c1, c2)
        assert residual <= 0.10

    def test_fit_failure_at_large_eps(self):
        # at eps = e^-1 the translation kernels do not span phi2: the fit
        # residual exceeds the 10% of the fit norm that the report allows
        params = InteractionParams(N=1, mu_s=2.0, mu_l=2.0, p_s=0j,
                                   p_l=-0.3 * math.exp(-1.0), h_s=1.0, h_l=1.0, M=1.0)
        assert fit_kernel_coefficients(params)[2] > 0.10


class TestInteractionParamsMaximum:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_Q_s_is_the_bubble_maximum_at_beta_s(self, N):
        # Q_s reads find_maxima; rotating the principal root by beta_s = tau k/(N+1)
        # rounds apart from the k-th root by at most an ulp
        for p in (0j, 0.1, -0.2j, 0.05 + 0.03j, 0.3 * np.exp(2.1j), -0.4,
                  0.2 * np.exp(-0.9j), 0.01j):
            for k in range(N + 1):
                params = InteractionParams(N=N, mu_s=14.0, mu_l=14.0, p_s=p, p_l=p,
                                           h_s=1.0, h_l=1.0, M=1.0,
                                           beta_s=math.tau * k / (N + 1))
                Q = find_maxima(params.bubble_s())[k]
                assert abs(params.Q_s - Q) <= np.spacing(abs(Q)), (p, k)


class TestInteractionParamsValidation:
    def test_h_gap_capped(self):
        with pytest.raises(ValueError):
            InteractionParams(N=1, mu_s=10.0, mu_l=10.0, p_s=0j, p_l=0j,
                              h_s=1.0, h_l=3.0, M=1.0)

    def test_offsets_capped(self):
        with pytest.raises(ValueError):
            InteractionParams(N=1, mu_s=20.0, mu_l=20.0, p_s=0.5, p_l=0j,
                              h_s=1.0, h_l=1.0, M=1.0)
