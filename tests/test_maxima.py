import math

import numpy as np
import pytest

from liouville_lab.bubbles import BubbleParams, find_maxima
from liouville_lab.maxima import (
    MaximaConfiguration,
    build_interaction_matrix,
    check_half_angle_identity,
    check_root_sum_identity,
    check_row_sum_independence,
    check_sine_sum_identity,
    force_balance_residuals,
    green_disk,
    interaction_coefficients_d,
    oscillation_gradient,
    solve_maxima_system,
    verify_identities,
)
from liouville_lab.numerics import fd_check


class TestGreenDisk:
    def test_boundary_vanishing(self):
        R = 1.0
        eta = (1 - 1e-9) * np.exp(0.4j)
        G, _, _ = green_disk(R, 0.5 + 0j, eta)
        assert abs(G) <= 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        R = 2.0
        for _ in range(100):
            y = R * 0.9 * (rng.uniform(0.05, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            eta = R * 0.9 * (rng.uniform(0.05, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            if abs(y - eta) < 1e-6:
                continue
            g1 = green_disk(R, complex(y), complex(eta))[0]
            g2 = green_disk(R, complex(eta), complex(y))[0]
            assert abs(g1 - g2) <= 1e-12

    def test_regular_part_gradient(self):
        R, eta = 3.0, 0.7 + 0.4j
        y0 = -0.5 + 0.8j
        _, _, grad = green_disk(R, y0, eta)
        slope = fd_check(lambda z: green_disk(R, complex(z), eta)[1], y0,
                         (grad.real, grad.imag))
        assert 1.8 <= slope <= 2.2

    def test_singularity_rejected(self):
        with pytest.raises(ValueError):
            green_disk(1.0, 0.5 + 0j, 0.5 + 0j)

    def test_center_source(self):
        G, H, grad = green_disk(2.0, 0.5 + 0j, 0j)
        assert G == pytest.approx(-math.log(0.5 / 2.0) / (2 * math.pi))
        assert grad == 0j


class TestOscillationGradient:
    def test_two_point_configuration(self):
        config = MaximaConfiguration(N=1, Q=np.array([1.0 + 0j, -1.0 + 0j]),
                                     m=np.zeros(2, dtype=complex))
        grads, corr = oscillation_gradient(config)
        assert grads[0] == pytest.approx(-2.0 + 0j, abs=1e-14)
        assert grads[1] == pytest.approx(2.0 + 0j, abs=1e-14)
        assert corr[0] == 0j

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("R", [10.0, 1000.0, math.inf])
    def test_force_balance_exact_roots(self, N, R):
        config = MaximaConfiguration.from_roots(N, R=R)
        assert np.max(force_balance_residuals(config)) <= 1e-10

    def test_image_correction_bound(self):
        # perturbed maxima from a genuine bubble: sum of p_l cancels exactly
        for N in (1, 2, 3):
            Q = find_maxima(BubbleParams(N=N, mu=8.0, p=0.1, h=8.0)).Q
            sigma = float(np.max(np.abs(Q - np.exp(2j * np.pi * np.arange(N + 1) / (N + 1)))))
            for R in (20.0, 100.0):
                config = MaximaConfiguration(N=N, Q=Q, m=Q * np.exp(-1j * np.angle(Q))
                                             - abs(Q[0]), R=R)
                _, corr = oscillation_gradient(config)
                assert np.max(np.abs(corr)) <= 10.0 * sigma / R ** 2

    def test_rotation_equivariance(self):
        rot = np.exp(0.6j)
        base = MaximaConfiguration.from_roots(3)
        rotated = MaximaConfiguration(N=3, Q=base.Q * rot, m=base.m)
        g0, _ = oscillation_gradient(base)
        g1, _ = oscillation_gradient(rotated)
        assert np.max(np.abs(g1 - g0 * rot)) <= 1e-12

    def test_coincident_points_rejected(self):
        config = MaximaConfiguration(N=1, Q=np.array([1.0 + 0j, 1.0 + 1e-14j]),
                                     m=np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            oscillation_gradient(config)


class TestIdentities:
    def test_half_angle_at_pi(self):
        z = np.exp(1j * math.pi)
        lhs = z / (1 - z) ** 2
        assert lhs.real == pytest.approx(-0.25, abs=1e-15)
        assert check_half_angle_identity().passed

    def test_sine_sum_n2(self):
        d = interaction_coefficients_d(2)
        assert d[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert sum(d) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert check_sine_sum_identity(2).passed

    def test_root_sum_n2(self):
        # l = 0: 2 * 2 * Re(1/(1 - e^{2 pi i/3})) = 2 = N
        val = 2 * sum(1.0 / (1 - np.exp(2j * np.pi * j / 3)) for j in (1, 2))
        assert val.real == pytest.approx(2.0, abs=1e-14)
        assert abs(val.imag) <= 1e-14
        assert check_root_sum_identity(2).passed

    def test_full_sweep(self):
        checks = verify_identities(64)
        assert all(c.passed for c in checks)

    def test_row_sum_independence(self):
        assert check_row_sum_independence(17).passed

    def test_d_symmetry_exact(self):
        for N in range(1, 65):
            d = interaction_coefficients_d(N)
            assert np.array_equal(d, d[::-1])


class TestMaximaSystem:
    def test_n2_matrix(self):
        mat = build_interaction_matrix(2)
        expected = np.array([[8.0 / 3.0, -4.0 / 3.0], [-4.0 / 3.0, 8.0 / 3.0]])
        assert np.max(np.abs(mat.A - expected)) <= 1e-14
        assert np.linalg.det(mat.A) == pytest.approx(48.0 / 9.0, rel=1e-14)

    def test_uniform_rhs(self):
        sol = solve_maxima_system(2, np.array([1.0, 1.0]))
        assert np.max(np.abs(sol.m - 0.75)) <= 1e-14

    def test_zero_rhs(self):
        sol = solve_maxima_system(3, np.zeros(3))
        assert np.max(np.abs(sol.m)) == 0.0

    def test_margins_equal_d(self):
        for N in (1, 2, 8, 32, 64):
            sol = solve_maxima_system(N, np.ones(N))
            assert np.max(np.abs(sol.dominance_margins - sol.matrix.d)
                          / sol.matrix.d) <= 1e-12

    def test_min_singular_value_positive(self):
        for N in (1, 8, 64):
            sol = solve_maxima_system(N, np.ones(N))
            assert sol.min_singular_value >= 1.0

    def test_complex_solve_and_conditioning(self):
        rng = np.random.default_rng(12)
        rhs = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        sol = solve_maxima_system(16, rhs)
        assert sol.solve_residual <= 1e-12 * sol.condition_number * np.linalg.norm(rhs)
        assert np.max(np.abs(sol.m)) <= sol.condition_number * np.max(np.abs(rhs))

    def test_l0_residual_reported(self):
        sol = solve_maxima_system(2, np.array([1.0, 1.0]))
        # -sum d_j m_j = -2 against mean rhs 1
        assert sol.l0_residual == pytest.approx(3.0, rel=1e-12)


class TestConfigurationValidation:
    def test_m0_normalisation(self):
        with pytest.raises(ValueError):
            MaximaConfiguration(N=1, Q=np.array([1.0 + 0j, -1.0 + 0j]),
                                m=np.array([0.5, 0.0], dtype=complex))

    def test_points_near_unit_circle(self):
        with pytest.raises(ValueError):
            MaximaConfiguration(N=1, Q=np.array([3.0 + 0j, -1.0 + 0j]),
                                m=np.zeros(2, dtype=complex))
