import math

import numpy as np
import pytest

from liouville_lab.bubbles import BubbleParams, find_maxima
from liouville_lab.maxima import (
    MaximaConfiguration,
    build_interaction_matrix,
    check_half_angle_identity,
    check_row_sum_independence,
    check_sine_sum_identity,
    force_balance_residuals,
    green_disk,
    interaction_coefficients_d,
    oscillation_gradient,
    solve_maxima_system,
)
from oracles import dominance_margins_loop, fd_check, row_sums_loop


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

    def test_diagonal(self):
        # G is singular on the diagonal; its regular part and gradient are not
        eta = 0.5 + 0.2j
        G, H, grad = green_disk(1.0, eta, eta)
        near = green_disk(1.0, eta + 1e-7, eta)
        assert G == math.inf
        assert H == pytest.approx(near[1], abs=1e-7)
        assert grad == pytest.approx(near[2], abs=1e-7)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            green_disk(1.0, 1.0 + 0j, 0.5 + 0j)

    def test_elementwise(self):
        y = np.array([0.1 + 0.2j, -0.3j, 0.4 + 0j])
        eta = np.array([[0.5 + 0j], [-0.2 + 0.6j]])
        G, H, grad = green_disk(1.5, y, eta)
        assert G.shape == H.shape == grad.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                one = green_disk(1.5, complex(y[j]), complex(eta[i, 0]))
                assert (G[i, j], H[i, j], grad[i, j]) == pytest.approx(one, abs=1e-15)

    def test_center_source(self):
        G, H, grad = green_disk(2.0, 0.5 + 0j, 0j)
        assert G == pytest.approx(-math.log(0.5 / 2.0) / (2 * math.pi))
        assert grad == 0j


class TestOscillationGradient:
    def test_two_point_configuration(self):
        config = MaximaConfiguration(N=1, Q=np.array([1.0 + 0j, -1.0 + 0j]))
        grads, corr = oscillation_gradient(config)
        assert grads[0] == pytest.approx(-2.0 + 0j, abs=1e-14)
        assert grads[1] == pytest.approx(2.0 + 0j, abs=1e-14)
        assert corr[0] == 0j

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("R", [10.0, 1000.0, math.inf])
    def test_force_balance_exact_roots(self, N, R):
        config = MaximaConfiguration(N=N, Q=np.exp(1j * math.tau * np.arange(N + 1) / (N + 1)),
                                     R=R)
        assert np.max(force_balance_residuals(config)) <= 1e-10

    def test_image_correction_bound(self):
        # perturbed maxima from a genuine bubble: sum of p_l cancels exactly
        for N in (1, 2, 3):
            Q = find_maxima(BubbleParams(N=N, mu=8.0, p=0.1, h=8.0))
            sigma = float(np.max(np.abs(Q - np.exp(2j * np.pi * np.arange(N + 1) / (N + 1)))))
            for R in (20.0, 100.0):
                _, corr = oscillation_gradient(MaximaConfiguration(N=N, Q=Q, R=R))
                assert np.max(np.abs(corr)) <= 10.0 * sigma / R ** 2

    def test_matches_the_loop_sums(self):
        # repulsion: -4 sum_{l != m} (Q_m - Q_l)/|Q_m - Q_l|^2; image:
        # 4 sum_l (Q_m - eta*_l)/|Q_m - eta*_l|^2 over every image point
        # eta*_l = R^2 Q_l/|Q_l|^2, the self term l = m included: only the
        # full sum carries the root-of-unity cancellation
        Q = find_maxima(BubbleParams(N=2, mu=8.0, p=0.1 + 0.05j, h=8.0))
        R = 20.0
        grads, corr = oscillation_gradient(MaximaConfiguration(N=2, Q=Q, R=R))
        for m in range(3):
            rep = img = 0j
            for l in range(3):
                if l != m:
                    d = Q[m] - Q[l]
                    rep -= 4.0 * d / abs(d) ** 2
                d = Q[m] - R ** 2 * Q[l] / abs(Q[l]) ** 2
                img += 4.0 * d / abs(d) ** 2
            assert grads[m] == pytest.approx(rep, rel=1e-12)
            assert corr[m] == pytest.approx(img, rel=1e-12)
        assert np.max(np.abs(corr)) <= 1e-3 / R ** 2

    def test_rotation_equivariance(self):
        rot = np.exp(0.6j)
        base = MaximaConfiguration.from_roots(3)
        rotated = MaximaConfiguration(N=3, Q=base.Q * rot)
        g0, _ = oscillation_gradient(base)
        g1, _ = oscillation_gradient(rotated)
        assert np.max(np.abs(g1 - g0 * rot)) <= 1e-12

    def test_coincident_points_rejected(self):
        config = MaximaConfiguration(N=1, Q=np.array([1.0 + 0j, 1.0 + 1e-14j]))
        with pytest.raises(ValueError):
            oscillation_gradient(config)


class TestIdentities:
    def test_half_angle_at_pi(self):
        z = np.exp(1j * math.pi)
        lhs = z / (1 - z) ** 2
        assert lhs.real == pytest.approx(-0.25, abs=1e-15)
        assert check_half_angle_identity() <= 1e-12

    def test_sine_sum_n2(self):
        d = interaction_coefficients_d(2)
        assert d[0] == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert sum(d) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert check_sine_sum_identity(2) <= 1e-9 * 2 * 2

    def test_root_sum_n2(self):
        # l = 0: 2 * 2 * Re(1/(1 - e^{2 pi i/3})) = 2 = N
        val = 2 * sum(1.0 / (1 - np.exp(2j * np.pi * j / 3)) for j in (1, 2))
        assert val.real == pytest.approx(2.0, abs=1e-14)
        assert abs(val.imag) <= 1e-14
        # the force balance at the exact roots is twice the root-sum residual
        assert np.max(force_balance_residuals(MaximaConfiguration.from_roots(2))) <= 1e-10 * 2

    def test_row_sum_independence(self):
        assert check_row_sum_independence(17) <= 1e-9 * 17 * 17

    def test_row_sums_equal_the_loop(self, monkeypatch):
        # the cumsum table adds each row left to right, like the loop's sum
        seen = []
        real_cumsum = np.cumsum

        def cumsum_spy(a, *args, **kwargs):
            out = real_cumsum(a, *args, **kwargs)
            seen.append(out[:, -1])
            return out

        monkeypatch.setattr(np, "cumsum", cumsum_spy)
        for N in range(1, 65):
            residual = check_row_sum_independence(N)
            sums = np.asarray(row_sums_loop(interaction_coefficients_d(N)))
            assert list(seen[-1]) == list(sums)
            assert residual == float(np.max(np.abs(sums - sums[0])))

    def test_d_symmetry_exact(self):
        for N in range(1, 65):
            d = interaction_coefficients_d(N)
            assert np.array_equal(d, d[::-1])

    def test_d_lower_half_is_the_direct_formula(self):
        # no argument above pi/2 is evaluated: the lower half is the direct
        # formula bitwise (the upper half is its mirror, test_d_symmetry_exact)
        for N in range(1, 65):
            d = interaction_coefficients_d(N)
            for j in range(1, (N + 1) // 2 + 1):
                assert d[j - 1] == 1.0 / math.sin(j * math.pi / (N + 1)) ** 2, (N, j)


class TestMaximaSystem:
    def test_n2_matrix(self):
        _, A = build_interaction_matrix(2)
        expected = np.array([[8.0 / 3.0, -4.0 / 3.0], [-4.0 / 3.0, 8.0 / 3.0]])
        assert np.max(np.abs(A - expected)) <= 1e-14
        assert np.linalg.det(A) == pytest.approx(48.0 / 9.0, rel=1e-14)

    def test_uniform_rhs(self):
        sol = solve_maxima_system(2, np.array([1.0, 1.0]))
        assert np.max(np.abs(sol.m - 0.75)) <= 1e-14

    def test_zero_rhs(self):
        sol = solve_maxima_system(3, np.zeros(3))
        assert np.max(np.abs(sol.m)) == 0.0

    def test_margins_equal_d(self):
        for N in (1, 2, 8, 32, 64):
            sol = solve_maxima_system(N, np.ones(N))
            assert np.max(np.abs(sol.dominance_margins - sol.d) / sol.d) <= 1e-12

    def test_margins_equal_the_loop(self):
        for N in range(1, 65):
            sol = solve_maxima_system(N, np.ones(N))
            _, A = build_interaction_matrix(N)
            assert list(sol.dominance_margins) == dominance_margins_loop(A)

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


class TestConfigurationValidation:
    def test_count(self):
        with pytest.raises(ValueError):
            MaximaConfiguration(N=2, Q=np.array([1.0 + 0j, -1.0 + 0j]))

    def test_points_near_unit_circle(self):
        with pytest.raises(ValueError):
            MaximaConfiguration(N=1, Q=np.array([3.0 + 0j, -1.0 + 0j]))
