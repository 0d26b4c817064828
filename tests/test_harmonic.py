import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouville_lab.bubbles import BubbleParams
from liouville_lab.errors import DegenerateLayerError
from liouville_lab.harmonic import (
    LayerField,
    bubble_oscillation_killer,
    build_layer,
    grad_h_at_roots,
    layer_from_coefficients,
)
from oracles import fd_laplacian, trig_sum


def _data(a, b):
    """Trace coefficients c_n = a_n - i b_n of sum a_n cos n theta + b_n sin n theta."""
    return np.asarray(a, dtype=float) - 1j * np.asarray(b)


def _extension(c, radius):
    """The harmonic extension y -> Re sum c_n (y / radius)^n of the trace with
    coefficients c on the circle of that radius, as ``LayerField.phi0``."""
    layer = LayerField(N=1, c=c, delta_star=1.0)
    return lambda y: layer.phi0(np.asarray(y, dtype=complex) / radius)


def _coefficients():
    """Random c[0..n], 1 <= n <= 8, with |Re c_n|, |Im c_n| <= 1 and c[0] = 0,
    the zero-mean data that ``LayerField`` holds.

    Parts below 1e-12 are 0: a finite difference of one would underflow.
    """
    part = st.floats(min_value=-1.0, max_value=1.0).map(lambda x: x if abs(x) > 1e-12 else 0.0)
    return st.lists(st.tuples(part, part), min_size=1, max_size=8).map(
        lambda t: np.array([0.0] + [complex(x, y) for x, y in t]))


# a point t of the disk |t| <= 0.9
UNIT_POINTS = st.tuples(st.floats(min_value=0.0, max_value=0.9),
                        st.floats(min_value=-math.pi, max_value=math.pi)).map(
    lambda t: t[0] * complex(math.cos(t[1]), math.sin(t[1])))


class TestHarmonicExtend:
    def test_quadratic_mode(self):
        extend = _extension(_data([0, 0, 1], [0, 0, 0]), 1.0)
        assert extend(0.5 + 0j) == pytest.approx(0.25, abs=1e-14)

    def test_linear_mode_scaled_radius(self):
        extend = _extension(_data([0, 0], [0, 2]), 2.0)
        assert extend(1j) == pytest.approx(1.0, abs=1e-14)

    def test_zero_mean_center(self):
        extend = _extension(_data([0, 0.3, -0.2, 0.7], [0, 0.1, 0.4, -0.5]), 1.0)
        assert extend(0j) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(c=_coefficients(), radius=st.floats(min_value=0.5, max_value=4.0),
           t=UNIT_POINTS, s=st.floats(min_value=0.01, max_value=1.0))
    def test_harmonicity_and_mean_value(self, c, radius, t, s):
        extend = _extension(c, radius)
        z0 = t * radius
        # the five-point stencil errs by (h^2/6) |F''''| plus 8 eps |F| / h^2,
        # with the derivatives of F(y / radius) at most n^k |c_n| / radius^k
        n = np.arange(c.size)
        h = 1e-3 * radius
        lap = fd_laplacian(extend, z0, h=h)
        assert abs(lap) <= (1e-6 * np.sum(n ** 4 * np.abs(c))
                            + 1e-8 * np.sum(np.abs(c))) / radius ** 2
        # the mean over a circle inside the disk is the value at its centre;
        # the trapezoid rule is exact for more points than the degree
        rr = s * (0.95 * radius - abs(z0))
        m = 4 * c.size
        ring = extend(z0 + rr * np.exp(1j * math.tau * np.arange(m) / m))
        assert abs(np.mean(ring) - extend(z0)) <= 1e-13 * np.sum(np.abs(c))

    @settings(max_examples=50, deadline=None)
    @given(c=_coefficients(), radius=st.floats(min_value=0.5, max_value=4.0))
    def test_matches_boundary_trace(self, c, radius):
        theta = math.tau * np.arange(32) / 32
        vals = _extension(c, radius)(radius * np.exp(1j * theta))
        assert np.max(np.abs(vals - trig_sum(c, 1.0, theta))) <= 1e-13 * np.sum(np.abs(c))


class TestOscillationKiller:
    @pytest.mark.parametrize("N", [1, 2])
    def test_leading_coefficients(self, N):
        delta = 0.05
        params = BubbleParams(N=N, mu=12.0, p=0j, h=1.0)
        killer = bubble_oscillation_killer(params, delta)
        # monomial normalisation on |y| = 1/delta: c_n delta^n
        A = (killer * delta ** np.arange(killer.size, dtype=float)).real
        assert 0.9 <= A[N + 1] / (4 * delta ** (2 * N + 2)) <= 1.1
        # the second displayed coefficient is 2 delta^(4N+4) (half the printed 4)
        assert 0.9 <= A[2 * N + 2] / (2 * delta ** (4 * N + 4)) <= 1.1
        assert 0.45 <= A[2 * N + 2] / (4 * delta ** (4 * N + 4)) <= 0.55

    def test_odd_modes_vanish(self):
        c = bubble_oscillation_killer(BubbleParams(N=1, mu=12.0, p=0j, h=1.0), 0.05)
        assert np.max(np.abs(c[1::2])) <= 1e-12

    def test_mean_removed(self):
        killer = bubble_oscillation_killer(BubbleParams(N=2, mu=10.0, p=0j, h=1.0), 0.04)
        assert killer[0] == 0.0


class TestBuildLayer:
    def test_delta_star_sum(self):
        # N = 2 keeps modes 1, 2 clear of the bubble trace (modes 3, 6)
        phi = _data([0, 0.3, 0.5, 0, 0], [0, 0, 0, 0, 0])
        layer = build_layer(phi, BubbleParams(N=2, mu=12.0, p=0j, h=1.0), 0.1, L=2)
        assert layer.delta_star == pytest.approx(0.035, abs=1e-12)

    def test_phi_zero_fallback(self):
        phi = _data(np.zeros(5), np.zeros(5))
        layer = build_layer(phi, BubbleParams(N=1, mu=12.0, p=0j, h=1.0), 0.1, L=2)
        assert layer.delta_star == pytest.approx(1e-4, abs=1e-18)

    def test_delta_star_dominates_mode_L(self):
        # L = 1 has no bubble contribution for N = 1 (parity), so
        # delta* >= |a_L| delta^L exactly
        phi = _data([0, 0.5, 0.2], [0, 0, 0])
        layer = build_layer(phi, BubbleParams(N=1, mu=12.0, p=0j, h=1.0), 0.05, L=1)
        assert layer.delta_star >= 0.5 * 0.05

    def test_data_equal_to_killer_is_degenerate(self):
        # Phi minus the killer's coefficients leaves every retained gap exactly 0
        params = BubbleParams(N=1, mu=12.0, p=0j, h=1.0)
        killer = bubble_oscillation_killer(params, 0.1)
        with pytest.raises(DegenerateLayerError, match="all retained coefficient gaps vanish"):
            build_layer(killer, params, 0.1, L=2)

    def test_h0_normalisation(self):
        phi = _data([0, 0.3, 0.5], [0, 0.2, 0])
        layer = build_layer(phi, BubbleParams(N=1, mu=12.0, p=0j, h=1.0), 0.1, L=2)
        assert layer.h0(0j) == pytest.approx(1.0, abs=1e-15)
        rng = np.random.default_rng(2)
        zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(-3, 3, 20)
        assert np.all(layer.h0(zs) > 0)


class TestLayerGradient:
    @settings(max_examples=50, deadline=None)
    @given(c=_coefficients(), y=UNIT_POINTS.map(lambda t: 2.0 * t))
    @example(c=np.array([0.0, 0.3 - 0.7j, 0.2 + 0.1j, -0.4j]), y=0j)
    def test_gradient_is_central_differences_of_phi0(self, c, y):
        layer = LayerField(N=1, c=c, delta_star=1.0)
        h = 1e-5
        fd = ((layer.phi0(y + h) - layer.phi0(y - h)) / (2 * h),
              (layer.phi0(y + 1j * h) - layer.phi0(y - 1j * h)) / (2 * h))
        # central differences err by (h^2/6) |F'''| plus eps |F| / h
        n = np.arange(c.size)
        size = np.sum(np.abs(c) * n ** 3 * (1.0 + abs(y) + h) ** n)
        assert np.hypot(*np.subtract(layer.phi0_gradient(y), fd)) <= 1e-8 * size


class TestGradHAtRoots:
    def test_single_mode_uniform_gradient(self):
        ds = 0.37
        layer = layer_from_coefficients(N=3, L=1, c=[0.0, ds])
        res = grad_h_at_roots(layer)
        assert res.index == 0
        assert res.ratio == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(res.ratios - 1.0)) <= 1e-12

    def test_constructed_counterexample(self):
        ds = 0.2
        layer = layer_from_coefficients(N=1, L=2, c=[0.0, 2 * ds / 3.0, -ds / 3.0])
        assert layer.delta_star == pytest.approx(ds, abs=1e-15)
        res = grad_h_at_roots(layer)
        px, py = layer.phi0_gradient(1.0 + 0j)
        assert np.hypot(px, py) <= 1e-15
        assert res.index == 1
        assert res.ratio == pytest.approx(4.0 / 3.0, rel=1e-2)

    def test_scale_equivariance(self):
        base = layer_from_coefficients(N=2, L=3, c=[0.0, 0.4 - 0.2j, -0.1 - 0.3j, 0.05])
        res = grad_h_at_roots(base)
        for alpha in (0.5, 3.0):
            scaled = layer_from_coefficients(N=2, L=3, c=alpha * base.c)
            res2 = grad_h_at_roots(scaled)
            assert res2.index == res.index
            assert res2.ratio == pytest.approx(res.ratio, rel=1e-12)

    def test_randomized_dichotomy(self):
        rng = np.random.default_rng(42)
        worst = math.inf
        for _ in range(200):
            N = int(rng.integers(1, 5))
            A = np.zeros(7)
            B = np.zeros(7)
            for n in range(1, 7):
                A[n] = rng.uniform(-1, 1) * 1.5 ** (-n)
                B[n] = rng.uniform(-1, 1) * 1.5 ** (-n)
            forced = int(rng.integers(1, 7))
            A[forced] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
            dn = 0.1 ** np.arange(7, dtype=float)
            layer = layer_from_coefficients(N=N, L=6, c=(A - 1j * B) * dn)
            res = grad_h_at_roots(layer)
            worst = min(worst, res.ratio)
        assert worst >= 0.05

    def test_violated_dichotomy_returns_its_ratio(self):
        # F = -y + y^3/3 has F' = y^2 - 1, which vanishes at both roots of unity
        # for N = 1: the ratio is returned, and the report's records judge it
        layer = layer_from_coefficients(N=1, L=3, c=[0.0, -1.0, 0.0, 1.0 / 3.0])
        assert grad_h_at_roots(layer).ratio <= 1e-15
