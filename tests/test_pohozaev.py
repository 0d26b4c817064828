import math

import numpy as np
import pytest

from liouville_lab.bubbles import BubbleParams, find_maxima
from liouville_lab.errors import ContrastMismatchError, NotASolutionError
from liouville_lab.harmonic import layer_from_coefficients
from liouville_lab.kernels import kernel_functions
from liouville_lab.numerics import QuadratureSpec
from liouville_lab.pohozaev import (
    SolutionField,
    bubble_field,
    byparts_identity,
    coefficient_contrast,
    constant_field,
    pohozaev_check,
    radial_field,
)
from liouville_lab.radial import closed_form_profile

SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)


class TestPohozaevCheck:
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_exact_bubble(self, N):
        params = BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        q0 = find_maxima(params).Q[0]
        for center, radius in ((q0, 0.2), (q0 * np.exp(0.2j), 0.3)):
            for xi in ((1.0, 0.0), (0.0, 1.0)):
                rep = pohozaev_check(field, h, grad_h, N, center, radius, xi, SPEC)
                assert abs(rep.residual) <= 1e-6 * rep.scale

    def test_degenerate_direction_rejected(self):
        params = BubbleParams(N=0, mu=4.0, p=0j, h=8.0)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        with pytest.raises(ValueError):
            pohozaev_check(field, h, grad_h, 0, 0j, 0.3, (0.0, 0.0), SPEC)

    def test_radial_gelfand_solution(self):
        prof = closed_form_profile(0, 1.0)
        field = radial_field(prof)
        h, grad_h = constant_field(prof.lam)
        rep = pohozaev_check(field, h, grad_h, 0, 0j, 0.5, (1.0, 0.0), SPEC,
                             validate=False)
        assert abs(rep.residual) <= 1e-6 * rep.scale

    def test_non_solution_rejected(self):
        params = BubbleParams(N=0, mu=4.0, p=0j, h=8.0)
        broken = SolutionField(value=lambda z: np.zeros(np.shape(z)),
                               gradient=lambda z: (np.zeros(np.shape(z)),
                                                   np.zeros(np.shape(z))),
                               laplacian=lambda z: np.zeros(np.shape(z)))
        h, grad_h = constant_field(params.h)
        with pytest.raises(NotASolutionError):
            pohozaev_check(broken, h, grad_h, 0, 1.0 + 0j, 0.3, (1.0, 0.0), SPEC)

    def test_origin_exclusion(self):
        params = BubbleParams(N=1, mu=4.0, p=0j, h=32.0)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        with pytest.raises(ValueError):
            pohozaev_check(field, h, grad_h, 1, 0.1 + 0j, 0.3, (1.0, 0.0), SPEC)


class TestCoefficientContrast:
    def _layer(self, ds):
        return layer_from_coefficients(N=1, delta=0.05, L=1, A=[0.0, ds], B=[0.0, 0.0])

    def test_linear_layer_ratio(self):
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        val = coefficient_contrast(params, self._layer(ds), 0, (1.0, 0.0), 0.3, SPEC)
        assert 0.9 <= val / (8 * math.pi * ds) <= 1.1

    def test_orthogonal_direction(self):
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        val = coefficient_contrast(params, self._layer(ds), 0, (0.0, 1.0), 0.3, SPEC,
                                   check=False)
        assert abs(val) <= 0.1 * ds * 8 * math.pi

    def test_doubling_scale(self):
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        v1 = coefficient_contrast(params, self._layer(1e-5), 0, (1.0, 0.0), 0.3, SPEC)
        v2 = coefficient_contrast(params, self._layer(2e-5), 0, (1.0, 0.0), 0.3, SPEC)
        assert v2 / (2 * v1) == pytest.approx(1.0, abs=1e-2)

    def test_rotation_equivariance(self):
        # rotating the layer direction and xi together leaves the value fixed
        ds = 1e-5
        ang = 0.7
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        base = coefficient_contrast(params, self._layer(ds), 0, (1.0, 0.0), 0.3, SPEC)
        rotated_layer = layer_from_coefficients(
            N=1, delta=0.05, L=1,
            A=[0.0, ds * math.cos(ang)], B=[0.0, ds * math.sin(ang)])
        val = coefficient_contrast(params, rotated_layer, 0,
                                   (math.cos(ang), math.sin(ang)), 0.3, SPEC)
        assert val == pytest.approx(base, rel=2e-2)

    def test_mismatch_detection(self):
        # lying about the layer scale cannot break the integral itself; instead
        # check the guard fires when the predicted value is forced off
        ds = 1e-5
        params = BubbleParams(N=1, mu=6.0, p=0j, h=1.0)
        # at small mu the bubble mass spreads beyond the disk: prediction fails
        with pytest.raises(ContrastMismatchError):
            coefficient_contrast(params, self._layer(ds), 0, (1.0, 0.0), 0.05, SPEC)


class TestBypartsIdentity:
    def test_zero_perturbation(self):
        params = BubbleParams(N=1, mu=10.0, p=0j, h=8.0)
        zero = SolutionField(value=lambda z: np.zeros(np.shape(z)),
                             gradient=lambda z: (np.zeros(np.shape(z)),
                                                 np.zeros(np.shape(z))))
        assert byparts_identity(params, zero, 0, 0.3, spec=SPEC) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_kernel(self):
        params = BubbleParams(N=1, mu=10.0, p=0j, h=8.0)
        eps = math.exp(-params.mu / 2.0)
        q0 = find_maxima(params).Q[0]
        amp = 1e-6

        def w_value(z):
            zz = (np.asarray(z, dtype=complex) - q0) / eps
            return amp * kernel_functions(zz, params.h / 8.0)[1]

        def w_gradient(z, h_step=1e-7):
            z = np.asarray(z, dtype=complex)
            wx = (w_value(z + h_step) - w_value(z - h_step)) / (2 * h_step)
            wy = (w_value(z + 1j * h_step) - w_value(z - 1j * h_step)) / (2 * h_step)
            return wx, wy

        w = SolutionField(value=w_value, gradient=w_gradient)
        assert abs(byparts_identity(params, w, 0, 0.3, spec=SPEC)) <= 1e-4

    def test_n_zero_trivial(self):
        params = BubbleParams(N=0, mu=10.0, p=0j, h=8.0)
        anything = SolutionField(value=lambda z: np.ones(np.shape(z)),
                                 gradient=lambda z: (np.zeros(np.shape(z)),
                                                     np.zeros(np.shape(z))))
        assert byparts_identity(params, anything, 0, 0.3, spec=SPEC) == 0.0


class TestCancellationStructure:
    def test_contrast_isolation(self):
        # the difference of the Pohozaev balances (exact bubble, constant h)
        # versus (same bubble, layered h) isolates the contrast integral
        ds = 1e-7
        mu = 14.0
        params = BubbleParams(N=1, mu=mu, p=0j, h=1.0)
        field = bubble_field(params)
        q0 = find_maxima(params).Q[0]
        radius = 0.25
        xi = (1.0, 0.0)
        eps = math.exp(-mu / 2.0)
        splits = [5 * eps, 50 * eps, radius * 0.5]
        layer = layer_from_coefficients(N=1, delta=0.05, L=1, A=[0.0, ds], B=[0.0, 0.0])
        # the constant-coefficient balance freezes the layered field at the maximum
        h_const, grad_const = constant_field(params.h * float(layer.h0(q0)))
        rep_a = pohozaev_check(field, h_const, grad_const, 1, q0, radius, xi, SPEC,
                               radial_splits=splits, validate=False)

        def h_layered(z):
            return params.h * np.exp(layer.phi0(z))

        def grad_layered(z):
            z = np.asarray(z, dtype=complex)
            flat = z.ravel()
            gs = np.array([layer.h0_gradient(zz) for zz in flat])
            gx = (params.h * gs[:, 0]).reshape(z.shape)
            gy = (params.h * gs[:, 1]).reshape(z.shape)
            return gx, gy

        rep_b = pohozaev_check(field, h_layered, grad_layered, 1, q0, radius, xi, SPEC,
                               radial_splits=splits, validate=False)
        contrast = coefficient_contrast(params, layer, 0, xi, radius, SPEC)
        diff = rep_b.residual - rep_a.residual
        assert abs(abs(diff) - abs(contrast)) <= 0.1 * abs(contrast)
