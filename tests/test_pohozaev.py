import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import numerics, pohozaev
from liouville_lab.bubbles import BubbleParams, find_maxima
from liouville_lab.errors import ContrastMismatchError, NotASolutionError
from liouville_lab.harmonic import layer_from_coefficients
from liouville_lab.kernels import kernel_functions
from liouville_lab.numerics import QuadratureSpec, integrate_circle, integrate_disk
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
            rep = pohozaev_check(field, h, grad_h, N, center, radius, SPEC)
            assert rep.residual.shape == rep.scale.shape == (2,)
            assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    def test_radial_gelfand_solution(self):
        prof = closed_form_profile(0, 1.0)
        field = radial_field(prof)
        h, grad_h = constant_field(prof.lam)
        rep = pohozaev_check(field, h, grad_h, 0, 0j, 0.5, SPEC)
        assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    def test_non_solution_rejected(self):
        params = BubbleParams(N=0, mu=4.0, p=0j, h=8.0)
        broken = SolutionField(value=lambda z: np.zeros(np.shape(z)),
                               gradient=lambda z: (np.zeros(np.shape(z)),
                                                   np.zeros(np.shape(z))),
                               laplacian=lambda z: np.zeros(np.shape(z)))
        h, grad_h = constant_field(params.h)
        with pytest.raises(NotASolutionError):
            pohozaev_check(broken, h, grad_h, 0, 1.0 + 0j, 0.3, SPEC)

    @settings(max_examples=8, deadline=None)
    @given(N=st.sampled_from([1, 2]), angle=st.floats(min_value=0.0, max_value=math.tau),
           shift=st.floats(min_value=0.0, max_value=0.3))
    def test_off_centre_balance_with_peak_hint(self, N, angle, shift):
        # disks whose centre sits anywhere within 0.3 of the maximum, the peak
        # inside or outside the disk, graded toward it
        params = BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        q0 = complex(find_maxima(params).Q[0])
        center = q0 + shift * np.exp(1j * angle)
        rep = pohozaev_check(field, h, grad_h, N, center, 0.25, SPEC,
                             peak=(q0, math.exp(-params.mu / 2.0)))
        assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    @pytest.mark.parametrize("offset", [5e-324j, np.complex128(5e-324j)],
                             ids=["complex", "complex128"])
    def test_subnormal_offset_from_the_peak(self, offset):
        # the disk centre sits a subnormal distance s from the maximum q0 = 1,
        # so r s underflows to 0 on every ring: the disk grading must give the
        # uniform rule there without dividing by it
        params = BubbleParams(N=0, mu=10.0, p=0j, h=8.0)
        h, grad_h = constant_field(params.h)
        q0 = 1.0 + 0j
        rep = pohozaev_check(bubble_field(params), h, grad_h, 0, q0 + offset, 0.25, SPEC,
                             peak=(q0, math.exp(-params.mu / 2.0)))
        assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    def test_origin_exclusion(self):
        params = BubbleParams(N=1, mu=4.0, p=0j, h=32.0)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        with pytest.raises(ValueError):
            pohozaev_check(field, h, grad_h, 1, 0.1 + 0j, 0.3, SPEC)


def _scalar_terms(field, h, grad_h, N, center, radius, xi, peak):
    """Volume, flux and kinetic terms along one unit xi, one scalar pass per term.

    Reference for the two-direction pass: each integrand is written for a
    single direction, independently of the vector integrands it checks.
    """
    xi = np.asarray(xi, dtype=float)
    n2 = 2 * N

    def weight(z):
        return np.abs(z) ** n2

    def d_xi_weight(z):
        if N == 0:
            return np.zeros(np.shape(z))
        ydotxi = z.real * xi[0] + z.imag * xi[1]
        return n2 * np.abs(z) ** (n2 - 2) * ydotxi

    def volume_integrand(z):
        hx, hy = grad_h(z)
        dxi_wh = d_xi_weight(z) * h(z) + weight(z) * (hx * xi[0] + hy * xi[1])
        return dxi_wh * np.exp(field.value(z))

    def xidotnu(z):
        nu = (z - center) / radius
        return nu.real * xi[0] + nu.imag * xi[1]

    def flux_integrand(z):
        return np.exp(field.value(z)) * weight(z) * h(z) * xidotnu(z)

    def kinetic_integrand(z):
        ux, uy = field.gradient(z)
        nu = (z - center) / radius
        dnu = ux * nu.real + uy * nu.imag
        dxi = ux * xi[0] + uy * xi[1]
        return dnu * dxi - 0.5 * (ux ** 2 + uy ** 2) * xidotnu(z)

    vol = integrate_disk(volume_integrand, center, radius, SPEC, peak=peak)
    flux = integrate_circle(flux_integrand, center, radius, SPEC)
    kin = integrate_circle(kinetic_integrand, center, radius, SPEC)
    return vol, flux, kin


class TestTwoDirectionPass:
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_matches_scalar_reference(self, N, monkeypatch):
        params = BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        q0 = find_maxima(params).Q[0]
        center, radius = q0 + 0.05 + 0.02j, 0.2
        peak = (q0, math.exp(-params.mu / 2.0))
        rep = pohozaev_check(field, h, grad_h, N, center, radius, SPEC, peak=peak)
        # the reference keeps the peak's breakpoints but integrates every ring
        # with the uniform rule, so it also checks the graded disk
        monkeypatch.setattr(numerics, "_disk_grading", lambda *args: None)
        for i, xi in enumerate(((1.0, 0.0), (0.0, 1.0))):
            ref = _scalar_terms(field, h, grad_h, N, center, radius, xi, peak)
            got = (rep.volume_term[i], rep.flux_term[i], rep.boundary_kinetic[i])
            for value, expected in zip(got, ref):
                assert abs(value - expected) <= 1e-8 * rep.scale[i]

    def test_one_disk_and_one_circle_integral(self, monkeypatch):
        calls = []
        for name in ("integrate_disk", "integrate_circle"):
            real = getattr(pohozaev, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(pohozaev, name, spy)
        params = BubbleParams(N=1, mu=10.0, p=0j, h=32.0)
        h, grad_h = constant_field(params.h)
        pohozaev_check(bubble_field(params), h, grad_h, 1, 1.0 + 0j, 0.2, SPEC)
        assert sorted(calls) == ["integrate_circle", "integrate_disk"]

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=math.tau))
    def test_terms_rotate_with_the_disk(self, alpha):
        # the N = 0 bubble is radial about its maximum 1 + p, so turning the
        # disk centre about that point by alpha turns every term by alpha
        params = BubbleParams(N=0, mu=10.0, p=0.03 + 0.02j, h=8.0)
        field = bubble_field(params)
        h, grad_h = constant_field(params.h)
        q0 = 1.0 + params.p
        offset, radius = 0.05 + 0.02j, 0.2
        peak = (q0, math.exp(-params.mu / 2.0))
        base = pohozaev_check(field, h, grad_h, 0, q0 + offset, radius, SPEC, peak=peak)
        turned = pohozaev_check(field, h, grad_h, 0, q0 + offset * np.exp(1j * alpha),
                                radius, SPEC, peak=peak)
        c, s = math.cos(alpha), math.sin(alpha)
        rotation = np.array([[c, -s], [s, c]])
        scale = np.maximum(base.scale, turned.scale)
        for term in ("volume_term", "flux_term", "boundary_kinetic"):
            expected = rotation @ getattr(base, term)
            assert np.all(np.abs(getattr(turned, term) - expected) <= 1e-8 * scale)


class TestCoefficientContrast:
    def _layer(self, ds):
        return layer_from_coefficients(N=1, delta=0.05, L=1, A=[0.0, ds], B=[0.0, 0.0])

    def test_linear_layer_ratio(self):
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        val = coefficient_contrast(params, self._layer(ds), 0, 0.3, SPEC)[0]
        assert 0.9 <= val / (8 * math.pi * ds) <= 1.1

    def test_orthogonal_direction(self):
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        val = coefficient_contrast(params, self._layer(ds), 0, 0.3, SPEC, check=False)[1]
        assert abs(val) <= 0.1 * ds * 8 * math.pi

    def test_doubling_scale(self):
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        v1 = coefficient_contrast(params, self._layer(1e-5), 0, 0.3, SPEC)[0]
        v2 = coefficient_contrast(params, self._layer(2e-5), 0, 0.3, SPEC)[0]
        assert v2 / (2 * v1) == pytest.approx(1.0, abs=1e-2)

    def test_rotation_equivariance(self):
        # rotating the layer direction and xi together leaves the value fixed
        ds = 1e-5
        ang = 0.7
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        base = coefficient_contrast(params, self._layer(ds), 0, 0.3, SPEC)[0]
        rotated_layer = layer_from_coefficients(
            N=1, delta=0.05, L=1,
            A=[0.0, ds * math.cos(ang)], B=[0.0, ds * math.sin(ang)])
        val = coefficient_contrast(params, rotated_layer, 0, 0.3, SPEC) \
            @ (math.cos(ang), math.sin(ang))
        assert val == pytest.approx(base, rel=2e-2)

    def test_components_match_scalar_passes(self, monkeypatch):
        # one 2-component disk pass against one scalar pass per direction,
        # each written for its single xi
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        layer = layer_from_coefficients(N=1, delta=0.05, L=1,
                                        A=[0.0, ds * math.cos(0.7)], B=[0.0, ds * math.sin(0.7)])
        q0 = complex(find_maxima(params).Q[0])
        eps = math.exp(-params.mu / 2.0)
        calls = []
        real = pohozaev.integrate_disk

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(pohozaev, "integrate_disk", spy)
        vec = coefficient_contrast(params, layer, 0, 0.3, SPEC)
        assert vec.shape == (2,) and len(calls) == 1
        for xi in ((1.0, 0.0), (0.0, 1.0)):
            def integrand(z, xi=xi):
                gx, gy = layer.phi0_gradient(z)
                return np.abs(z) ** 2 * params.h * (gx * xi[0] + gy * xi[1]) \
                    * layer.h0(z) * np.exp(pohozaev.eval_bubble(params, z))

            ref = real(integrand, q0, 0.3, SPEC, peak=(q0, eps))
            assert abs(vec @ xi - ref) <= 1e-8 * 8 * math.pi * ds

    def test_mismatch_detection(self):
        # lying about the layer scale cannot break the integral itself; instead
        # check the guard fires when the predicted value is forced off
        ds = 1e-5
        params = BubbleParams(N=1, mu=6.0, p=0j, h=1.0)
        # at small mu the bubble mass spreads beyond the disk: prediction fails
        with pytest.raises(ContrastMismatchError):
            coefficient_contrast(params, self._layer(ds), 0, 0.05, SPEC)


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
        peak = (q0, math.exp(-mu / 2.0))
        layer = layer_from_coefficients(N=1, delta=0.05, L=1, A=[0.0, ds], B=[0.0, 0.0])
        # the constant-coefficient balance freezes the layered field at the maximum
        h_const, grad_const = constant_field(params.h * float(layer.h0(q0)))
        rep_a = pohozaev_check(field, h_const, grad_const, 1, q0, radius, SPEC, peak=peak)

        def h_layered(z):
            return params.h * np.exp(layer.phi0(z))

        def grad_layered(z):
            gx, gy = layer.h0_gradient(z)
            return params.h * gx, params.h * gy

        rep_b = pohozaev_check(field, h_layered, grad_layered, 1, q0, radius, SPEC, peak=peak)
        contrast = coefficient_contrast(params, layer, 0, radius, SPEC) @ xi
        diff = rep_b.residual[0] - rep_a.residual[0]
        assert abs(abs(diff) - abs(contrast)) <= 0.1 * abs(contrast)
