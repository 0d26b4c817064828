import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import numerics, pohozaev, scenarios
from liouville_lab.bubbles import BubbleParams, bubble_density, eval_bubble, find_maxima
from liouville_lab.errors import NotASolutionError
from liouville_lab.harmonic import layer_from_coefficients
from liouville_lab.kernels import kernel_functions
from liouville_lab.numerics import QuadratureSpec, integrate_circle, integrate_disk
from liouville_lab.pohozaev import (
    SolutionField,
    bubble_field,
    byparts_identity,
    coefficient_contrast,
    pohozaev_check,
    radial_field,
)
from liouville_lab.radial import RadialProfile

SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)


class TestPohozaevCheck:
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_exact_bubble(self, N):
        params = BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)
        field = bubble_field(params)
        q0 = find_maxima(params)[0]
        for center, radius in ((q0, 0.2), (q0 * np.exp(0.2j), 0.3)):
            rep = pohozaev_check(field, center, radius, SPEC)
            assert rep.residual.shape == rep.scale.shape == (2,)
            assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    def test_radial_gelfand_solution(self):
        # off the symmetry centre, where the e1 terms do not vanish by symmetry
        rep = pohozaev_check(radial_field(RadialProfile(0, 1.0)), 0.25 + 0j, 0.5, SPEC)
        assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)
        assert abs(rep.flux_term[0]) > 1.0

    def test_non_solution_rejected(self):
        # u = 0 with h = 8: the Laplacian is 0 but the source is 8
        broken = SolutionField(N=0,
                               gradient=lambda z: (np.zeros(np.shape(z)),
                                                   np.zeros(np.shape(z))),
                               density=lambda z: np.full(np.shape(z), 8.0),
                               laplacian=lambda z: np.zeros(np.shape(z)))
        with pytest.raises(NotASolutionError):
            pohozaev_check(broken, 1.0 + 0j, 0.3, SPEC)
        with pytest.raises(NotASolutionError):
            pohozaev_check(broken, 1.0 + 0j, (0.1, 0.2, 0.3), SPEC)

    def test_nan_residual_rejected(self):
        # a NaN residual is above no tolerance, so it needs its own test
        params = BubbleParams(N=0, mu=4.0, p=0j, h=8.0)
        nan_lap = dataclasses.replace(bubble_field(params), laplacian=lambda z: math.nan)
        with pytest.raises(NotASolutionError, match="nan"):
            pohozaev_check(nan_lap, 1.0 + 0j, 0.3, SPEC)

    def test_every_disk_is_spot_checked(self):
        # a field that solves the equation only within 0.1 of the centre
        params = BubbleParams(N=0, mu=4.0, p=0j, h=8.0)
        field = bubble_field(params)
        center = 1.0 + 0j
        local = dataclasses.replace(
            field, laplacian=lambda z: field.laplacian(z) * (1.0 + (abs(z - center) > 0.1)))
        pohozaev_check(local, center, (0.05, 0.1), SPEC)
        with pytest.raises(NotASolutionError):
            pohozaev_check(local, center, (0.05, 0.1, 0.3), SPEC)

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_radius_sequence_matches_one_call_per_radius(self, N):
        # the pohozaev scenario's radii about a centre turned 0.25 rad from the
        # maximum, so the peak lies outside the inner disks
        params = BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)
        field = bubble_field(params)
        q0 = complex(find_maxima(params)[0])
        center, radii = q0 * np.exp(0.25j), (0.1, 0.15, 0.2, 0.28, 0.35)
        peak = (q0, math.exp(-params.mu / 2.0))
        rep = pohozaev_check(field, center, radii, SPEC, peak=peak)
        assert rep.residual.shape == rep.scale.shape == rep.volume_term.shape == (2, 5)
        for j, radius in enumerate(radii):
            single = pohozaev_check(field, center, radius, SPEC, peak=peak)
            for term in ("volume_term", "flux_term", "boundary_kinetic", "residual"):
                gap = np.abs(getattr(rep, term)[:, j] - getattr(single, term))
                assert np.all(gap <= 1e-12 * single.scale), term

    @settings(max_examples=8, deadline=None)
    @given(N=st.sampled_from([1, 2]), angle=st.floats(min_value=0.0, max_value=math.tau),
           shift=st.floats(min_value=0.0, max_value=0.3))
    def test_off_centre_balance_with_peak_hint(self, N, angle, shift):
        # disks whose centre sits anywhere within 0.3 of the maximum, the peak
        # inside or outside the disk, graded toward it
        params = BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2)
        field = bubble_field(params)
        q0 = complex(find_maxima(params)[0])
        center = q0 + shift * np.exp(1j * angle)
        rep = pohozaev_check(field, center, 0.25, SPEC,
                             peak=(q0, math.exp(-params.mu / 2.0)))
        assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    @pytest.mark.parametrize("offset", [5e-324j, np.complex128(5e-324j)],
                             ids=["complex", "complex128"])
    def test_subnormal_offset_from_the_peak(self, offset):
        # the disk centre sits a subnormal distance s from the maximum q0 = 1,
        # so r s underflows to 0 on every ring: the disk grading must give the
        # uniform rule there without dividing by it
        params = BubbleParams(N=0, mu=10.0, p=0j, h=8.0)
        q0 = 1.0 + 0j
        rep = pohozaev_check(bubble_field(params), q0 + offset, 0.25, SPEC,
                             peak=(q0, math.exp(-params.mu / 2.0)))
        assert np.all(np.abs(rep.residual) <= 1e-6 * rep.scale)

    def test_origin_exclusion(self):
        params = BubbleParams(N=1, mu=4.0, p=0j, h=32.0)
        field = bubble_field(params)
        with pytest.raises(ValueError):
            pohozaev_check(field, 0.1 + 0j, 0.3, SPEC)


def _scalar_terms(params, center, radius, xi, peak):
    """Volume, flux and kinetic terms along one unit xi, one scalar pass per term.

    Reference for the two-direction pass: each integrand is written for a
    single direction, independently of the vector integrands it checks, and
    e^u is exp(eval_bubble), independently of ``bubble_density``.
    """
    xi = np.asarray(xi, dtype=float)
    N, h = params.N, params.h
    n2 = 2 * N

    def e_u(z):
        return np.exp(eval_bubble(params, z))

    def weight(z):
        return np.abs(z) ** n2

    def d_xi_weight(z):
        if N == 0:
            return np.zeros(np.shape(z))
        ydotxi = z.real * xi[0] + z.imag * xi[1]
        return n2 * np.abs(z) ** (n2 - 2) * ydotxi

    def volume_integrand(z):
        return d_xi_weight(z) * h * e_u(z)

    def xidotnu(z):
        nu = (z - center) / radius
        return nu.real * xi[0] + nu.imag * xi[1]

    def flux_integrand(z):
        return e_u(z) * weight(z) * h * xidotnu(z)

    def kinetic_integrand(z):
        ux, uy = bubble_field(params).gradient(z)
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
        q0 = find_maxima(params)[0]
        center, radius = q0 + 0.05 + 0.02j, 0.2
        peak = (q0, math.exp(-params.mu / 2.0))
        rep = pohozaev_check(field, center, radius, SPEC, peak=peak)
        # the reference keeps the peak's breakpoints but integrates every ring
        # with the uniform rule, so it also checks the graded disk
        monkeypatch.setattr(numerics, "_peak_grading", lambda *args: None)
        for i, xi in enumerate(((1.0, 0.0), (0.0, 1.0))):
            ref = _scalar_terms(params, center, radius, xi, peak)
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
        for radius in (0.2, (0.1, 0.15, 0.2)):
            calls.clear()
            pohozaev_check(bubble_field(params), 1.0 + 0j, radius, SPEC)
            assert sorted(calls) == ["integrate_circle", "integrate_disk"]

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=math.tau))
    def test_terms_rotate_with_the_disk(self, alpha):
        # the N = 0 bubble is radial about its maximum 1 + p, so turning the
        # disk centre about that point by alpha turns every term by alpha
        params = BubbleParams(N=0, mu=10.0, p=0.03 + 0.02j, h=8.0)
        field = bubble_field(params)
        q0 = 1.0 + params.p
        offset, radius = 0.05 + 0.02j, 0.2
        peak = (q0, math.exp(-params.mu / 2.0))
        base = pohozaev_check(field, q0 + offset, radius, SPEC, peak=peak)
        turned = pohozaev_check(field, q0 + offset * np.exp(1j * alpha),
                                radius, SPEC, peak=peak)
        c, s = math.cos(alpha), math.sin(alpha)
        rotation = np.array([[c, -s], [s, c]])
        scale = np.maximum(base.scale, turned.scale)
        for term in ("volume_term", "flux_term", "boundary_kinetic"):
            expected = rotation @ getattr(base, term)
            assert np.all(np.abs(getattr(turned, term) - expected) <= 1e-8 * scale)


class TestCoefficientContrast:
    def _layer(self, ds):
        return layer_from_coefficients(N=1, L=1, c=[0.0, ds])

    def test_linear_layer_ratio(self):
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        val = coefficient_contrast(params, self._layer(ds), 0, 0.3, SPEC)[0]
        assert 0.9 <= val / (8 * math.pi * ds) <= 1.1

    def test_orthogonal_direction(self):
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        val = coefficient_contrast(params, self._layer(ds), 0, 0.3, SPEC)[1]
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
        rotated_layer = layer_from_coefficients(N=1, L=1, c=[0.0, ds * np.exp(-1j * ang)])
        val = coefficient_contrast(params, rotated_layer, 0, 0.3, SPEC) \
            @ (math.cos(ang), math.sin(ang))
        assert val == pytest.approx(base, rel=2e-2)

    def test_components_match_scalar_passes(self, monkeypatch):
        # one 2-component disk pass against one scalar pass per direction,
        # each written for its single xi
        ds = 1e-5
        params = BubbleParams(N=1, mu=14.0, p=0j, h=1.0)
        layer = layer_from_coefficients(N=1, L=1, c=[0.0, ds * np.exp(-0.7j)])
        q0 = complex(find_maxima(params)[0])
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
                    * layer.h0(z) * np.exp(eval_bubble(params, z))

            ref = real(integrand, q0, 0.3, SPEC, peak=(q0, eps))
            assert abs(vec @ xi - ref) <= 1e-8 * 8 * math.pi * ds

    def test_mismatch_detection(self):
        # at small mu the bubble mass spreads beyond the disk: the value is
        # more than 10% off grad h0 (Q_0) 8 pi / h, along grad h0 = h0 grad phi0
        ds = 1e-5
        params = BubbleParams(N=1, mu=6.0, p=0j, h=1.0)
        layer = self._layer(ds)
        q0 = complex(find_maxima(params)[0])
        grad = layer.h0(q0) * np.array(layer.phi0_gradient(q0))
        predicted = grad @ grad * 8 * math.pi / params.h
        val = coefficient_contrast(params, layer, 0, 0.05, SPEC) @ grad
        assert abs(val / predicted - 1.0) > 0.10


class TestBypartsIdentity:
    def test_zero_perturbation(self):
        params = BubbleParams(N=1, mu=10.0, p=0j, h=8.0)
        def zero(z):
            return np.zeros(np.shape(z))

        assert byparts_identity(params, zero, lambda z: (zero(z), zero(z)), 0, 0.3,
                                spec=SPEC) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_kernel(self):
        params = BubbleParams(N=1, mu=10.0, p=0j, h=8.0)
        eps = math.exp(-params.mu / 2.0)
        q0 = find_maxima(params)[0]
        amp = 1e-6

        def w_value(z):
            zz = (np.asarray(z, dtype=complex) - q0) / eps
            return amp * kernel_functions(zz, params.h / 8.0)[1]

        def w_gradient(z, h_step=1e-7):
            z = np.asarray(z, dtype=complex)
            wx = (w_value(z + h_step) - w_value(z - h_step)) / (2 * h_step)
            wy = (w_value(z + 1j * h_step) - w_value(z - 1j * h_step)) / (2 * h_step)
            return wx, wy

        assert abs(byparts_identity(params, w_value, w_gradient, 0, 0.3, spec=SPEC)) <= 1e-4

    @pytest.mark.parametrize("mu", [10.0, 40.0, 60.0])
    def test_kernel_perturbation_gradient(self, mu):
        # the closed form against central differences of step 0.01 eps, each
        # divided by the step the floats realise, at points within 3 eps of
        # Q_0: the width eps = e^(-mu/2) is 9.4e-14 at mu = 60
        params = BubbleParams(N=1, mu=mu, p=0j, h=8.0)
        w, grad_w = scenarios._kernel_perturbation(params, 1e-6)
        eps = math.exp(-mu / 2.0)
        rng = np.random.default_rng(0)
        z = find_maxima(params)[0] + 3.0 * eps * (rng.uniform(-1, 1, 50)
                                                    + 1j * rng.uniform(-1, 1, 50))
        got = np.stack(grad_w(z))
        hi, lo = z + 0.01 * eps, z - 0.01 * eps
        wx = (w(hi) - w(lo)) / (hi - lo).real
        hi, lo = z + 0.01j * eps, z - 0.01j * eps
        wy = (w(hi) - w(lo)) / (hi - lo).imag
        assert np.max(np.abs(got - np.stack([wx, wy]))) <= 1e-3 * np.max(np.abs(got))

    def test_n_zero_trivial(self):
        params = BubbleParams(N=0, mu=10.0, p=0j, h=8.0)
        def w(z):
            return np.ones(np.shape(z))

        def grad_w(z):
            return np.zeros(np.shape(z)), np.zeros(np.shape(z))

        assert byparts_identity(params, w, grad_w, 0, 0.3, spec=SPEC) == 0.0


class TestCancellationStructure:
    def test_contrast_isolation(self):
        # the difference of the Pohozaev balances (exact bubble, constant h)
        # versus (same bubble, layered h) isolates the contrast integral
        ds = 1e-7
        mu = 14.0
        params = BubbleParams(N=1, mu=mu, p=0j, h=1.0)
        field = bubble_field(params)
        q0 = find_maxima(params)[0]
        radius = 0.25
        xi = (1.0, 0.0)
        peak = (q0, math.exp(-mu / 2.0))
        layer = layer_from_coefficients(N=1, L=1, c=[0.0, ds])
        # the constant-coefficient balance freezes the layered field at the maximum
        h_frozen = params.h * float(layer.h0(q0))
        frozen = dataclasses.replace(field, density=lambda z: bubble_density(params, z, h_frozen))
        rep_a = pohozaev_check(frozen, q0, radius, SPEC, peak=peak)
        # the check takes h constant, so on the layered density its volume term
        # leaves out int |y|^2N grad h e^V, the contrast integral: what is left
        # of the difference between the two balances is below 10% of it
        layered = dataclasses.replace(
            field, density=lambda z: bubble_density(params, z, params.h * layer.h0(z)))
        rep_b = pohozaev_check(layered, q0, radius, SPEC, peak=peak)
        contrast = coefficient_contrast(params, layer, 0, radius, SPEC) @ xi
        diff = rep_b.residual[0] - rep_a.residual[0]
        assert abs(diff) <= 0.1 * abs(contrast)


class TestScenarioCost:
    def test_nested_disks_per_centre(self, monkeypatch):
        # one disk pass per (N, centre) pohozaev check, the radial check, two
        # contrasts and two by-parts identities; the ring points are counts,
        # so this guard does not depend on the machine's speed
        disks, points = [], []
        real_disk, real_mean = pohozaev.integrate_disk, numerics._circle_mean

        def disk_spy(*args, **kwargs):
            disks.append(args[2])
            return real_disk(*args, **kwargs)

        def mean_spy(f, *args, **kwargs):
            def counted(z):
                points.append(np.size(z))
                return f(z)

            return real_mean(counted, *args, **kwargs)

        monkeypatch.setattr(pohozaev, "integrate_disk", disk_spy)
        monkeypatch.setattr(numerics, "_circle_mean", mean_spy)
        entries = scenarios.scenario_pohozaev(10.0)
        assert entries and all(e.pass_ for e in entries)
        assert len(disks) == 14
        assert sum(points) <= 1_000_000

