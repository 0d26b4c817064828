"""The product forms of the peaked quadrature integrands against their old forms.

The moment integrand, the bubble density and the Pohozaev volume and flux
integrands are evaluated by products and one division per point.  The forms
they replaced, with ``z ** (N+1)``, ``np.abs(.) ** 2``, ``** 3`` and
``exp(eval_bubble)``, are kept here as references, and the new integrands
must match them at sampled points to 1e-13 of each component's largest value
over the sample.  Against the 50-digit mpmath density the product form keeps
1e-13 relative accuracy on the bubbles the report integrates at mu <= 10, and
is no less accurate than the old form near the peaks at larger mu, where both
lose digits to the rounding of y^(N+1) - 1 - p.
"""

import math

import numpy as np
import pytest

from liouville_lab import bubbles, interaction, pohozaev, scenarios
from liouville_lab.bubbles import BubbleParams, bubble_density, density_peak, eval_bubble
from liouville_lab.numerics import QuadratureSpec
from oracles import bubble_density_mp

TOL = 1e-13

MOMENT_P = (0.0, 0.05, 0.1)   # times e^(0.37 i)

# the moments scenario's grid
MOMENT_GRID = [BubbleParams(N=N, mu=mu, p=pabs * np.exp(0.37j), h=8.0 * (N + 1) ** 2)
               for N in (1, 2, 3) for mu in (4.0, 6.0, 8.0) for pabs in MOMENT_P]

# every bubble the report integrates at mu <= 10: the moments grid, the bubble
# scenario's sets and the pohozaev scenario's bubbles at its default mu = 10
REPORT_BUBBLES = MOMENT_GRID + list(scenarios._BUBBLE_SETS) + [
    BubbleParams(N=N, mu=10.0, p=0j, h=8.0 * (N + 1) ** 2) for N in (0, 1, 2)]


def _ids(params):
    return f"N{params.N}-mu{params.mu:g}-p{abs(params.p):g}-h{params.h:g}"


def reference_moment_integrand(params, z):
    c = params.coefficient
    zz = z ** (params.N + 1) - (1.0 + params.p)
    q = c * np.abs(zz) ** 2
    w = np.abs(z) ** (2 * params.N) / (1.0 + q) ** 3
    i1 = c * zz * w
    return np.stack([(1.0 - q) * w, i1.real, i1.imag])


def reference_density(params, y, h=None):
    h = params.h if h is None else h
    return np.abs(y) ** (2 * params.N) * h * np.exp(eval_bubble(params, y))


def reference_pohozaev_terms(params, z):
    """The volume integrand grad(|y|^2N) h e^u, then the flux's |y|^2N h e^u."""
    n2 = 2 * params.N
    e_u = params.h * np.exp(eval_bubble(params, z))
    lever = n2 * np.abs(z) ** (n2 - 2) * e_u if params.N else np.zeros(z.shape)
    return np.stack([lever * z.real, lever * z.imag]), np.abs(z) ** n2 * e_u


def _disk(rng, center, radius, n):
    """n points uniform on the disk B(center, radius)."""
    return center + radius * np.sqrt(rng.uniform(size=n)) * np.exp(
        1j * math.tau * rng.uniform(size=n))


def _peak_sample(params, rng, n):
    """n points within 3 widths of each maximum of the density."""
    q, width, K = density_peak(params)
    r_s = abs(q) ** (1.0 / K)
    radial = width / (K * r_s ** (K - 1))
    maxima = r_s * np.exp(1j * (np.angle(q) + math.tau * np.arange(K)) / K)
    return np.concatenate([_disk(rng, Q, 3.0 * radial, n) for Q in maxima])


def _plane_sample(params, rng, n_plane=2000, n_peak=500):
    """Points over |y| <= 4 and within 3 widths of each maximum."""
    return np.concatenate([_disk(rng, 0j, 4.0, n_plane), _peak_sample(params, rng, n_peak)])


def _matches(new, ref):
    """max |new - ref| <= TOL max |ref|, for every component."""
    new, ref = np.atleast_2d(new), np.atleast_2d(ref)
    return bool(np.all(np.max(np.abs(new - ref), axis=-1)
                       <= TOL * np.max(np.abs(ref), axis=-1)))


def _captured_integrand(monkeypatch, module, name, run, result):
    """The integrand ``run`` hands to ``module.name``, which returns ``result``."""
    captured = []

    def capture(f, *args, **kwargs):
        captured.append(f)
        return result

    monkeypatch.setattr(module, name, capture)
    run()
    return captured


@pytest.mark.parametrize("params", MOMENT_GRID, ids=_ids)
def test_moment_integrand_matches_reference(monkeypatch, params):
    [f] = _captured_integrand(monkeypatch, interaction, "integrate_plane",
                              lambda: interaction.moment_integrals(params, QuadratureSpec()),
                              np.zeros(3))
    z = _plane_sample(params, np.random.default_rng(7))
    assert _matches(f(z), reference_moment_integrand(params, z))


@pytest.mark.parametrize("params", REPORT_BUBBLES, ids=_ids)
def test_density_matches_reference(params):
    z = _plane_sample(params, np.random.default_rng(11))
    assert _matches(bubble_density(params, z), reference_density(params, z))
    h = 1.0 + 0.1 * z.real   # a coefficient field, as coefficient_contrast passes
    assert _matches(bubble_density(params, z, h), reference_density(params, z, h))


@pytest.mark.parametrize("N", [0, 1, 2], ids=lambda N: f"{N}-constant")
def test_pohozaev_volume_integrand_matches_reference(monkeypatch, N):
    # the pohozaev scenario's bubble-residual checks at its default mu; the
    # coefficient h is constant, folded into the field's density.  The flux
    # integrand's e1 and e2 rows are that density times nu
    mu = scenarios.INPUTS["pohozaev"]["mu"].default
    params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
    field = pohozaev.bubble_field(params)
    peak = bubbles.maximum_peak(params, 0)
    q0 = peak[0]
    radii = (0.1, 0.15, 0.2, 0.28, 0.35)
    rng = np.random.default_rng(3)
    for center in (q0, q0 * np.exp(0.25j), q0 + 0.05 + 0.02j):
        def run():
            pohozaev.pohozaev_check(field, center, radii, QuadratureSpec(), peak=peak)

        monkeypatch.setattr(pohozaev, "integrate_circle", lambda *args: np.zeros((4, len(radii))))
        volumes = _captured_integrand(monkeypatch, pohozaev, "integrate_disk", run,
                                      np.zeros((2, len(radii))))
        # at N = 0 the volume integrand is identically zero: no disk pass
        assert len(volumes) == (N > 0)
        [boundary] = _captured_integrand(monkeypatch, pohozaev, "integrate_circle", run,
                                         np.zeros((4, len(radii))))
        z = np.concatenate([_disk(rng, center, radii[-1], 2000),
                            _disk(rng, q0, 3.0 * peak[1], 500)])
        ref_volume, ref_density = reference_pohozaev_terms(params, z)
        if N:
            assert _matches(volumes[0](z), ref_volume)
        nu = (z - center) / np.abs(z - center)
        assert _matches(boundary(z)[:2], np.stack([ref_density * nu.real,
                                                  ref_density * nu.imag]))


def _relative_error(values, exact):
    return np.abs(values - exact) / exact


@pytest.mark.parametrize("params", REPORT_BUBBLES, ids=_ids)
def test_density_matches_mpmath(params):
    z = _plane_sample(params, np.random.default_rng(5), 100, 100)
    assert np.max(_relative_error(bubble_density(params, z), bubble_density_mp(params, z))) <= TOL


@pytest.mark.parametrize("N, mu", [(3, 10.0), (2, 40.0), (3, 40.0), (3, 100.0)])
def test_density_no_less_accurate_near_the_peaks(N, mu):
    # Within 3 widths c^(-1/2) of a maximum, y^(N+1) - 1 - p cancels: its
    # rounding, about 1e-16, against c^(-1/2) bounds the relative accuracy of
    # either form (ROADMAP item 1; at mu = 100 a width is below the spacing of
    # the floats near y, and the errors run far above 1).  Pooled over the
    # moments grid's p, the product form's worst error is no larger.
    new, old = [], []
    for pabs in MOMENT_P:
        params = BubbleParams(N=N, mu=mu, p=pabs * np.exp(0.37j), h=8.0 * (N + 1) ** 2)
        z = _peak_sample(params, np.random.default_rng(9), 400 // (N + 1))
        exact = bubble_density_mp(params, z)
        new.append(_relative_error(bubble_density(params, z), exact))
        old.append(_relative_error(reference_density(params, z), exact))
    assert np.max(new) <= np.max(old)
