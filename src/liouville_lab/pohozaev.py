"""Pohozaev identities on small disks around bubble maxima.

For a solution of Delta u + |y|^2N h(y) e^u = 0 on a closed disk Omega and a
unit direction xi,

    int_Omega d_xi(|y|^2N h) e^u
      - oint e^u |y|^2N h (xi . nu)
      = oint (d_nu u d_xi u - 1/2 |grad u|^2 (xi . nu)),

with nu the outward normal.  Each term is linear in xi, so ``pohozaev_check``
returns it as the vector of its e1 and e2 components, all from one disk pass
and one circle pass; the balance along any unit xi is the dot product of xi
with each vector.  The report's residual is volume - flux - kinetic.  The
coefficient-contrast integral int grad h0 |y|^2N e^V, also returned as its e1
and e2 components from one disk pass, isolates the gradient of the coefficient
field at a maximum and equals grad h0 times the local bubble mass 8 pi / h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import (
    BubbleParams,
    bubble_density,
    bubble_gradient,
    bubble_laplacian,
    eval_bubble,
    find_maxima,
)
from .errors import ContrastMismatchError, NotASolutionError
from .harmonic import LayerField
from .numerics import QuadratureSpec, integrate_circle, integrate_disk


@dataclass
class PohozaevReport:
    """The Pohozaev balance along e1 and e2: residual = volume - flux - kinetic.

    Each term is a length-2 array holding its e1 and e2 components.
    """

    volume_term: np.ndarray
    flux_term: np.ndarray
    boundary_kinetic: np.ndarray
    residual: np.ndarray
    center: complex
    radius: float

    @property
    def scale(self) -> np.ndarray:
        return (np.abs(self.volume_term) + np.abs(self.flux_term)
                + np.abs(self.boundary_kinetic) + 1.0)


@dataclass
class SolutionField:
    """A field with value and gradient callables (plus optional Laplacian)."""

    value: object
    gradient: object
    laplacian: object = None


def constant_field(value: float):
    """Constant coefficient field with its (zero) gradient."""

    def h(z):
        return np.full(np.shape(z), value) if np.ndim(z) else value

    def grad_h(z):
        if np.ndim(z):
            return np.zeros(np.shape(z)), np.zeros(np.shape(z))
        return 0.0, 0.0

    return h, grad_h


def bubble_field(params: BubbleParams) -> SolutionField:
    return SolutionField(
        value=lambda z: eval_bubble(params, z),
        gradient=lambda z: bubble_gradient(params, z),
        laplacian=lambda z: bubble_laplacian(params, z),
    )


def radial_field(profile) -> SolutionField:
    """Field view of a radial profile (gradient along the radial direction)."""

    def value(z):
        return profile.u_at(np.abs(z))

    def gradient(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        up = profile.u_prime_at(np.maximum(r, 1e-14))
        return up * z.real / np.maximum(r, 1e-14), up * z.imag / np.maximum(r, 1e-14)

    return SolutionField(value=value, gradient=gradient)


def _spot_check_solution(field: SolutionField, h, N: int, center: complex,
                         radius: float) -> float:
    """Relative PDE residual at a few interior points (needs field.laplacian);
    above 1e-6 raises NotASolutionError."""
    rel_tol = 1e-6
    if field.laplacian is None:
        return 0.0
    pts = center + radius * np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.5j, 0.55 + 0.3j])
    worst = 0.0
    for z in pts:
        lap = float(field.laplacian(z))
        src = abs(z) ** (2 * N) * float(h(z)) * math.exp(float(field.value(z)))
        res = abs(lap + src) / max(abs(lap), abs(src), 1.0)
        worst = max(worst, res)
    if worst > rel_tol:
        raise NotASolutionError(
            f"not a solution: relative PDE residual {worst:.2e} exceeds {rel_tol}")
    return worst


def pohozaev_check(field: SolutionField, h, grad_h, N: int, center: complex,
                   radius: float, spec: QuadratureSpec,
                   peak=None) -> PohozaevReport:
    """Evaluate the three Pohozaev terms along e1 and e2 on B(center, radius).

    h and grad_h are the coefficient field and its gradient.  The volume term
    is one 2-component disk integral; the flux and kinetic terms are one
    4-component circle integral.  For N >= 1 the disk must avoid the origin.
    A field with a Laplacian is first spot-checked as a solution.

    ``peak = (q, width)`` locates the maximum of e^u and goes to
    ``integrate_disk``, which places the radial breakpoints around it and
    grades every ring of the disk toward q.
    """
    if N >= 1 and abs(center) <= radius:
        raise ValueError("for N >= 1 the disk must not contain the origin")
    _spot_check_solution(field, h, N, center, radius)
    n2 = 2 * N

    def volume_integrand(z):
        # grad(|y|^2N h) e^u, with grad |y|^2N = 2N |y|^(2N-2) y
        hx, hy = grad_h(z)
        weight = np.abs(z) ** n2
        gx, gy = weight * hx, weight * hy
        if N:
            lever = n2 * np.abs(z) ** (n2 - 2) * h(z)
            gx, gy = gx + lever * z.real, gy + lever * z.imag
        return np.stack([gx, gy]) * np.exp(field.value(z))

    vol = integrate_disk(volume_integrand, center, radius, spec, peak=peak)

    def boundary_integrand(z):
        # flux along e1, e2, then kinetic along e1, e2
        nu = (z - center) / radius
        ux, uy = field.gradient(z)
        flux = np.exp(field.value(z)) * np.abs(z) ** n2 * h(z)
        dnu = ux * nu.real + uy * nu.imag
        half_sq = 0.5 * (ux ** 2 + uy ** 2)
        return np.stack([flux * nu.real, flux * nu.imag,
                         dnu * ux - half_sq * nu.real, dnu * uy - half_sq * nu.imag])

    boundary = integrate_circle(boundary_integrand, center, radius, spec)
    flux, kin = boundary[:2], boundary[2:]
    return PohozaevReport(volume_term=vol, flux_term=flux, boundary_kinetic=kin,
                          residual=vol - flux - kin, center=center, radius=radius)


# ----------------------------------------------------------------------------
# integrals over a disk around a bubble maximum

def _maximum_peak(params: BubbleParams, s: int):
    """The maximum Q_s and the width eps = e^(-mu/2) of the density peak there.

    As the ``peak`` of a disk centred on Q_s it leaves the rings uniform and
    puts the radial breakpoints at 5 eps, 50 eps and radius / 2.
    """
    return complex(find_maxima(params).Q[s]), math.exp(-params.mu / 2.0)


# ----------------------------------------------------------------------------
# coefficient contrast

def coefficient_contrast(params: BubbleParams, layer: LayerField, s: int,
                         radius: float, spec: QuadratureSpec,
                         check: bool = True) -> np.ndarray:
    """int_{B(Q_s, radius)} grad h0 |y|^2N e^V dy, as its e1 and e2 components.

    Both components come from one disk pass; the contrast along a unit xi is
    the dot product with xi.  Comparable to grad h0(Q_s) times the per-bubble
    mass 8 pi / h; a gap along grad h0(Q_s) beyond 10% of the delta*-scale
    raises ContrastMismatchError.
    """
    peak = _maximum_peak(params, s)
    q_s = peak[0]

    def integrand(z):
        gx, gy = layer.phi0_gradient(z)
        return np.stack([gx, gy]) * bubble_density(params, z, layer.h0(z))

    value = integrate_disk(integrand, q_s, radius, spec, peak=peak)

    grad = np.array(layer.h0_gradient(q_s), dtype=float)
    predicted = grad * 8.0 * math.pi / params.h
    norm = np.hypot(*grad)
    tol = 0.10 * 8.0 * math.pi / params.h * max(norm, layer.delta_star)
    gap = value - predicted
    along = abs(gap @ grad) / norm if norm > 0 else np.hypot(*gap)
    if check and along > tol:
        raise ContrastMismatchError(
            f"contrast mismatch: gap {along:.6e} along grad h0 exceeds {tol:.6e}")
    return value


# ----------------------------------------------------------------------------
# integration-by-parts identity

def byparts_identity(params: BubbleParams, w_field: SolutionField, s: int,
                     radius: float, spec: QuadratureSpec) -> float:
    """Mismatch of the two routes through the integration-by-parts identity.

    Volume route: 2N int y_xi |y|^(2N-2) h e^V w  (xi = e1 here, h = params.h).
    Boundary route: 2N oint (d_nu(y_xi/|y|^2) w - d_nu w  y_xi/|y|^2).
    For w with w, grad w of size eps_b on the boundary circle the mismatch is
    bounded by 10 eps_b (2N) radius^-1 circumference.
    """
    N = params.N
    if N == 0:
        return 0.0
    peak = _maximum_peak(params, s)
    q_s = peak[0]

    def volume_integrand(z):
        # d_xi |y|^2N / |y|^2N = 2N y_xi / |y|^2 for xi = e1
        lever = (2 * N) * z.real / np.abs(z) ** 2
        return lever * bubble_density(params, z) * w_field.value(z)

    volume = integrate_disk(volume_integrand, q_s, radius, spec, peak=peak)

    def boundary_integrand(z):
        z = np.asarray(z, dtype=complex)
        nu = (z - q_s) / radius
        # y_xi/|y|^2 for xi = e1 and its gradient
        r2 = np.abs(z) ** 2
        field_val = z.real / r2
        gx = (r2 - 2.0 * z.real * z.real) / r2 ** 2
        gy = -2.0 * z.real * z.imag / r2 ** 2
        dnu_field = gx * nu.real + gy * nu.imag
        wx, wy = w_field.gradient(z)
        dnu_w = wx * nu.real + wy * nu.imag
        return (2 * N) * (dnu_field * w_field.value(z) - dnu_w * field_val)

    boundary = integrate_circle(boundary_integrand, q_s, radius, spec)
    return volume - boundary
