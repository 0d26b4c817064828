"""Pohozaev identities on small disks around bubble maxima.

For a solution of Delta u + |y|^2N h(y) e^u = 0 on a closed disk Omega and a
unit direction xi,

    int_Omega d_xi(|y|^2N h) e^u
      - oint e^u |y|^2N h (xi . nu)
      = oint (d_nu u d_xi u - 1/2 |grad u|^2 (xi . nu)),

with nu the outward normal.  ``pohozaev_check`` takes h constant and reads
e^u only through the field's source density |y|^2N h e^u, the one the
bubble module (``bubble_density``) or the radial profile
(``RadialProfile.density``) gives.  Each term is linear in xi, so the check
returns it as the vector of its e1 and e2 components, all from one disk pass
and one circle pass; at N = 0 the volume integrand is identically zero and
only the circle pass runs.  The balance along any unit xi is the dot product
of xi with each vector.  The report's residual is volume - flux - kinetic.
Given an increasing sequence of radii about one centre, ``pohozaev_check``
still makes one disk pass, over the nested disks (none at N = 0), and one
circle pass, over all the circles, and each term gets one column per radius.
The coefficient-contrast integral int grad h0 |y|^2N e^V, also returned as its
e1 and e2 components from one disk pass, isolates the gradient of the
coefficient field at a maximum and equals grad h0 times the local bubble mass
8 pi / h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bubbles import (
    BubbleParams,
    bubble_density,
    bubble_gradient,
    bubble_laplacian,
    maximum_peak,
)
from .errors import NotASolutionError
from .harmonic import LayerField
from .numerics import QuadratureSpec, integrate_circle, integrate_disk


@dataclass
class PohozaevReport:
    """The Pohozaev balance along e1 and e2: residual = volume - flux - kinetic.

    Each term is a length-2 array holding its e1 and e2 components for one
    radius, or a (2, n) array with one column per radius for a sequence of n
    radii, in the order the check was given them.
    """

    volume_term: np.ndarray
    flux_term: np.ndarray
    boundary_kinetic: np.ndarray
    residual: np.ndarray

    @property
    def scale(self) -> np.ndarray:
        return (np.abs(self.volume_term) + np.abs(self.flux_term)
                + np.abs(self.boundary_kinetic) + 1.0)


@dataclass
class SolutionField:
    """A solution u of Delta u + density = 0, as the Pohozaev terms read it.

    ``density`` is the source |y|^2N h e^u with the constant h folded in, and
    N its order; ``gradient`` gives (u_x, u_y).  No term reads u itself.  A
    Laplacian, when given, lets ``pohozaev_check`` spot-check the field.
    """

    N: int
    gradient: object
    density: object
    laplacian: object = None


def bubble_field(params: BubbleParams) -> SolutionField:
    return SolutionField(
        N=params.N,
        gradient=lambda z: bubble_gradient(params, z),
        density=lambda z: bubble_density(params, z),
        laplacian=lambda z: bubble_laplacian(params, z),
    )


def radial_field(profile) -> SolutionField:
    """Field view of a radial profile (gradient along the radial direction)."""

    def gradient(z):
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        up = profile.u_prime_at(np.maximum(r, 1e-14))
        return up * z.real / np.maximum(r, 1e-14), up * z.imag / np.maximum(r, 1e-14)

    return SolutionField(N=profile.N, gradient=gradient,
                         density=lambda z: profile.density(np.abs(z)))


def _spot_check_solution(field: SolutionField, center: complex, radius) -> None:
    """Relative PDE residual at four interior points of each disk of the given
    radius or radii (needs field.laplacian); above 1e-6, or not finite, raises
    NotASolutionError."""
    rel_tol = 1e-6
    if field.laplacian is None:
        return
    offsets = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.5j, 0.55 + 0.3j])
    pts = center + np.multiply.outer(np.atleast_1d(radius), offsets).ravel()
    lap, src = field.laplacian(pts), field.density(pts)
    scale = np.maximum(np.maximum(np.abs(lap), np.abs(src)), 1.0)
    worst = float(np.max(np.abs(lap + src) / scale))
    if not worst <= rel_tol:   # a NaN fails this test too
        raise NotASolutionError(
            f"not a solution: relative PDE residual {worst:.2e} exceeds {rel_tol}")


def pohozaev_check(field: SolutionField, center: complex, radius, spec: QuadratureSpec,
                   peak=None) -> PohozaevReport:
    """Evaluate the three Pohozaev terms along e1 and e2 on B(center, radius).

    The volume term is one 2-component disk integral; the flux and kinetic
    terms are one 4-component circle integral.  At N = 0 only the circle pass
    runs, and the volume term is exactly zero.  ``radius`` may be a strictly
    increasing sequence R_1 < ... < R_n: the volume terms of all n nested
    disks then come from one ``integrate_disk`` pass and the boundary terms of
    all n circles from one ``integrate_circle`` batch, and every term is a
    (2, n) array.  For N >= 1 the (largest) disk must avoid the origin.  A
    field with a Laplacian is first spot-checked as a solution, in every disk.

    ``peak = (q, width)`` locates the maximum of e^u and goes to
    ``integrate_disk``, which places the radial breakpoints around it and
    grades every ring of the disk toward q.

    Every term that holds e^u reads it through the field's density: with h
    constant, d_xi(|y|^2N h) e^u = (2N / |y|^2) density y_xi, which vanishes
    at N = 0.  The flux integrand is density nu.
    """
    N = field.N
    if N >= 1 and abs(center) <= np.max(radius):
        raise ValueError("for N >= 1 the disk must not contain the origin")
    _spot_check_solution(field, center, radius)

    def volume_integrand(z):
        out = np.empty((2,) + np.shape(z))
        lever = (2 * N) * field.density(z) / (np.square(z.real) + np.square(z.imag))
        np.multiply(lever, z.real, out=out[0])
        np.multiply(lever, z.imag, out=out[1])
        return out

    if N:
        vol = integrate_disk(volume_integrand, center, radius, spec, peak=peak)
    elif np.any(np.diff(np.atleast_1d(radius)) <= 0):
        raise ValueError(f"a sequence of disk radii must strictly increase; got {radius!r}")
    else:
        # d_xi(|y|^0 h) = 0 for constant h: no disk pass
        vol = np.zeros((2,) + np.shape(radius))

    def boundary_integrand(z):
        # flux along e1, e2, then kinetic along e1, e2
        nu = (z - center) / np.abs(z - center)
        ux, uy = field.gradient(z)
        flux = field.density(z)
        dnu = ux * nu.real + uy * nu.imag
        half_sq = 0.5 * (ux ** 2 + uy ** 2)
        return np.stack([flux * nu.real, flux * nu.imag,
                         dnu * ux - half_sq * nu.real, dnu * uy - half_sq * nu.imag])

    boundary = integrate_circle(boundary_integrand, center, radius, spec)
    flux, kin = boundary[:2], boundary[2:]
    return PohozaevReport(volume_term=vol, flux_term=flux, boundary_kinetic=kin,
                          residual=vol - flux - kin)


# ----------------------------------------------------------------------------
# coefficient contrast

def coefficient_contrast(params: BubbleParams, layer: LayerField, s: int,
                         radius: float, spec: QuadratureSpec) -> np.ndarray:
    """int_{B(Q_s, radius)} grad h0 |y|^2N e^V dy, as its e1 and e2 components.

    Both components come from one disk pass; the contrast along a unit xi is
    the dot product with xi.  Where the bubble is concentrated in the disk it
    is close to grad h0(Q_s) times the per-bubble mass 8 pi / h; the report's
    contrast records compare the two.
    """
    peak = maximum_peak(params, s)

    def integrand(z):
        gx, gy = layer.phi0_gradient(z)
        return np.stack([gx, gy]) * bubble_density(params, z, layer.h0(z))

    return integrate_disk(integrand, peak[0], radius, spec, peak=peak)


# ----------------------------------------------------------------------------
# integration-by-parts identity

def byparts_identity(params: BubbleParams, w, grad_w, s: int, radius: float,
                     spec: QuadratureSpec) -> float:
    """Mismatch of the two routes through the integration-by-parts identity.

    Volume route: 2N int y_xi |y|^(2N-2) h e^V w  (xi = e1 here, h = params.h).
    Boundary route: 2N oint (d_nu(y_xi/|y|^2) w - d_nu w  y_xi/|y|^2).
    w and grad_w are callables: the perturbation and its gradient (w_x, w_y).
    For w with w, grad w of size eps_b on the boundary circle the mismatch is
    bounded by 10 eps_b (2N) radius^-1 circumference.
    """
    N = params.N
    if N == 0:
        return 0.0
    peak = maximum_peak(params, s)
    q_s = peak[0]

    def volume_integrand(z):
        # d_xi |y|^2N / |y|^2N = 2N y_xi / |y|^2 for xi = e1
        lever = (2 * N) * z.real / (np.square(z.real) + np.square(z.imag))
        return lever * bubble_density(params, z) * w(z)

    volume = integrate_disk(volume_integrand, q_s, radius, spec, peak=peak)

    def boundary_integrand(z):
        z = np.asarray(z, dtype=complex)
        nu = (z - q_s) / radius
        # y_xi/|y|^2 for xi = e1 and its gradient
        r2 = np.square(z.real) + np.square(z.imag)
        field_val = z.real / r2
        gx = (r2 - 2.0 * z.real * z.real) / r2 ** 2
        gy = -2.0 * z.real * z.imag / r2 ** 2
        dnu_field = gx * nu.real + gy * nu.imag
        wx, wy = grad_w(z)
        dnu_w = wx * nu.real + wy * nu.imag
        return (2 * N) * (dnu_field * w(z) - dnu_w * field_val)

    boundary = integrate_circle(boundary_integrand, q_s, radius, spec)
    return volume - boundary
