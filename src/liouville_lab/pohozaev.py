"""Pohozaev identities on small disks around bubble maxima.

For a solution of Delta u + |y|^2N h(y) e^u = 0 on a closed disk Omega and a
unit direction xi,

    int_Omega d_xi(|y|^2N h) e^u
      - oint e^u |y|^2N h (xi . nu)
      = oint (d_nu u d_xi u - 1/2 |grad u|^2 (xi . nu)),

with nu the outward normal.  The report's residual is
volume - flux - kinetic.  The coefficient-contrast integral
int d_xi h0 |y|^2N e^V isolates the gradient of the coefficient field at a
maximum and equals grad h0 . xi times the local bubble mass 8 pi / h.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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
    """One Pohozaev balance: residual = volume_term - flux_term - boundary_kinetic."""

    volume_term: float
    flux_term: float
    boundary_kinetic: float
    residual: float
    center: complex
    radius: float
    direction: tuple

    @property
    def scale(self) -> float:
        return abs(self.volume_term) + abs(self.flux_term) + abs(self.boundary_kinetic) + 1.0

    def to_json(self) -> str:
        d = asdict(self)
        d["center"] = [self.center.real, self.center.imag]
        d["direction"] = list(self.direction)
        return json.dumps(d, sort_keys=True)


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
                         radius: float, rel_tol: float = 1e-6) -> float:
    """Relative PDE residual at a few interior points (needs field.laplacian)."""
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
                   radius: float, xi, spec: QuadratureSpec | None = None,
                   radial_splits=None, validate: bool = True) -> PohozaevReport:
    """Evaluate the three Pohozaev terms on B(center, radius) by quadrature.

    h and grad_h are the coefficient field and its gradient; xi must be a unit
    vector.  For N >= 1 the disk must avoid the origin.
    """
    spec = spec or QuadratureSpec()
    xi = np.asarray(xi, dtype=float)
    if abs(np.hypot(xi[0], xi[1]) - 1.0) > 1e-12:
        raise ValueError("xi must be a unit vector")
    if N >= 1 and abs(center) <= radius:
        raise ValueError("for N >= 1 the disk must not contain the origin")
    if validate:
        _spot_check_solution(field, h, N, center, radius)

    n2 = 2 * N

    def weight(z):
        return np.abs(z) ** n2

    def d_xi_weight(z):
        # d_xi |y|^2N = 2N |y|^(2N-2) (y . xi)
        if N == 0:
            return np.zeros(np.shape(z))
        z = np.asarray(z, dtype=complex)
        ydotxi = z.real * xi[0] + z.imag * xi[1]
        return n2 * np.abs(z) ** (n2 - 2) * ydotxi

    def volume_integrand(z):
        hx, hy = grad_h(z)
        dxi_wh = d_xi_weight(z) * h(z) + weight(z) * (hx * xi[0] + hy * xi[1])
        return dxi_wh * np.exp(field.value(z))

    vol = integrate_disk(volume_integrand, center, radius, spec, radial_splits=radial_splits)

    def xidotnu(z):
        z = np.asarray(z, dtype=complex)
        nu = (z - center) / radius
        return nu.real * xi[0] + nu.imag * xi[1]

    def flux_integrand(z):
        return np.exp(field.value(z)) * weight(z) * h(z) * xidotnu(z)

    flux = integrate_circle(flux_integrand, center, radius, spec)

    def kinetic_integrand(z):
        z = np.asarray(z, dtype=complex)
        ux, uy = field.gradient(z)
        nu = (z - center) / radius
        dnu = ux * nu.real + uy * nu.imag
        dxi = ux * xi[0] + uy * xi[1]
        return dnu * dxi - 0.5 * (ux ** 2 + uy ** 2) * xidotnu(z)

    kin = integrate_circle(kinetic_integrand, center, radius, spec)
    return PohozaevReport(volume_term=vol, flux_term=flux, boundary_kinetic=kin,
                          residual=vol - flux - kin, center=center, radius=radius,
                          direction=(float(xi[0]), float(xi[1])))


# ----------------------------------------------------------------------------
# coefficient contrast

def coefficient_contrast(params: BubbleParams, layer: LayerField, s: int, xi,
                         radius: float, spec: QuadratureSpec | None = None,
                         check: bool = True) -> float:
    """int_{B(Q_s, radius)} d_xi h0 |y|^2N e^V dy.

    Comparable to grad h0(Q_s) . xi times the per-bubble mass 8 pi / h; a gap
    beyond 10% of the delta*-scale raises ContrastMismatchError.
    """
    spec = spec or QuadratureSpec()
    xi = np.asarray(xi, dtype=float)
    if abs(np.hypot(xi[0], xi[1]) - 1.0) > 1e-12:
        raise ValueError("xi must be a unit vector")
    maxima = find_maxima(params)
    q_s = complex(maxima.Q[s])
    eps = math.exp(-params.mu / 2.0)

    def integrand(z):
        gx, gy = layer.phi0_gradient(z)
        return bubble_density(params, z, (gx * xi[0] + gy * xi[1]) * layer.h0(z))

    splits = [5.0 * eps, 50.0 * eps, radius * 0.5]
    value = integrate_disk(integrand, q_s, radius, spec, radial_splits=splits)

    gx, gy = layer.h0_gradient(q_s)
    predicted = (gx * xi[0] + gy * xi[1]) * 8.0 * math.pi / params.h
    tol = 0.10 * 8.0 * math.pi / params.h * max(np.hypot(gx, gy), layer.delta_star)
    if check and abs(value - predicted) > tol:
        raise ContrastMismatchError(
            f"contrast mismatch: integral {value:.6e} vs predicted {predicted:.6e}")
    return value


# ----------------------------------------------------------------------------
# integration-by-parts identity

def byparts_identity(params: BubbleParams, w_field: SolutionField, s: int,
                     radius: float, h0=None, grad_h0=None,
                     spec: QuadratureSpec | None = None) -> float:
    """Mismatch of the two routes through the integration-by-parts identity.

    Volume route: 2N int y_xi |y|^(2N-2) h e^V w  (xi = e1 here, h = h(Q_s)).
    Boundary route: 2N oint (d_nu(y_xi/|y|^2) w - d_nu w  y_xi/|y|^2) plus the
    coefficient-difference volume term when an h0 field is supplied.
    For w with w, grad w of size eps_b on the boundary circle the mismatch is
    bounded by 10 eps_b (2N) radius^-1 circumference.
    """
    spec = spec or QuadratureSpec()
    N = params.N
    if N == 0:
        return 0.0
    maxima = find_maxima(params)
    q_s = complex(maxima.Q[s])
    eps = math.exp(-params.mu / 2.0)
    h_const = params.h if h0 is None else float(h0(q_s)) * params.h

    def lever(z):
        # d_xi |y|^2N / |y|^2N = 2N y_xi / |y|^2 for xi = e1
        return (2 * N) * z.real / np.abs(z) ** 2

    def volume_integrand(z):
        return lever(z) * bubble_density(params, z, h_const) * w_field.value(z)

    splits = [5.0 * eps, 50.0 * eps, radius * 0.5]
    volume = integrate_disk(volume_integrand, q_s, radius, spec, radial_splits=splits)

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

    coeff_term = 0.0
    if h0 is not None:
        # sign per the w-equation: Delta w + |y|^2N h(Q) e^V w = (h(Q)-h(y)) |y|^2N e^V
        def coeff_integrand(z):
            hh = np.array([float(h0(zz)) for zz in z.ravel()]).reshape(z.shape) * params.h
            return lever(z) * bubble_density(params, z, h_const - hh)

        coeff_term = integrate_disk(coeff_integrand, q_s, radius, spec, radial_splits=splits)

    return volume - (boundary + coeff_term)
