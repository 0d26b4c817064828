"""Harmonic extensions and the boundary-layer coefficient field.

A trace on a circle of radius rho is stored as trigonometric coefficients;
its harmonic extension is sum (r/rho)^n (a_n cos n theta + b_n sin n theta).
From the bubble's own boundary trace the oscillation-killing data a_{n,v} are
extracted; the layer field

    phi0(y) = Phi(delta y) - phi_v(delta y)
            = sum delta^n r^n ((a_n - a_{n,v}) cos n theta + ...)

lives on B(0, 1/delta), carries the coefficient field h0 = e^{phi0} with
h0(0) = 1, and the scale

    delta* = sum_{n<=L} delta^n (|a_n - a_{n,v}| + |b_n - b_{n,v}|).

At the N+1 roots of unity the polar gradient formula
|grad phi0|^2 = |d_r phi0|^2 + r^-2 |d_theta phi0|^2 gives the dichotomy: the
gradient is comparable to delta* at at least one root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bubbles import BubbleParams, eval_bubble
from .errors import DegenerateLayerError, DichotomyError
from .numerics import FourierCoefficients, circle_fourier, polar_sum, sample_circle


@dataclass
class FourierBoundaryData:
    """Truncated trace coefficients on a circle of the given radius."""

    radius: float
    coefficients: FourierCoefficients

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def n_max(self) -> int:
        return self.coefficients.n_max

    def monomial_coefficients(self):
        """(A_n, B_n) with the trace written as sum A_n r^n cos + B_n r^n sin."""
        n = np.arange(self.coefficients.a.size)
        scale = self.radius ** (-n.astype(float))
        return self.coefficients.a * scale, self.coefficients.b * scale

    def is_zero(self, tol: float = 0.0) -> bool:
        c = self.coefficients
        return bool(np.all(np.abs(c.a) <= tol) and np.all(np.abs(c.b) <= tol))


def harmonic_extend(data: FourierBoundaryData, y) -> float | np.ndarray:
    """Harmonic extension of the boundary data, evaluated inside the disk."""
    y = np.asarray(y, dtype=complex)
    if np.any(np.abs(y) > data.radius * (1.0 + 1e-12)):
        raise ValueError("evaluation point outside the boundary circle")
    c = data.coefficients
    out = polar_sum(c.a, c.b, np.abs(y) / data.radius, np.angle(y))
    return float(out) if out.ndim == 0 else out


def bubble_oscillation_killer(params: BubbleParams, delta: float) -> FourierBoundaryData:
    """Oscillation data of the bubble trace on the circle of radius 1/delta.

    Coefficients are the mean-removed trace coefficients of modes up to 64,
    from 2048 samples of the trace; in monomial
    normalisation the leading entries are 4 delta^(2N+2) at mode N+1 and
    2 delta^(4N+4) at mode 2N+2.
    """
    if delta > 0.1:
        raise ValueError("oscillation extraction requires the far-field regime delta <= 0.1")
    if params.p != 0:
        raise ValueError("oscillation extraction is stated for the centered bubble (p = 0)")
    radius = 1.0 / delta
    vals = sample_circle(lambda z: eval_bubble(params, z), 0j, radius, 2048)
    coeffs = circle_fourier(vals, 64)
    coeffs.a[0] = 0.0   # remove the mean
    return FourierBoundaryData(radius=radius, coefficients=coeffs)


@dataclass
class LayerField:
    """Harmonic layer phi0 on B(0, 1/delta) with its scale delta*."""

    N: int
    delta: float
    L: int
    A: np.ndarray          # monomial cos coefficients of phi0 in y, index 0 unused
    B: np.ndarray          # monomial sin coefficients
    delta_star: float
    tail: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.A.size != self.B.size:
            raise ValueError("coefficient arrays must share length")
        if self.A.size and (abs(self.A[0]) > 0 or abs(self.B[0]) > 0):
            raise ValueError("phi0 must vanish at the origin (zero-mean data)")
        if self.delta_star <= 0:
            raise ValueError("delta* must be positive")

    def phi0(self, y) -> float | np.ndarray:
        y = np.asarray(y, dtype=complex)
        out = polar_sum(self.A, self.B, np.abs(y), np.angle(y))
        return float(out) if out.ndim == 0 else out

    def phi0_gradient(self, y):
        """Cartesian gradient from the polar formula
        |grad phi0|^2 = |d_r phi0|^2 + r^-2 |d_theta phi0|^2."""
        y = np.asarray(y, dtype=complex)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        r = np.abs(y)
        th = np.angle(y)
        n = np.arange(self.A.size, dtype=float)
        safe_r = np.where(r == 0.0, 1.0, r)
        rn1 = safe_r[..., None] ** (n - 1)
        cn = np.cos(np.multiply.outer(th, n))
        sn = np.sin(np.multiply.outer(th, n))
        dr = (n * rn1 * (self.A * cn + self.B * sn)).sum(axis=-1)
        dth_over_r = (n * rn1 * (-self.A * sn + self.B * cn)).sum(axis=-1)
        ux = np.cos(th) * dr - np.sin(th) * dth_over_r
        uy = np.sin(th) * dr + np.cos(th) * dth_over_r
        # at the origin only the n = 1 mode survives
        if np.any(r == 0.0):
            a1 = self.A[1] if self.A.size > 1 else 0.0
            b1 = self.B[1] if self.B.size > 1 else 0.0
            ux = np.where(r == 0.0, a1, ux)
            uy = np.where(r == 0.0, b1, uy)
        if scalar:
            return float(ux[0]), float(uy[0])
        return ux, uy

    def h0(self, y):
        """Coefficient field e^{phi0}; h0(0) = 1 exactly."""
        out = np.exp(self.phi0(y))
        return out

    def h0_gradient(self, y):
        """grad h0 = h0 grad phi0, elementwise in y."""
        gx, gy = self.phi0_gradient(y)
        h = self.h0(y)
        return h * gx, h * gy


def build_layer(Phi: FourierBoundaryData, params: BubbleParams, delta: float,
                L: int) -> LayerField:
    """Assemble the layer field from unit-circle data Phi and the bubble trace.

    delta* is the displayed sum over modes n <= L.  When Phi vanishes
    identically the scale falls back to delta^(2N+2); if additionally the
    bubble trace carries no oscillation the layer is degenerate.
    """
    if abs(Phi.radius - 1.0) > 1e-12:
        raise ValueError("Phi must be boundary data on the unit circle")
    if abs(Phi.coefficients.a[0]) > 1e-14:
        raise ValueError("Phi must have zero mean")
    if L > Phi.n_max:
        raise ValueError("L must not exceed the data's mode count")
    killer = bubble_oscillation_killer(params, delta)
    av, bv = killer.coefficients.a, killer.coefficients.b

    n_tot = max(Phi.n_max, killer.n_max) + 1
    a = np.zeros(n_tot)
    b = np.zeros(n_tot)
    a[:Phi.coefficients.a.size] = Phi.coefficients.a
    b[:Phi.coefficients.b.size] = Phi.coefficients.b
    a[:av.size] -= av
    b[:bv.size] -= bv

    n = np.arange(n_tot, dtype=float)
    dn = delta ** n
    gaps = dn * (np.abs(a) + np.abs(b))
    delta_star = float(np.sum(gaps[1:L + 1]))
    tail = float(np.sum(gaps[L + 1:]))

    if Phi.is_zero():
        if killer.is_zero(1e-15):
            raise DegenerateLayerError("degenerate layer: no boundary data and no bubble trace")
        delta_star = delta ** (2 * params.N + 2)

    if delta_star == 0.0:
        raise DegenerateLayerError("degenerate layer: all retained coefficient gaps vanish")

    return LayerField(N=params.N, delta=delta, L=L, A=a * dn, B=b * dn,
                      delta_star=delta_star, tail=tail)


def layer_from_coefficients(N: int, delta: float, L: int, A, B,
                            delta_star: float | None = None) -> LayerField:
    """Layer field from explicit monomial coefficients (A[0] = B[0] = 0)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if delta_star is None:
        delta_star = float(np.sum(np.abs(A[1:L + 1]) + np.abs(B[1:L + 1])))
    return LayerField(N=N, delta=delta, L=L, A=A, B=B, delta_star=delta_star)


# the least max-root gradient ratio |grad phi0| / delta* that certifies the dichotomy
DICHOTOMY_THRESHOLD = 0.05


@dataclass
class DichotomyResult:
    index: int
    gradients: np.ndarray    # complex gx + i gy per root
    ratio: float             # max_s |grad phi0(root_s)| / delta*
    ratios: np.ndarray


def grad_h_at_roots(layer: LayerField,
                    threshold: float = DICHOTOMY_THRESHOLD) -> DichotomyResult:
    """Gradient of h0 at the N+1 roots of unity (N = layer.N) and the dichotomy certificate.

    The certificate ratio uses grad phi0 (the h0 factor is 1 + O(delta*)), so
    it is exactly invariant under rescaling the layer.  All ratios below the
    threshold signal a violated dichotomy.
    """
    N = layer.N
    roots = np.exp(1j * math.tau * np.arange(N + 1) / (N + 1))
    grads = []
    ratios = []
    for q in roots:
        hx, hy = layer.h0_gradient(q)
        px, py = layer.phi0_gradient(q)
        grads.append(hx + 1j * hy)
        ratios.append(np.hypot(px, py) / layer.delta_star)
    ratios = np.asarray(ratios)
    s = int(np.argmax(ratios))
    if ratios[s] < threshold:
        raise DichotomyError(
            f"dichotomy violated: max gradient ratio {ratios[s]:.4f} < {threshold}")
    return DichotomyResult(index=s, gradients=np.asarray(grads),
                           ratio=float(ratios[s]), ratios=ratios)
