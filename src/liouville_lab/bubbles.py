"""Explicit entire bubble solutions of the singular Liouville equation.

A bubble with parameters (N, mu, p, h) is

    V(y) = mu - 2 log(1 + (h e^mu / (8(N+1)^2)) |y^(N+1) - 1 - p|^2),

which solves  Delta V + |y|^(2N) h e^V = 0  on the plane.  One formula covers
both the unit-coefficient convention (h = 1) and the classical normalisation
h = 8(N+1)^2.  The exact gradient and Laplacian come from Wirtinger calculus
on F(y) = y^(N+1) - 1 - p, and the N+1 maxima are the roots of F in closed
form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureSpec, integrate_plane


@dataclass(frozen=True)
class BubbleParams:
    """Parameters of one explicit global bubble solution."""

    N: int
    mu: float
    p: complex
    h: float

    def __post_init__(self):
        if self.N < 0 or int(self.N) != self.N:
            raise ValueError("N must be a non-negative integer")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if abs(self.p) >= 1:
            raise ValueError("|p| must stay below 1 so maxima remain near the unit circle")

    @property
    def D(self) -> float:
        return 8.0 * (self.N + 1) ** 2

    @functools.cached_property
    def exp_mu(self) -> float:
        """e^mu, formed once per parameter set."""
        return np.exp(self.mu)

    @functools.cached_property
    def coefficient(self) -> float:
        """c = h e^mu / (8(N+1)^2), the quadratic-form weight."""
        return self.h * self.exp_mu / self.D


def _F(params: BubbleParams, y):
    return y ** (params.N + 1) - (1.0 + params.p)


def eval_bubble(params: BubbleParams, y) -> float | np.ndarray:
    """Bubble value; V <= mu with equality iff y^(N+1) = 1 + p."""
    g = np.abs(_F(params, np.asarray(y, dtype=complex))) ** 2
    out = params.mu - 2.0 * np.log1p(params.coefficient * g)
    return float(out) if np.isscalar(y) or np.asarray(y).ndim == 0 else out


def _dz_terms(params: BubbleParams, y):
    """Wirtinger pieces of log(1 + c|F|^2): S = d_z, and d_zbar S = c|F'|^2 / (1 + c|F|^2)^2."""
    y = np.asarray(y, dtype=complex)
    c = params.coefficient
    F = _F(params, y)
    Fp = (params.N + 1) * y ** params.N
    denom = 1.0 + c * np.abs(F) ** 2
    return c * Fp * np.conj(F) / denom, c * np.abs(Fp) ** 2 / denom ** 2


def bubble_gradient(params: BubbleParams, y):
    """Exact gradient (V_x, V_y)."""
    S, _ = _dz_terms(params, y)
    return -4.0 * S.real, 4.0 * S.imag


def bubble_laplacian(params: BubbleParams, y):
    """Exact Laplacian -8 d_zbar S, with S = d_z log(1 + c|F|^2).

    Delta = 4 d_z d_zbar and V = mu - 2 log(1 + c|F|^2), so Delta V is
    -8 d_zbar S = -8 c|F'|^2 / (1 + c|F|^2)^2.  F' is formed as (N+1) y^N by
    ``**``, not from ``_kernel_terms``: the density is built there, and the
    ``bubble/residual`` record would cancel to exactly 0.
    """
    _, dzbarS = _dz_terms(params, y)
    return -8.0 * dzbarS


def bubble_residual(params: BubbleParams, y) -> float | np.ndarray:
    """Delta V + |y|^(2N) h e^V, from ``bubble_laplacian`` and ``bubble_density``.

    Vanishes analytically; the returned value measures floating-point
    cancellation only.
    """
    y = np.asarray(y, dtype=complex)
    res = bubble_laplacian(params, y) + bubble_density(params, y)
    return float(res) if res.ndim == 0 else res


def _kernel_terms(params: BubbleParams, y):
    """(F, c|F|^2, |y|^2N) at points y, with F = y^(N+1) - 1 - p, by products only.

    The one implementation of the pieces of the bubble kernel
    |y|^2N h e^V = h e^mu |y|^2N / (1 + c|F|^2)^2: y^(N+1) is a chain of
    complex products, |w|^2 is w.real^2 + w.imag^2 and |y|^2N a power of |y|^2
    by products, so a point costs no pow, hypot, exp or log.  |y|^2N is the
    number 1.0 when N = 0.
    """
    y = np.asarray(y, dtype=complex)
    if params.N:
        # np.square of a strided .real runs faster than x * x, to the same bits
        r2 = np.square(y.real)
        r2 += np.square(y.imag)
        weight = r2
        for _ in range(params.N - 1):
            weight = weight * r2
        F = y * y
        for _ in range(params.N - 1):
            F *= y
        F -= 1.0 + params.p
    else:
        F, weight = y - (1.0 + params.p), 1.0
    q = np.square(F.real)
    q += np.square(F.imag)
    q *= params.coefficient
    return F, q, weight


def bubble_density(params: BubbleParams, y, h=None):
    """Mass density |y|^(2N) h e^V; h defaults to params.h (a number or an array).

    Evaluated as h e^mu |y|^2N / (1 + c|F|^2)^2 from ``_kernel_terms``, with
    e^mu the params' one cached scalar: products and one division per point,
    where exp(``eval_bubble``) would be exp of log1p at every point.
    ``eval_bubble`` keeps its ``**`` form: the ``bubble/rotation-symmetry``
    record reads exactly 0 through it, and products would leave rounding there.
    """
    h = params.h if h is None else h
    _, q, weight = _kernel_terms(params, y)
    d = 1.0 + q
    return (h * params.exp_mu) * weight / (d * d)


def density_peak(params: BubbleParams):
    """``(1 + p, c^(-1/2), N + 1)``: the density peaks where y^(N+1) = 1 + p.

    In rho = r^(N+1) the N+1 maxima are one peak at 1 + p, of radial width
    about c^(-1/2); this is the ``peak`` argument of ``integrate_plane``, which
    grades the rings toward it and places its first panels at the peak's
    radius by the edge rule it shares with ``integrate_disk``.  Its
    K = N + 1 also declares (N+1)-fold symmetry, so each ring averages over
    one sector of angle 2 pi/(N+1): pass it only with integrands that depend
    on y through y^(N+1) and |y|, as the density and the moments do.
    """
    return 1.0 + params.p, params.coefficient ** -0.5, params.N + 1


def total_mass(params: BubbleParams, spec: QuadratureSpec | None = None) -> float:
    """integral over the plane of |y|^(2N) h e^V = 8 pi (N+1), whatever mu, p, h."""
    spec = spec or QuadratureSpec()
    return integrate_plane(lambda z: bubble_density(params, z), spec, peak=density_peak(params))


def roots_of_unity(N: int) -> np.ndarray:
    """The N+1 roots of unity e^(2 pi i l/(N+1)), l = 0..N."""
    return np.exp(1j * math.tau * np.arange(N + 1) / (N + 1))


def find_maxima(params: BubbleParams) -> np.ndarray:
    """The N+1 maxima of the bubble, Q_l = (1 + p)^(1/(N+1)) e^(2 pi i l/(N+1)).

    They are the roots of y^(N+1) = 1 + p, the zero set of the gradient.  The
    principal root has argument below pi/(2(N+1)) since |p| < 1, so Q_l is
    the maximum nearest the l-th root of unity.
    """
    return (1.0 + params.p) ** (1.0 / (params.N + 1)) * roots_of_unity(params.N)


def peak_width(mu: float) -> float:
    """eps = e^(-mu/2), the width of the density peak at a maximum of height mu.

    Near a maximum Q_s the bubble is the planar one in y = Q_s + eps z.
    """
    return math.exp(-mu / 2.0)


def maximum_peak(params: BubbleParams, s: int):
    """``(Q_s, eps)``: the s-th maximum and the width of the density peak there.

    As the ``peak`` of ``integrate_disk`` it grades the rings toward Q_s
    (uniform on a disk centred there) and places the first panels in the
    radius by the peak-edge rule the disk shares with the plane.
    """
    return complex(find_maxima(params)[s]), peak_width(params.mu)


# ----------------------------------------------------------------------------
# far-field expansion

def far_field_gap(params: BubbleParams, L: float, theta):
    """The centered bubble's value at y = L e^(i theta) minus its five-term
    far-field expansion

        V(L e^{i theta}) = -mu + 2 log(D/h) - 4(N+1) log L
                           + 4 cos((N+1) theta) / L^(N+1)
                           + 2 cos((2N+2) theta) / L^(2N+2)
                           + O(L^(-3N-3)) + O(e^-mu L^(-2N-2)).

    The subleading coefficients follow from expanding -2 log(1+x); the secular
    L^(-2N-2) contribution cancels exactly and the cos((2N+2) theta)
    coefficient is 2.

    The gap is formed without cancellation.  With w = y^-(N+1) and
    g = |y^(N+1) - 1|^2, V = -mu + 2 log(D/h) - 4(N+1) log L
    - 4 Re log1p(-w) - 2 log1p(1/(c g)), and 4 Re w, 2 Re w^2 are the two
    cosine terms, so the gap is

        -4 (Re log1p(-w) + Re w + Re w^2 / 2) - 2 log1p(1/(c g)).

    The constant and log L terms cancel in closed form: subtracting them from
    V in floats would leave the rounding of |V| (5.2e-14 at mu = 100, N = 2,
    L = 40) against a gap of 5e-15.  Re log1p(-w) = log1p(|w|^2 - 2 Re w) / 2
    keeps the relative accuracy of w.
    """
    if params.p != 0:
        raise ValueError("far-field expansion is stated for the centered bubble (p = 0)")
    if L < 5:
        raise ValueError("far-field evaluation needs L >= 5")
    n1 = params.N + 1
    y = L * np.exp(1j * np.asarray(theta, dtype=float))
    w = y ** -n1
    g = np.abs(y ** n1 - 1.0) ** 2
    re_log = 0.5 * np.log1p(np.abs(w) ** 2 - 2.0 * w.real)
    return (-4.0 * (re_log + w.real + 0.5 * (w * w).real)
            - 2.0 * np.log1p(1.0 / (params.coefficient * g)))


def far_field_max_gap(params: BubbleParams, L: float) -> float:
    """max of |far_field_gap| over 512 equally spaced angles at radius L."""
    thetas = math.tau * np.arange(512) / 512
    return float(np.max(np.abs(far_field_gap(params, L, thetas))))


def rescaled_profile_gap(params: BubbleParams, z: complex) -> float:
    """Gap V(Q0 + eps z) + 2 log eps - U(z) with eps = e^{-mu/2}.

    U is the planar bubble with the same h,
    U(z) = -2 log(1 + (h/8) |z|^2), so the gap vanishes at z = 0 and grows at
    most like C eps |z| + C mu^2 eps^2.
    """
    q0, eps = maximum_peak(params, 0)
    if abs(z) > 0.5 / eps:
        raise ValueError("rescaled evaluation point must satisfy |z| <= 0.5/eps")
    u = -2.0 * np.log1p(params.h / 8.0 * abs(z) ** 2)
    return float(eval_bubble(params, q0 + eps * z) + 2.0 * np.log(eps) - u)
