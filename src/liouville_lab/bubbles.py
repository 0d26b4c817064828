"""Explicit entire bubble solutions of the singular Liouville equation.

A bubble with parameters (N, mu, p, h) is

    V(y) = mu - 2 log(1 + (h e^mu / (8(N+1)^2)) |y^(N+1) - 1 - p|^2),

which solves  Delta V + |y|^(2N) h e^V = 0  on the plane.  One formula covers
both the unit-coefficient convention (h = 1) and the classical normalisation
h = 8(N+1)^2.  Exact first and second derivatives come from Wirtinger
calculus on F(y) = y^(N+1) - 1 - p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaximaError
from .numerics import QuadratureSpec, integrate_plane, newton_complex


@dataclass(frozen=True)
class BubbleParams:
    """Parameters of one explicit global bubble solution."""

    N: int
    mu: float
    p: complex = 0j
    h: float = 8.0

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

    @property
    def coefficient(self) -> float:
        """c = h e^mu / (8(N+1)^2), the quadratic-form weight."""
        return self.h * np.exp(self.mu) / self.D


@dataclass(frozen=True)
class FarFieldSpec:
    """Evaluation radius and angle for the far-field expansion."""

    L: float
    theta: float = 0.0

    def __post_init__(self):
        if self.L <= 2:
            raise ValueError("far-field radius must exceed 2")


def _F(params: BubbleParams, y):
    return y ** (params.N + 1) - (1.0 + params.p)


def eval_bubble(params: BubbleParams, y) -> float | np.ndarray:
    """Bubble value; V <= mu with equality iff y^(N+1) = 1 + p."""
    g = np.abs(_F(params, np.asarray(y, dtype=complex))) ** 2
    out = params.mu - 2.0 * np.log1p(params.coefficient * g)
    return float(out) if np.isscalar(y) or np.asarray(y).ndim == 0 else out


def _dz_terms(params: BubbleParams, y):
    """Wirtinger pieces of log(1 + c|F|^2): S = d_z, plus d_z S and d_zbar S."""
    n1 = params.N + 1
    y = np.asarray(y, dtype=complex)
    c = params.coefficient
    F = _F(params, y)
    Fp = n1 * y ** params.N
    Fpp = params.N * n1 * y ** (params.N - 1) if params.N >= 1 else np.zeros_like(y)
    denom = 1.0 + c * np.abs(F) ** 2
    S = c * Fp * np.conj(F) / denom
    dzS = c * Fpp * np.conj(F) / denom - c ** 2 * Fp ** 2 * np.conj(F) ** 2 / denom ** 2
    dzbarS = c * np.abs(Fp) ** 2 / denom ** 2
    return S, dzS, dzbarS


def bubble_gradient(params: BubbleParams, y):
    """Exact gradient (V_x, V_y)."""
    S, _, _ = _dz_terms(params, y)
    return -4.0 * S.real, 4.0 * S.imag


def bubble_hessian(params: BubbleParams, y):
    """Exact Hessian entries (V_xx, V_xy, V_yy)."""
    _, dzS, dzbarS = _dz_terms(params, y)
    vxx = -4.0 * dzS.real - 4.0 * dzbarS.real
    vyy = 4.0 * dzS.real - 4.0 * dzbarS.real
    vxy = 4.0 * dzS.imag
    return vxx, vxy, vyy


def bubble_laplacian(params: BubbleParams, y):
    """Laplacian assembled from the closed-form second derivatives."""
    vxx, _, vyy = bubble_hessian(params, y)
    return vxx + vyy


def bubble_residual(params: BubbleParams, y) -> float | np.ndarray:
    """Delta V + |y|^(2N) h e^V, assembled from closed-form second derivatives.

    Vanishes analytically; the returned value measures floating-point
    cancellation only.
    """
    y = np.asarray(y, dtype=complex)
    res = bubble_laplacian(params, y) + bubble_density(params, y)
    return float(res) if res.ndim == 0 else res


def bubble_density(params: BubbleParams, y, h=None):
    """Mass density |y|^(2N) h e^V; h defaults to params.h (a number or an array)."""
    h = params.h if h is None else h
    return np.abs(y) ** (2 * params.N) * h * np.exp(eval_bubble(params, y))


def total_mass(params: BubbleParams, spec: QuadratureSpec | None = None) -> float:
    """integral over the plane of |y|^(2N) h e^V = 8 pi (N+1), whatever mu, p, h."""
    spec = spec or QuadratureSpec()
    return integrate_plane(lambda z: bubble_density(params, z), spec)


@dataclass
class MaximaResult:
    """Located maxima plus the closed-form first-order prediction."""

    Q: np.ndarray            # N+1 maxima, ordered by angle
    predicted: np.ndarray    # e^{i beta_l} (1 + p/(N+1))
    gap: np.ndarray          # |Q_l - predicted_l|
    m: np.ndarray            # perturbations relative to the first maximum

    @property
    def N(self) -> int:
        return self.Q.size - 1


def find_maxima(params: BubbleParams, newton_tol: float = 1e-14) -> MaximaResult:
    """Locate the N+1 maxima of the bubble.

    Newton runs on y^(N+1) - (1+p) = 0, the exact zero set of the bubble
    gradient, seeded at the (N+1)-th roots of unity.  Requires |p| < 0.3 so
    every seed stays in its basin.
    """
    if abs(params.p) >= 0.3:
        raise MaximaError("maxima not localized: |p| >= 0.3 leaves the Newton basin")
    n1 = params.N + 1
    target = 1.0 + params.p
    roots = []
    for l in range(n1):
        seed = np.exp(1j * math.tau * l / n1)
        try:
            q = newton_complex(lambda z: z ** n1 - target,
                               lambda z: n1 * z ** (n1 - 1), seed, tol=newton_tol)
        except ValueError as exc:
            raise MaximaError(f"maxima not localized: {exc}") from exc
        roots.append(q)
    Q = np.asarray(sorted(roots, key=lambda q: np.angle(q) % math.tau))
    beta = np.angle(Q[0]) % math.tau + math.tau * np.arange(n1) / n1
    predicted = np.exp(1j * math.tau * np.arange(n1) / n1) * (1.0 + params.p / n1)
    gap = np.abs(Q - predicted)
    m = Q * np.exp(-1j * beta) - abs(Q[0])
    return MaximaResult(Q=Q, predicted=predicted, gap=gap, m=m)


# ----------------------------------------------------------------------------
# far-field expansion

def far_field_terms(params: BubbleParams, spec: FarFieldSpec) -> float:
    """The five-term far-field expansion of the centered bubble at |y| = L.

    V(L e^{i theta}) = -mu + 2 log(D/h) - 4(N+1) log L
                       + 4 cos((N+1) theta) / L^(N+1)
                       + 2 cos((2N+2) theta) / L^(2N+2)
                       + O(L^(-3N-3)) + O(e^-mu L^(-2N-2)).

    The subleading coefficients follow from expanding -2 log(1+x); the secular
    L^(-2N-2) contribution cancels exactly and the cos((2N+2) theta)
    coefficient is 2.
    """
    N, L, th = params.N, spec.L, spec.theta
    return (-params.mu + 2.0 * np.log(params.D / params.h)
            - 4.0 * (N + 1) * np.log(L)
            + 4.0 * np.cos((N + 1) * th) / L ** (N + 1)
            + 2.0 * np.cos((2 * N + 2) * th) / L ** (2 * N + 2))


def far_field_gap(params: BubbleParams, spec: FarFieldSpec) -> float:
    """Exact bubble value minus the five expansion terms (centered bubble only)."""
    if params.p != 0:
        raise ValueError("far-field expansion is stated for the centered bubble (p = 0)")
    if spec.L < 5:
        raise ValueError("far-field evaluation needs L >= 5")
    y = spec.L * np.exp(1j * spec.theta)
    return float(eval_bubble(params, y) - far_field_terms(params, spec))


def far_field_max_gap(params: BubbleParams, L: float, n_theta: int = 512) -> float:
    """max over theta of |far_field_gap| at radius L."""
    thetas = math.tau * np.arange(n_theta) / n_theta
    gaps = [far_field_gap(params, FarFieldSpec(L=L, theta=t)) for t in thetas]
    return float(np.max(np.abs(gaps)))


def rescaled_profile_gap(params: BubbleParams, z: complex) -> float:
    """Gap V(Q0 + eps z) + 2 log eps - U(z) with eps = e^{-mu/2}.

    U is the planar bubble with the same h,
    U(z) = -2 log(1 + (h/8) |z|^2), so the gap vanishes at z = 0 and grows at
    most like C eps |z| + C mu^2 eps^2.
    """
    eps = np.exp(-params.mu / 2.0)
    if abs(z) > 0.5 / eps:
        raise ValueError("rescaled evaluation point must satisfy |z| <= 0.5/eps")
    q0 = find_maxima(params).Q
    q0 = q0[np.argmin(np.abs(q0 - 1.0))]
    u = -2.0 * np.log1p(params.h / 8.0 * abs(z) ** 2)
    return float(eval_bubble(params, q0 + eps * z) + 2.0 * np.log(eps) - u)
