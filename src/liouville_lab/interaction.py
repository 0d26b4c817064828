"""Decomposition of the difference of two nearby bubbles and its moment integrals.

Around the maximum Q_s = e^{i beta_s}(1+p_s)^{1/(N+1)}, with eps = e^{-mu_s/2}
and y = Q_s + eps z, the difference of the s- and l-bubbles splits into

    V_s - V_l = phi1 + phi2 + phi3 + phi4 + remainder,

    w    = z + (N/2) eps z^2 e^{-i beta_s},
    B    = 1 + (h_s/8) |w|^2,
    phi1 = (mu_s - mu_l) (1 - (h_s/8)|w|^2) / B,
    phi2 = h_s Re(w conj(Delta) e^{-i beta_s}) / (2 (N+1) eps B),
    phi3 = h_s |Delta|^2 / (4 (N+1)^2 eps^2 B)
           * (1 - h_s |z|^2 (1 + cos(2 theta - 2 theta_sl - 2 beta_s)) / (8 B)),
    phi4 = (h_s/4) ((h_l - h_s)/h_l) |w|^2 / B,

with Delta = p_s - p_l and theta_sl = arg(Delta).  phi1 matches the radial
kernel direction, phi2 the two translation kernels (coefficients c1, c2
below), and phi3 + phi4 carry the second-order interaction.  Integrating
phi3 + phi4 against the bubble kernel h_l |y|^2N e^{V_s} gives the closed form

    D_sl = 2 pi h_l |Delta|^2 / (3 (N+1)^2 eps^2 M) + 8 pi (h_l - h_s) / (h_s M),

which the quadrature route must reproduce within 10%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import BubbleParams, bubble_density, eval_bubble, peak_grading
from .errors import InteractionMismatchError, KernelFitError
from .kernels import kernel_functions
from .numerics import QuadratureSpec, integrate_disk, integrate_plane


@dataclass(frozen=True)
class InteractionParams:
    """Parameters of a pair of interacting bubbles sharing the singularity order."""

    N: int
    mu_s: float
    mu_l: float
    p_s: complex
    p_l: complex
    h_s: float
    h_l: float
    M: float
    beta_s: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("interaction needs N >= 1 (several maxima)")
        if self.h_s <= 0 or self.h_l <= 0:
            raise ValueError("coefficients h must be positive")
        if abs(self.h_l - self.h_s) > min(self.h_s, self.h_l):
            raise ValueError("h values must stay comparable")
        if self.M <= 0:
            raise ValueError("normalizer M must be positive")
        eps = self.eps
        if abs(self.p_s) > 1e3 * eps * self.M or abs(self.p_l) > 1e3 * eps * self.M:
            raise ValueError("offsets p must be O(eps M)")

    @property
    def eps(self) -> float:
        return math.exp(-self.mu_s / 2.0)

    @property
    def delta_p(self) -> complex:
        return self.p_s - self.p_l

    @property
    def theta_sl(self) -> float:
        d = self.delta_p
        return math.atan2(d.imag, d.real) if d != 0 else 0.0

    @property
    def Q_s(self) -> complex:
        return (1.0 + self.p_s) ** (1.0 / (self.N + 1)) * np.exp(1j * self.beta_s)

    def bubble_s(self) -> BubbleParams:
        return BubbleParams(N=self.N, mu=self.mu_s, p=self.p_s, h=self.h_s)

    def bubble_l(self) -> BubbleParams:
        return BubbleParams(N=self.N, mu=self.mu_l, p=self.p_l, h=self.h_l)


@dataclass
class Decomposition:
    phi1: float
    phi2: float
    phi3: float
    phi4: float
    B: float
    remainder: float


def _fields(params: InteractionParams, z):
    z = np.asarray(z, dtype=complex)
    eps = params.eps
    w = z + 0.5 * params.N * eps * z * z * np.exp(-1j * params.beta_s)
    B = 1.0 + params.h_s / 8.0 * np.abs(w) ** 2
    dmu = params.mu_s - params.mu_l
    dlt = params.delta_p
    phi1 = dmu * (1.0 - params.h_s / 8.0 * np.abs(w) ** 2) / B
    phi2 = (params.h_s / (2.0 * (params.N + 1) * eps)) \
        * (w * np.conj(dlt) * np.exp(-1j * params.beta_s)).real / B
    ang = np.angle(z)
    phi3 = (params.h_s * abs(dlt) ** 2 / (4.0 * (params.N + 1) ** 2 * eps ** 2 * B)
            * (1.0 - params.h_s * np.abs(z) ** 2
               * (1.0 + np.cos(2.0 * ang - 2.0 * params.theta_sl - 2.0 * params.beta_s))
               / (8.0 * B)))
    phi4 = (params.h_s / 4.0) * ((params.h_l - params.h_s) / params.h_l) * np.abs(w) ** 2 / B
    return phi1, phi2, phi3, phi4, B, w


def decompose_difference(params: InteractionParams, z) -> Decomposition:
    """Evaluate the four decomposition fields and the exact remainder at z."""
    eps = params.eps
    if abs(z) > 0.5 / eps:
        raise ValueError("rescaled point must satisfy |z| <= 0.5/eps")
    phi1, phi2, phi3, phi4, B, _ = _fields(params, z)
    y = params.Q_s + eps * complex(z)
    diff = eval_bubble(params.bubble_s(), y) - eval_bubble(params.bubble_l(), y)
    rem = diff - (phi1 + phi2 + phi3 + phi4)
    return Decomposition(phi1=float(phi1), phi2=float(phi2), phi3=float(phi3),
                         phi4=float(phi4), B=float(B), remainder=float(rem))


# ----------------------------------------------------------------------------
# moment integrals

def moment_integrals(params: BubbleParams, spec: QuadratureSpec):
    """(I0, I1): the two vanishing bubble moments.

    I0 = int (1-q)/(1+q)^3 |z|^2N dz with q the bubble quadratic form,
    I1 = int c (z^(N+1) - 1 - p) |z|^2N / (1+q)^3 dz (complex; both parts vanish).
    The rings are graded toward the bubble's maxima, where both integrands peak.
    """
    c = params.coefficient
    off = 1.0 + params.p

    def integrand(z):
        zz = z ** (params.N + 1) - off
        q = c * np.abs(zz) ** 2
        w = np.abs(z) ** (2 * params.N) / (1.0 + q) ** 3
        i1 = c * zz * w
        return np.stack([(1.0 - q) * w, i1.real, i1.imag])

    i0, i1_re, i1_im = integrate_plane(integrand, spec, peaks=peak_grading(params))
    return float(i0), complex(i1_re, i1_im)


def second_moment(spec: QuadratureSpec) -> float:
    """I2 = int z1^2 / (1 + |z|^2/8)^3 dz = 16 pi, the fixed moment beside I0 and I1."""
    return integrate_plane(lambda z: z.real ** 2 / (1.0 + np.abs(z) ** 2 / 8.0) ** 3, spec)


# ----------------------------------------------------------------------------
# interaction coefficient

def closed_form_interaction(params: InteractionParams) -> float:
    """Closed-form D_sl (derivation in the module docstring)."""
    eps = params.eps
    sep = (2.0 * math.pi / 3.0) * params.h_l * abs(params.delta_p) ** 2 \
        / ((params.N + 1) ** 2 * eps ** 2 * params.M)
    coef = 8.0 * math.pi * (params.h_l - params.h_s) / (params.h_s * params.M)
    return sep + coef


@dataclass
class InteractionQuadrature:
    closed_form: float
    quadrature: float
    phi1_integral: float
    phi2_integral: float

    @property
    def relative_gap(self) -> float:
        scale = max(abs(self.closed_form), abs(self.quadrature), 1e-300)
        return abs(self.closed_form - self.quadrature) / scale


def interaction_coefficient(params: InteractionParams,
                            spec: QuadratureSpec) -> InteractionQuadrature:
    """Closed form D_sl versus quadrature of the phi3 + phi4 contribution.

    The quadrature integrates (phi3 + phi4) h_l |y|^2N eps^2 e^{V_s} / M over
    |z| <= 0.5/eps; the phi1 and phi2 contributions are integrated as well and
    must stay eps-sized (the vanishing bubble moments).  Closed form and
    quadrature within 10% whenever eps <= 1e-3 and |mu_s - mu_l| <= eps;
    disagreement beyond that raises InteractionMismatchError.
    """
    eps = params.eps
    bubble_s = params.bubble_s()
    Q_s = params.Q_s
    radius = 0.5 / eps

    def kernel(z):
        return bubble_density(bubble_s, Q_s + eps * z, params.h_l) * eps ** 2 / params.M

    def integrand(z):
        phi1, phi2, phi3, phi4, _, _ = _fields(params, z)
        return np.stack([phi3 + phi4, phi1, phi2]) * kernel(z)

    # in z the peak sits at 0 with width 1
    quad, i1, i2 = (float(v) for v in
                    integrate_disk(integrand, 0j, radius, spec, peak=(0j, 1.0)))
    closed = closed_form_interaction(params)
    result = InteractionQuadrature(closed_form=closed, quadrature=quad,
                                   phi1_integral=i1, phi2_integral=i2)
    applicable = eps <= 1e-3 and abs(params.mu_s - params.mu_l) <= eps
    if applicable and closed != 0.0 and result.relative_gap > 0.10:
        raise InteractionMismatchError(
            f"interaction mismatch: closed form {closed:.6e} vs quadrature {quad:.6e}")
    return result


# ----------------------------------------------------------------------------
# kernel coefficients (first-order translation directions)

def kernel_coefficients(params: InteractionParams):
    """(c1, c2) = |Delta| (cos, sin)(beta_s + theta_sl) / (2 (N+1) M eps)."""
    eps = params.eps
    amp = abs(params.delta_p) / (2.0 * (params.N + 1) * params.M * eps)
    ang = params.beta_s + params.theta_sl
    return amp * math.cos(ang), amp * math.sin(ang)


def fit_kernel_coefficients(params: InteractionParams):
    """Least-squares fit of phi2/M against the two translation kernels.

    Samples phi2/M on a 24 x 32 polar grid over 0.5 <= |z| <= 20 and fits
    c1 phi1_kernel + c2 phi2_kernel with the kernels at c = h_s/8.  The fit
    must recover the closed form within a few percent; a residual above 10% of
    the fit norm raises KernelFitError.
    """
    residual_cap = 0.10
    rr = np.linspace(0.5, 20.0, 24)
    tt = 2.0 * math.pi * np.arange(32) / 32
    z = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
    _, phi2, _, _, _, _ = _fields(params, z)
    samples = phi2 / params.M
    _, k1, k2 = kernel_functions(z, params.h_s / 8.0)
    Amat = np.stack([k1, k2], axis=1)
    coef = np.linalg.lstsq(Amat, samples, rcond=None)[0]
    fit_norm = float(np.linalg.norm(Amat @ coef))
    resid = float(np.linalg.norm(Amat @ coef - samples))
    if fit_norm > 0 and resid > residual_cap * fit_norm:
        raise KernelFitError(
            f"kernel fit failed: residual {resid:.3e} exceeds {residual_cap} of norm {fit_norm:.3e}")
    return float(coef[0]), float(coef[1])
