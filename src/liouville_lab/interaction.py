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

which the report's records compare with the quadrature route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import (
    BubbleParams,
    _kernel_terms,
    bubble_density,
    density_peak,
    eval_bubble,
    find_maxima,
    peak_width,
)
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
        return peak_width(self.mu_s)

    @property
    def delta_p(self) -> complex:
        return self.p_s - self.p_l

    @property
    def theta_sl(self) -> float:
        d = self.delta_p
        return math.atan2(d.imag, d.real) if d != 0 else 0.0

    @property
    def Q_s(self) -> complex:
        return find_maxima(self.bubble_s())[0] * np.exp(1j * self.beta_s)

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
    remainder: float


def _rescaled(params: InteractionParams, z):
    """z, z^2, w, |w|^2 and B at the rescaled points z, the part the four
    fields share.  |w|^2 is a sum of squares, so no point needs a modulus."""
    z = np.asarray(z, dtype=complex)
    zz = z * z
    w = z + (0.5 * params.N * params.eps * np.exp(-1j * params.beta_s)) * zz
    w2 = w.real * w.real + w.imag * w.imag
    return z, zz, w, w2, 1.0 + (params.h_s / 8.0) * w2


def _translation_fields(params: InteractionParams, z):
    """phi1 and phi2 at the rescaled points z, by products."""
    _, _, w, w2, B = _rescaled(params, z)
    tilt = np.conj(params.delta_p) * np.exp(-1j * params.beta_s)
    phi1 = (params.mu_s - params.mu_l) * (1.0 - (params.h_s / 8.0) * w2) / B
    phi2 = ((params.h_s / (2.0 * (params.N + 1) * params.eps))
            * (w.real * tilt.real - w.imag * tilt.imag) / B)
    return phi1, phi2


def _separation_fields(params: InteractionParams, z):
    """phi3 and phi4 at the rescaled points z, by products.

    The angular factor |z|^2 (1 + cos(2 arg z - 2 theta_sl - 2 beta_s)) is
    |z|^2 + Re(z^2 e^{-2i(theta_sl + beta_s)}), so no point needs an angle, a
    cosine or a division by |z|, and z = 0 is exact.
    """
    z, zz, _, w2, B = _rescaled(params, z)
    turn = np.exp(-2j * (params.theta_sl + params.beta_s))
    angular = z.real * z.real + z.imag * z.imag + zz.real * turn.real - zz.imag * turn.imag
    phi3 = (params.h_s * abs(params.delta_p) ** 2 / (4.0 * (params.N + 1) ** 2 * params.eps ** 2)
            * (1.0 - (params.h_s / 8.0) * angular / B) / B)
    phi4 = (params.h_s / 4.0) * ((params.h_l - params.h_s) / params.h_l) * w2 / B
    return phi3, phi4


def _fields(params: InteractionParams, z):
    """phi1..phi4 at the rescaled points z."""
    return (*_translation_fields(params, z), *_separation_fields(params, z))


def decompose_difference(params: InteractionParams, z) -> Decomposition:
    """Evaluate the four decomposition fields and the exact remainder at z."""
    eps = params.eps
    if abs(z) > 0.5 / eps:
        raise ValueError("rescaled point must satisfy |z| <= 0.5/eps")
    phi1, phi2, phi3, phi4 = _fields(params, z)
    y = params.Q_s + eps * complex(z)
    diff = eval_bubble(params.bubble_s(), y) - eval_bubble(params.bubble_l(), y)
    rem = diff - (phi1 + phi2 + phi3 + phi4)
    return Decomposition(phi1=float(phi1), phi2=float(phi2), phi3=float(phi3),
                         phi4=float(phi4), remainder=float(rem))


# ----------------------------------------------------------------------------
# moment integrals

def moment_integrals(params: BubbleParams, spec: QuadratureSpec):
    """(I0, I1): the two vanishing bubble moments.

    I0 = int (1-q)/(1+q)^3 |z|^2N dz with q the bubble quadratic form,
    I1 = int c (z^(N+1) - 1 - p) |z|^2N / (1+q)^3 dz (complex; both parts vanish).
    The rings are graded toward the bubble's maxima, where both integrands peak.
    The pieces F = z^(N+1) - 1 - p, q = c|F|^2 and |z|^2N come by products
    from ``bubbles._kernel_terms`` and (1+q)^3 is d*d*d, so a point costs one
    division and no transcendental call.  The three components are written
    into one (3, n) array, whose rows also hold 1+q, d^3 and w = |z|^2N / d^3
    on the way, so a call allocates nothing beyond it and the kernel terms.
    """
    c = params.coefficient

    def integrand(z):
        F, q, weight = _kernel_terms(params, z)
        out = np.empty((3,) + q.shape)
        i0, re, w = out
        np.subtract(1.0, q, out=i0)
        q += 1.0                        # d = 1 + q
        np.multiply(q, q, out=w)
        w *= q
        np.divide(weight, w, out=w)
        i0 *= w
        w *= c
        np.multiply(F.real, w, out=re)
        w *= F.imag
        return out

    i0, i1_re, i1_im = integrate_plane(integrand, spec, peak=density_peak(params))
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


def _against_kernel(params: InteractionParams, fields, spec: QuadratureSpec):
    """int over |z| <= 0.5/eps of fields(z) h_l |y|^2N eps^2 e^{V_s} / M, y = Q_s + eps z.

    The one home of the bubble kernel in the rescaled variable z: ``fields``
    maps points z to one value or a stack of values per point.
    """
    eps = params.eps
    bubble_s = params.bubble_s()
    Q_s = params.Q_s

    def integrand(z):
        return fields(z) * (bubble_density(bubble_s, Q_s + eps * z, params.h_l)
                            * eps ** 2 / params.M)

    # in z the peak sits at 0 with width 1
    return integrate_disk(integrand, 0j, 0.5 / eps, spec, peak=(0j, 1.0))


def interaction_coefficient(params: InteractionParams, spec: QuadratureSpec) -> float:
    """D_sl by quadrature of the phi3 + phi4 contribution against the bubble kernel.

    The report's interaction records compare it with ``closed_form_interaction``.
    """
    def separation(z):
        phi3, phi4 = _separation_fields(params, z)
        return phi3 + phi4

    return float(_against_kernel(params, separation, spec))


def moment_contributions(params: InteractionParams, spec: QuadratureSpec) -> tuple[float, float]:
    """The phi1 and phi2 integrals against the kernel of ``interaction_coefficient``.

    Both should stay eps-sized (the vanishing bubble moments); the report's
    moment records bound them.
    """
    def translation(z):
        return np.stack(_translation_fields(params, z))

    i1, i2 = _against_kernel(params, translation, spec)
    return float(i1), float(i2)


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
    c1 phi1_kernel + c2 phi2_kernel with the kernels at c = h_s/8.  Returns
    (c1, c2, residual / fit norm); the report's kernel-fit records judge them.
    """
    rr = np.linspace(0.5, 20.0, 24)
    tt = 2.0 * math.pi * np.arange(32) / 32
    z = (rr[:, None] * np.exp(1j * tt[None, :])).ravel()
    phi2 = _translation_fields(params, z)[1]
    samples = phi2 / params.M
    _, k1, k2 = kernel_functions(z, params.h_s / 8.0)
    Amat = np.stack([k1, k2], axis=1)
    coef = np.linalg.lstsq(Amat, samples, rcond=None)[0]
    resid = float(np.linalg.norm(Amat @ coef - samples) / np.linalg.norm(Amat @ coef))
    return float(coef[0]), float(coef[1]), resid
