"""Harmonic layers and the boundary-layer coefficient field.

Every harmonic function here is one polynomial phi = Re F(y) with
F(y) = sum_n c_n y^n, stored as its complex coefficients c.  In polar form
phi = sum r^n (a_n cos n theta + b_n sin n theta) with c_n = a_n - i b_n, and
its gradient is conj F'(y).  A trace on the circle of radius rho is stored as
its ``circle_fourier`` coefficients, so its harmonic extension is
Re F(y / rho).  From the bubble's own boundary trace the oscillation-killing
data c_{n,v} are extracted; the layer field

    phi0(y) = Phi(delta y) - phi_v(delta y) = Re sum delta^n (c_n - c_{n,v}) y^n

lives on B(0, 1/delta), carries the coefficient field h0 = e^{phi0} with
h0(0) = 1, and the scale

    delta* = sum_{n<=L} delta^n (|a_n - a_{n,v}| + |b_n - b_{n,v}|).

At the N+1 roots of unity the gradient conj F'(y) gives the dichotomy: it is
comparable to delta* at at least one root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from .bubbles import BubbleParams, eval_bubble, roots_of_unity
from .errors import DegenerateLayerError
from .numerics import circle_fourier, sample_circle


def bubble_oscillation_killer(params: BubbleParams, delta: float) -> np.ndarray:
    """The oscillation data c_{n,v} of the bubble trace on the circle of radius 1/delta.

    They are the mean-removed ``circle_fourier`` coefficients of modes up to
    64, from 2048 samples of the trace; in monomial normalisation
    c_{n,v} delta^n the leading entries are 4 delta^(2N+2) at mode N+1 and
    2 delta^(4N+4) at mode 2N+2.
    """
    if delta > 0.1:
        raise ValueError("oscillation extraction requires the far-field regime delta <= 0.1")
    if params.p != 0:
        raise ValueError("oscillation extraction is stated for the centered bubble (p = 0)")
    vals = sample_circle(lambda z: eval_bubble(params, z), 0j, 1.0 / delta, 2048)
    coeffs = circle_fourier(vals, 64)
    coeffs[0] = 0.0   # remove the mean
    return coeffs


@dataclass
class LayerField:
    """Harmonic layer phi0 = Re sum c_n y^n on B(0, 1/delta) with its scale delta*.

    N fixes the N+1 roots of unity where ``grad_h_at_roots`` reads the layer.
    """

    N: int
    c: np.ndarray          # monomial coefficients of phi0 in y, c[0] = 0
    delta_star: float

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        if self.c.size and self.c[0] != 0:
            raise ValueError("phi0 must vanish at the origin (zero-mean data)")
        if self.delta_star <= 0:
            raise ValueError("delta* must be positive")

    def phi0(self, y) -> float | np.ndarray:
        out = polyval(np.asarray(y, dtype=complex), self.c).real
        return float(out) if out.ndim == 0 else out

    def phi0_gradient(self, y):
        """Cartesian gradient (Re g, Im g) with g = conj F'(y), F = sum c_n y^n."""
        g = np.conj(polyval(np.asarray(y, dtype=complex), polyder(self.c)))
        if g.ndim == 0:
            return float(g.real), float(g.imag)
        return g.real, g.imag

    def h0(self, y):
        """Coefficient field e^{phi0}; h0(0) = 1 exactly."""
        return np.exp(self.phi0(y))


def build_layer(Phi, params: BubbleParams, delta: float, L: int) -> LayerField:
    """Assemble the layer field from unit-circle data Phi and the bubble trace.

    Phi holds the data's ``circle_fourier`` coefficients on |y| = 1.  delta*
    is ``layer_scale`` of the coefficients in y.  When Phi vanishes identically
    the scale falls back to delta^(2N+2); if additionally the bubble trace
    carries no oscillation the layer is degenerate.
    """
    Phi = np.asarray(Phi, dtype=complex)
    if abs(Phi[0]) > 1e-14:
        raise ValueError("Phi must have zero mean")
    if L >= Phi.size:
        raise ValueError("L must not exceed the data's mode count")
    killer = bubble_oscillation_killer(params, delta)

    c = np.zeros(max(Phi.size, killer.size), dtype=complex)
    c[:Phi.size] = Phi
    c[:killer.size] -= killer

    c = c * delta ** np.arange(c.size, dtype=float)
    delta_star = float(layer_scale(c, L))

    if not np.any(Phi):
        if np.all(np.abs(killer.real) <= 1e-15) and np.all(np.abs(killer.imag) <= 1e-15):
            raise DegenerateLayerError("degenerate layer: no boundary data and no bubble trace")
        delta_star = delta ** (2 * params.N + 2)

    if delta_star == 0.0:
        raise DegenerateLayerError("degenerate layer: all retained coefficient gaps vanish")

    return LayerField(N=params.N, c=c, delta_star=delta_star)


def layer_scale(c, L: int):
    """delta* = sum_{n=1..L} |a_n| + |b_n| of monomial coefficients c_n = a_n - i b_n,
    along the last axis."""
    c = np.asarray(c, dtype=complex)[..., 1:L + 1]
    return np.sum(np.abs(c.real) + np.abs(c.imag), axis=-1)


def layer_from_coefficients(N: int, L: int, c) -> LayerField:
    """Layer field from explicit monomial coefficients c (c[0] = 0), with
    delta* = ``layer_scale(c, L)``.  The coefficients are taken in y, so any
    powers of delta are already in them."""
    c = np.asarray(c, dtype=complex)
    return LayerField(N=N, c=c, delta_star=float(layer_scale(c, L)))


# the least max-root gradient ratio |grad phi0| / delta* that certifies the dichotomy
DICHOTOMY_THRESHOLD = 0.05


@dataclass
class DichotomyResult:
    index: int
    gradients: np.ndarray    # complex gx + i gy per root
    ratio: float             # max_s |grad phi0(root_s)| / delta*
    ratios: np.ndarray


def root_gradients(N: int, c, delta_star):
    """grad phi0 at the N+1 roots of unity for a stack of layers, and their ratios.

    Row k of ``c`` holds the monomial coefficients of one layer (c[k, 0] = 0)
    and ``delta_star[k]`` its scale.  Returns ``(g, ratios)``, both of shape
    (k, N+1): g = conj F'(root) = gx + i gy, and |grad phi0| / delta*.  One
    ``polyder`` along the rows and one Horner pass of ``polyval`` over all
    rows do for each layer the arithmetic of ``LayerField.phi0_gradient``,
    in its order, so a stack of one is that layer's gradient bitwise.
    """
    c = np.asarray(c, dtype=complex)
    g = np.conj(polyval(roots_of_unity(N), polyder(c, axis=1).T, tensor=True))
    ratios = np.hypot(g.real, g.imag) / np.asarray(delta_star, dtype=float).reshape(-1, 1)
    return g, ratios


def grad_h_at_roots(layer: LayerField) -> DichotomyResult:
    """Gradient of h0 at the N+1 roots of unity (N = layer.N) and the dichotomy ratio.

    The ratio uses grad phi0 (the h0 factor is 1 + O(delta*)), so it is
    exactly invariant under rescaling the layer.  It is returned whatever its
    size; the report's records compare it with ``DICHOTOMY_THRESHOLD``.
    """
    g, ratios = root_gradients(layer.N, layer.c[None, :], layer.delta_star)
    g, ratios = g[0], ratios[0]
    h = layer.h0(roots_of_unity(layer.N))
    s = int(np.argmax(ratios))
    # grad h0 = h0 grad phi0
    return DichotomyResult(index=s, gradients=h * g.real + 1j * (h * g.imag),
                           ratio=float(ratios[s]), ratios=ratios)
