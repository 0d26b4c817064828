"""Kernel of the linearized Liouville operator and per-mode fundamental solutions.

The linearization of Delta u + h e^u = 0 at the planar bubble with constant
c = h/8 is Delta phi + 8c/(1 + c|z|^2)^2 phi = 0.  Its kernel is spanned by

    phi0 = (1 - c|z|^2)/(1 + c|z|^2),   phi1 = z1/(1 + c|z|^2),
    phi2 = z2/(1 + c|z|^2).

Per Fourier mode l the radial operator is

    L_l g = g'' + g'/r + (8c/(1+c r^2)^2 - l^2/r^2) g,

with a closed-form fundamental pair for every l, returned as values by
``fundamental_pair``: for l = 0, 1 the second solution comes from reduction of
order, and for l >= 2 both solutions are r^(+-l) times a rational function of
c r^2.  The mode problems are posed at c = 1/8 (h = 1) on 0 < r <= 100: c only
rescales r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnresolvedSpectrumError
from .radial import RadialProfile


# bubble constant c = h/8 and outer radius of the mode problems
MODE_C = 0.125
MODE_R_MAX = 100.0


def potential(r, c: float):
    return 8.0 * c / (1.0 + c * np.asarray(r, dtype=float) ** 2) ** 2


def kernel_functions(z, c: float):
    """(phi0, phi1, phi2) at z."""
    z = np.asarray(z, dtype=complex)
    s = c * np.abs(z) ** 2
    phi0 = (1.0 - s) / (1.0 + s)
    phi1 = z.real / (1.0 + s)
    phi2 = z.imag / (1.0 + s)
    return phi0, phi1, phi2


def kernel_laplacians(z, c: float):
    """Closed-form Laplacians of the three kernel functions.

    Derived termwise (not through the ODE), so that
    kernel_residual = Delta phi + 8c/(1+c|z|^2)^2 phi is a genuine
    cancellation check.
    """
    z = np.asarray(z, dtype=complex)
    s = c * np.abs(z) ** 2
    lap0 = 8.0 * c * (s - 1.0) / (1.0 + s) ** 3
    lap1 = -8.0 * c * z.real / (1.0 + s) ** 3
    lap2 = -8.0 * c * z.imag / (1.0 + s) ** 3
    return lap0, lap1, lap2


def kernel_residuals(z, c: float):
    """Delta phi_i + 8c/(1+c|z|^2)^2 phi_i for i = 0, 1, 2."""
    phis = kernel_functions(z, c)
    laps = kernel_laplacians(z, c)
    v = potential(np.abs(np.asarray(z, dtype=complex)), c)
    return tuple(l + v * p for l, p in zip(laps, phis))


# ----------------------------------------------------------------------------
# fundamental pairs

def fundamental_pair(mode: int, r):
    """Fundamental system (g1, g2) of mode l at the radii r, as arrays, for
    0 <= l <= 64.  With c = MODE_C and s = c r^2:

        l = 0:   g1 = (1 - s)/(1 + s),       g2 = g1 log(s)/2 + 2/(1 + s),
        l = 1:   g1 = r/(1 + s),             g2 = g1 (-1/(2r^2) + 2c log r + c^2 r^2/2),
        l >= 2:  g1 = r^l (1 + a s)/(1 + s), g2 = r^-l (1 + s/a)/(1 + s),

    with a = (l - 1)/(l + 1).  For l = 0, 1 the second solution is reduction
    of order in closed form, smooth through the zero of g1 at r = 1/sqrt(c)
    for l = 0.  The normalisation fixes the Wronskian r (g1 g2' - g1' g2): 1
    for l = 0 (g1 -> 1, g2 ~ log(sqrt(c) r) at 0) and l = 1 (g1 ~ r,
    g2 ~ -1/(2r)), and -2l for l >= 2 (g1 ~ r^l, g2 ~ r^-l).
    """
    if not 0 <= mode <= 64:
        raise ValueError("mode must lie in 0..64")
    c = MODE_C
    r = np.asarray(r, dtype=float)
    s = c * r ** 2
    if mode == 0:
        g1 = (1.0 - s) / (1.0 + s)
        return g1, g1 * 0.5 * np.log(s) + 2.0 / (1.0 + s)
    if mode == 1:
        g1 = r / (1.0 + s)
        return g1, g1 * (-0.5 / r ** 2 + 2.0 * c * np.log(r) + 0.5 * c ** 2 * r ** 2)
    a = (mode - 1.0) / (mode + 1.0)
    return r ** mode * (1.0 + a * s) / (1.0 + s), r ** -mode * (1.0 + s / a) / (1.0 + s)


# ----------------------------------------------------------------------------
# variation-of-parameters mode solve with growth certificate

@dataclass
class ModeSolution:
    """Mode solution on its radii with its growth certificate."""

    grid: np.ndarray
    values: np.ndarray
    certificate: float   # sup_r |g(r)| / bound(r)


# the record branch/mode-certificate bounds the certificate sup |g| / bound by this
CERTIFICATE_THRESHOLD = 50.0


def mode_solve(mode: int, rhs: Callable) -> ModeSolution:
    """Variation-of-parameters solution of L_l g = rhs with growth certificate.

    Modes 0 and 1 take zero value and derivative at r = 0; modes >= 2 vanish
    at r = 100.  The certificate reports sup_r |g| / bound(r) over 4000
    geometric radii, with bound A log(2+r), A (1+r), or A/l^2 respectively and
    A = max |rhs| (1+r)^3.  It is returned whatever its size; the record
    branch/mode-certificate compares it with CERTIFICATE_THRESHOLD.  The
    Wronskian w0 = r (g1 g2' - g1' g2) is the pair's closed-form constant (see
    ``fundamental_pair``): 1 for modes 0 and 1, -2l for l >= 2.
    """
    from scipy.integrate import cumulative_trapezoid

    r = np.geomspace(1e-4, MODE_R_MAX, 4000)
    f = np.asarray(rhs(r), dtype=float)
    envelope = max(float(np.max(np.abs(f) * (1.0 + r) ** 3)), 1e-300)
    g1, g2 = fundamental_pair(mode, r)
    w0 = 1.0 if mode <= 1 else -2.0 * mode

    int_g1f = cumulative_trapezoid(g1 * f * r, r, initial=0.0)
    int_g2f = cumulative_trapezoid(g2 * f * r, r, initial=0.0)
    if mode <= 1:
        vals = (g2 * int_g1f - g1 * int_g2f) / w0
    else:
        outer = int_g2f[-1] - int_g2f
        vals = (g2 * int_g1f + g1 * outer) / w0
        vals = vals - vals[-1] / g1[-1] * g1

    if mode == 0:
        bound = envelope * np.log(2.0 + r)
    elif mode == 1:
        bound = envelope * (1.0 + r)
    else:
        bound = envelope / mode ** 2
    return ModeSolution(grid=r, values=vals, certificate=float(np.max(np.abs(vals) / bound)))


# ----------------------------------------------------------------------------
# principal eigenvalue of the linearized mode operator on the unit disk

def _assemble_tridiagonal(profile: RadialProfile, mode: int, n: int):
    """Lumped-mass P1 discretization of
    -g'' - g'/r - (lambda r^2N e^u - mode^2/r^2) g on (0, 1), g(1) = 0, as
    the diagonal and off-diagonal of M^-1/2 K M^-1/2 (M the lumped mass)."""
    x = (np.arange(n + 1) / n) ** 2          # graded mesh clustering at r = 0
    h = np.diff(x)
    rm = 0.5 * (x[:-1] + x[1:])
    w_pot = mode ** 2 / rm ** 2 - profile.density(rm)

    # element e adds to nodes e and e + 1
    k = rm / h
    pe = 0.25 * (w_pot * rm * h)
    mass = 0.5 * rm * h
    diag = np.zeros(n + 1)
    diag[:-1] += k + pe
    diag[1:] += k + pe
    off = -k + pe
    lump = np.zeros(n + 1)
    lump[:-1] += mass
    lump[1:] += mass
    lo = 0 if mode == 0 else 1              # natural at 0 for mode 0, Dirichlet otherwise
    sl = slice(lo, n)                        # Dirichlet at r = 1
    scale = 1.0 / np.sqrt(lump[sl])
    return diag[sl] * scale ** 2, off[lo:n - 1] * scale[:-1] * scale[1:]


def _smallest_eig(profile: RadialProfile, mode: int, n: int, window) -> float:
    """Smallest eigenvalue of the scaled tridiagonal, by LAPACK's bisection
    on Sturm counts (``stebz``).

    With ``window`` None the bisection starts from the Gershgorin interval.
    With ``window = (lo, hi)`` one value-range call shows that no eigenvalue
    lies at or below lo (two Sturm counts, no bisection) and a second bisects
    only (lo, hi]; an eigenvalue at or below lo, or none in (lo, hi], raises
    UnresolvedSpectrumError.  Bisection costs one Sturm sweep per halving of
    its interval, so a window spares the halvings from the Gershgorin width
    (8e10 to 5e13 on the report's 2n-point meshes) down to the window's.

    The absolute tolerance is the smallest normal double, not the default
    eps * ||T||: the graded mesh makes the entries reach 3.5e13, and at the
    default tolerance (or with the default driver) the 2,048-point Bessel
    eigenvalue reads 5.78027 instead of 5.78318, 2.9e-3 low.
    """
    from scipy.linalg import eigh_tridiagonal

    d, e = _assemble_tridiagonal(profile, mode, n)

    def stebz(select, select_range):
        return eigh_tridiagonal(d, e, eigvals_only=True, select=select,
                                select_range=select_range, lapack_driver="stebz",
                                tol=np.finfo(float).tiny)

    if window is None:
        return float(stebz("i", (0, 0))[0])
    lo, hi = window
    below = stebz("v", (-np.inf, lo))
    inside = stebz("v", (lo, hi))
    if below.size or not inside.size:
        where = "an eigenvalue below" if below.size else "no eigenvalue in"
        raise UnresolvedSpectrumError(
            f"unresolved spectrum: {where} the window ({lo:.6g}, {hi:.6g}] at {n} points")
    return float(inside[0])


def principal_eigenvalue(profile: RadialProfile, mode: int, n: int = 512) -> float:
    """Smallest Dirichlet eigenvalue of the linearized mode operator.

    Bisection on a lumped-mass P1 discretization, on a mesh graded toward
    r = 0, of -g'' - g'/r - (lambda r^2N e^u - mode^2/r^2) g = Lambda g,
    g(1) = 0, about the family member ``profile``, which solves the radial
    equation by construction.  Raises UnresolvedSpectrumError if doubling
    the mesh moves the eigenvalue by more than 1e-3 relative.  The n-point
    solve bisects from the Gershgorin interval; the 2n-point one bisects
    only the window of values that can pass that test,
    coarse +- 1e-3 max(1, |coarse|)/(1 - 1e-3), and raises as well when its
    smallest eigenvalue lies outside it.
    """
    resolve_tol = 1e-3
    if mode < 0:
        raise ValueError("mode must be non-negative")
    coarse = _smallest_eig(profile, mode, n, None)
    # |fine - coarse| <= resolve_tol max(1, |fine|) implies fine lies within this of coarse
    half = resolve_tol * max(1.0, abs(coarse)) / (1.0 - resolve_tol)
    fine = _smallest_eig(profile, mode, 2 * n, (coarse - half, coarse + half))
    if abs(fine - coarse) > resolve_tol * max(1.0, abs(fine)):
        raise UnresolvedSpectrumError(
            f"unresolved spectrum: eigenvalue moved {abs(fine - coarse):.2e} under refinement")
    return fine
