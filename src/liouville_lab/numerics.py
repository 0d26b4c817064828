"""Shared numerical substrate.

Adaptive quadrature on intervals, disks, circles and the whole plane; discrete
Fourier analysis on circles into complex coefficients c_n, the trace of the
harmonic polynomial Re sum c_n y^n on the unit circle; an adaptive ODE
integrator; small dense linear algebra with singular-value diagnostics.

One adaptive rule integrates intervals, disks and planes: a panel rule with
QUADPACK's qk21 constants, the 10-point Gauss and 21-point Kronrod rules.  It
stops when, for every component, the panels' error estimates sum to within
the tolerance (QUADPACK's global test), or when every panel above its share
of the tolerance is at its roundoff floor; else it bisects those not at it,
up to 200 panels.  Disk and plane integrals are nested: the panel rule runs
over the radius (or the compactified radius), from first panels that one
rule places at a hinted peak, and over each ring runs a nested adaptive
trapezoid rule, on one sector of
angle 2 pi/K when a plane's peak hint declares K-fold symmetry.  Each
generation of panels gets all the ring means of its nodes from one
``_circle_mean`` call, which at each doubling evaluates the integrand on the
rings not yet converged, in batches of at most ``RING_BATCH_POINTS`` points:
large enough that the fixed cost of a call is spread over many points, and
small enough that the allocator reuses a call's freed arrays instead of
faulting them in again (see its comment).
A disk call given nested radii about one centre integrates them all in one
pass, the inner radii being edges of the first panels.

Numbers that no caller varies (the panel budget, the plane
compactification scale, the ring tolerance fraction and the ODE method,
LSODA) are constants written beside their use, like the scenario constants.

The module imports only numpy; the ODE integrator imports scipy's LSODA
(``odeint``) on first use, so a run that integrates no ODE never loads scipy.

Scalar fields are callables ``f(z)`` taking a complex number or a complex
ndarray and returning real values of the same shape.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NyquistError, QuadratureBudgetError, StiffODEError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for every quadrature routine in the package."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


# ----------------------------------------------------------------------------
# circle Fourier analysis

def circle_fourier(values: np.ndarray, n_max: int) -> np.ndarray:
    """Complex Fourier coefficients c[0..n_max] of uniform circle samples.

    The samples are read as sum_n Re(c_n e^(i n theta)), so c_n = a_n - i b_n
    for the trace sum_n (a_n cos n theta + b_n sin n theta), and c_0 is the
    mean.  The harmonic function with this trace on the unit circle is
    Re sum_n c_n y^n.  Trapezoidal, so exact (up to aliasing) for band-limited
    data; requires at least 4*n_max samples.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if m < 4 * n_max:
        raise NyquistError(
            f"Nyquist violation: {m} samples cannot resolve n_max={n_max} (need >= {4 * n_max})")
    c = 2.0 * np.fft.rfft(values)[:n_max + 1] / m
    c[0] /= 2.0
    return c


def sample_circle(f, center: complex, radius: float, m: int) -> np.ndarray:
    theta = math.tau * np.arange(m) / m
    return np.asarray(f(center + radius * np.exp(1j * theta)), dtype=float)


# ----------------------------------------------------------------------------
# quadrature

def peak_beta(w):
    """Grading parameter for a peak of angular half-width w (see ``_ring_nodes``).

    min(1, 2w) rounded down to a power of two, so that the ring nodes cache;
    1 is the uniform rule.  Elementwise for an array of widths.
    """
    _, exponent = np.frexp(np.minimum(1.0, 2.0 * np.asarray(w, dtype=float)))
    return np.ldexp(0.5, exponent)


def _ring_nodes(m: int, odd: bool, K: int, beta: float):
    """Nodes exp(i theta_k) and weights of the m-point rule on one 2 pi/K sector.

    The integrand is taken to be K-fold symmetric about the ring's centre, so
    the m-point trapezoid rule over the sector [0, tau/K) gives the same mean
    as the Km-point rule over the whole circle.  x_k = tau k / m for
    k = 0..m-1, or for the odd k only.  With beta < 1 the angle
    theta = g(x) / K follows the Moebius circle map
    g(x) = 2 atan(beta tan(x/2)), continued so that g(x + tau) = g(x) + tau,
    which crowds the nodes toward the sector's start with width about beta;
    the weights are g'(x).  beta = 1 gives the nodes exp(i tau k / (K m)) and
    weights None (all ones).  K = 1 is the whole circle.
    """
    k = np.arange(1, m, 2) if odd else np.arange(m)
    if beta == 1.0:
        nodes, weights = np.exp(1j * math.tau * k / (K * m)), None
    else:
        x = math.tau * k / m
        s, c = np.sin(x), np.cos(x)
        theta = (x - 2.0 * np.arctan((1.0 - beta) * s / ((1.0 + beta) + (1.0 - beta) * c))) / K
        nodes = np.exp(1j * theta)
        weights = 2.0 * beta / ((1.0 + c) + beta * beta * (1.0 - c))
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _ring_table(m: int, odd: bool, K: int, betas: tuple):
    """The ``_ring_nodes`` rules of the sorted ``betas`` stacked, one row per beta.

    Returns nodes of shape (len(betas), n) and weights of that shape, ones in
    the rows of beta = 1, or None when ``betas`` is (1.0,): then the one row
    is the uniform rule.  The arrays are read-only and cached: only powers of
    two and power-of-two betas reach the cache.
    """
    tables = [_ring_nodes(m, odd, K, b) for b in betas]
    nodes = np.stack([n for n, _ in tables])
    nodes.flags.writeable = False
    if betas == (1.0,):
        return nodes, None
    weights = np.stack([np.ones(n.size) if w is None else w for n, w in tables])
    weights.flags.writeable = False
    return nodes, weights


# the most points one call of the integrand gets from _circle_mean: larger
# batches of rings are split by rows.  A freed heap top above glibc's trim
# threshold (mallopt(3)) goes back to the OS, and the next call faults it in
# again.  In a fresh interpreter that has run every scenario once, a second
# run faulted about 1,040 times on interaction and up to 870 on pohozaev at
# 8,192 points a call (124 and 0 with M_TRIM_THRESHOLD raised to 8 MiB), and
# at most 24 at 3,500, where a complex array such as z or F is 56,000
# bytes, under 64 KiB.  glibc raises its thresholds after freeing a large
# block, so the counts depend on heap history
RING_BATCH_POINTS = 3500

# the most points one ring gets: a mean not converged at this m raises
# QuadratureBudgetError
RING_MAX_POINTS = 1 << 20

# QUADPACK's roundoff floor 50 eps: no error test asks a mean of values f to
# move by less than this fraction of the mean of |f|
ROUNDOFF = 50.0 * np.finfo(float).eps


def _circle_mean(f, center: complex, r, rel_tol: float, abs_tol: float, grading=None):
    """Adaptive trapezoid averages of f over the circles of radii r about center.

    ``r`` is one radius or a 1-D array of them, one ring per row; the result
    has the shape of ``r`` (a float for one radius and a scalar f).  Every
    ring starts at m = 64 points and the rule is nested: when m doubles (up
    to ``RING_MAX_POINTS``, where a mean not yet converged raises) only the
    m/2 new odd-index points are evaluated and added to the running sum.  A
    mean has converged when it moved by at most max(abs_tol, rel_tol |mean|)
    in the last doubling, or by at most the roundoff floor ``ROUNDOFF``
    mean|f|, which QUADPACK's panel estimate has too.  Each doubling calls f
    on the points of all rows that have not yet converged, flattened to 1-D,
    in calls of at most
    ``RING_BATCH_POINTS`` points or of one row; a row whose mean has
    converged is not evaluated again.  A vector integrand returning shape
    (k, n) for n points gives k means per ring, converged only when every
    component is.

    ``grading = (K, psi0, beta)`` declares that f is K-fold symmetric about
    ``center``, f(center + e^(i tau/K) dz) = f(center + dz), with K equally
    spaced peaks at the angles (psi0 + tau j) / K.  Each ring then runs over
    the one sector of angle tau/K that starts at its peak: the trapezoid runs
    in x, with theta = (psi0 + g(x)) / K for the circle map g of
    ``_ring_nodes`` and each value weighted by g'(x).  K is shared; psi0 and
    beta may be one value per row.  The rule stays nested and spectral.
    beta = 1 is the uniform rule on the sector, and no grading the uniform
    rule on the whole circle.  The symmetry is not checked here.
    """
    shape = np.shape(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if grading is None:
        K, scale, betas, row_beta = 1, r, (1.0,), None
    else:
        K, psi0, beta = grading
        beta = np.broadcast_to(np.asarray(beta, dtype=float), r.shape)
        scale = np.where(beta != 1.0, r * np.exp(1j * np.asarray(psi0) / K), r)
        # the few distinct betas, sorted, and each row's index into them
        betas = tuple(sorted(set(beta.tolist())))
        row_beta = np.searchsorted(betas, beta)

    def ring_sums(m, odd, rows):
        nodes, weights = _ring_table(m, odd, K, betas)
        per_call = max(1, RING_BATCH_POINTS // nodes.shape[1])
        sums = abs_sums = None
        for start in range(0, rows.size, per_call):
            chunk = rows[start:start + per_call]
            # scale * nodes, then + center in place: this operand order keeps
            # the report's bits (nodes * scale moves the moments' last digits)
            if weights is None:
                z = scale[chunk, None] * nodes
            else:
                pick = row_beta[chunk]
                z = scale[chunk, None] * nodes[pick]
            if center:
                z += center
            values = np.asarray(f(z.ravel()))
            values = values.reshape(values.shape[:-1] + z.shape)
            if sums is None:
                sums = np.empty(values.shape[:-2] + rows.shape)
                abs_sums = np.empty_like(sums)
            part = slice(start, start + chunk.size)
            if weights is None:
                values.sum(axis=-1, out=sums[..., part])
                values = np.abs(values)   # f's own array stays untouched
            else:
                values = values * weights[pick]
                values.sum(axis=-1, out=sums[..., part])
                np.abs(values, out=values)
            values.sum(axis=-1, out=abs_sums[..., part])
        return sums, abs_sums

    def shaped(means):
        means = means.reshape(means.shape[:-1] + shape)
        return float(means) if means.ndim == 0 else means

    m = 64
    rows = np.arange(r.size)
    total, abs_total = ring_sums(m, False, rows)
    prev = total / m
    means = np.empty_like(prev)
    components = tuple(range(total.ndim - 1))
    while m < RING_MAX_POINTS:
        m *= 2
        odd, odd_abs = ring_sums(m, True, rows)
        total += odd
        abs_total += odd_abs
        cur = total / m
        err = np.abs(cur - prev)
        tol = np.maximum(np.maximum(abs_tol, rel_tol * np.abs(cur)), ROUNDOFF * abs_total / m)
        ok = np.all(err <= tol, axis=components)
        means[..., rows[ok]] = cur[..., ok]
        if ok.all():
            return shaped(means)
        rows, prev = rows[~ok], cur[..., ~ok]
        total, abs_total = total[..., ~ok], abs_total[..., ~ok]
    means[..., rows] = prev
    err, tol = err[..., ~ok], tol[..., ~ok]
    worst = np.unravel_index(np.argmax(err / tol), err.shape)
    raise QuadratureBudgetError(
        "quadrature budget exceeded: circle average did not converge",
        value=shaped(means), estimate=float(err[worst]), tolerance=float(tol[worst]))


# QUADPACK's qk21 rule (Piessens et al., QUADPACK, 1983): the 21 Kronrod
# abscissae on [-1, 1] in increasing order, their weights, and the weights of
# the 10-point Gauss rule, whose abscissae are every other Kronrod one (zero
# weight elsewhere, the midpoint included)
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208745109020, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_MID = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_GK_KRONROD = np.array(_WGK + (_WGK_MID,) + _WGK[::-1])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[19:10:-2] = _WG

# the panel rule stops with QuadratureBudgetError beyond this many panels
PANEL_BUDGET = 200

# each ring mean runs at this fraction of the outer tolerances, so that ring
# errors stay below what the outer quadrature resolves
RING_TOL_FRACTION = 0.1


def _gk21(values, half):
    """QUADPACK qk21 integral and error estimate of each panel.

    ``values`` has shape (k, P, 21): k components at the 21 nodes of P panels
    of half-widths ``half``.  The estimate is QUADPACK's: |K - G| scaled by
    resasc, the mean deviation of the integrand from its mean, as
    resasc min(1, (200 |K - G| / resasc)^1.5), and at least 50 eps resabs,
    the roundoff floor, which comes back as the third array.
    """
    resk = values @ _GK_KRONROD
    resabs = np.abs(values) @ _GK_KRONROD * half
    resasc = np.abs(values - 0.5 * resk[..., None]) @ _GK_KRONROD * half
    err = np.abs(resk - values @ _GK_GAUSS) * half
    spread = resasc > 0
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(spread, resasc, 1.0)) ** 1.5)
    err = np.where(spread, scaled, err)
    floor = ROUNDOFF * resabs
    return resk * half, np.maximum(err, floor), floor


def integrate_interval(f, edges, spec: QuadratureSpec):
    """Integral of f over edges[0]..edges[-1], by adaptive Gauss-Kronrod panels.

    ``f`` takes a 1-D array of points and returns their values, shape (n,)
    for a scalar integrand or (*k, n) for an array k of components.  The
    inner edges split the interval into the first panels.  Each generation
    calls f once, on the 21 qk21 nodes of its new panels; a held panel keeps
    its value, ``_gk21`` estimate and roundoff floor.  With tol_k = max(abs_tol, rel_tol |I_k|), I_k
    the sum of the n panels' values, the integral is done when for every k
    their estimates sum to at most tol_k (QUADPACK's global test).  Else the
    panels whose estimate of some k exceeds tol_k / n and their own roundoff
    floor are bisected; if there are none, the excess is roundoff and it is
    done.  More than ``PANEL_BUDGET`` panels raises QuadratureBudgetError.  A
    scalar f gives a float, a vector f the array of its integrals, shape k.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    held = ()
    while True:
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
        values = np.asarray(f(x.ravel()))
        shape = values.shape[:-1]
        new = (a, b, *_gk21(values.reshape(-1, *x.shape), half))
        held = tuple(np.concatenate(p, axis=-1) for p in zip(held, new)) if held else new
        a, b, value, err, floor = held
        total, total_err = value.sum(axis=-1), err.sum(axis=-1)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))
        split = np.any((err > tol[:, None] / a.size) & (err > floor), axis=0)
        result = float(total[0]) if not shape else total.reshape(shape)
        if np.all(total_err <= tol) or not split.any():
            return result
        if a.size + split.sum() > PANEL_BUDGET:
            worst = np.argmax(total_err / tol)
            raise QuadratureBudgetError(
                f"quadrature budget exceeded: more than {PANEL_BUDGET} panels",
                value=result, estimate=float(total_err[worst]), tolerance=float(tol[worst]))
        held = tuple(part[..., ~split] for part in held)
        a, b = a[split], b[split]
        mid = 0.5 * (a + b)
        a, b = np.column_stack([a, mid]).ravel(), np.column_stack([mid, b]).ravel()


def _rings(f, center: complex, spec: QuadratureSpec, substitution, grading):
    """The outer integrand x -> J(x) (ring mean of f at r(x)) of a disk or plane.

    ``substitution(x)`` gives the radii r(x) and the factors J(x); all the
    ring means of one call come from one ``_circle_mean`` call, at a tenth of
    the tolerances, graded by ``grading(r)`` unless ``grading`` is None.
    """
    rel_tol, abs_tol = spec.rel_tol * RING_TOL_FRACTION, spec.abs_tol * RING_TOL_FRACTION

    def outer(x):
        r, jacobian = substitution(x)
        return jacobian * _circle_mean(f, center, r, rel_tol, abs_tol,
                                       grading=None if grading is None else grading(r))

    return outer


def _peak_grading(q: complex, width: float, K: int, r):
    """Grading of the rings of radii r about 0 toward the K peaks where y^K = q.

    In rho = r^K and phi = K theta they are one peak at rho = s = |q|,
    phi = arg q, of radial width ``width``.  A ring passes it with angular
    half-width about w = sqrt(((rho - s)^2 + width^2) / (rho s)) in phi, so the
    rings get (K, arg q, peak_beta(w)), elementwise in r.  Where w >= 1/2,
    which includes a peak at the centre, that is the uniform rule (beta = 1,
    without dividing by rho s, which may underflow to 0); when no ring is
    graded this returns None.
    """
    q = complex(q)
    s = abs(q)
    rho = np.asarray(r, dtype=float) ** K
    near = (rho - s) ** 2 + width ** 2
    graded = 4.0 * near < rho * s
    if not graded.any():
        return None
    w = np.sqrt(near / np.where(graded, rho * s, 1.0))
    return K, math.atan2(q.imag, q.real), np.where(graded, peak_beta(w), 1.0)


# the half-decade geometric mesh of a peak's first edges, in peak widths on
# each side: a first panel that QUADPACK's bisection would split anyway
# throws its 21 ring means away, and a mesh graded toward the near-singular
# point keeps them (Schwab, p- and hp-FEM, 1998, ch. 4)
PEAK_MESH = (0.5, 5.0 / math.sqrt(10.0), 5.0, 5.0 * math.sqrt(10.0), 50.0)


def _peak_edges(s: float, width: float, end: float, *extra):
    """Inner first edges on [0, end] for a radial peak at s: those of s, of
    s - a width and s + a width for a in ``PEAK_MESH`` (width/2 to 50 width in
    half decades) and of ``extra`` strictly inside (0, end), sorted.  They
    include s - 5 width, s + 5 width and s + 50 width bit for bit."""
    candidates = (s, *(s - a * width for a in PEAK_MESH), *(s + a * width for a in PEAK_MESH),
                  *extra)
    return sorted({x for x in candidates if 0.0 < x < end})


def _disk_substitution(x):
    return x, math.tau * x


def integrate_disk(f, center: complex, radius, spec: QuadratureSpec, peak=None):
    """Integral of f over the closed disk B(center, radius), or over nested disks.

    ``f`` may return shape (k, m) for m points; the k integrals then come back
    as an array, sharing every ring mean.

    ``radius`` is one radius or a 1-D, strictly increasing sequence
    R_1 < ... < R_n.  A sequence gives the integrals over every B(center, R_j)
    from one pass over [0, R_n], as a trailing axis of length n: shape (n,)
    for a scalar f, (k, n) for a vector f.  The inner radii are edges of the
    first panels, so no panel straddles one; each ring mean is computed once,
    and radius R_j's component is that mean times (r <= R_j).  Each component
    then meets the panel rule's global test on its own.  A radius that is not
    finite and positive, or a sequence that does not increase, raises
    ValueError.

    ``peak = (q, width)``, when given, says that f peaks at q with radial width
    ``width``.  It sets both the grading of every ring (``_peak_grading`` of
    q - center with K = 1) and the first panels in the radius: the
    ``_peak_edges`` of s = |q - center| (s and a half-decade geometric mesh
    from width/2 to 50 width on each side), R_n / 2 and the inner radii split
    [0, R_n].  Without a peak the rings are uniform and the first panels are
    split at the inner radii only.
    """
    radii = np.atleast_1d(np.asarray(radius, dtype=float))
    if (radii.ndim != 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0))
            or np.any(np.diff(radii) <= 0)):
        raise ValueError(
            f"disk radius must be finite and positive, and a sequence of radii strictly "
            f"increasing; got {radius!r}")
    end, inner = float(radii[-1]), [float(r) for r in radii[:-1]]
    edges = [0.0, *inner, end]
    grading = None
    if peak is not None:
        q, width = peak
        d = complex(q) - center
        edges = [0.0, *_peak_edges(abs(d), width, end, 0.5 * end, *inner), end]
        grading = functools.partial(_peak_grading, d, width, 1)
    rings = _rings(f, center, spec, _disk_substitution, grading)
    if np.ndim(radius) == 0:
        return integrate_interval(rings, edges, spec)

    def nested(x):
        return rings(x)[..., None, :] * (x <= radii[:, None])

    return integrate_interval(nested, edges, spec)


def integrate_circle(f, center: complex, radius, spec: QuadratureSpec):
    """Line integral of f along the circle of the given radius.

    ``f`` may return shape (k, m) for m points; the k line integrals then come
    back as an array from one ring, converged when every component is.  A 1-D
    array of radii gives one line integral per radius, all rings from one
    ``_circle_mean`` batch: shape (n,) for a scalar f, (k, n) for a vector f.
    A radius that is not finite and positive raises ValueError.
    """
    radii = np.asarray(radius, dtype=float)
    if radii.ndim > 1 or radii.size == 0 or not np.all(np.isfinite(radii) & (radii > 0)):
        raise ValueError(f"circle radius must be finite and positive; got {radius!r}")
    if radii.ndim:
        radius = radii
    mean = _circle_mean(f, center, radius, spec.rel_tol, spec.abs_tol)
    return math.tau * radius * mean


# the plane's compactification scale s in t = |z|^2 / (s + |z|^2)
PLANE_SCALE = 8.0


def _plane_substitution(t):
    t = np.minimum(t, 1.0 - 1e-15)
    return np.sqrt(PLANE_SCALE * t / (1.0 - t)), np.pi * PLANE_SCALE / (1.0 - t) ** 2


# the relative asymmetry a K-peak hint tolerates: the plane callers' K-fold
# symmetric integrands measure at most 1e-13 on the probe ring (rounding in
# z^K, N = 1..3 and mu up to 60), while a 1e-3 asymmetry,
# bubble_density * (1 + 1e-3 x), measures 1.5e-3
SYMMETRY_TOL = 1e-8


def _check_symmetry(f, q, K):
    """Raise ValueError unless f(e^(i tau/K) z) = f(z) on the ring |z| = |q|^(1/K).

    The 64 probe points start half a step past the peak angle arg(q) / K, so
    that none lands on a peak (K < 128): there a steep f can be pure rounding
    of z^K - q, as the moments' I1 part is, 3e-7 of max|f| at mu = 20.
    """
    theta = math.atan2(q.imag, q.real) / K + math.tau * (np.arange(64) + 0.5) / 64
    z = abs(q) ** (1.0 / K) * np.exp(1j * theta)
    values = np.asarray(f(np.concatenate([z, z * np.exp(1j * math.tau / K)])))
    values = values.reshape(values.shape[:-1] + (2, 64))
    asymmetry = np.max(np.abs(values[..., 0, :] - values[..., 1, :]))
    if asymmetry > SYMMETRY_TOL * np.max(np.abs(values[..., 0, :])):
        raise ValueError(
            f"peak hint with K = {K} requires f to be {K}-fold symmetric about 0, "
            f"f(e^(i tau/{K}) z) = f(z); measured max|f(z) - f(e^(i tau/{K}) z)| = "
            f"{asymmetry:.3e}")


def integrate_plane(f, spec: QuadratureSpec, peak=None):
    """Improper integral of f over the plane.

    Uses the compactifying substitution t = |z|^2 / (s + |z|^2) with s = 8,
    under which
    integral f = int_0^1 (theta-average of f at r(t)) * pi * s / (1-t)^2 dt,
    integrated by the panel rule from the one panel [0, 1] without a peak.
    The integrand must decay at least like |z|^-4, so that the transformed
    integrand stays bounded.  Like ``integrate_disk``,
    a vector-valued ``f`` gives an array of integrals.  ``peak = (q, width, K)``,
    when given, says that f peaks at the K points where y^K = q and that f is
    K-fold symmetric, f(e^(i tau/K) z) = f(z).  It grades the rings toward the
    peaks (see ``_peak_grading``), and each graded ring averages over one
    sector of angle tau/K (see ``_circle_mean``).  As in ``integrate_disk``,
    [0, 1] is split at t(r) for the ``_peak_edges`` r of the peaks' radius
    |q|^(1/K), of radial width width / (K |q|^(1 - 1/K)): that radius and a
    half-decade geometric mesh from w/2 to 50 w on each side.  For K > 1 the symmetry is
    checked first on the 64 points of a ring through the peaks: if
    max|f(z) - f(e^(i tau/K) z)| exceeds ``SYMMETRY_TOL`` max|f(z)| this
    raises ValueError.
    """
    edges = [0.0, 1.0]
    grading = None
    if peak is not None:
        q, width, K = peak
        if K > 1:
            _check_symmetry(f, q, K)
        r_s = abs(q) ** (1.0 / K)
        w = width / (K * r_s ** (K - 1)) if r_s > 0 else width ** (1.0 / K)
        edges = [0.0, *(r * r / (PLANE_SCALE + r * r) for r in _peak_edges(r_s, w, math.inf)),
                 1.0]
        grading = functools.partial(_peak_grading, q, width, K)
    return integrate_interval(_rings(f, 0j, spec, _plane_substitution, grading), edges, spec)


# ----------------------------------------------------------------------------
# ODE integration

def ode_integrate(rhs, initial, r, spec: QuadratureSpec) -> np.ndarray:
    """States of y' = rhs(r, y), y(r[0]) = initial, at the increasing radii r.

    Returns shape (k, len(r)).  LSODA (scipy's ``odeint``) steps and
    interpolates in compiled code; an unsuccessful return, or a ValueError,
    OverflowError or FloatingPointError raised by rhs, is a StiffODEError
    carrying LSODA's message, and no ``ODEintWarning`` leaves the call.
    """
    from scipy.integrate import ODEintWarning, odeint

    y0 = np.atleast_1d(np.asarray(initial, dtype=float))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ODEintWarning)
            states, info = odeint(rhs, y0, r, rtol=spec.rel_tol, atol=spec.abs_tol,
                                  tfirst=True, full_output=True)
    except (ValueError, OverflowError, FloatingPointError) as exc:
        raise StiffODEError(f"stiff or singular ODE: {exc}") from exc
    if info["message"] != "Integration successful.":
        raise StiffODEError(f"stiff or singular ODE: {info['message']}")
    return states.T


# ----------------------------------------------------------------------------
# small linear algebra

def solve_with_diagnostics(A: np.ndarray, rhs: np.ndarray):
    """Dense solve with singular-value diagnostics: returns
    ``(x, min_singular_value, condition_number, residual_norm)``."""
    A = np.asarray(A)
    rhs = np.asarray(rhs)
    x = np.linalg.solve(A, rhs)
    svals = np.linalg.svd(A, compute_uv=False)
    return (x, float(svals[-1]), float(svals[0] / svals[-1]),
            float(np.linalg.norm(A @ x - rhs)))
