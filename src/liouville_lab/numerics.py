"""Shared numerical substrate.

Adaptive quadrature on intervals, disks, circles and the whole plane; discrete
Fourier analysis on circles and the polar Fourier sum; an adaptive ODE
integrator; root finding; small dense linear algebra with singular-value
diagnostics.

Numbers that no caller varies (the subdivision budget, the plane
compactification scale, the ring tolerance fraction, the ODE method and the
Newton tolerances) are constants written beside their use, like the scenario
constants.

Scalar fields are callables ``f(z)`` taking a complex number or a complex
ndarray and returning real values of the same shape.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.integrate import solve_ivp

from .errors import NyquistError, QuadratureBudgetError, StiffODEError


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for every quadrature routine in the package."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class FourierCoefficients:
    """Real trigonometric coefficients: a[n] for cos(n*theta), b[n] for sin."""

    a: np.ndarray  # indices 0..n_max
    b: np.ndarray  # indices 1..n_max, stored with leading slot b[0] unused = 0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.size != self.b.size:
            raise ValueError("a and b must share length (b[0] is a dummy slot)")
        if self.a.size < 2:
            raise ValueError("n_max must be >= 1")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("coefficients must be finite")

    @property
    def n_max(self) -> int:
        return self.a.size - 1


# ----------------------------------------------------------------------------
# circle Fourier analysis

def polar_sum(a, b, r, theta):
    """sum_n r^n (a[n] cos(n theta) + b[n] sin(n theta)), elementwise in r and theta."""
    n = np.arange(len(a))
    nth = np.multiply.outer(theta, n)
    return (np.asarray(r)[..., None] ** n * (a * np.cos(nth) + b * np.sin(nth))).sum(axis=-1)


def circle_fourier(values: np.ndarray, n_max: int) -> FourierCoefficients:
    """Trapezoidal Fourier coefficients of uniform circle samples.

    Exact (up to aliasing) for band-limited data; requires at least 4*n_max
    samples.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if m < 4 * n_max:
        raise NyquistError(
            f"Nyquist violation: {m} samples cannot resolve n_max={n_max} (need >= {4 * n_max})")
    spec = np.fft.rfft(values)
    a = np.zeros(n_max + 1)
    b = np.zeros(n_max + 1)
    a[0] = spec[0].real / m
    upto = min(n_max, m // 2)
    a[1:upto + 1] = 2.0 * spec[1:upto + 1].real / m
    b[1:upto + 1] = -2.0 * spec[1:upto + 1].imag / m
    return FourierCoefficients(a=a, b=b)


def sample_circle(f, center: complex, radius: float, m: int) -> np.ndarray:
    theta = math.tau * np.arange(m) / m
    return np.asarray(f(center + radius * np.exp(1j * theta)), dtype=float)


# ----------------------------------------------------------------------------
# quadrature

def peak_beta(w: float) -> float:
    """Grading parameter for a peak of angular half-width w (see ``_ring_nodes``).

    min(1, 2w) rounded down to a power of two, so that the ring nodes cache;
    1 is the uniform rule.
    """
    return 2.0 ** math.floor(math.log2(min(1.0, 2.0 * w)))


@functools.lru_cache(maxsize=None)
def _ring_nodes(m: int, odd: bool, K: int, beta: float):
    """Nodes exp(i theta_k) and weights theta'(Phi_k) of the m-point ring rule.

    Phi_k = tau k / m for k = 0..m-1, or for the odd k only.  With beta < 1 the
    angle theta = g(K Phi) / K follows the Moebius circle map
    g(x) = 2 atan(beta tan(x/2)), continued so that g(x + tau) = g(x) + tau,
    which crowds the nodes toward the K angles tau j / K with width about
    beta; the weights are g'(K Phi).  beta = 1 gives the unit roots
    exp(i tau k / m) and weights None (all ones).  The arrays are read-only and
    cached: only powers of two and power-of-two betas reach the cache.
    """
    k = np.arange(1, m, 2) if odd else np.arange(m)
    if beta == 1.0:
        nodes, weights = np.exp(1j * math.tau * k / m), None
    else:
        x = K * math.tau * k / m
        s, c = np.sin(x), np.cos(x)
        theta = (x - 2.0 * np.arctan((1.0 - beta) * s / ((1.0 + beta) + (1.0 - beta) * c))) / K
        nodes = np.exp(1j * theta)
        weights = 2.0 * beta / ((1.0 + c) + beta * beta * (1.0 - c))
        weights.flags.writeable = False
    nodes.flags.writeable = False
    return nodes, weights


def _circle_mean(f, center: complex, r: float, rel_tol: float, abs_tol: float,
                 m_start: int = 64, m_max: int = 1 << 20, grading=None):
    """Adaptive trapezoid average of f over a circle (spectral for analytic f).

    The rule is nested: when m doubles only the m/2 new odd-index points are
    evaluated and added to the running sum.  A vector integrand returning shape
    (k, m) gives k means, converged only when every component is.

    ``grading = (K, psi0, beta)`` grades the rule toward K equally spaced peaks
    at the angles (psi0 + tau j) / K: the trapezoid runs in Phi, with
    theta = (psi0 + g(K Phi)) / K for the circle map g of ``_ring_nodes`` and
    each value weighted by g'(K Phi).  The rule stays nested and spectral.
    No grading, or beta = 1, is the uniform rule.
    """
    if grading is None or grading[2] == 1.0:
        K, beta, scale = 1, 1.0, r
    else:
        K, psi0, beta = grading
        scale = r * complex(math.cos(psi0 / K), math.sin(psi0 / K))

    def ring_sum(m, odd):
        nodes, weights = _ring_nodes(m, odd, K, beta)
        values = f(center + scale * nodes)
        return values.sum(axis=-1) if weights is None else values @ weights

    m = m_start
    total = ring_sum(m, False)
    scalar = total.ndim == 0
    prev = total / m
    while m <= m_max:
        m *= 2
        total = total + ring_sum(m, True)
        cur = total / m
        err = abs(cur - prev)
        if scalar:  # float arithmetic: numpy's elementwise test is ~10x slower on scalars
            if err <= max(abs_tol, rel_tol * abs(cur)):
                return float(cur)
        elif np.all(err <= np.maximum(abs_tol, rel_tol * np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureBudgetError(
        "quadrature budget exceeded: circle average did not converge",
        value=float(cur) if scalar else cur, estimate=float(np.max(err)))


def integrate_interval(f, a: float, b: float, spec: QuadratureSpec,
                       points=None) -> float:
    """Adaptive integral of a scalar function over [a, b].

    Raises QuadratureBudgetError when scipy reports trouble and its error
    estimate exceeds the tolerances of ``spec``; the message says "budget
    exceeded" only when QUADPACK hit its limit of 200 subintervals, and
    otherwise names what QUADPACK reported.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                             limit=200, points=points, full_output=1)
    if len(out) > 3:  # QUADPACK reported trouble
        y, err = out[0], out[1]
        if err > max(spec.abs_tol, 100.0 * spec.rel_tol * abs(y)):
            # the first sentence of QUADPACK's message, on one line
            report = " ".join(out[3].split()).split(". ")[0].rstrip(".")
            what = ("quadrature budget exceeded"
                    if report.startswith("The maximum number of subdivisions")
                    else "quadrature failed")
            raise QuadratureBudgetError(f"{what}: {report}", value=float(y),
                                        estimate=float(err))
    return float(out[0])


def _integrate_rings(ring, a: float, b: float, spec: QuadratureSpec, points=None):
    """integrate_interval of each component of ``ring(x)``, computing each ring once.

    A scalar ring gives a float.  A ring returning shape (k,) gives k values from
    k QUADPACK runs, each with its own budget check; the runs read one dict of
    ring values keyed on the node x, so a node visited by several runs costs one
    ring.
    """
    rings = {}

    def component(i):
        def g(x):
            v = rings.get(x)
            if v is None:
                v = rings[x] = ring(x)
            return v if isinstance(v, float) else v[i]
        return g

    first = integrate_interval(component(0), a, b, spec, points=points)
    k = max((len(v) for v in rings.values() if not isinstance(v, float)), default=0)
    if k == 0:
        return first
    rest = [integrate_interval(component(i), a, b, spec, points=points) for i in range(1, k)]
    return np.array([first, *rest])


# each ring mean runs at this fraction of the outer tolerances, so that ring
# errors stay below what the outer quadrature resolves
RING_TOL_FRACTION = 0.1


def _disk_grading(center: complex, peak, r: float):
    """Grading of the ring of radius r about center toward one peak (q, width).

    With s = |q - center|, the ring passes the peak at the angle arg(q - center)
    with angular half-width about w = sqrt(((r - s)^2 + width^2) / (r s)), so the
    ring gets (1, arg(q - center), peak_beta(w)).  A peak at the centre gives
    None: the uniform rule.
    """
    q, width = peak
    d = complex(q) - center
    s = abs(d)
    if s == 0.0:
        return None
    w = math.sqrt(((r - s) ** 2 + width ** 2) / (r * s))
    return 1, math.atan2(d.imag, d.real), peak_beta(w)


def integrate_disk(f, center: complex, radius: float, spec: QuadratureSpec,
                   radial_splits=None, peak=None):
    """Integral of f over the closed disk B(center, radius).

    ``f`` may return shape (k, m) for m points; the k integrals then come back
    as an array, sharing every ring mean.  ``peak = (q, width)``, when given,
    grades every ring toward a peak of f at q of that radial width (see
    ``_disk_grading``).
    """

    def ring(r):
        if r == 0.0:
            return 0.0
        mean = _circle_mean(f, center, r, spec.rel_tol * RING_TOL_FRACTION,
                            spec.abs_tol * RING_TOL_FRACTION,
                            grading=None if peak is None else _disk_grading(center, peak, r))
        return math.tau * r * mean

    points = None
    if radial_splits is not None:
        points = [s for s in radial_splits if 0.0 < s < radius]
    return _integrate_rings(ring, 0.0, radius, spec, points=points)


def integrate_circle(f, center: complex, radius: float, spec: QuadratureSpec):
    """Line integral of f along the circle of the given radius.

    ``f`` may return shape (k, m) for m points; the k line integrals then come
    back as an array from one ring, converged when every component is.
    """
    mean = _circle_mean(f, center, radius, spec.rel_tol, spec.abs_tol)
    return math.tau * radius * mean


def integrate_plane(f, spec: QuadratureSpec, peaks=None):
    """Improper integral of f over the plane.

    Uses the compactifying substitution t = |z|^2 / (s + |z|^2) with s = 8,
    under which
    integral f = int_0^1 (theta-average of f at r(t)) * pi * s / (1-t)^2 dt.
    The integrand must decay at least like |z|^-4, so that the transformed
    integrand stays bounded.  Like ``integrate_disk``,
    a vector-valued ``f`` gives an array of integrals.  ``peaks(r)``, when
    given, returns the ``(K, psi0, beta)`` grading of the ring of radius r
    (see ``_circle_mean``).
    """
    s = 8.0

    def trans(t):
        if t <= 0.0:
            return 0.0
        t = min(t, 1.0 - 1e-15)
        r = np.sqrt(s * t / (1.0 - t))
        mean = _circle_mean(f, 0j, r, spec.rel_tol * RING_TOL_FRACTION,
                            spec.abs_tol * RING_TOL_FRACTION,
                            grading=peaks(r) if peaks else None)
        return mean * np.pi * s / (1.0 - t) ** 2

    return _integrate_rings(trans, 0.0, 1.0, spec)


# ----------------------------------------------------------------------------
# ODE integration

@dataclass
class ODETrajectory:
    """Adaptive trajectory with dense interpolation."""

    r: np.ndarray
    y: np.ndarray  # shape (dim, len(r))
    sol: object = field(repr=False, default=None)

    def __call__(self, r):
        return self.sol(r)

    @property
    def end_state(self) -> np.ndarray:
        return self.y[:, -1]


def ode_integrate(rhs, initial, r0: float, r_end: float,
                  spec: QuadratureSpec) -> ODETrajectory:
    """Integrate y' = rhs(r, y) from r0 to r_end with dense output (DOP853)."""
    y0 = np.atleast_1d(np.asarray(initial, dtype=float))
    try:
        sol = solve_ivp(rhs, (r0, r_end), y0, method="DOP853", rtol=spec.rel_tol,
                        atol=spec.abs_tol, dense_output=True)
    except (ValueError, OverflowError, FloatingPointError) as exc:
        raise StiffODEError(f"stiff or singular ODE: {exc}") from exc
    if not sol.success:
        raise StiffODEError(f"stiff or singular ODE: {sol.message}")
    return ODETrajectory(r=sol.t, y=sol.y, sol=sol.sol)


# ----------------------------------------------------------------------------
# root finding and small linear algebra

def newton_complex(f, fprime, z0: complex) -> complex:
    """Newton iteration for a holomorphic equation f(z) = 0, to |f| <= 1e-14."""
    tol = 1e-14
    z = complex(z0)
    for _ in range(60):
        fz = f(z)
        if abs(fz) <= tol:
            return z
        dz = fz / fprime(z)
        z = z - dz
        if not np.isfinite(z.real) or not np.isfinite(z.imag):
            break
    fz = f(z)
    if abs(fz) <= 100 * tol:
        return z
    raise ValueError(f"Newton iteration did not converge (|f|={abs(fz):.3e})")


def newton_scalar(f, x0: float) -> float:
    """Scalar Newton with a secant-style finite-difference derivative, to |f| <= 1e-12."""
    tol = 1e-12
    fd_step = 1e-7
    x = float(x0)
    for _ in range(60):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        d = (f(x + fd_step) - fx) / fd_step
        if d == 0.0 or not np.isfinite(d):
            break
        x = x - fx / d
    fx = f(x)
    if abs(fx) <= 100 * tol:
        return x
    raise ValueError(f"scalar Newton did not converge (|f|={abs(fx):.3e})")


@dataclass
class LinearSolveDiagnostics:
    solution: np.ndarray
    min_singular_value: float
    condition_number: float
    residual_norm: float


def solve_with_diagnostics(A: np.ndarray, rhs: np.ndarray) -> LinearSolveDiagnostics:
    """Dense solve with singular-value diagnostics."""
    A = np.asarray(A)
    rhs = np.asarray(rhs)
    x = np.linalg.solve(A, rhs)
    svals = np.linalg.svd(A, compute_uv=False)
    res = float(np.linalg.norm(A @ x - rhs))
    return LinearSolveDiagnostics(
        solution=x,
        min_singular_value=float(svals[-1]),
        condition_number=float(svals[0] / svals[-1]),
        residual_norm=res,
    )
