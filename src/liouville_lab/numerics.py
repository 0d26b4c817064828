"""Shared numerical substrate.

Adaptive quadrature on intervals, disks, circles and the whole plane; discrete
Fourier analysis on circles and the polar Fourier sum; an adaptive ODE
integrator; root finding; small dense linear algebra with singular-value
diagnostics; finite-difference gradient certification.

Scalar fields are callables ``f(z)`` taking a complex number or a complex
ndarray and returning real values of the same shape.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.integrate import solve_ivp

from .errors import (
    GradientMismatchError,
    NyquistError,
    QuadratureBudgetError,
    StiffODEError,
)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for every quadrature routine in the package."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    plane_compactification_scale: float = 8.0

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be at least 8")
        if self.plane_compactification_scale <= 0:
            raise ValueError("plane_compactification_scale must be positive")


@dataclass(frozen=True)
class PolarGrid:
    """Tensor polar grid used by brute-force Riemann oracles."""

    radii: np.ndarray
    angles: np.ndarray
    center: complex = 0j

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or np.any(np.diff(r) <= 0) or np.any(r < 0):
            raise ValueError("radii must be non-negative and strictly ascending")
        a = np.asarray(self.angles, dtype=float)
        if a.size < 4 or a.size % 2 != 0:
            raise ValueError("angle count must be >= 4 and even")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "angles", a)

    def points(self) -> np.ndarray:
        r = self.radii[:, None]
        th = self.angles[None, :]
        return self.center + r * np.exp(1j * th)


def make_polar_grid(r_max: float, n_r: int, n_theta: int, center: complex = 0j,
                    r_min: float = 0.0) -> PolarGrid:
    radii = np.linspace(r_min, r_max, n_r + 1)[1:]
    angles = math.tau * np.arange(n_theta) / n_theta
    return PolarGrid(radii=radii, angles=angles, center=center)


def riemann_sum(f, grid: PolarGrid) -> float:
    """Midpoint-flavoured polar Riemann sum; deliberately naive (test oracle)."""
    r = grid.radii
    dr = np.diff(np.concatenate(([0.0] if r[0] > 0 else [r[0]], r)))
    dth = math.tau / grid.angles.size
    vals = f(grid.points())
    return float(np.sum(vals * r[:, None] * dr[:, None] * dth))


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

    def synthesize(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return polar_sum(self.a, self.b, 1.0, theta)


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

def _circle_mean(f, center: complex, r: float, rel_tol: float, abs_tol: float,
                 m_start: int = 64, m_max: int = 1 << 20) -> float:
    """Adaptive trapezoid average of f over a circle (spectral for analytic f)."""
    m = m_start
    prev = np.mean(f(center + r * np.exp(1j * math.tau * np.arange(m) / m)))
    while m <= m_max:
        m *= 2
        cur = np.mean(f(center + r * np.exp(1j * math.tau * np.arange(m) / m)))
        if abs(cur - prev) <= max(abs_tol, rel_tol * abs(cur)):
            return float(cur)
        prev = cur
    raise QuadratureBudgetError(
        "quadrature budget exceeded: circle average did not converge",
        value=float(prev), estimate=abs(cur - prev))


def integrate_interval(f, a: float, b: float, spec: QuadratureSpec,
                       points=None) -> float:
    """Adaptive integral of a scalar function over [a, b].

    Raises QuadratureBudgetError when scipy reports trouble and its error
    estimate exceeds the tolerances of ``spec``.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        out = integrate.quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                             limit=spec.max_subdivisions, points=points, full_output=1)
    if len(out) > 3:  # message present: budget or roundoff trouble
        y, err = out[0], out[1]
        if err > max(spec.abs_tol, 100.0 * spec.rel_tol * abs(y)):
            raise QuadratureBudgetError(
                f"quadrature budget exceeded: {out[3]}", value=float(y), estimate=float(err))
    return float(out[0])


def integrate_disk(f, center: complex, radius: float, spec: QuadratureSpec,
                   radial_splits=None) -> float:
    """Integral of f over the closed disk B(center, radius)."""
    theta_tol = 0.1

    def ring(r):
        if r == 0.0:
            return 0.0
        mean = _circle_mean(f, center, r, spec.rel_tol * theta_tol, spec.abs_tol * theta_tol)
        return math.tau * r * mean

    points = None
    if radial_splits is not None:
        points = [s for s in radial_splits if 0.0 < s < radius]
    return integrate_interval(ring, 0.0, radius, spec, points=points)


def integrate_circle(f, center: complex, radius: float, spec: QuadratureSpec) -> float:
    """Line integral of f along the circle of the given radius."""
    mean = _circle_mean(f, center, radius, spec.rel_tol, spec.abs_tol)
    return math.tau * radius * mean


def integrate_plane(f, spec: QuadratureSpec) -> float:
    """Improper integral of f over the plane.

    Uses the compactifying substitution t = |z|^2 / (s + |z|^2) with
    s = spec.plane_compactification_scale, under which
    integral f = int_0^1 (theta-average of f at r(t)) * pi * s / (1-t)^2 dt.
    The integrand must decay at least like |z|^-4 (or the caller must choose s
    so that the transformed integrand stays bounded).
    """
    s = spec.plane_compactification_scale
    theta_tol = 0.1

    def trans(t):
        if t <= 0.0:
            return 0.0
        t = min(t, 1.0 - 1e-15)
        r = np.sqrt(s * t / (1.0 - t))
        mean = _circle_mean(f, 0j, r, spec.rel_tol * theta_tol, spec.abs_tol * theta_tol)
        return mean * np.pi * s / (1.0 - t) ** 2

    return integrate_interval(trans, 0.0, 1.0, spec)


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
                  spec: QuadratureSpec | None = None, method: str = "DOP853") -> ODETrajectory:
    """Integrate y' = rhs(r, y) from r0 to r_end with dense output."""
    spec = spec or QuadratureSpec()
    y0 = np.atleast_1d(np.asarray(initial, dtype=float))
    try:
        sol = solve_ivp(rhs, (r0, r_end), y0, method=method, rtol=spec.rel_tol,
                        atol=spec.abs_tol, dense_output=True)
    except (ValueError, OverflowError, FloatingPointError) as exc:
        raise StiffODEError(f"stiff or singular ODE: {exc}") from exc
    if not sol.success:
        raise StiffODEError(f"stiff or singular ODE: {sol.message}")
    return ODETrajectory(r=sol.t, y=sol.y, sol=sol.sol)


# ----------------------------------------------------------------------------
# finite-difference derivative certification

FD_STEPS = (1e-2, 1e-3, 1e-4)


def fd_check(f, point: complex, analytic_gradient, steps=FD_STEPS,
             floor: float = 1e-10) -> float:
    """Log-log convergence slope of |centered difference - analytic gradient|.

    Slope close to 2 certifies the gradient.  When the differences sit at the
    rounding floor (polynomials are differenced exactly) the slope is reported
    as 2.0.  Raises GradientMismatchError when the slope falls below 1.5.
    """
    gx, gy = analytic_gradient
    scale = 1.0 + np.hypot(gx, gy)
    errs = []
    for h in steps:
        fdx = (f(point + h) - f(point - h)) / (2.0 * h)
        fdy = (f(point + 1j * h) - f(point - 1j * h)) / (2.0 * h)
        errs.append(np.hypot(fdx - gx, fdy - gy))
    errs = np.asarray(errs)
    if np.max(errs) <= floor * scale:
        return 2.0
    slope = np.polyfit(np.log(np.asarray(steps)), np.log(np.maximum(errs, 1e-300)), 1)[0]
    if slope < 1.5:
        raise GradientMismatchError(
            f"gradient mismatch: convergence slope {slope:.3f} < 1.5 (errors {errs})")
    return float(slope)


def fd_laplacian(f, point: complex, h: float = 1e-4) -> float:
    """Five-point Laplacian stencil, used to certify harmonicity."""
    return (f(point + h) + f(point - h) + f(point + 1j * h) + f(point - 1j * h)
            - 4.0 * f(point)) / h ** 2


# ----------------------------------------------------------------------------
# root finding and small linear algebra

def newton_complex(f, fprime, z0: complex, tol: float = 1e-14, max_iter: int = 60) -> complex:
    """Newton iteration for a holomorphic equation f(z) = 0."""
    z = complex(z0)
    for _ in range(max_iter):
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


def newton_scalar(f, x0: float, tol: float = 1e-12, max_iter: int = 60,
                  fd_step: float = 1e-7) -> float:
    """Scalar Newton with a secant-style finite-difference derivative."""
    x = float(x0)
    for _ in range(max_iter):
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


def bisect(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0:
        raise ValueError("bisection endpoints must bracket a sign change")
    for _ in range(max_iter):
        c = 0.5 * (a + b)
        fc = f(c)
        if abs(fc) <= tol or (b - a) <= tol * max(1.0, abs(c)):
            return c
        if fa * fc < 0:
            b, fb = c, fc
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


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
