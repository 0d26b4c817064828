"""Radial Gelfand branch of the singular Dirichlet problem on the unit disk.

The problem u'' + u'/r + lambda r^2N e^u = 0, u(1) = 0 has the closed-form
one-parameter family (via t = r^(N+1))

    u(r) = log( 8 b / (lt (1 + b r^(2N+2))^2) ),
    lt   = 8 b / (1 + b)^2,
    lambda = (N+1)^2 lt,

double-valued in lambda with fold at b = 1, lambda* = 2(N+1)^2.  A shooting
solver cross-validates the family, and the spherical-Harnack diagnostic
sup (u + log lambda + 2(N+1) log r) equals log(2(N+1)^2) along the whole
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import minimize_scalar

from .errors import ShootingError
from .numerics import QuadratureSpec, integrate_interval, newton_scalar, ode_integrate


@dataclass
class RadialProfile:
    """A radial solution sample along the Gelfand branch."""

    N: int
    lam: float
    b: float
    r_grid: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    _spline: CubicHermiteSpline | None = field(default=None, repr=False)

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.u_prime = np.asarray(self.u_prime, dtype=float)
        if self.N < 0 or self.lam < 0 or self.b < 0:
            raise ValueError("N, lambda, b must be non-negative")
        if abs(self.u[-1]) > 1e-9:
            raise ValueError("profile must satisfy u(1) = 0")

    def _get_spline(self) -> CubicHermiteSpline:
        if self._spline is None:
            self._spline = CubicHermiteSpline(self.r_grid, self.u, self.u_prime)
        return self._spline

    def u_at(self, r):
        if self.b > 0:
            return closed_form_u(self.N, self.b, r)
        return self._get_spline()(np.clip(r, self.r_grid[0], self.r_grid[-1]))

    def u_prime_at(self, r):
        if self.b > 0:
            return closed_form_u_prime(self.N, self.b, r)
        return self._get_spline().derivative()(np.clip(r, self.r_grid[0], self.r_grid[-1]))


@dataclass
class BranchPoint:
    """One point of the (lambda, u(0)) diagram with its mass."""

    profile: RadialProfile
    u_center: float
    mass: float

    def __post_init__(self):
        cap = 8.0 * math.pi * (self.profile.N + 1) * 1.01
        if self.mass > cap:
            raise ValueError(f"mass {self.mass:.6f} exceeds the uniform bound {cap:.6f}")


def lambda_of_b(N: int, b: float) -> float:
    return (N + 1) ** 2 * 8.0 * b / (1.0 + b) ** 2


def closed_form_u(N: int, b: float, r):
    # log(8b/lt) = 2 log(1+b); written so u(1) = 0 is exact in floats
    r = np.asarray(r, dtype=float)
    return 2.0 * np.log1p(b) - 2.0 * np.log1p(b * r ** (2 * (N + 1)))


def closed_form_u_prime(N: int, b: float, r):
    r = np.asarray(r, dtype=float)
    m = N + 1
    return -4.0 * m * b * r ** (2 * m - 1) / (1.0 + b * r ** (2 * m))


def closed_form_profile(N: int, b: float, n_grid: int = 2000) -> RadialProfile:
    """Closed-form Gelfand profile; u(1) = 0 exactly, PDE residual analytic zero."""
    if b <= 0:
        raise ValueError("b must be positive")
    r = np.geomspace(1e-6, 1.0, n_grid)
    r[-1] = 1.0
    return RadialProfile(N=N, lam=lambda_of_b(N, b), b=b, r_grid=r,
                         u=closed_form_u(N, b, r), u_prime=closed_form_u_prime(N, b, r))


def zero_potential_profile(N: int = 0, n_grid: int = 512) -> RadialProfile:
    """Degenerate branch member u = 0, lambda = 0 (Bessel test fixture)."""
    r = np.linspace(1e-6, 1.0, n_grid)
    return RadialProfile(N=N, lam=0.0, b=0.0, r_grid=r,
                         u=np.zeros_like(r), u_prime=np.zeros_like(r))


def profile_residual(profile: RadialProfile, n_check: int = 200) -> float:
    """Max PDE residual u'' + u'/r + lambda r^2N e^u on interior check points.

    u'' comes from differentiating the Hermite interpolant of u', so the check
    uses only the stored samples.
    """
    r = np.linspace(0.05, 0.95, n_check)
    if profile.b > 0:
        up = closed_form_u_prime(profile.N, profile.b, r)
        m = profile.N + 1
        b = profile.b
        upp = -4.0 * m * b * ((2 * m - 1) * r ** (2 * m - 2) * (1 + b * r ** (2 * m))
                              - 2 * m * b * r ** (4 * m - 2)) / (1.0 + b * r ** (2 * m)) ** 2
        u = closed_form_u(profile.N, b, r)
    else:
        spl = CubicHermiteSpline(profile.r_grid, profile.u_prime,
                                 np.gradient(profile.u_prime, profile.r_grid))
        up = spl(r)
        upp = spl.derivative()(r)
        u = profile.u_at(r)
    res = upp + up / r + profile.lam * r ** (2 * profile.N) * np.exp(u)
    return float(np.max(np.abs(res)))


# ----------------------------------------------------------------------------
# shooting solver

def _shoot_once(N: int, lam: float, u0: float, spec: QuadratureSpec):
    m = N + 1
    r0 = 1e-4
    # series launch: u = u0 - lam e^{u0} r^(2m) / (2m)^2 + O(r^(4m))
    a = lam * math.exp(u0) / (2.0 * m) ** 2
    y0 = [u0 - a * r0 ** (2 * m), -2.0 * m * a * r0 ** (2 * m - 1)]

    def rhs(r, y):
        return [y[1], -y[1] / r - lam * r ** (2 * N) * math.exp(y[0])]

    return ode_integrate(rhs, y0, r0, 1.0, spec)


def shoot_radial(N: int, lam: float, u_center_guess: float,
                 n_grid: int = 2000) -> RadialProfile:
    """Shooting solution of the radial problem at the given lambda.

    Newton runs on u(1; u0) = 0 from the supplied center guess (the guess
    selects the branch).  The result is cross-validated against the closed
    form; sup-norm disagreement above 1e-6 is treated as failure.
    """
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)

    def boundary_value(u0):
        return _shoot_once(N, lam, u0, spec).end_state[0]

    try:
        u0 = newton_scalar(boundary_value, u_center_guess, tol=1e-12)
    except ValueError as exc:
        raise ShootingError(f"no radial solution found at this lambda/guess: {exc}") from exc

    traj = _shoot_once(N, lam, u0, spec)
    r = np.geomspace(1e-4, 1.0, n_grid)
    r[-1] = 1.0
    vals = traj(r)
    u = vals[0].copy()
    u[-1] = 0.0
    b = math.exp(u0 / 2.0) - 1.0
    if b <= 0:
        raise ShootingError("no radial solution found at this lambda/guess: negative family parameter")
    gap = float(np.max(np.abs(u - closed_form_u(N, b, r))))
    if gap > 1e-6:
        raise ShootingError(
            f"no radial solution found at this lambda/guess: closed-form cross-check gap {gap:.2e}")
    return RadialProfile(N=N, lam=lam, b=b, r_grid=r, u=u, u_prime=vals[1])


# ----------------------------------------------------------------------------
# branch tracing and diagnostics

def branch_mass(profile: RadialProfile, spec: QuadratureSpec | None = None) -> float:
    """lambda * integral_{B_1} |x|^2N e^u dx, by quadrature."""
    spec = spec or QuadratureSpec()
    N, lam = profile.N, profile.lam

    def integrand(r):
        return r ** (2 * N + 1) * np.exp(profile.u_at(r))

    return math.tau * lam * integrate_interval(integrand, 0.0, 1.0, spec)


def harnack_diagnostic(point: BranchPoint) -> float:
    """sup_r (u(r) + log lambda + 2(N+1) log r) over the solution's natural domain.

    The supremum sits on the bubble ring r = b^(-1/(2N+2)), which exits the
    unit disk for b < 1; the closed-form continuation is scanned far enough to
    cover it.  Along the branch the value is log(2(N+1)^2) identically.
    """
    prof = point.profile
    if prof.b <= 0:
        raise ValueError("harnack diagnostic needs a genuine branch member (b > 0)")
    m = prof.N + 1
    r_star = prof.b ** (-1.0 / (2.0 * m))
    r_hi = max(1.0, 4.0 * r_star)
    # coarse scan plus a fine window around the bubble ring, where the
    # supremum sits
    r = np.concatenate([np.geomspace(1e-6, r_hi, 20001),
                        np.geomspace(r_star / 1.5, r_star * 1.5, 4001)])
    vals = closed_form_u(prof.N, prof.b, r) + math.log(prof.lam) + 2.0 * m * np.log(r)
    return float(np.max(vals))


def harnack_argmax(point: BranchPoint) -> float:
    prof = point.profile
    m = prof.N + 1
    return prof.b ** (-1.0 / (2.0 * m))


@dataclass
class FoldReport:
    b_star: float
    lambda_star: float


@dataclass
class BranchTrace:
    points: list
    fold: FoldReport


def trace_branch(N: int, b_values, spec: QuadratureSpec | None = None) -> BranchTrace:
    """(lambda(b), u(0;b)) diagram with fold location and masses."""
    b_values = np.asarray(sorted(b_values), dtype=float)
    if not (b_values[0] < 1.0 < b_values[-1] or np.any(b_values == 1.0)):
        raise ValueError("b values must span the fold at b = 1")
    points = []
    for b in b_values:
        prof = closed_form_profile(N, b)
        points.append(BranchPoint(profile=prof, u_center=2.0 * math.log1p(b),
                                  mass=branch_mass(prof, spec)))
    res = minimize_scalar(lambda b: -lambda_of_b(N, b),
                          bounds=(b_values[0], b_values[-1]), method="bounded",
                          options={"xatol": 1e-10})
    fold = FoldReport(b_star=float(res.x), lambda_star=float(-res.fun))
    return BranchTrace(points=points, fold=fold)

