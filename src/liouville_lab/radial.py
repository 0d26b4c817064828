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
from dataclasses import dataclass

import numpy as np

from .errors import ShootingError
from .numerics import QuadratureSpec, integrate_interval, ode_integrate


@dataclass
class RadialProfile:
    """A radial solution sample along the Gelfand branch.

    The samples are kept for cross-checks; u_at and u_prime_at evaluate the
    closed form of the family member b (b = 0 is u = 0, lambda = 0).
    """

    N: int
    lam: float
    b: float
    r_grid: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.r_grid = np.asarray(self.r_grid, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.N < 0 or self.lam < 0 or self.b < 0:
            raise ValueError("N, lambda, b must be non-negative")
        if abs(self.u[-1]) > 1e-9:
            raise ValueError("profile must satisfy u(1) = 0")

    def u_at(self, r):
        return closed_form_u(self.N, self.b, r)

    def u_prime_at(self, r):
        return closed_form_u_prime(self.N, self.b, r)


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


def closed_form_profile(N: int, b: float) -> RadialProfile:
    """Closed-form Gelfand profile on 2000 geometric radii in [1e-6, 1];
    u(1) = 0 exactly, PDE residual analytic zero.  b = 0 is the degenerate
    member u = 0, lambda = 0 (the Bessel case)."""
    if b < 0:
        raise ValueError("b must be non-negative")
    r = np.geomspace(1e-6, 1.0, 2000)
    r[-1] = 1.0
    return RadialProfile(N=N, lam=lambda_of_b(N, b), b=b, r_grid=r, u=closed_form_u(N, b, r))


def profile_residual(profile: RadialProfile) -> float:
    """Max PDE residual u'' + u'/r + lambda r^2N e^u on 200 interior check points.

    u, u' and u'' are those of the closed form of the family member b, so the
    residual tests that lambda is lambda(b).
    """
    r = np.linspace(0.05, 0.95, 200)
    m = profile.N + 1
    b = profile.b
    up = closed_form_u_prime(profile.N, b, r)
    upp = -4.0 * m * b * ((2 * m - 1) * r ** (2 * m - 2) * (1 + b * r ** (2 * m))
                          - 2 * m * b * r ** (4 * m - 2)) / (1.0 + b * r ** (2 * m)) ** 2
    u = closed_form_u(profile.N, b, r)
    res = upp + up / r + profile.lam * r ** (2 * profile.N) * np.exp(u)
    return float(np.max(np.abs(res)))


# ----------------------------------------------------------------------------
# shooting solver

def _shoot_once(N: int, lam: float, u0: float, spec: QuadratureSpec):
    """One shot from r = 1e-4 to 1 of u and its sensitivity v = du/du0.

    The state is (u, u', v, v'): the variational equation
    v'' + v'/r + f v = 0, f = lam r^2N e^u, rides along, so v(1) is the exact
    derivative of u(1; u0) (Hairer, Norsett & Wanner, Solving ODEs I, I.14).
    The series launch u = u0 - a r^(2N+2), a = lam e^u0 / (2N+2)^2, is
    differentiated with da/du0 = a.
    """
    m = N + 1
    r0 = 1e-4
    a = lam * math.exp(u0) / (2.0 * m) ** 2
    lift, slope = a * r0 ** (2 * m), -2.0 * m * a * r0 ** (2 * m - 1)
    y0 = [u0 - lift, slope, 1.0 - lift, slope]

    def rhs(r, y):
        f = lam * r ** (2 * N) * math.exp(y[0])
        return [y[1], -y[1] / r - f, y[3], -y[3] / r - f * y[2]]

    return ode_integrate(rhs, y0, r0, 1.0, spec)


# Newton gives up once the best |u(1)| has not improved in this many
# consecutive shots: above the fold no root exists and the shots wander
STALL_SHOTS = 5


def shoot_radial(N: int, lam: float, u_center_guess: float) -> RadialProfile:
    """Shooting solution of the radial problem at the given lambda.

    Newton runs on u(1; u0) = 0 from the supplied center guess (the guess
    selects the branch), to |u(1)| <= 1e-12, with the exact derivative v(1)
    that each shot carries (see ``_shoot_once``), and fails once the best
    |u(1)| has not improved in STALL_SHOTS consecutive shots.  The converged
    shot, sampled on 2000 geometric radii in [1e-4, 1], is the profile; it is
    cross-validated against the closed form, and sup-norm disagreement above
    1e-6 is treated as failure.
    """
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
    tol = 1e-12
    u0 = float(u_center_guess)
    best, stall = math.inf, 0
    for _ in range(60):
        traj = _shoot_once(N, lam, u0, spec)
        u1, _, v1, _ = traj.end_state
        if abs(u1) <= tol:
            break
        if abs(u1) < best:
            best, stall = abs(u1), 0
        else:
            stall += 1
            if stall == STALL_SHOTS:
                raise ShootingError(f"no radial solution found at this lambda/guess: best "
                                    f"|u(1)|={best:.3e} unchanged for {STALL_SHOTS} shots")
        if v1 == 0.0 or not math.isfinite(v1):
            raise ShootingError("no radial solution found at this lambda/guess: "
                                "the boundary value does not depend on u(0)")
        u0 -= u1 / v1
    else:
        raise ShootingError(f"no radial solution found at this lambda/guess: Newton did "
                            f"not converge (|u(1)|={abs(u1):.3e})")

    r = np.geomspace(1e-4, 1.0, 2000)
    r[-1] = 1.0
    u = traj(r)[0]
    u[-1] = 0.0
    b = math.exp(u0 / 2.0) - 1.0
    if b <= 0:
        raise ShootingError("no radial solution found at this lambda/guess: negative family parameter")
    gap = float(np.max(np.abs(u - closed_form_u(N, b, r))))
    if gap > 1e-6:
        raise ShootingError(
            f"no radial solution found at this lambda/guess: closed-form cross-check gap {gap:.2e}")
    return RadialProfile(N=N, lam=lam, b=b, r_grid=r, u=u)


# ----------------------------------------------------------------------------
# branch tracing and diagnostics

def branch_mass(profile: RadialProfile, spec: QuadratureSpec) -> float:
    """lambda * integral_{B_1} |x|^2N e^u dx, by quadrature."""
    N, lam = profile.N, profile.lam

    def integrand(r):
        return r ** (2 * N + 1) * np.exp(profile.u_at(r))

    return math.tau * lam * integrate_interval(integrand, (0.0, 1.0), spec)


def harnack_diagnostic(prof: RadialProfile) -> float:
    """sup_r (u(r) + log lambda + 2(N+1) log r) over the profile's natural domain.

    The supremum sits on the bubble ring r = b^(-1/(2N+2)), which exits the
    unit disk for b < 1; the closed-form continuation is scanned far enough to
    cover it.  Along the branch the value is log(2(N+1)^2) identically.
    """
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


@dataclass
class FoldReport:
    b_star: float
    lambda_star: float


@dataclass
class BranchTrace:
    masses: list     # branch_mass at each b, in increasing b
    fold: FoldReport


def trace_branch(N: int, b_values, spec: QuadratureSpec) -> BranchTrace:
    """Masses along the branch at the given b, sorted, and the fold of lambda(b).

    The b values must span the fold at b = 1.  Each mass is the quadrature
    ``branch_mass`` of the closed-form profile, and the fold is the maximum
    of lambda(b) over the range of b.
    """
    from scipy.optimize import minimize_scalar

    b_values = np.asarray(sorted(b_values), dtype=float)
    if not (b_values[0] < 1.0 < b_values[-1] or np.any(b_values == 1.0)):
        raise ValueError("b values must span the fold at b = 1")
    masses = [branch_mass(closed_form_profile(N, b), spec) for b in b_values]
    res = minimize_scalar(lambda b: -lambda_of_b(N, b),
                          bounds=(b_values[0], b_values[-1]), method="bounded",
                          options={"xatol": 1e-10})
    fold = FoldReport(b_star=float(res.x), lambda_star=float(-res.fun))
    return BranchTrace(masses=masses, fold=fold)

