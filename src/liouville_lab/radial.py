"""Radial Gelfand branch of the singular Dirichlet problem on the unit disk.

The problem u'' + u'/r + lambda r^2N e^u = 0, u(1) = 0 has the closed-form
one-parameter family (via t = r^(N+1); Joseph & Lundgren, Arch. Rational
Mech. Anal. 49, 1973)

    u(r) = 2 log(1 + b) - 2 log(1 + b r^(2N+2)),
    lambda = lambda(b) = 8 (N+1)^2 b / (1 + b)^2,

double-valued in lambda with fold at b = 1, lambda* = 2(N+1)^2.  A radial
profile is the family member ``RadialProfile(N, b)``, so it solves the problem
by construction.  The report checks the family against a shooting solver,
and the spherical-Harnack diagnostic sup (u + log lambda + 2(N+1) log r)
equals log(2(N+1)^2) along the whole branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShootingError
from .numerics import QuadratureSpec, integrate_interval, ode_integrate


@dataclass(frozen=True)
class RadialProfile:
    """The member b of the Gelfand family with weight |x|^2N.

    lambda is lambda(b), and u_at and u_prime_at evaluate the closed form, so
    u(1) = 0 holds exactly.  b = 0 is u = 0, lambda = 0 (the Bessel case).
    """

    N: int
    b: float

    def __post_init__(self):
        if self.N < 0 or not 0 <= self.b < math.inf:
            raise ValueError("N must be non-negative and b finite and non-negative")

    @property
    def lam(self) -> float:
        return lambda_of_b(self.N, self.b)

    def u_at(self, r):
        return closed_form_u(self.N, self.b, r)

    def u_prime_at(self, r):
        return closed_form_u_prime(self.N, self.b, r)

    def density(self, r):
        """The source lam r^2N e^u of the radial equation."""
        return self.lam * r ** (2 * self.N) * np.exp(self.u_at(r))


def lambda_of_b(N: int, b: float) -> float:
    return (N + 1) ** 2 * 8.0 * b / (1.0 + b) ** 2


def closed_form_u(N: int, b: float, r):
    # written so that u(1) = 0 is exact in floats
    r = np.asarray(r, dtype=float)
    return 2.0 * np.log1p(b) - 2.0 * np.log1p(b * r ** (2 * (N + 1)))


def closed_form_u_prime(N: int, b: float, r):
    r = np.asarray(r, dtype=float)
    m = N + 1
    return -4.0 * m * b * r ** (2 * m - 1) / (1.0 + b * r ** (2 * m))


# ----------------------------------------------------------------------------
# shooting solver

# every shot is sampled on 2000 geometric radii in [1e-4, 1]
SHOT_RADII = np.geomspace(1e-4, 1.0, 2000)
SHOT_RADII[-1] = 1.0
SHOT_RADII.flags.writeable = False


def _shoot_once(N: int, lam: float, u0: float, spec: QuadratureSpec) -> np.ndarray:
    """One shot of u and its sensitivity v = du/du0, sampled on ``SHOT_RADII``.

    Returns the states (u, u', v, v'), shape (4, 2000); the last column is
    r = 1.  The variational equation v'' + v'/r + f v = 0, f = lam r^2N e^u,
    rides along, so v(1) is the exact derivative of u(1; u0) (Hairer, Norsett
    & Wanner, Solving ODEs I, I.14).  The series launch
    u = u0 - a r^(2N+2), a = lam e^u0 / (2N+2)^2, is differentiated with
    da/du0 = a.
    """
    m = N + 1
    r0 = SHOT_RADII[0]
    a = lam * math.exp(u0) / (2.0 * m) ** 2
    lift, slope = a * r0 ** (2 * m), -2.0 * m * a * r0 ** (2 * m - 1)
    y0 = [u0 - lift, slope, 1.0 - lift, slope]

    def rhs(r, y):
        f = lam * r ** (2 * N) * math.exp(y[0])
        return [y[1], -y[1] / r - f, y[3], -y[3] / r - f * y[2]]

    return ode_integrate(rhs, y0, SHOT_RADII, spec)


# Newton gives up once the best |u(1)| has not improved in this many
# consecutive shots: above the fold no root exists and the shots wander
STALL_SHOTS = 5


def shoot_radial(N: int, lam: float, u_center_guess: float) -> np.ndarray:
    """Shooting solution u of the radial problem at the given lambda, on ``SHOT_RADII``.

    Newton runs on u(1; u0) = 0 from the supplied center guess (the guess
    selects the branch), to |u(1)| <= 1e-12, with the exact derivative v(1)
    that each shot carries (see ``_shoot_once``), and fails once the best
    |u(1)| has not improved in STALL_SHOTS consecutive shots.  Returns the
    converged shot, with u(1) set to 0; the report's ``branch/shooting-gap``
    records compare it with the closed form.
    """
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
    tol = 1e-12
    u0 = float(u_center_guess)
    best, stall = math.inf, 0
    for _ in range(60):
        states = _shoot_once(N, lam, u0, spec)
        u1, _, v1, _ = states[:, -1]
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

    u = states[0].copy()
    u[-1] = 0.0
    return u


# ----------------------------------------------------------------------------
# branch tracing and diagnostics

def branch_mass(profile: RadialProfile, spec: QuadratureSpec) -> float:
    """lambda * integral_{B_1} |x|^2N e^u dx = tau int_0^1 r density(r) dr, by quadrature."""
    return math.tau * integrate_interval(lambda r: r * profile.density(r), (0.0, 1.0), spec)


# the most grid points one piece of the Harnack scan holds, so that a
# piece's arrays (8 bytes a point) stay below 32 KiB: whole grids, 160 KB for
# 20,001 points, are above glibc's default 128 KiB mmap threshold
# (mallopt(3)), and a warm branch run faulted their pages in about 2,350 times
SCAN_PIECE_POINTS = 4000


def _linspace_max(value, start: float, stop: float, num: int) -> float:
    """max of value(t) over np.linspace(start, stop, num), num >= 2, in pieces.

    Each piece of at most ``SCAN_PIECE_POINTS`` points forms its t as
    ``np.linspace`` does, i step + start with the last point set to stop, so
    the points and the maximum are linspace's to the bit.
    """
    step = (stop - start) / (num - 1)
    best = -math.inf
    for lo in range(0, num, SCAN_PIECE_POINTS):
        t = np.arange(lo, min(lo + SCAN_PIECE_POINTS, num), dtype=float)
        t *= step
        t += start
        if lo + t.size == num:
            t[-1] = stop
        best = max(best, float(np.max(value(t))))
    return best


def harnack_diagnostic(prof: RadialProfile) -> float:
    """sup_r (u(r) + log lambda + 2(N+1) log r) over the profile's natural domain.

    The supremum sits on the bubble ring r = b^(-1/(2N+2)), which exits the
    unit disk for b < 1; the closed-form continuation is scanned far enough to
    cover it.  Along the branch the value is log(2(N+1)^2) identically.  The
    scan's two grids, 24,002 points, are taken in pieces of at most
    ``SCAN_PIECE_POINTS`` points, so no scan allocates a large array.
    """
    if prof.b <= 0:
        raise ValueError("harnack diagnostic needs a genuine branch member (b > 0)")
    m = prof.N + 1
    b = prof.b
    # scanned in t = log r, where the value is
    # 2 log1p(b) + log lambda + 2m t - 2 log1p(b e^{2mt}): a coarse grid plus
    # a fine window around the bubble ring t* = -log(b) / 2m, where the
    # supremum sits
    t_star = -math.log(b) / (2.0 * m)
    t_hi = max(0.0, t_star + math.log(4.0))
    half = math.log(1.5)

    def value(t):
        s = 2.0 * m * t
        return s - 2.0 * np.log1p(b * np.exp(s))

    peak = max(_linspace_max(value, math.log(1e-6), t_hi, 20001),
               _linspace_max(value, t_star - half, t_star + half, 4001))
    return peak + 2.0 * math.log1p(b) + math.log(prof.lam)


@dataclass
class BranchTrace:
    masses: list          # branch_mass at each b, in increasing b
    b_star: float         # the fold: where lambda(b) is largest
    lambda_star: float


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
    masses = [branch_mass(RadialProfile(N, b), spec) for b in b_values]
    res = minimize_scalar(lambda b: -lambda_of_b(N, b),
                          bounds=(b_values[0], b_values[-1]), method="bounded",
                          options={"xatol": 1e-10})
    return BranchTrace(masses=masses, b_star=float(res.x), lambda_star=float(-res.fun))
