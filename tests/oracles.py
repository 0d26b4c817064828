"""Test oracles independent of the package's quadrature and report code.

A brute-force polar Riemann sum, a term-by-term trigonometric sum, the
interaction table's row sums and margins as plain loops, finite-difference
gradient and Laplacian checks, the bubble density and maxima in mpmath, a
Sturm count of a symmetric tridiagonal in mpmath, and parsers that read a
rendered report back into ``ReportEntry`` records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from liouville_lab.errors import LiouvilleLabError
from liouville_lab.report import ReportEntry

# ----------------------------------------------------------------------------
# polar Riemann sums


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


# ----------------------------------------------------------------------------
# trigonometric sums

def trig_sum(c, r, theta):
    """sum_n r^n (a_n cos n theta + b_n sin n theta) for c_n = a_n - i b_n,
    summed term by term (the polar form of Re sum c_n (r e^(i theta))^n)."""
    total = 0.0
    for n, cn in enumerate(c):
        a, b = cn.real, -cn.imag
        total = total + np.asarray(r) ** n * (a * np.cos(n * theta) + b * np.sin(n * theta))
    return total


def row_sums_loop(d) -> list:
    """Row sums sum_{j != l} d_|j-l| of the (N+1)^2 interaction table, one
    Python ``sum`` over j per row (N = len(d))."""
    n = len(d)
    return [sum(d[abs(j - l) - 1] for j in range(n + 1) if j != l) for l in range(n + 1)]


def dominance_margins_loop(A) -> list:
    """Row-dominance margins A_ll - sum_{j != l} |A_lj|, by ``math.fsum``
    over each row's entries in column order."""
    n = len(A)
    return [math.fsum([A[l, l]] + [-abs(A[l, j]) for j in range(n) if j != l])
            for l in range(n)]


# ----------------------------------------------------------------------------
# finite-difference derivative certification

class GradientMismatchError(LiouvilleLabError):
    """Finite-difference convergence slope too low for the claimed gradient."""


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
# high-precision bubble density

def bubble_density_mp(params, y, dps: int = 50) -> np.ndarray:
    """|y|^2N h e^V = h e^mu |y|^2N / (1 + c|y^(N+1) - 1 - p|^2)^2 at each point
    of y, in mpmath at ``dps`` digits, rounded to floats.

    The float inputs y, p, mu and h are taken as exact, so the oracle measures
    the rounding of an evaluation, not of its inputs.
    """
    n1 = params.N + 1
    with mpmath.workdps(dps):
        h = mpmath.mpf(params.h)
        e_mu = mpmath.exp(mpmath.mpf(params.mu))
        c = h * e_mu / (8 * n1 ** 2)
        off = 1 + mpmath.mpc(params.p)
        values = []
        for point in np.ravel(y):
            w = mpmath.mpc(complex(point))
            d = 1 + c * abs(w ** n1 - off) ** 2
            values.append(float(h * e_mu * abs(w) ** (2 * params.N) / (d * d)))
    return np.reshape(values, np.shape(y))


def maxima_mp(N: int, p: complex, dps: int = 30) -> np.ndarray:
    """The N+1 roots of y^(N+1) = 1 + p by mpmath's polynomial root finder at
    ``dps`` digits, rounded to complex floats; entry l is the root nearest
    e^(2 pi i l/(N+1)).  The float p is taken as exact."""
    n1 = N + 1
    with mpmath.workdps(dps):
        roots = mpmath.polyroots([1] + [0] * N + [-(1 + mpmath.mpc(p))],
                                 maxsteps=200, extraprec=2 * dps)
        ordered = [None] * n1
        for r in roots:
            ordered[int(mpmath.nint(mpmath.arg(r) * n1 / (2 * mpmath.pi))) % n1] = complex(r)
    assert None not in ordered, "two roots nearest one root of unity"
    return np.array(ordered)


# ----------------------------------------------------------------------------
# high-precision Sturm count

def sturm_count_mp(d, e, x, dps: int = 40) -> int:
    """Eigenvalues of the symmetric tridiagonal (d, e) below x: the negative
    pivots of the LDL^T factorization of T - x, in mpmath at ``dps`` digits.

    The float entries and x are taken as exact, so the count is that of the
    very matrix a float solver sees.
    """
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        count, q = 0, mpmath.mpf(1)
        for i, di in enumerate(d):
            q = mpmath.mpf(di) - x - (mpmath.mpf(e[i - 1]) ** 2 / q if i else 0)
            if q == 0:
                q = mpmath.mpf(10) ** -dps
            count += q < 0
        return count


# ----------------------------------------------------------------------------
# report parsers

def entry_from_dict(d: dict) -> ReportEntry:
    return ReportEntry(check_id=d["check_id"], params=dict(d["params"]),
                       measured=d["measured"], expected=d["expected"],
                       tolerance=d["tolerance"], provenance=d["provenance"])


def parse_json(text: str):
    return [entry_from_dict(d) for d in json.loads(text)]


def parse_csv(text: str):
    reader = csv.DictReader(io.StringIO(text))
    entries = []
    for row in reader:
        entries.append(ReportEntry(
            check_id=row["check_id"],
            params=json.loads(row["params"]),
            measured=float(row["measured"]),
            expected=float(row["expected"]),
            tolerance=float(row["tolerance"]),
            provenance=row["provenance"],
        ))
    return entries
