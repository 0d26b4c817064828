"""Disk Green's function, force balance at the maxima, and the interaction system.

The Green's function of B(0, R) with Dirichlet boundary is

    G(y, eta) = -(1/2 pi) [ log|y - eta| - log( |eta| |y - R^2 eta/|eta|^2| / R ) ],

whose regular part H is harmonic in y.  The mutual-repulsion gradient of the
oscillation-killing harmonic function at near-roots-of-unity maxima yields the
force balance 2N Q_l/|Q_l|^2 + grad phi_l(Q_l) = 0, the trigonometric
identities behind it, and the linear system A m = rhs for the maxima
perturbations, with d_j = 1/sin^2(j pi/(N+1)) and diagonal D = N(N+2)/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import roots_of_unity
from .numerics import solve_with_diagnostics


@dataclass
class MaximaConfiguration:
    """N+1 maxima near the roots of unity, inside B(0, R)."""

    N: int
    Q: np.ndarray
    R: float = math.inf

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=complex)
        if self.Q.size != self.N + 1:
            raise ValueError("need N+1 maxima")
        if np.any(np.abs(self.Q) <= 0.5) or np.any(np.abs(self.Q) >= 1.5):
            raise ValueError("maxima must stay near the unit circle")

    @classmethod
    def from_roots(cls, N: int):
        return cls(N=N, Q=roots_of_unity(N))


@dataclass
class InteractionMatrix:
    """Coefficients d_j, diagonal D, and the matrix A of the perturbation system."""

    N: int
    d: np.ndarray
    D: float
    A: np.ndarray


def interaction_coefficients_d(N: int) -> np.ndarray:
    """d_j = 1/sin^2(j pi/(N+1)), j = 1..N, with d_j = d_{N+1-j} exact.

    Only the lower half is evaluated (arguments below pi/2, no argument
    reduction) and mirrored, so the sine symmetry holds bitwise.
    """
    d = np.empty(N)
    for j in range(1, N // 2 + 2):
        if j > N:
            break
        v = 1.0 / math.sin(j * math.pi / (N + 1)) ** 2
        d[j - 1] = v
        d[N - j] = v
    return d


def build_interaction_matrix(N: int) -> InteractionMatrix:
    d = interaction_coefficients_d(N)
    D = math.fsum(d)
    l = np.arange(N)
    A = -d[np.abs(l[:, None] - l) - 1]
    np.fill_diagonal(A, D)
    return InteractionMatrix(N=N, d=d, D=D, A=A)


# ----------------------------------------------------------------------------
# Green's function of the disk

def green_disk(R: float, y, eta):
    """(G, H, grad1_H) for the disk B(0, R), elementwise in y and eta.

    G vanishes on |y| = R, is symmetric, and G = -(1/2 pi) log|y - eta| + H
    with H(y, eta) = (1/2 pi) log(|eta| |y - R^2 eta / |eta|^2| / R), written
    as (1/2 pi) log(|conj(eta) y - R^2| / R) so that it holds at eta = 0 too.
    H is smooth on the diagonal y = eta, where G is +inf.  grad1_H is the
    gradient of H in the first argument, returned as a complex number
    gx + i gy: it is 1 / (2 pi conj(y - eta*)) with eta* = R^2 eta / |eta|^2
    the image point.
    """
    if R <= 0:
        raise ValueError("disk radius must be positive")
    y = np.asarray(y, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    if np.any(np.abs(y) >= R) or np.any(np.abs(eta) >= R):
        raise ValueError("both points must lie inside the disk")
    H = np.log(np.abs(np.conj(eta) * y - R * R) / R) / math.tau
    with np.errstate(divide="ignore"):
        G = H - np.log(np.abs(y - eta)) / math.tau
    grad1 = eta / (math.tau * (eta * np.conj(y) - R * R))
    return G, H, grad1


def oscillation_gradient(config: MaximaConfiguration):
    """Mutual-repulsion gradients of the oscillation-killing harmonic functions.

    Returns (gradients, image_corrections): gradients[m] is
    -4 sum_{l != m} (Q_m - Q_l)/|Q_m - Q_l|^2 as a complex number, after the
    root-of-unity cancellation sum e^{i beta_l} = 0 removes the leading image
    term; image_corrections[m] is the full Green-image sum
    8 pi sum_l grad1_H(Q_m, Q_l), self term l = m included, reported for
    verification (it vanishes as R -> infinity and is O(sigma R^-2) + O(R^-4)
    otherwise).
    """
    Q = config.Q
    diff = Q[:, None] - Q[None, :]
    off = ~np.eye(Q.size, dtype=bool)
    if np.min(np.abs(diff[off])) < 1e-12:
        raise ValueError("coincident maxima make the mutual-repulsion sum singular")
    # (Q_m - Q_l)/|Q_m - Q_l|^2 = 1/conj(Q_m - Q_l)
    repulsion = np.zeros_like(diff)
    repulsion[off] = 1.0 / np.conj(diff[off])
    grads = -4.0 * repulsion.sum(axis=1)
    if math.isinf(config.R):
        return grads, np.zeros_like(grads)
    image = green_disk(config.R, Q[:, None], Q[None, :])[2]
    return grads, 8.0 * math.pi * image.sum(axis=1)


def force_balance_residuals(config: MaximaConfiguration) -> np.ndarray:
    """|2N Q_l / |Q_l|^2 + grad phi_l(Q_l)| per maximum."""
    grads, _ = oscillation_gradient(config)
    N = config.N
    res = 2.0 * N * config.Q / np.abs(config.Q) ** 2 + grads
    return np.abs(res)


# ----------------------------------------------------------------------------
# identity suite: each check returns its residual

# the half-angle identity is checked at the angles tau k / 720, k = 1..719
HALF_ANGLE_SAMPLES = 720


def check_half_angle_identity() -> float:
    """e^{i theta}/(1 - e^{i theta})^2 = -1/(4 sin^2(theta/2)) off multiples of 2 pi.

    Both sides blow up like theta^-2 near the excluded points, so the residual
    is measured relative to 1 + |rhs| (the absolute difference is then float
    cancellation only).
    """
    n_theta = HALF_ANGLE_SAMPLES
    theta = math.tau * np.arange(1, n_theta) / n_theta
    z = np.exp(1j * theta)
    lhs = z / (1.0 - z) ** 2
    rhs = -0.25 / np.sin(theta / 2.0) ** 2
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


def check_sine_sum_identity(N: int) -> float:
    """sum_k 1/sin^2(k pi/(N+1)) = N(N+2)/3."""
    s = float(np.sum(interaction_coefficients_d(N)))
    return abs(s - N * (N + 2) / 3.0)


def check_row_sum_independence(N: int) -> float:
    """The diagonal D = sum_{j != l} d_|j-l| does not depend on l.

    Row l of the (N+1)^2 table d_|j-l|, with 0.0 on the diagonal, is summed
    left to right by ``cumsum``: the order of a plain loop over j, and adding
    the diagonal's 0.0 is exact, so each row sum is that loop's bitwise.
    """
    d0 = np.concatenate(([0.0], interaction_coefficients_d(N)))
    j = np.arange(N + 1)
    sums = np.cumsum(d0[np.abs(j[:, None] - j)], axis=1)[:, -1]
    return float(np.max(np.abs(sums - sums[0])))


# ----------------------------------------------------------------------------
# perturbation system

SYSTEM_N_MAX = 64


@dataclass
class MaximaSystemSolution:
    m: np.ndarray
    matrix: InteractionMatrix
    dominance_margins: np.ndarray
    min_singular_value: float
    condition_number: float
    solve_residual: float


def solve_maxima_system(N: int, rhs) -> MaximaSystemSolution:
    """Solve A m = rhs for the complex maxima perturbations m_1..m_N.

    Reports the strict row-dominance margin (equal to d_l: eliminating the
    j = 0 column removes d_l from row l's off-diagonal sum) and the minimum
    singular value.
    """
    if N > SYSTEM_N_MAX:
        raise ValueError(f"perturbation system capped at N = {SYSTEM_N_MAX}")
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.size != N:
        raise ValueError("rhs must have N entries")
    mat = build_interaction_matrix(N)
    # exact summation: the cancellation D - sum_offdiag = d_l is exact in the
    # reals and must survive in floats; fsum is exact, so the margin is the
    # rounded sum of row l of -|A| with A's diagonal put back, in any order
    rows = -np.abs(mat.A)
    np.fill_diagonal(rows, np.diag(mat.A))
    margins = np.array([math.fsum(row) for row in rows.tolist()])
    m, min_sigma, cond, residual = solve_with_diagnostics(mat.A, rhs)
    return MaximaSystemSolution(m=m, matrix=mat, dominance_margins=margins,
                                min_singular_value=min_sigma, condition_number=cond,
                                solve_residual=residual)

