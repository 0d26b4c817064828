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

from .numerics import LinearSolveDiagnostics, solve_with_diagnostics


@dataclass
class MaximaConfiguration:
    """N+1 near-roots-of-unity maxima and their perturbations."""

    N: int
    Q: np.ndarray
    m: np.ndarray
    R: float = math.inf

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=complex)
        self.m = np.asarray(self.m, dtype=complex)
        if self.Q.size != self.N + 1 or self.m.size != self.N + 1:
            raise ValueError("need N+1 maxima and perturbations")
        if np.any(np.abs(self.Q) <= 0.5) or np.any(np.abs(self.Q) >= 1.5):
            raise ValueError("maxima must stay near the unit circle")
        if abs(self.m[0]) > 1e-12:
            raise ValueError("normalisation requires m_0 = 0")

    @classmethod
    def from_roots(cls, N: int, perturbations=None, R: float = math.inf):
        beta = math.tau * np.arange(N + 1) / (N + 1)
        m = np.zeros(N + 1, dtype=complex) if perturbations is None \
            else np.asarray(perturbations, dtype=complex)
        return cls(N=N, Q=np.exp(1j * beta) * (1.0 + m), m=m, R=R)


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
    A = np.full((N, N), 0.0)
    for l in range(N):
        for j in range(N):
            A[l, j] = D if l == j else -d[abs(l - j) - 1]
    return InteractionMatrix(N=N, d=d, D=D, A=A)


# ----------------------------------------------------------------------------
# Green's function of the disk

def green_disk(R: float, y: complex, eta: complex):
    """(G, H, grad1_H) for the disk B(0, R).

    G vanishes on |y| = R, is symmetric, and G = -(1/2 pi) log|y - eta| + H
    with H(y, eta) = (1/2 pi) log(|eta| |y - R^2 eta / |eta|^2| / R).
    grad1_H is the gradient of H in the first argument, returned as a complex
    number gx + i gy.
    """
    if R <= 0:
        raise ValueError("disk radius must be positive")
    if abs(y) >= R or abs(eta) >= R:
        raise ValueError("both points must lie inside the disk")
    if y == eta:
        raise ValueError("Green's function is singular on the diagonal")
    if eta == 0:
        # limit of |eta| |y - R^2 eta / |eta|^2| as eta -> 0 is R^2
        H = (1.0 / math.tau) * math.log(R)
        G = -(1.0 / math.tau) * math.log(abs(y)) + H
        return G, H, 0j
    eta_star = R * R * eta / (abs(eta) ** 2)
    H = (1.0 / math.tau) * math.log(abs(eta) * abs(y - eta_star) / R)
    G = -(1.0 / math.tau) * math.log(abs(y - eta)) + H
    diff = y - eta_star
    grad1 = (1.0 / math.tau) * diff / abs(diff) ** 2
    return G, H, grad1


def oscillation_gradient(config: MaximaConfiguration):
    """Mutual-repulsion gradients of the oscillation-killing harmonic functions.

    Returns (gradients, image_corrections): gradients[m] is
    -4 sum_{l != m} (Q_m - Q_l)/|Q_m - Q_l|^2 as a complex number, after the
    root-of-unity cancellation sum e^{i beta_l} = 0 removes the leading image
    term; image_corrections[m] is the full Green-image sum
    8 pi sum_l grad1eta H(Q_m, Q_l), reported for verification (it vanishes as
    R -> infinity and is O(sigma R^-2) + O(R^-4) otherwise).
    """
    Q = config.Q
    n1 = Q.size
    if np.min([abs(Q[i] - Q[j]) for i in range(n1) for j in range(i + 1, n1)]) < 1e-12:
        raise ValueError("coincident maxima make the mutual-repulsion sum singular")
    grads = []
    corrections = []
    for m in range(n1):
        g = 0j
        for l in range(n1):
            if l == m:
                continue
            diff = Q[m] - Q[l]
            g += diff / abs(diff) ** 2
        grads.append(-4.0 * g)
        if math.isinf(config.R):
            corrections.append(0j)
        else:
            corr = 0j
            for l in range(n1):
                # regular part is smooth on the diagonal, so the self term is fine
                eta_star = config.R ** 2 * Q[l] / abs(Q[l]) ** 2
                diff = Q[m] - eta_star
                corr += 8.0 * math.pi * (1.0 / math.tau) * diff / abs(diff) ** 2
            corrections.append(corr)
    return np.asarray(grads), np.asarray(corrections)


def force_balance_residuals(config: MaximaConfiguration) -> np.ndarray:
    """|2N Q_l / |Q_l|^2 + grad phi_l(Q_l)| per maximum."""
    grads, _ = oscillation_gradient(config)
    N = config.N
    res = 2.0 * N * config.Q / np.abs(config.Q) ** 2 + grads
    return np.abs(res)


# ----------------------------------------------------------------------------
# identity suite

@dataclass
class IdentityCheck:
    name: str
    n: int
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def check_half_angle_identity(n_theta: int = 720) -> IdentityCheck:
    """e^{i theta}/(1 - e^{i theta})^2 = -1/(4 sin^2(theta/2)) off multiples of 2 pi.

    Both sides blow up like theta^-2 near the excluded points, so the residual
    is measured relative to 1 + |rhs| (the absolute difference is then float
    cancellation only).
    """
    theta = math.tau * np.arange(1, n_theta) / n_theta
    z = np.exp(1j * theta)
    lhs = z / (1.0 - z) ** 2
    rhs = -0.25 / np.sin(theta / 2.0) ** 2
    res = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))
    return IdentityCheck("half-angle", n_theta, res, 1e-12)


def check_root_sum_identity(N: int) -> IdentityCheck:
    """N = 2 sum_{j != l} e^{i beta_l} / (e^{i beta_l} - e^{i beta_j}) for every l."""
    beta = math.tau * np.arange(N + 1) / (N + 1)
    z = np.exp(1j * beta)
    worst = 0.0
    for l in range(N + 1):
        s = sum(z[l] / (z[l] - z[j]) for j in range(N + 1) if j != l)
        worst = max(worst, abs(2.0 * s - N))
    return IdentityCheck("root-sum", N, worst, 1e-10 * max(N, 1))


def check_sine_sum_identity(N: int) -> IdentityCheck:
    """sum_k 1/sin^2(k pi/(N+1)) = N(N+2)/3."""
    s = float(np.sum(interaction_coefficients_d(N)))
    res = abs(s - N * (N + 2) / 3.0)
    return IdentityCheck("sine-sum", N, res, 1e-9 * max(N * N, 1))


def check_row_sum_independence(N: int) -> IdentityCheck:
    """The diagonal D = sum_{j != l} d_|j-l| does not depend on l."""
    d = interaction_coefficients_d(N)
    sums = []
    for l in range(N + 1):
        sums.append(sum(d[abs(j - l) - 1] for j in range(N + 1) if j != l))
    res = float(np.max(np.abs(np.asarray(sums) - sums[0])))
    return IdentityCheck("row-sum-independence", N, res, 1e-9 * max(N * N, 1))


def verify_identities(N_max: int = 64):
    """Run the full identity suite for every N <= N_max."""
    if N_max > 256:
        raise ValueError("identity sweep capped at N_max = 256")
    checks = [check_half_angle_identity()]
    for N in range(1, N_max + 1):
        checks.append(check_sine_sum_identity(N))
        checks.append(check_root_sum_identity(N))
        checks.append(check_row_sum_independence(N))
    return checks


# ----------------------------------------------------------------------------
# perturbation system

@dataclass
class MaximaSystemSolution:
    m: np.ndarray
    matrix: InteractionMatrix
    dominance_margins: np.ndarray
    min_singular_value: float
    condition_number: float
    solve_residual: float
    l0_residual: float


def solve_maxima_system(N: int, rhs) -> MaximaSystemSolution:
    """Solve A m = rhs for the complex maxima perturbations m_1..m_N.

    Reports the strict row-dominance margin (equal to d_l: eliminating the
    j = 0 column removes d_l from row l's off-diagonal sum), the minimum
    singular value, and the residual of the eliminated l = 0 equation
    -sum d_j m_j = mean(rhs).
    """
    if N > 64:
        raise ValueError("perturbation system capped at N = 64")
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.size != N:
        raise ValueError("rhs must have N entries")
    mat = build_interaction_matrix(N)
    # exact summation: the cancellation D - sum_offdiag = d_l is exact in the
    # reals and must survive in floats
    margins = np.array([
        math.fsum([mat.A[l, l]] + [-abs(mat.A[l, j]) for j in range(N) if j != l])
        for l in range(N)
    ])
    diagnostics: LinearSolveDiagnostics = solve_with_diagnostics(mat.A, rhs)
    m = diagnostics.solution
    l0 = -np.sum(mat.d * m)
    l0_res = abs(l0 - np.mean(rhs))
    return MaximaSystemSolution(
        m=m,
        matrix=mat,
        dominance_margins=margins,
        min_singular_value=diagnostics.min_singular_value,
        condition_number=diagnostics.condition_number,
        solve_residual=diagnostics.residual_norm,
        l0_residual=float(l0_res),
    )

