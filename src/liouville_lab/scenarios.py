"""Named verification scenarios assembling ReportEntry lists.

Every scenario is deterministic for a fixed seed; randomized sweeps draw from
numpy Generators seeded from the scenario seed.  One-sided checks are encoded
as violation margins: measured is the amount by which the bound is broken
(0.0 when satisfied), the raw quantity rides along in params.

``INPUTS`` lists the only values a caller can set.  Every other number a check
depends on (thresholds, draw counts, mesh sizes, quadrature tolerances) is a
constant written beside that check.  ``PROVENANCE`` declares each check id
once, with its provenance, which every record of that id carries.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import bubbles, harmonic, interaction, kernels, maxima, pohozaev, radial
from .bubbles import BubbleParams
from .errors import LiouvilleLabError, QuadratureBudgetError
from .harmonic import layer_from_coefficients
from .interaction import InteractionParams
from .numerics import QuadratureSpec, circle_fourier, sample_circle
from .report import ReportEntry, sort_entries


@dataclass(frozen=True)
class Setting:
    """A scenario input: its default and its inclusive range.

    An int default makes the input an integer.
    """

    default: float
    low: float
    high: float


SEED = Setting(42, 0, math.inf)
# The inputs each scenario reads, by override name.  Every scenario and `all`
# also accept `seed` (it is all that `all` accepts): it reaches the three
# randomized scenarios, which list it, and cannot change the others.
INPUTS = {
    "identities": {"seed": SEED, "N": Setting(maxima.SYSTEM_N_MAX, 1, maxima.SYSTEM_N_MAX)},
    "moments": {},
    "bubble": {"seed": SEED, "tol": Setting(1e-8, 1e-14, 1e-2)},
    "farfield": {"mu": Setting(12.0, 0.0, 100.0)},
    "layer-dichotomy": {"seed": SEED},
    "interaction": {"mu": Setting(16.0, 0.0, 100.0)},
    "pohozaev": {"mu": Setting(10.0, 0.0, 100.0)},
    "branch": {"N": Setting(1, 0, 64)},
    # 2N + 4 Fourier modes of the layer must fit the 17 read off on |y| = 1
    "conjecture-disk": {"N": Setting(1, 1, 6), "mu": Setting(14.0, 0.0, 100.0)},
}
SCENARIOS = (*INPUTS, "all")


# Each check id's provenance: `paper` for pinned constants, `trivial` for
# structural identities, `derived` for values computed by an independent oracle
PROVENANCE = {
    **dict.fromkeys((
        "branch/mass-bounded", "branch/mode-certificate", "bubble/kernel-residual",
        "bubble/maxima-first-order", "bubble/residual", "conjecture/delta-star-lower",
        "conjecture/delta-star-upper", "conjecture/dichotomy", "conjecture/image-term",
        "farfield/gap", "identities/half-angle", "identities/matrix-margin", "identities/root-sum",
        "identities/row-sum-independence", "identities/sine-sum", "interaction/phi1-moment",
        "interaction/phi2-moment", "layer/delta-star-fallback", "layer/dichotomy-min-ratio",
        "layer/killer-mode-N1", "moments/I0", "moments/I1", "moments/I2",
        "pohozaev/bubble-residual",
    ), "paper"),
    **dict.fromkeys((
        "bubble/maxima-root", "bubble/rotation-symmetry", "conjecture/zero-mean",
        "interaction/kernel-rotation", "pohozaev/byparts-zero", "pohozaev/contrast-linearity",
        "pohozaev/contrast-orthogonal",
    ), "trivial"),
    **dict.fromkeys((
        "branch/bessel-eigenvalue", "branch/fold-b", "branch/fold-eigenvalue",
        "branch/fold-lambda", "branch/harnack", "branch/high-mode-positive", "branch/mass-limit",
        "branch/mass-monotone", "branch/mode-N1-eigenvalue-resolved", "branch/mode-residual",
        "branch/shooting-gap", "bubble/maxima-gradient", "bubble/total-mass",
        "conjecture/contrast-ratio", "farfield/cos-2N2-coefficient", "farfield/rescaled-gap",
        "farfield/secular-coefficient", "farfield/slope", "identities/matrix-min-singular",
        "identities/matrix-solve-residual", "interaction/additivity", "interaction/kernel-fit",
        "interaction/kernel-fit-residual", "interaction/pure-coefficient",
        "interaction/pure-separation", "interaction/remainder-halving",
        "interaction/remainder-size", "layer/counterexample-index",
        "layer/counterexample-other-root", "layer/counterexample-vanishing-root",
        "layer/delta-star-sum", "layer/killer-mode-2N2", "pohozaev/byparts-kernel",
        "pohozaev/contrast-ratio", "pohozaev/radial-residual",
        *(f"{name}/error" for name in INPUTS),
    ), "derived"),
}


def _entry(check_id, params, measured, expected, tolerance) -> ReportEntry:
    return ReportEntry(check_id=check_id, params=params, measured=float(measured),
                       expected=float(expected), tolerance=float(tolerance),
                       provenance=PROVENANCE[check_id])


def _bound_entry(check_id, params, value, bound, direction="<=") -> ReportEntry:
    """One-sided check encoded as a violation margin (0 when satisfied)."""
    value = float(value)
    bound = float(bound)
    # np.maximum keeps a NaN; with 0.0 first it also keeps the sign of a zero violation
    violation = np.maximum(0.0, value - bound if direction == "<=" else bound - value)
    return _entry(check_id, {**params, "value": value, "bound": bound}, violation, 0.0, 0.0)


@contextmanager
def _records(entries: list, params: dict, ids: tuple):
    """A LiouvilleLabError in the block fails each check id of ``ids`` that it
    has not yet appended to ``entries``, and the scenario goes on.  A failed
    record's params name the exception and its message, and carry a
    QuadratureBudgetError's error estimate and the tolerance it missed, as
    ``estimate`` and ``quad_tol``, each when it is finite."""
    start = len(entries)
    try:
        yield entries
    except LiouvilleLabError as exc:
        written = {e.check_id for e in entries[start:]}
        failed = {**params, "exception": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, QuadratureBudgetError):
            evidence = {"estimate": exc.estimate, "quad_tol": exc.tolerance}
            failed.update((key, v) for key, v in evidence.items() if math.isfinite(v))
        entries.extend(_entry(check_id, failed, 1.0, 0.0, 0.0)
                       for check_id in ids if check_id not in written)


# ----------------------------------------------------------------------------
# identities

def scenario_identities(seed: int, N: int) -> list:
    entries = []
    entries.append(_entry("identities/half-angle", {"n_theta": maxima.HALF_ANGLE_SAMPLES},
                          maxima.check_half_angle_identity(), 0.0, 1e-12))
    worst_sine = worst_root = worst_row = 0.0
    for n in range(1, N + 1):
        worst_sine = np.maximum(worst_sine, maxima.check_sine_sum_identity(n) / (n * n))
        # the force balance at the exact roots of unity is the root-sum identity
        # N = 2 sum_{j != l} Q_l / (Q_l - Q_j), doubled
        balance = maxima.force_balance_residuals(maxima.MaximaConfiguration.from_roots(n))
        worst_root = np.maximum(worst_root, np.max(balance) / n)
        worst_row = np.maximum(worst_row, maxima.check_row_sum_independence(n) / (n * n))
    entries.append(_entry("identities/sine-sum", {"N_max": N}, worst_sine, 0.0, 1e-9))
    entries.append(_entry("identities/root-sum", {"N_max": N}, worst_root, 0.0, 1e-10))
    entries.append(_entry("identities/row-sum-independence", {"N_max": N}, worst_row, 0.0, 1e-9))

    # interaction matrix: dominance margin d_l, positive minimum singular value,
    # solve residual versus conditioning
    rng = np.random.default_rng(seed)
    worst_margin = 0.0
    min_sigma = math.inf
    worst_solve = 0.0
    for n in range(1, N + 1):
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sol = maxima.solve_maxima_system(n, rhs)
        d = sol.d
        worst_margin = np.maximum(worst_margin, np.max(np.abs(sol.dominance_margins - d) / d))
        min_sigma = np.minimum(min_sigma, sol.min_singular_value)
        worst_solve = np.maximum(worst_solve, sol.solve_residual
                                 / (sol.condition_number * np.linalg.norm(rhs)))
    entries.append(_entry("identities/matrix-margin", {"N_max": N}, worst_margin, 0.0, 1e-12))
    entries.append(_bound_entry("identities/matrix-min-singular", {"N_max": N},
                                min_sigma, 1.0, direction=">="))
    entries.append(_entry("identities/matrix-solve-residual", {"N_max": N, "seed": seed},
                          worst_solve, 0.0, 1e-12))
    return entries


# ----------------------------------------------------------------------------
# moments

def scenario_moments() -> list:
    spec = QuadratureSpec(rel_tol=1e-9)
    entries = []
    entries.append(_entry("moments/I2", {}, interaction.second_moment(spec), 16.0 * math.pi, 1e-6))
    Ns = (1, 2, 3)
    mus = (4.0, 6.0, 8.0)
    ps = (0.0, 0.05, 0.1)
    for N in Ns:
        for mu in mus:
            for pabs in ps:
                p = pabs * np.exp(1j * 0.37) if pabs else 0j
                params = BubbleParams(N=N, mu=mu, p=p, h=8.0 * (N + 1) ** 2)
                i0, i1 = interaction.moment_integrals(params, spec)
                mass = 8.0 * math.pi * (N + 1)
                key = {"N": N, "mu": mu, "p": pabs}
                entries.append(_entry("moments/I0", key, abs(i0) / mass, 0.0, 1e-6))
                entries.append(_entry("moments/I1", key, abs(i1) / mass, 0.0, 1e-6))
    return entries


# ----------------------------------------------------------------------------
# bubble

_BUBBLE_SETS = (
    BubbleParams(N=1, mu=0.0, p=0j, h=32.0),
    BubbleParams(N=2, mu=4.0, p=0.05, h=10.0),
    BubbleParams(N=0, mu=5.0, p=0j, h=8.0),
    BubbleParams(N=3, mu=6.0, p=0.02 + 0.03j, h=2.0),
)


def scenario_bubble(seed: int, tol: float) -> list:
    rng = np.random.default_rng(seed)
    spec = QuadratureSpec(rel_tol=tol)
    entries = []
    for params in _BUBBLE_SETS:
        pts = []
        while len(pts) < 100:
            z = complex(*rng.uniform(-3, 3, size=2))
            if 0 < abs(z) <= 3:
                pts.append(z)
        pts = np.array(pts)
        res = float(np.max(np.abs(bubbles.bubble_residual(params, pts))))
        entries.append(_entry("bubble/residual",
                              {"N": params.N, "mu": params.mu, "h": params.h, "seed": seed},
                              res, 0.0, 1e-9))
        # the kernel of the linearization at the planar bubble with c = h/8
        c = params.h / 8.0
        kres = np.max(np.abs(kernels.kernel_residuals(pts, c)))
        entries.append(_entry("bubble/kernel-residual", {"c": c, "seed": seed}, kres, 0.0, 1e-9))
    mu = 6.0
    for N in (0, 1, 2, 3):
        params = BubbleParams(N=N, mu=mu, p=0.02, h=8.0 * (N + 1) ** 2)
        mass = bubbles.total_mass(params, spec)
        entries.append(_entry("bubble/total-mass", {"N": N, "mu": mu, "tol": tol},
                              mass, 8.0 * math.pi * (N + 1), 1e-6))
    for N, p in ((1, 0.01), (2, 0.1 * np.exp(0.4j)), (3, 0.05)):
        params = BubbleParams(N=N, mu=8.0, p=p, h=8.0)
        Q = bubbles.find_maxima(params)
        first_order = bubbles.roots_of_unity(N) * (1.0 + params.p / (N + 1))
        entries.append(_bound_entry("bubble/maxima-first-order", {"N": N, "p": abs(p)},
                                    float(np.max(np.abs(Q - first_order))), 5.0 * abs(p) ** 2))
        grad = np.max([np.hypot(*bubbles.bubble_gradient(params, q)) for q in Q])
        entries.append(_entry("bubble/maxima-gradient", {"N": N, "p": abs(p)}, grad, 0.0, 1e-10))
        root_res = float(np.max(np.abs(Q ** (N + 1) - (1.0 + p))))
        entries.append(_entry("bubble/maxima-root", {"N": N, "p": abs(p)}, root_res, 0.0, 1e-12))
    params = BubbleParams(N=2, mu=3.0, p=0j, h=5.0)
    zs = 0.3 + 1.1j
    rot = np.exp(1j * math.tau / 3.0)
    sym = abs(bubbles.eval_bubble(params, zs * rot) - bubbles.eval_bubble(params, zs))
    entries.append(_entry("bubble/rotation-symmetry", {"N": 2}, sym, 0.0, 1e-12))
    return entries


# ----------------------------------------------------------------------------
# farfield

def scenario_farfield(mu: float) -> list:
    entries = []
    Ls = (10.0, 20.0, 40.0)
    for N in (1, 2):
        params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
        gaps = []
        for L in Ls:
            gap = bubbles.far_field_max_gap(params, L)
            bound = 10.0 * (L ** (-3 * N - 3) + math.exp(-mu) * L ** (-2 * N - 2))
            gaps.append(gap)
            entries.append(_bound_entry("farfield/gap", {"N": N, "mu": mu, "L": L}, gap, bound))
        slope = float(np.polyfit(np.log(Ls), np.log(gaps), 1)[0])
        entries.append(_bound_entry("farfield/slope", {"N": N, "mu": mu}, slope, -(2.0 * N + 2.0)))
        # measured subleading coefficients of the trace at L = 30: the secular
        # L^-(2N+2) term is -2/c, from the mean of -2 log(1 + c|F|^2) on |y| = L,
        # and the cos((2N+2) theta) coefficient is 2
        L = 30.0
        vals = sample_circle(lambda z: bubbles.eval_bubble(params, z), 0j, L, 1024)
        coeffs = circle_fourier(vals, 3 * N + 4)
        base = (-mu + 2.0 * math.log(params.D / params.h) - 4.0 * (N + 1) * math.log(L))
        secular = (float(np.mean(vals)) - base) * L ** (2 * N + 2)
        entries.append(_entry("farfield/secular-coefficient", {"N": N, "mu": mu, "L": L},
                              secular, -2.0 / params.coefficient, 1e-2))
        c2 = coeffs[2 * N + 2].real * L ** (2 * N + 2)
        entries.append(_entry("farfield/cos-2N2-coefficient", {"N": N, "L": L}, c2, 2.0, 1e-2))
    # rescaled profile around a maximum
    params = BubbleParams(N=1, mu=16.0, p=0j, h=32.0)
    gap10 = abs(bubbles.rescaled_profile_gap(params, 10.0))
    entries.append(_bound_entry("farfield/rescaled-gap", {"N": 1, "mu": 16.0, "z": 10.0},
                                gap10, 20.0 * bubbles.peak_width(params.mu)))
    return entries


# ----------------------------------------------------------------------------
# layer dichotomy

def _random_layers(rng, draws: int, delta: float, L: int):
    """``draws`` random layers as rows ``(N, c, delta*)``, N in 1..4 per row.

    Mode-n coefficients decay like 1.5^-n, with one mode forced to order
    one.  Each draw takes from ``rng``, in this order, its N, its 2L uniforms
    A_1, B_1, ..., A_L, B_L, the forced mode, its sign and its size.
    """
    N = np.empty(draws, dtype=int)
    U = np.empty((draws, 2 * L))
    forced = np.empty(draws, dtype=int)
    value = np.empty(draws)
    for k in range(draws):
        N[k] = rng.integers(1, 5)
        U[k] = rng.uniform(-1, 1, size=2 * L)
        forced[k] = rng.integers(1, L + 1)
        value[k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    decay = 1.5 ** -np.arange(1, L + 1, dtype=float)
    A = np.zeros((draws, L + 1))
    B = np.zeros((draws, L + 1))
    A[:, 1:] = U[:, 0::2] * decay
    B[:, 1:] = U[:, 1::2] * decay
    A[np.arange(draws), forced] = value
    c = (A - 1j * B) * delta ** np.arange(L + 1, dtype=float)
    return N, c, harmonic.layer_scale(c, L)


def scenario_layer_dichotomy(seed: int) -> list:
    draws = 200
    delta = 0.1
    rng = np.random.default_rng(seed)
    entries = []
    N, c, delta_star = _random_layers(rng, draws, delta, L=6)
    # each draw's dichotomy ratio is its largest over the roots; one pass per N
    worst = [np.max(harmonic.root_gradients(int(n), c[N == n], delta_star[N == n])[1], axis=1)
             for n in np.unique(N)]
    min_ratio = np.min(np.concatenate(worst))
    entries.append(_bound_entry("layer/dichotomy-min-ratio",
                                {"draws": draws, "delta": delta, "seed": seed},
                                min_ratio, harmonic.DICHOTOMY_THRESHOLD, direction=">="))

    # constructed counter-example: gradient vanishes at the first root yet is
    # Theta(delta*) at another
    ds = 1.0
    layer = layer_from_coefficients(N=1, L=2, c=[0.0, 2.0 * ds / 3.0, -ds / 3.0])
    res = harmonic.grad_h_at_roots(layer)
    g0 = abs(res.gradients[0])
    entries.append(_entry("layer/counterexample-vanishing-root", {"N": 1}, g0, 0.0, 1e-12))
    entries.append(_entry("layer/counterexample-other-root", {"N": 1},
                          res.ratios[1], 4.0 / 3.0, 1e-2))
    entries.append(_entry("layer/counterexample-index", {"N": 1}, res.index, 1.0, 0.0))

    # oscillation-killer coefficients against the bubble trace
    mu = 12.0
    dl = 0.05
    for N in (1, 2):
        params = BubbleParams(N=N, mu=mu, p=0j, h=1.0)
        # monomial normalisation c_n rho^-n on rho = 1/dl; rho^-n keeps the report's bits
        killer = harmonic.bubble_oscillation_killer(params, dl)
        A = (killer * (1.0 / dl) ** -np.arange(killer.size, dtype=float)).real
        lead = A[N + 1] / (4.0 * dl ** (2 * N + 2))
        entries.append(_entry("layer/killer-mode-N1", {"N": N, "delta": dl, "mu": mu},
                              lead, 1.0, 0.1))
        second = A[2 * N + 2] / (2.0 * dl ** (4 * N + 4))
        entries.append(_entry("layer/killer-mode-2N2", {"N": N, "delta": dl, "mu": mu},
                              second, 1.0, 0.1))
    # build_layer arithmetic and the Phi == 0 fallback
    a = np.zeros(5)
    a[1], a[2] = 0.3, 0.5
    layer = harmonic.build_layer(a, BubbleParams(N=2, mu=mu, p=0j, h=1.0), 0.1, L=2)
    entries.append(_entry("layer/delta-star-sum", {"N": 2, "delta": 0.1},
                          layer.delta_star, 0.035, 1e-12))
    layer0 = harmonic.build_layer(np.zeros(5), BubbleParams(N=1, mu=mu, p=0j, h=1.0), 0.1, L=2)
    entries.append(_entry("layer/delta-star-fallback", {"N": 1, "delta": 0.1},
                          layer0.delta_star, 1e-4, 1e-18))
    return entries


# ----------------------------------------------------------------------------
# interaction

def scenario_interaction(mu: float) -> list:
    entries = []
    eps = bubbles.peak_width(mu)
    M = 0.01
    spec = QuadratureSpec(rel_tol=1e-9)
    sep = InteractionParams(N=1, mu_s=mu, mu_l=mu, p_s=0j,
                            p_l=-eps * M * np.exp(0.3j), h_s=1.0, h_l=1.0, M=M)
    coef = InteractionParams(N=1, mu_s=mu, mu_l=mu, p_s=0j, p_l=0j,
                             h_s=1.0, h_l=1.0 + 0.01 * M, M=M)
    both = InteractionParams(N=1, mu_s=mu, mu_l=mu, p_s=0j,
                             p_l=-eps * M * np.exp(0.3j), h_s=1.0, h_l=1.0 + 0.01 * M, M=M)
    key = {"N": 1, "mu": mu}
    d_sep = d_coef = None
    with _records(entries, key, ("interaction/pure-separation",)):
        d_sep = interaction.interaction_coefficient(sep, spec)
        entries.append(_entry("interaction/pure-separation", key,
                              d_sep / interaction.closed_form_interaction(sep), 1.0, 0.10))
    with _records(entries, key, ("interaction/phi1-moment", "interaction/phi2-moment")):
        phi1, phi2 = interaction.moment_contributions(sep, spec)
        entries.append(_bound_entry("interaction/phi1-moment", key, abs(phi1), 10.0 * eps))
        entries.append(_bound_entry("interaction/phi2-moment", key, abs(phi2), 10.0 * eps))
    with _records(entries, key, ("interaction/pure-coefficient",)):
        d_coef = interaction.interaction_coefficient(coef, spec)
        entries.append(_entry("interaction/pure-coefficient", key,
                              d_coef / interaction.closed_form_interaction(coef), 1.0, 0.10))
    with _records(entries, key, ("interaction/additivity",)):
        if d_sep is None or d_coef is None:
            raise LiouvilleLabError(
                "not computed: the pure-separation or pure-coefficient quadrature raised")
        d_both = interaction.interaction_coefficient(both, spec)
        # additive up to the h_l cross-factor on the separation term, O(|h_l - h_s|)
        entries.append(_entry("interaction/additivity", key, d_both / (d_sep + d_coef), 1.0, 1e-3))

    # decomposition remainder: size and eps-halving
    z = 2.0 + 1.0j
    base = InteractionParams(N=1, mu_s=14.0, mu_l=14.0, p_s=0j,
                             p_l=-1e-2 * bubbles.peak_width(14.0) * np.exp(0.7j),
                             h_s=1.0, h_l=1.0, M=1.0)
    dec = interaction.decompose_difference(base, z)
    cap = 0.1 * (abs(dec.phi2) + abs(dec.phi3) + abs(dec.phi4))
    entries.append(_bound_entry("interaction/remainder-size", {"N": 1, "mu": 14.0},
                                abs(dec.remainder), cap))

    def remainder(mu_s: float) -> float:
        e = bubbles.peak_width(mu_s)
        prm = InteractionParams(N=1, mu_s=mu_s, mu_l=mu_s + e, p_s=0.3 * e,
                                p_l=0.3 * e - 1e-2 * e * np.exp(0.7j),
                                h_s=1.0, h_l=1.0, M=1.0)
        return abs(interaction.decompose_difference(prm, z).remainder)

    r1 = remainder(14.0)
    r2 = remainder(14.0 + 2.0 * math.log(2.0))
    entries.append(_bound_entry("interaction/remainder-halving", {"N": 1, "mu": 14.0},
                                r2 / r1, 0.7))

    # kernel coefficients: closed form and least-squares recovery
    kp = InteractionParams(N=2, mu_s=mu, mu_l=mu, p_s=0j,
                           p_l=-2.0 * eps * M * np.exp(0.9j), h_s=1.0, h_l=1.0,
                           M=M, beta_s=math.tau / 3.0)
    c1, c2 = interaction.kernel_coefficients(kp)
    f1, f2, fit_residual = interaction.fit_kernel_coefficients(kp)
    scale = math.hypot(c1, c2)
    entries.append(_entry("interaction/kernel-fit", {"N": 2, "mu": mu},
                          math.hypot(f1 - c1, f2 - c2) / scale, 0.0, 0.05))
    entries.append(_bound_entry("interaction/kernel-fit-residual", {"N": 2, "mu": mu},
                                fit_residual, 0.10))
    rot = InteractionParams(N=2, mu_s=mu, mu_l=mu, p_s=0j,
                            p_l=kp.p_l * np.exp(1j * math.pi / 2.0), h_s=1.0, h_l=1.0,
                            M=M, beta_s=math.tau / 3.0)
    r1c, r2c = interaction.kernel_coefficients(rot)
    entries.append(_entry("interaction/kernel-rotation", {"N": 2},
                          math.hypot(r1c - (-c2), r2c - c1), 0.0, 1e-12))
    return entries


# ----------------------------------------------------------------------------
# pohozaev

def _kernel_perturbation(params: BubbleParams, eps_b: float):
    """w = eps_b phi1((z - Q_0)/eps), eps = e^(-mu/2), and its gradient in closed form.

    With zeta = (z - Q_0)/eps, c = h/8 and d = 1 + c|zeta|^2,
    grad w = eps_b/(eps d^2) (d - 2c zeta_x^2, -2c zeta_x zeta_y): exact at any
    width eps, where a difference quotient of fixed step fails once eps falls
    below the step (mu > 32).
    """
    q0, epsk = bubbles.maximum_peak(params, 0)
    c = params.h / 8.0

    def w(z):
        return eps_b * kernels.kernel_functions((np.asarray(z, dtype=complex) - q0) / epsk, c)[1]

    def grad_w(z):
        zeta = (np.asarray(z, dtype=complex) - q0) / epsk
        x, y = zeta.real, zeta.imag
        d = 1.0 + c * (x * x + y * y)
        scale = eps_b / (epsk * d * d)
        return scale * (d - 2.0 * c * x * x), scale * (-2.0 * c * x * y)

    return w, grad_w


def scenario_pohozaev(mu: float) -> list:
    entries = []
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-11)
    radii = (0.1, 0.15, 0.2, 0.28, 0.35)
    for N in (0, 1, 2):
        key = {"N": N, "mu": mu}
        with _records(entries, key, ("pohozaev/bubble-residual",)):
            params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
            field = pohozaev.bubble_field(params)
            peak = bubbles.maximum_peak(params, 0)
            q0 = peak[0]
            reps = [pohozaev.pohozaev_check(field, center, radii, spec, peak=peak)
                    for center in (q0, q0 * np.exp(0.25j), q0 + 0.05 + 0.02j)]
            worst = np.max([np.abs(rep.residual) / rep.scale for rep in reps])
            entries.append(_entry("pohozaev/bubble-residual", key, worst, 0.0, 1e-6))
    # radial Gelfand solution at N = 0, on a disk off the symmetry centre:
    # about 0 every term would vanish by symmetry, whatever the field
    rfield = pohozaev.radial_field(radial.RadialProfile(0, 1.0))
    rep = pohozaev.pohozaev_check(rfield, 0.25 + 0j, 0.5, spec)
    entries.append(_entry("pohozaev/radial-residual", {"N": 0, "b": 1.0},
                          abs(rep.residual[0]) / rep.scale[0], 0.0, 1e-6))

    # coefficient contrast for the linear layer
    mu_c = 14.0
    ds = 1e-5
    layer = layer_from_coefficients(N=1, L=1, c=[0.0, ds])
    params = BubbleParams(N=1, mu=mu_c, p=0j, h=1.0)
    val, orth = pohozaev.coefficient_contrast(params, layer, 0, 0.3, spec)
    entries.append(_entry("pohozaev/contrast-ratio", {"N": 1, "mu": mu_c},
                          val / (8.0 * math.pi * ds), 1.0, 0.1))
    layer2 = layer_from_coefficients(N=1, L=1, c=[0.0, 2.0 * ds])
    val_dbl = pohozaev.coefficient_contrast(params, layer2, 0, 0.3, spec)[0]
    entries.append(_entry("pohozaev/contrast-linearity", {"N": 1, "mu": mu_c},
                          val_dbl / (2.0 * val), 1.0, 1e-2))
    entries.append(_bound_entry("pohozaev/contrast-orthogonal", {"N": 1, "mu": mu_c},
                                abs(orth), 0.1 * ds * 8.0 * math.pi))

    # integration-by-parts identity with a small kernel perturbation
    params_bp = BubbleParams(N=1, mu=mu, p=0j, h=8.0)
    w, grad_w = _kernel_perturbation(params_bp, 1e-6)
    with _records(entries, {"N": 1, "mu": mu}, ("pohozaev/byparts-kernel",)):
        mismatch = pohozaev.byparts_identity(params_bp, w, grad_w, 0, 0.3, spec=spec)
        entries.append(_bound_entry("pohozaev/byparts-kernel", {"N": 1, "mu": mu},
                                    abs(mismatch), 1e-4))

    def zero(z):
        return np.zeros(np.shape(z))

    with _records(entries, {"N": 1}, ("pohozaev/byparts-zero",)):
        zm = pohozaev.byparts_identity(params_bp, zero, lambda z: (zero(z), zero(z)), 0, 0.3,
                                       spec=spec)
        entries.append(_entry("pohozaev/byparts-zero", {"N": 1}, abs(zm), 0.0, 1e-14))
    return entries


# ----------------------------------------------------------------------------
# branch

def scenario_branch(N: int) -> list:
    entries = []
    spec = QuadratureSpec(rel_tol=1e-10)
    for n in sorted({0, 1, 2, N}):
        trace = radial.trace_branch(n, [0.1, 0.5, 1.0, 2.0, 10.0], spec)
        entries.append(_entry("branch/fold-lambda", {"N": n},
                              trace.lambda_star, 2.0 * (n + 1) ** 2, 1e-4))
        entries.append(_entry("branch/fold-b", {"N": n}, trace.b_star, 1.0, 1e-6))
        masses = trace.masses
        entries.append(_bound_entry("branch/mass-monotone", {"N": n},
                                    -np.min(np.diff(masses), initial=0.0), 0.0))
        cap = 8.0 * math.pi * (n + 1)
        entries.append(_bound_entry("branch/mass-bounded", {"N": n}, np.max(masses), cap))
        # the supremum sums four rounded terms (2 log(1+b), 2 log(1 + b r^2(n+1)),
        # log lambda, 2(n+1) log r) of size at most 2 log 1001 = 13.8 < 16, where
        # an ulp is 8 eps: eight such ulps, 64 eps = 1.4e-14, bound the rounding.
        # The worst of N = 0..64 at these b reads 7.2 eps, 1.3e-15 at N = 0..2
        for b in (0.1, 1.0, 10.0, 100.0, 1000.0):
            entries.append(_entry("branch/harnack", {"N": n, "b": b},
                                  radial.harnack_diagnostic(radial.RadialProfile(n, b)),
                                  math.log(2.0 * (n + 1) ** 2), 64 * np.finfo(float).eps))
        mass_big = radial.branch_mass(radial.RadialProfile(n, 1000.0), spec)
        entries.append(_entry("branch/mass-limit", {"N": n, "b": 1000.0}, mass_big, cap, 2e-2))
    # shooting against the closed form, both branch roots at lambda = 1 (N = 0)
    for b_true, guess in ((3.0 - 2.0 * math.sqrt(2.0), 0.3), (3.0 + 2.0 * math.sqrt(2.0), 3.8)):
        u = radial.shoot_radial(0, 1.0, guess)
        gap = float(np.max(np.abs(u - radial.closed_form_u(0, b_true, radial.SHOT_RADII))))
        entries.append(_entry("branch/shooting-gap", {"N": 0, "lambda": 1.0, "b": b_true},
                              gap, 0.0, 1e-8))
    # fold-point eigenvalue and mode monotonicity
    for n in (0, 1, 2):
        ev = kernels.principal_eigenvalue(radial.RadialProfile(n, 1.0), 0)
        entries.append(_entry("branch/fold-eigenvalue", {"N": n, "b": 1.0}, ev, 0.0, 1e-3))
    prof = radial.RadialProfile(1, 1.0)
    ev8 = kernels.principal_eigenvalue(prof, 8)
    entries.append(_bound_entry("branch/high-mode-positive", {"N": 1, "mode": 8},
                                ev8, 0.0, direction=">="))
    # mode 2 resolved: its eigenvalue at n = 256 (the 512-point solve, which
    # principal_eigenvalue checks against 256 points) against the 1024-point
    # solve, its value at n = 512; each mesh is solved once
    ev512 = kernels.principal_eigenvalue(prof, 2, n=256)
    ev1024 = kernels._smallest_eig(prof, 2, 1024, None)
    entries.append(_bound_entry("branch/mode-N1-eigenvalue-resolved", {"N": 1, "mode": 2},
                                abs(ev1024 - ev512), 1e-3))
    bessel = kernels.principal_eigenvalue(radial.RadialProfile(0, 0.0), 0, n=1024)
    entries.append(_entry("branch/bessel-eigenvalue", {"N": 0, "lambda": 0.0},
                          bessel, 5.783185962946785, 1e-3))
    # per-mode solves of the linearized operator: log growth for mode 0, linear
    # for mode 1, bounded for mode 2; the residual checks that g solves
    # g'' + g'/r + (V - l^2/r^2) g = f, with g'' + g'/r = g_tt / r^2 by central
    # differences in t = log r
    for mode in (0, 1, 2):
        sol = kernels.mode_solve(mode, lambda r: (1.0 + r) ** -3.0)
        entries.append(_bound_entry("branch/mode-certificate", {"mode": mode}, sol.certificate,
                                    kernels.CERTIFICATE_THRESHOLD))
        r, g = sol.grid, sol.values
        dt = math.log(r[1] / r[0])
        g_tt = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dt ** 2
        rr = r[1:-1]
        V = kernels.potential(rr, kernels.MODE_C)
        lhs = g_tt / rr ** 2 + (V - mode ** 2 / rr ** 2) * g[1:-1]
        f = (1.0 + rr) ** -3.0
        inner = (rr >= 0.1) & (rr <= 50.0)
        entries.append(_bound_entry("branch/mode-residual", {"mode": mode},
                                    np.max(np.abs(lhs - f)[inner] / f[inner]), 1e-2))
    return entries


# ----------------------------------------------------------------------------
# conjecture-disk

def scenario_conjecture_disk(N: int, mu: float) -> list:
    """Offset-circle layer construction for the Dirichlet-disk geometry.

    The bubble's angular tail (trace minus its radial far-field part, which the
    height family absorbs) is sampled on a circle between radii 1/delta and
    R/delta, internally tangent to the inner circle; its oscillation-killing
    harmonic extension, normalised to vanish at the origin, supplies the layer
    whose scale delta* must land in [C delta^(2N+2), C delta^(N+2)] and whose
    gradient at the roots of unity drives the coefficient contrast.
    """
    entries = []
    delta = 0.02
    R_out = 2.0
    params = BubbleParams(N=N, mu=mu, p=0j, h=1.0)
    inputs = {"N": N, "delta": delta, "mu": mu}

    def angular_tail(z):
        z = np.asarray(z, dtype=complex)
        return bubbles.eval_bubble(params, z) + 4.0 * (N + 1) * np.log(np.abs(z))

    # offset evaluation circle between |y| = 1/delta and R/delta, internally
    # tangent to the inner circle
    rho_c = (1.0 + R_out) / (2.0 * delta)
    center = (rho_c - 1.0 / delta) * np.exp(0.3j)
    vals = sample_circle(angular_tail, center, rho_c, 4096)
    coeffs = circle_fourier(vals, 64)
    coeffs[0] = 0.0

    def phi0(y):
        # the harmonic extension Re sum c_n ((y - center)/rho_c)^n, zero at y = 0
        y = np.asarray(y, dtype=complex)
        return polyval((y - center) / rho_c, coeffs).real - polyval(-center / rho_c, coeffs).real

    # monomial coefficients of phi0 around the origin, read off on |y| = 1
    trace1 = sample_circle(phi0, 0j, 1.0, 512)
    c1 = circle_fourier(trace1, 16)
    entries.append(_entry("conjecture/zero-mean", inputs, abs(c1[0].real), 0.0, 1e-10))
    c1[0] = 0.0   # provably zero (mean value property); drop the Fourier noise
    layer = layer_from_coefficients(N=N, L=N + 1, c=c1[:2 * N + 4])
    entries.append(_bound_entry("conjecture/delta-star-lower", inputs,
                                layer.delta_star / delta ** (2 * N + 2), 0.1, direction=">="))
    entries.append(_bound_entry("conjecture/delta-star-upper", inputs,
                                layer.delta_star / delta ** (N + 2), 100.0))

    dich = harmonic.grad_h_at_roots(layer)
    entries.append(_bound_entry("conjecture/dichotomy", inputs,
                                dich.ratio, harmonic.DICHOTOMY_THRESHOLD, direction=">="))

    g = dich.gradients[dich.index]
    xi = np.array([g.real, g.imag]) / abs(g)
    spec = QuadratureSpec(rel_tol=1e-9)
    predicted = abs(g) * 8.0 * math.pi / params.h
    with _records(entries, inputs, ("conjecture/contrast-ratio",)):
        val = pohozaev.coefficient_contrast(params, layer, dich.index, 0.3, spec) @ xi
        entries.append(_entry("conjecture/contrast-ratio", inputs, val / predicted, 1.0, 0.1))

    # the Dirichlet image term in the force balance at the maxima of a shifted
    # bubble is O(sigma R^-2), sigma their distance from the roots of unity
    p = 0.1
    Q = bubbles.find_maxima(BubbleParams(N=N, mu=mu, p=p, h=1.0))
    sigma = float(np.max(np.abs(Q - bubbles.roots_of_unity(N))))
    for R in (20.0, 100.0):
        _, image = maxima.oscillation_gradient(maxima.MaximaConfiguration(N=N, Q=Q, R=R))
        entries.append(_bound_entry("conjecture/image-term", {"N": N, "R": R, "p": p},
                                    float(np.max(np.abs(image))) * R ** 2 / sigma, 10.0))
    return entries


# ----------------------------------------------------------------------------
# dispatcher

_SCENARIO_FUNCS = {
    "identities": scenario_identities,
    "moments": scenario_moments,
    "bubble": scenario_bubble,
    "farfield": scenario_farfield,
    "layer-dichotomy": scenario_layer_dichotomy,
    "interaction": scenario_interaction,
    "pohozaev": scenario_pohozaev,
    "branch": scenario_branch,
    "conjecture-disk": scenario_conjecture_disk,
}


def _check_overrides(name: str, overrides: dict, reads: dict) -> None:
    """Raise ValueError unless each override is ``seed`` or one of ``reads``, in range."""
    accepted = {"seed": SEED, **reads}
    for key, value in overrides.items():
        if key not in accepted:
            raise ValueError(f"{name}: no input {key} (it takes {', '.join(accepted)})")
        s = accepted[key]
        whole = isinstance(s.default, int)
        if not (s.low <= value <= s.high and (not whole or float(value).is_integer())):
            kind = "an integer" if whole else "a number"
            raise ValueError(f"{name}: {key} must be {kind} in [{s.low}, {s.high}], "
                             f"got {value}")


def _run_one(name: str, overrides: dict) -> list:
    inputs = {key: type(s.default)(overrides.get(key, s.default))
              for key, s in INPUTS[name].items()}
    with _records([], {}, (f"{name}/error",)) as entries:
        entries.extend(_SCENARIO_FUNCS[name](**inputs))
    return entries


def run_scenario(name: str, overrides: dict | None = None) -> list:
    """Execute one named scenario (or 'all') and return its sorted entries.

    Overrides are checked against ``INPUTS`` before anything runs: one the
    scenario does not read, or one outside its range, raises ValueError.  A
    LiouvilleLabError fails only the records it stops; one raised outside them
    becomes the scenario's failing ``<name>/error`` record.
    """
    overrides = overrides or {}
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario: {name!r} (choose from {', '.join(SCENARIOS)})")
    _check_overrides(name, overrides, INPUTS.get(name, {}))
    names = _SCENARIO_FUNCS if name == "all" else (name,)
    return sort_entries([e for one in names for e in _run_one(one, overrides)])
