"""Named verification scenarios assembling ReportEntry lists.

Every scenario is deterministic for a fixed seed; randomized sweeps draw from
numpy Generators seeded from the scenario seed.  One-sided checks are encoded
as violation margins: measured is the amount by which the bound is broken
(0.0 when satisfied), the raw quantity rides along in params.
"""

from __future__ import annotations

import math

import numpy as np

from . import bubbles, harmonic, interaction, kernels, maxima, pohozaev, radial
from .bubbles import BubbleParams
from .config import Defaults
from .errors import DichotomyError
from .harmonic import FourierBoundaryData, LayerField, layer_from_coefficients
from .interaction import InteractionParams
from .numerics import FourierCoefficients, QuadratureSpec, circle_fourier, sample_circle
from .report import ReportEntry, sort_entries

SCENARIOS = ("identities", "moments", "bubble", "farfield", "layer-dichotomy",
             "interaction", "pohozaev", "branch", "conjecture-disk", "all")


def _entry(check_id, params, measured, expected, tolerance, provenance) -> ReportEntry:
    return ReportEntry(check_id=check_id, params=params, measured=float(measured),
                       expected=float(expected), tolerance=float(tolerance),
                       provenance=provenance)


def _bound_entry(check_id, params, value, bound, provenance, direction="<=") -> ReportEntry:
    """One-sided check encoded as a violation margin (0 when satisfied)."""
    value = float(value)
    bound = float(bound)
    violation = max(value - bound, 0.0) if direction == "<=" else max(bound - value, 0.0)
    params = dict(params)
    params["value"] = value
    params["bound"] = bound
    return ReportEntry(check_id=check_id, params=params, measured=violation,
                       expected=0.0, tolerance=0.0, provenance=provenance)


def _spec(cfg: Defaults, rel=None, abs_=None) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=rel if rel is not None else cfg.rel_tol,
                          abs_tol=abs_ if abs_ is not None else cfg.abs_tol,
                          max_subdivisions=cfg.max_subdivisions,
                          plane_compactification_scale=cfg.plane_compactification_scale)


# ----------------------------------------------------------------------------
# identities

def scenario_identities(cfg: Defaults, overrides: dict) -> list:
    n_max = int(overrides.get("n_max", overrides.get("N", cfg.identity_n_max)))
    entries = []
    half = maxima.check_half_angle_identity()
    entries.append(_entry("identities/half-angle", {"n_theta": 720},
                          half.residual, 0.0, 1e-12, "paper"))
    worst_sine = worst_root = worst_row = 0.0
    for N in range(1, n_max + 1):
        worst_sine = max(worst_sine, maxima.check_sine_sum_identity(N).residual / max(N * N, 1))
        worst_root = max(worst_root, maxima.check_root_sum_identity(N).residual / N)
        worst_row = max(worst_row, maxima.check_row_sum_independence(N).residual / max(N * N, 1))
    entries.append(_entry("identities/sine-sum", {"N_max": n_max},
                          worst_sine, 0.0, 1e-9, "paper"))
    entries.append(_entry("identities/root-sum", {"N_max": n_max},
                          worst_root, 0.0, 1e-10, "paper"))
    entries.append(_entry("identities/row-sum-independence", {"N_max": n_max},
                          worst_row, 0.0, 1e-9, "paper"))

    # interaction matrix: dominance margin d_l, positive minimum singular value,
    # solve residual versus conditioning
    rng = np.random.default_rng(int(overrides.get("seed", cfg.seed)))
    worst_margin = 0.0
    min_sigma = math.inf
    worst_solve = 0.0
    for N in range(1, n_max + 1):
        rhs = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        sol = maxima.solve_maxima_system(N, rhs)
        d = sol.matrix.d
        worst_margin = max(worst_margin,
                           float(np.max(np.abs(sol.dominance_margins - d) / d)))
        min_sigma = min(min_sigma, sol.min_singular_value)
        worst_solve = max(worst_solve,
                          sol.solve_residual / (sol.condition_number * np.linalg.norm(rhs)))
    entries.append(_entry("identities/matrix-margin", {"N_max": n_max},
                          worst_margin, 0.0, 1e-12, "paper"))
    entries.append(_bound_entry("identities/matrix-min-singular", {"N_max": n_max},
                                min_sigma, 1.0, "derived", direction=">="))
    entries.append(_entry("identities/matrix-solve-residual",
                          {"N_max": n_max, "seed": int(overrides.get("seed", cfg.seed))},
                          worst_solve, 0.0, 1e-12, "derived"))
    return entries


# ----------------------------------------------------------------------------
# moments

def scenario_moments(cfg: Defaults, overrides: dict) -> list:
    spec = _spec(cfg, rel=1e-9, abs_=1e-12)
    entries = []
    _, _, i2 = interaction.moment_integrals(BubbleParams(N=1, mu=2.0, p=0, h=8.0), spec)
    entries.append(_entry("moments/I2", {}, i2, 16.0 * math.pi, 1e-6, "paper"))
    Ns = (1, 2, 3)
    mus = (4.0, 6.0, 8.0)
    ps = (0.0, 0.05, 0.1)
    for N in Ns:
        for mu in mus:
            for pabs in ps:
                p = pabs * np.exp(1j * 0.37) if pabs else 0j
                params = BubbleParams(N=N, mu=mu, p=p, h=8.0 * (N + 1) ** 2)
                i0, i1, _ = interaction.moment_integrals(params, spec)
                mass = 8.0 * math.pi * (N + 1)
                key = {"N": N, "mu": mu, "p": pabs}
                entries.append(_entry("moments/I0", key, abs(i0) / mass, 0.0, 1e-6, "paper"))
                entries.append(_entry("moments/I1", key, abs(i1) / mass, 0.0, 1e-6, "paper"))
    return entries


# ----------------------------------------------------------------------------
# bubble

_BUBBLE_SETS = (
    BubbleParams(N=1, mu=0.0, p=0j, h=32.0),
    BubbleParams(N=2, mu=4.0, p=0.05, h=10.0),
    BubbleParams(N=0, mu=5.0, p=0j, h=8.0),
    BubbleParams(N=3, mu=6.0, p=0.02 + 0.03j, h=2.0),
)


def scenario_bubble(cfg: Defaults, overrides: dict) -> list:
    seed = int(overrides.get("seed", cfg.seed))
    rng = np.random.default_rng(seed)
    spec = _spec(cfg)
    entries = []
    for params in _BUBBLE_SETS:
        pts = []
        while len(pts) < 100:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if 0 < abs(z) <= 3:
                pts.append(z)
        res = max(abs(bubbles.bubble_residual(params, z)) for z in pts)
        entries.append(_entry("bubble/residual",
                              {"N": params.N, "mu": params.mu, "h": params.h, "seed": seed},
                              res, 0.0, 1e-9, "paper"))
    for N in (0, 1, 2, 3):
        params = BubbleParams(N=N, mu=cfg.bubble_mu, p=0.02, h=8.0 * (N + 1) ** 2)
        mass = bubbles.total_mass(params, spec)
        entries.append(_entry("bubble/total-mass", {"N": N, "mu": cfg.bubble_mu},
                              mass, 8.0 * math.pi * (N + 1), 1e-6, "derived"))
    for N, p in ((1, 0.01), (2, 0.1 * np.exp(0.4j)), (3, 0.05)):
        params = BubbleParams(N=N, mu=8.0, p=p, h=8.0)
        result = bubbles.find_maxima(params)
        entries.append(_bound_entry("bubble/maxima-first-order", {"N": N, "p": abs(p)},
                                    float(np.max(result.gap)), 5.0 * abs(p) ** 2, "paper"))
        grad = max(np.hypot(*bubbles.bubble_gradient(params, q)) for q in result.Q)
        entries.append(_entry("bubble/maxima-gradient", {"N": N, "p": abs(p)},
                              grad, 0.0, 1e-10, "derived"))
        root_res = float(np.max(np.abs(result.Q ** (N + 1) - (1.0 + p))))
        entries.append(_entry("bubble/maxima-root", {"N": N, "p": abs(p)},
                              root_res, 0.0, 1e-12, "trivial"))
    params = BubbleParams(N=2, mu=3.0, p=0j, h=5.0)
    zs = 0.3 + 1.1j
    rot = np.exp(1j * math.tau / 3.0)
    sym = abs(bubbles.eval_bubble(params, zs * rot) - bubbles.eval_bubble(params, zs))
    entries.append(_entry("bubble/rotation-symmetry", {"N": 2}, sym, 0.0, 1e-12, "trivial"))
    return entries


# ----------------------------------------------------------------------------
# farfield

def scenario_farfield(cfg: Defaults, overrides: dict) -> list:
    entries = []
    mu = float(overrides.get("mu", cfg.farfield_mu))
    Ls = (10.0, 20.0, 40.0)
    for N in (1, 2):
        params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
        gaps = []
        for L in Ls:
            gap = bubbles.far_field_max_gap(params, L)
            bound = 10.0 * (L ** (-3 * N - 3) + math.exp(-mu) * L ** (-2 * N - 2))
            gaps.append(gap)
            entries.append(_bound_entry("farfield/gap", {"N": N, "mu": mu, "L": L},
                                        gap, bound, "paper"))
        slope = float(np.polyfit(np.log(Ls), np.log(gaps), 1)[0])
        entries.append(_bound_entry("farfield/slope", {"N": N, "mu": mu},
                                    slope, -(2.0 * N + 2.0), "derived"))
        # measured subleading coefficients of the trace at L = 30: the secular
        # L^-(2N+2) term vanishes and the cos((2N+2) theta) coefficient is 2
        L = 30.0
        vals = sample_circle(lambda z: bubbles.eval_bubble(params, z), 0j, L, 1024)
        coeffs = circle_fourier(vals, 3 * N + 4)
        base = (-mu + 2.0 * math.log(params.D / params.h) - 4.0 * (N + 1) * math.log(L))
        secular = (float(np.mean(vals)) - base) * L ** (2 * N + 2)
        entries.append(_entry("farfield/secular-coefficient", {"N": N, "L": L},
                              secular, 0.0, 1e-2, "derived"))
        c2 = coeffs.a[2 * N + 2] * L ** (2 * N + 2)
        entries.append(_entry("farfield/cos-2N2-coefficient", {"N": N, "L": L},
                              c2, 2.0, 1e-2, "derived"))
    # rescaled profile around a maximum
    params = BubbleParams(N=1, mu=16.0, p=0j, h=32.0)
    gap10 = abs(bubbles.rescaled_profile_gap(params, 10.0))
    entries.append(_bound_entry("farfield/rescaled-gap", {"N": 1, "mu": 16.0, "z": 10.0},
                                gap10, 20.0 * math.exp(-8.0), "derived"))
    return entries


# ----------------------------------------------------------------------------
# layer dichotomy

def _random_layer(rng, N: int, delta: float, L: int, rho: float = 1.5) -> LayerField:
    n_modes = L
    A = np.zeros(n_modes + 1)
    B = np.zeros(n_modes + 1)
    for n in range(1, n_modes + 1):
        A[n] = rng.uniform(-1, 1) * rho ** (-n)
        B[n] = rng.uniform(-1, 1) * rho ** (-n)
    forced = int(rng.integers(1, n_modes + 1))
    A[forced] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    dn = delta ** np.arange(n_modes + 1, dtype=float)
    return layer_from_coefficients(N=N, delta=delta, L=L, A=A * dn, B=B * dn)


def scenario_layer_dichotomy(cfg: Defaults, overrides: dict) -> list:
    seed = int(overrides.get("seed", cfg.seed))
    draws = int(overrides.get("draws", cfg.dichotomy_draws))
    delta = float(overrides.get("delta", cfg.layer_delta))
    rng = np.random.default_rng(seed)
    entries = []
    min_ratio = math.inf
    for _ in range(draws):
        N = int(rng.integers(1, 5))
        layer = _random_layer(rng, N, delta, L=6)
        try:
            res = harmonic.grad_h_at_roots(layer, threshold=0.0)
        except DichotomyError:
            min_ratio = 0.0
            break
        min_ratio = min(min_ratio, res.ratio)
    entries.append(_bound_entry("layer/dichotomy-min-ratio",
                                {"draws": draws, "delta": delta, "seed": seed},
                                min_ratio, cfg.dichotomy_threshold, "paper", direction=">="))

    # constructed counter-example: gradient vanishes at the first root yet is
    # Theta(delta*) at another
    ds = 1.0
    layer = layer_from_coefficients(N=1, delta=delta, L=2,
                                    A=[0.0, 2.0 * ds / 3.0, -ds / 3.0], B=[0.0, 0.0, 0.0])
    res = harmonic.grad_h_at_roots(layer)
    g0 = abs(res.gradients[0])
    entries.append(_entry("layer/counterexample-vanishing-root", {"N": 1},
                          g0, 0.0, 1e-12, "derived"))
    entries.append(_entry("layer/counterexample-other-root", {"N": 1},
                          res.ratios[1], 4.0 / 3.0, 1e-2, "derived"))
    entries.append(_entry("layer/counterexample-index", {"N": 1},
                          res.index, 1.0, 0.0, "derived"))

    # oscillation-killer coefficients against the bubble trace
    mu = 12.0
    dl = 0.05
    for N in (1, 2):
        params = BubbleParams(N=N, mu=mu, p=0j, h=1.0)
        killer = harmonic.bubble_oscillation_killer(params, dl, n_max=cfg.fourier_n_max)
        A, _ = killer.monomial_coefficients()
        lead = A[N + 1] / (4.0 * dl ** (2 * N + 2))
        entries.append(_entry("layer/killer-mode-N1", {"N": N, "delta": dl, "mu": mu},
                              lead, 1.0, 0.1, "paper"))
        second = A[2 * N + 2] / (2.0 * dl ** (4 * N + 4))
        entries.append(_entry("layer/killer-mode-2N2", {"N": N, "delta": dl, "mu": mu},
                              second, 1.0, 0.1, "derived"))
    # build_layer arithmetic and the Phi == 0 fallback
    a = np.zeros(5)
    a[1], a[2] = 0.3, 0.5
    phi = FourierBoundaryData(radius=1.0, coefficients=FourierCoefficients(a=a, b=np.zeros(5)))
    layer = harmonic.build_layer(phi, BubbleParams(N=2, mu=mu, p=0j, h=1.0), 0.1, L=2)
    entries.append(_entry("layer/delta-star-sum", {"N": 2, "delta": 0.1},
                          layer.delta_star, 0.035, 1e-12, "derived"))
    zero = FourierBoundaryData(radius=1.0,
                               coefficients=FourierCoefficients(a=np.zeros(5), b=np.zeros(5)))
    layer0 = harmonic.build_layer(zero, BubbleParams(N=1, mu=mu, p=0j, h=1.0), 0.1, L=2)
    entries.append(_entry("layer/delta-star-fallback", {"N": 1, "delta": 0.1},
                          layer0.delta_star, 1e-4, 1e-18, "paper"))
    return entries


# ----------------------------------------------------------------------------
# interaction

def scenario_interaction(cfg: Defaults, overrides: dict) -> list:
    entries = []
    mu = float(overrides.get("mu", cfg.interaction_mu))
    eps = math.exp(-mu / 2.0)
    M = 0.01
    spec = _spec(cfg, rel=1e-9)
    sep = InteractionParams(N=1, mu_s=mu, mu_l=mu, p_s=0j,
                            p_l=-eps * M * np.exp(0.3j), h_s=1.0, h_l=1.0, M=M)
    res = interaction.interaction_coefficient(sep, spec)
    entries.append(_entry("interaction/pure-separation", {"N": 1, "mu": mu},
                          res.quadrature, res.closed_form, 0.10, "derived"))
    entries.append(_bound_entry("interaction/phi1-moment", {"N": 1, "mu": mu},
                                abs(res.phi1_integral), 10.0 * eps, "paper"))
    entries.append(_bound_entry("interaction/phi2-moment", {"N": 1, "mu": mu},
                                abs(res.phi2_integral), 10.0 * eps, "paper"))
    coef = InteractionParams(N=1, mu_s=mu, mu_l=mu, p_s=0j, p_l=0j,
                             h_s=1.0, h_l=1.0 + 0.01 * M, M=M)
    res2 = interaction.interaction_coefficient(coef, spec)
    entries.append(_entry("interaction/pure-coefficient", {"N": 1, "mu": mu},
                          res2.quadrature, res2.closed_form, 0.10, "derived"))
    both = InteractionParams(N=1, mu_s=mu, mu_l=mu, p_s=0j,
                             p_l=-eps * M * np.exp(0.3j), h_s=1.0, h_l=1.0 + 0.01 * M, M=M)
    res3 = interaction.interaction_coefficient(both, spec)
    additive = res.closed_form + res2.closed_form
    # additive up to the h_l cross-factor on the separation term, O(|h_l - h_s|)
    entries.append(_entry("interaction/additivity", {"N": 1, "mu": mu},
                          res3.closed_form, additive, 1e-3, "derived"))

    # decomposition remainder: size and eps-halving
    z = 2.0 + 1.0j
    base = InteractionParams(N=1, mu_s=14.0, mu_l=14.0, p_s=0j,
                             p_l=-1e-2 * math.exp(-7.0) * np.exp(0.7j),
                             h_s=1.0, h_l=1.0, M=1.0)
    dec = interaction.decompose_difference(base, z)
    cap = 0.1 * (abs(dec.phi2) + abs(dec.phi3) + abs(dec.phi4))
    entries.append(_bound_entry("interaction/remainder-size", {"N": 1, "mu": 14.0},
                                abs(dec.remainder), cap, "derived"))

    def remainder(mu_s: float) -> float:
        e = math.exp(-mu_s / 2.0)
        prm = InteractionParams(N=1, mu_s=mu_s, mu_l=mu_s + e, p_s=0.3 * e,
                                p_l=0.3 * e - 1e-2 * e * np.exp(0.7j),
                                h_s=1.0, h_l=1.0, M=1.0)
        return abs(interaction.decompose_difference(prm, z).remainder)

    r1 = remainder(14.0)
    r2 = remainder(14.0 + 2.0 * math.log(2.0))
    entries.append(_bound_entry("interaction/remainder-halving", {"N": 1, "mu": 14.0},
                                r2 / r1, 0.7, "derived"))

    # kernel coefficients: closed form and least-squares recovery
    kp = InteractionParams(N=2, mu_s=mu, mu_l=mu, p_s=0j,
                           p_l=-2.0 * eps * M * np.exp(0.9j), h_s=1.0, h_l=1.0,
                           M=M, beta_s=math.tau / 3.0)
    c1, c2 = interaction.kernel_coefficients(kp)
    f1, f2 = interaction.fit_kernel_coefficients(kp)
    scale = math.hypot(c1, c2)
    entries.append(_entry("interaction/kernel-fit", {"N": 2, "mu": mu},
                          math.hypot(f1 - c1, f2 - c2) / scale, 0.0, 0.05, "derived"))
    rot = InteractionParams(N=2, mu_s=mu, mu_l=mu, p_s=0j,
                            p_l=kp.p_l * np.exp(1j * math.pi / 2.0), h_s=1.0, h_l=1.0,
                            M=M, beta_s=math.tau / 3.0)
    r1c, r2c = interaction.kernel_coefficients(rot)
    entries.append(_entry("interaction/kernel-rotation", {"N": 2},
                          math.hypot(r1c - (-c2), r2c - c1), 0.0, 1e-12, "trivial"))
    return entries


# ----------------------------------------------------------------------------
# pohozaev

def scenario_pohozaev(cfg: Defaults, overrides: dict) -> list:
    entries = []
    mu = float(overrides.get("mu", cfg.pohozaev_mu))
    spec = _spec(cfg, rel=1e-9, abs_=1e-11)
    radii = (0.1, 0.15, 0.2, 0.28, 0.35)
    for N in (0, 1, 2):
        params = BubbleParams(N=N, mu=mu, p=0j, h=8.0 * (N + 1) ** 2)
        field = pohozaev.bubble_field(params)
        h, grad_h = pohozaev.constant_field(params.h)
        q0 = bubbles.find_maxima(params).Q[0]
        centers = (q0, q0 * np.exp(0.25j), q0 + 0.05 + 0.02j)
        eps = math.exp(-mu / 2.0)
        worst = 0.0
        for center in centers:
            for radius in radii:
                for xi in ((1.0, 0.0), (0.0, 1.0)):
                    shift = abs(q0 - center)
                    splits = sorted({max(shift - 5 * eps, radius * 0.01), shift,
                                     min(shift + 5 * eps, radius * 0.99)}) if shift < radius else None
                    rep = pohozaev.pohozaev_check(field, h, grad_h, N, center, radius,
                                                  xi, spec, radial_splits=splits)
                    worst = max(worst, abs(rep.residual) / rep.scale)
        entries.append(_entry("pohozaev/bubble-residual", {"N": N, "mu": mu},
                              worst, 0.0, 1e-6, "paper"))
    # radial Gelfand solution at N = 0
    prof = radial.closed_form_profile(0, 1.0)
    rfield = pohozaev.radial_field(prof)
    h, grad_h = pohozaev.constant_field(prof.lam)
    rep = pohozaev.pohozaev_check(rfield, h, grad_h, 0, 0j, 0.5, (1.0, 0.0), spec,
                                  validate=False)
    entries.append(_entry("pohozaev/radial-residual", {"N": 0, "b": 1.0},
                          abs(rep.residual) / rep.scale, 0.0, 1e-6, "derived"))

    # coefficient contrast for the linear layer
    mu_c = float(overrides.get("contrast_mu", cfg.contrast_mu))
    ds = 1e-5
    layer = layer_from_coefficients(N=1, delta=0.05, L=1, A=[0.0, ds], B=[0.0, 0.0])
    params = BubbleParams(N=1, mu=mu_c, p=0j, h=1.0)
    val = pohozaev.coefficient_contrast(params, layer, 0, (1.0, 0.0), 0.3, spec)
    entries.append(_entry("pohozaev/contrast-ratio", {"N": 1, "mu": mu_c},
                          val / (8.0 * math.pi * ds), 1.0, 0.1, "derived"))
    layer2 = layer_from_coefficients(N=1, delta=0.05, L=1, A=[0.0, 2.0 * ds], B=[0.0, 0.0])
    val_dbl = pohozaev.coefficient_contrast(params, layer2, 0, (1.0, 0.0), 0.3, spec)
    entries.append(_entry("pohozaev/contrast-linearity", {"N": 1, "mu": mu_c},
                          val_dbl / (2.0 * val), 1.0, 1e-2, "trivial"))
    orth = pohozaev.coefficient_contrast(params, layer, 0, (0.0, 1.0), 0.3, spec, check=False)
    entries.append(_bound_entry("pohozaev/contrast-orthogonal", {"N": 1, "mu": mu_c},
                                abs(orth), 0.1 * ds * 8.0 * math.pi, "trivial"))

    # integration-by-parts identity with a small kernel perturbation
    params_bp = BubbleParams(N=1, mu=mu, p=0j, h=8.0)
    eps_b = 1e-6
    epsk = math.exp(-mu / 2.0)
    q0 = bubbles.find_maxima(params_bp).Q[0]

    def w_value(z):
        zz = (np.asarray(z, dtype=complex) - q0) / epsk
        return eps_b * kernels.kernel_functions(zz, params_bp.h / 8.0)[1]

    def w_gradient(z):
        z = np.asarray(z, dtype=complex)
        h_step = 1e-7
        wx = (w_value(z + h_step) - w_value(z - h_step)) / (2 * h_step)
        wy = (w_value(z + 1j * h_step) - w_value(z - 1j * h_step)) / (2 * h_step)
        return wx, wy

    wf = pohozaev.SolutionField(value=w_value, gradient=w_gradient)
    mismatch = pohozaev.byparts_identity(params_bp, wf, 0, 0.3, spec=spec)
    entries.append(_bound_entry("pohozaev/byparts-kernel", {"N": 1, "mu": mu},
                                abs(mismatch), 1e-4, "derived"))
    zero_f = pohozaev.SolutionField(value=lambda z: np.zeros(np.shape(z)),
                                    gradient=lambda z: (np.zeros(np.shape(z)),
                                                        np.zeros(np.shape(z))))
    zm = pohozaev.byparts_identity(params_bp, zero_f, 0, 0.3, spec=spec)
    entries.append(_entry("pohozaev/byparts-zero", {"N": 1}, abs(zm), 0.0, 1e-14, "trivial"))
    return entries


# ----------------------------------------------------------------------------
# branch

def scenario_branch(cfg: Defaults, overrides: dict) -> list:
    entries = []
    N = int(overrides.get("N", 1))
    spec = _spec(cfg, rel=1e-10)
    for n in sorted({0, 1, 2, N}):
        trace = radial.trace_branch(n, [0.1, 0.5, 1.0, 2.0, 10.0], spec)
        entries.append(_entry("branch/fold-lambda", {"N": n},
                              trace.fold.lambda_star, 2.0 * (n + 1) ** 2, 1e-4, "derived"))
        masses = [pt.mass for pt in trace.points]
        mono = min(np.diff(masses)) if len(masses) > 1 else 0.0
        entries.append(_bound_entry("branch/mass-monotone", {"N": n},
                                    -min(mono, 0.0), 0.0, "derived"))
        cap = 8.0 * math.pi * (n + 1)
        entries.append(_bound_entry("branch/mass-bounded", {"N": n},
                                    max(masses), cap, "paper"))
        for b in (0.1, 1.0, 10.0, 100.0, 1000.0):
            prof = radial.closed_form_profile(n, b)
            pt = radial.BranchPoint(profile=prof, u_center=2.0 * math.log1p(b),
                                    mass=radial.branch_mass(prof, spec))
            entries.append(_entry("branch/harnack", {"N": n, "b": b},
                                  radial.harnack_diagnostic(pt),
                                  math.log(2.0 * (n + 1) ** 2), 1e-6, "derived"))
        big = radial.closed_form_profile(n, 1000.0)
        mass_big = radial.branch_mass(big, spec)
        entries.append(_entry("branch/mass-limit", {"N": n, "b": 1000.0},
                              mass_big, cap, 2e-2, "derived"))
    # shooting against the closed form, both branch roots at lambda = 1 (N = 0)
    for b_true, guess in ((3.0 - 2.0 * math.sqrt(2.0), 0.3), (3.0 + 2.0 * math.sqrt(2.0), 3.8)):
        prof = radial.shoot_radial(0, 1.0, guess)
        gap = float(np.max(np.abs(prof.u - radial.closed_form_u(0, b_true, prof.r_grid))))
        entries.append(_entry("branch/shooting-gap", {"N": 0, "lambda": 1.0, "b": b_true},
                              gap, 0.0, 1e-8, "derived"))
    # fold-point eigenvalue and mode monotonicity
    for n in (0, 1, 2):
        prof = radial.closed_form_profile(n, 1.0)
        ev = kernels.principal_eigenvalue(prof, 0, n=cfg.eigen_mesh_points)
        entries.append(_entry("branch/fold-eigenvalue", {"N": n, "b": 1.0},
                              ev, 0.0, 1e-3, "derived"))
    prof = radial.closed_form_profile(1, 1.0)
    ev8 = kernels.principal_eigenvalue(prof, 8, n=cfg.eigen_mesh_points)
    entries.append(_bound_entry("branch/high-mode-positive", {"N": 1, "mode": 8},
                                ev8, 0.0, "derived", direction=">="))
    evN1 = kernels.principal_eigenvalue(prof, 2, n=cfg.eigen_mesh_points)
    entries.append(_bound_entry("branch/mode-N1-eigenvalue-resolved", {"N": 1, "mode": 2},
                                abs(evN1 - kernels.principal_eigenvalue(prof, 2,
                                                                        n=cfg.eigen_mesh_points // 2)),
                                1e-3, "derived"))
    bessel = kernels.principal_eigenvalue(radial.zero_potential_profile(), 0,
                                          n=2 * cfg.eigen_mesh_points)
    entries.append(_entry("branch/bessel-eigenvalue", {"N": 0, "lambda": 0.0},
                          bessel, 5.783185962946785, 1e-3, "derived"))
    return entries


# ----------------------------------------------------------------------------
# conjecture-disk

def scenario_conjecture_disk(cfg: Defaults, overrides: dict) -> list:
    """Offset-circle layer construction for the Dirichlet-disk geometry.

    The bubble's angular tail (trace minus its radial far-field part, which the
    height family absorbs) is sampled on a circle between radii 1/delta and
    R/delta, internally tangent to the inner circle; its oscillation-killing
    harmonic extension, normalised to vanish at the origin, supplies the layer
    whose scale delta* must land in [C delta^(2N+2), C delta^(N+2)] and whose
    gradient at the roots of unity drives the coefficient contrast.
    """
    entries = []
    N = int(overrides.get("N", 1))
    delta = float(overrides.get("delta", cfg.conjecture_delta))
    mu = float(overrides.get("mu", cfg.conjecture_mu))
    R_out = 2.0
    params = BubbleParams(N=N, mu=mu, p=0j, h=1.0)

    def angular_tail(z):
        z = np.asarray(z, dtype=complex)
        return bubbles.eval_bubble(params, z) + 4.0 * (N + 1) * np.log(np.abs(z))

    # offset evaluation circle between |y| = 1/delta and R/delta, internally
    # tangent to the inner circle
    rho_c = (1.0 + R_out) / (2.0 * delta)
    center = (rho_c - 1.0 / delta) * np.exp(0.3j)
    vals = sample_circle(angular_tail, center, rho_c, 4096)
    coeffs = circle_fourier(vals, cfg.fourier_n_max)
    coeffs.a[0] = 0.0
    data = FourierBoundaryData(radius=rho_c, coefficients=coeffs)

    def phi0(y):
        y = np.asarray(y, dtype=complex)
        return harmonic.harmonic_extend(data, y - center) \
            - harmonic.harmonic_extend(data, -center)

    # monomial coefficients of phi0 around the origin, read off on |y| = 1
    trace1 = sample_circle(phi0, 0j, 1.0, 512)
    c1 = circle_fourier(trace1, 16)
    entries.append(_entry("conjecture/zero-mean", {"N": N, "delta": delta},
                          abs(c1.a[0]), 0.0, 1e-10, "trivial"))
    c1.a[0] = 0.0   # provably zero (mean value property); drop the Fourier noise
    delta_star = float(np.sum(np.abs(c1.a[1:N + 2]) + np.abs(c1.b[1:N + 2])))
    entries.append(_bound_entry("conjecture/delta-star-lower", {"N": N, "delta": delta},
                                delta_star / delta ** (2 * N + 2), 0.1, "paper",
                                direction=">="))
    entries.append(_bound_entry("conjecture/delta-star-upper", {"N": N, "delta": delta},
                                delta_star / delta ** (N + 2), 100.0, "paper"))

    layer = layer_from_coefficients(N=N, delta=delta, L=N + 1,
                                    A=c1.a[:2 * N + 4], B=c1.b[:2 * N + 4],
                                    delta_star=delta_star)
    dich = harmonic.grad_h_at_roots(layer, threshold=cfg.dichotomy_threshold)
    entries.append(_bound_entry("conjecture/dichotomy", {"N": N, "delta": delta},
                                dich.ratio, cfg.dichotomy_threshold, "paper",
                                direction=">="))

    g = dich.gradients[dich.index]
    xi = (g / abs(g)).real, (g / abs(g)).imag
    spec = _spec(cfg, rel=1e-9)
    val = pohozaev.coefficient_contrast(params, layer, dich.index, xi, 0.3, spec,
                                        check=False)
    predicted = abs(g) * 8.0 * math.pi / params.h
    entries.append(_entry("conjecture/contrast-ratio", {"N": N, "delta": delta},
                          val / predicted, 1.0, 0.1, "derived"))
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


def run_scenario(name: str, overrides: dict | None = None,
                 cfg: Defaults | None = None) -> list:
    """Execute one named scenario (or 'all') and return its sorted entries."""
    overrides = dict(overrides or {})
    cfg = cfg or Defaults()
    if name == "all":
        return sort_entries([e for run in _SCENARIO_FUNCS.values()
                             for e in run(cfg, overrides)])
    if name not in _SCENARIO_FUNCS:
        raise KeyError(f"unknown scenario: {name!r} (choose from {', '.join(SCENARIOS)})")
    return sort_entries(_SCENARIO_FUNCS[name](cfg, overrides))
