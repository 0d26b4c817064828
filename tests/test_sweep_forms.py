"""The light suite's array sweeps against the per-item forms they replaced.

The layer dichotomy draws its 200 layers as rows and reads each N's rows in
one gradient pass; the bubble scenario draws each candidate point with one
call; the interaction fields are formed by products; the Harnack diagnostic
scans a uniform grid in t = log r.  The forms they replaced are kept here as
references: the per-draw layer loop must give the same minimum ratio bitwise
and the scalar-draw point loop the same points, each leaving the generator
in the same state; the fields must match the angle-and-cosine form to 1e-13
of each field's largest value, and the Harnack value must match the
geometric-grid scan to 1e-14 and the scan of its two whole log grids, which
it now takes in pieces, bitwise.
"""

import math

import numpy as np
import pytest

from liouville_lab import bubbles, harmonic, interaction, scenarios
from liouville_lab.harmonic import grad_h_at_roots, layer_from_coefficients
from liouville_lab.interaction import InteractionParams, decompose_difference
from liouville_lab.radial import RadialProfile, closed_form_u, harnack_diagnostic

DRAWS, DELTA, L = 200, 0.1, 6


def reference_random_layer(rng, N, delta, L):
    rho = 1.5
    A = np.zeros(L + 1)
    B = np.zeros(L + 1)
    for n in range(1, L + 1):
        A[n] = rng.uniform(-1, 1) * rho ** (-n)
        B[n] = rng.uniform(-1, 1) * rho ** (-n)
    forced = int(rng.integers(1, L + 1))
    A[forced] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    dn = delta ** np.arange(L + 1, dtype=float)
    return layer_from_coefficients(N=N, L=L, c=(A - 1j * B) * dn)


def reference_sweep(seed):
    """The per-draw loop: (layers, min ratio, generator)."""
    rng = np.random.default_rng(seed)
    layers, min_ratio = [], math.inf
    for _ in range(DRAWS):
        N = int(rng.integers(1, 5))
        layer = reference_random_layer(rng, N, DELTA, L)
        layers.append(layer)
        min_ratio = np.minimum(min_ratio, grad_h_at_roots(layer).ratio)
    return layers, min_ratio, rng


def _min_ratio_record(entries):
    (entry,) = [e for e in entries if e.check_id == "layer/dichotomy-min-ratio"]
    return entry.params["value"]


class TestDichotomySweep:
    @pytest.mark.parametrize("seed", range(20))
    def test_min_ratio_bitwise(self, seed):
        _, expected, _ = reference_sweep(seed)
        got = _min_ratio_record(scenarios.scenario_layer_dichotomy(seed))
        assert got.hex() == float(expected).hex()

    def test_rows_and_generator_state(self):
        layers, _, reference_rng = reference_sweep(42)
        rng = np.random.default_rng(42)
        N, c, delta_star = scenarios._random_layers(rng, DRAWS, DELTA, L)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert N.tolist() == [layer.N for layer in layers]
        assert np.array_equal(c, np.stack([layer.c for layer in layers]))
        assert delta_star.tolist() == [layer.delta_star for layer in layers]

    def test_gradient_passes(self, monkeypatch):
        # one pass per N drawn (N = 1..4) and one for the counter-example;
        # the per-draw loop called grad_h_at_roots 201 times.  The sweep's
        # generator ends where the per-draw loop's does.
        calls, generators = [], []
        real, real_rng = harmonic.root_gradients, np.random.default_rng

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        def rng_spy(seed):
            generators.append(real_rng(seed))
            return generators[-1]

        monkeypatch.setattr(harmonic, "root_gradients", spy)
        monkeypatch.setattr(np.random, "default_rng", rng_spy)
        entries = scenarios.scenario_layer_dichotomy(42)
        monkeypatch.undo()
        assert entries and all(e.pass_ for e in entries)
        assert len(calls) <= 5
        (rng,) = generators
        assert rng.bit_generator.state == reference_sweep(42)[2].bit_generator.state

    def test_stack_of_one_is_the_layer_gradient(self):
        layers, _, _ = reference_sweep(3)
        for layer in layers[:20]:
            gx, gy = layer.phi0_gradient(np.exp(1j * math.tau * np.arange(layer.N + 1)
                                                / (layer.N + 1)))
            g, ratios = harmonic.root_gradients(layer.N, layer.c[None, :], layer.delta_star)
            assert np.array_equal(g[0].real, gx) and np.array_equal(g[0].imag, gy)
            assert np.array_equal(ratios[0], np.hypot(gx, gy) / layer.delta_star)


def reference_bubble_points(seed):
    """The scalar-draw loop: 100 points in 0 < |z| <= 3 per parameter set, and
    the generator."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in scenarios._BUBBLE_SETS:
        pts = []
        while len(pts) < 100:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if 0 < abs(z) <= 3:
                pts.append(z)
        sets.append(np.array(pts))
    return sets, rng


@pytest.mark.parametrize("seed", range(20))
def test_bubble_points_bitwise(seed, monkeypatch):
    drawn, generators = [], []
    real_residual, real_rng = bubbles.bubble_residual, np.random.default_rng

    def residual_spy(params, y):
        drawn.append(np.array(y))
        return real_residual(params, y)

    def rng_spy(seed):
        generators.append(real_rng(seed))
        return generators[-1]

    monkeypatch.setattr(bubbles, "bubble_residual", residual_spy)
    monkeypatch.setattr(np.random, "default_rng", rng_spy)
    scenarios.scenario_bubble(seed, 1e-8)
    monkeypatch.undo()
    sets, reference_rng = reference_bubble_points(seed)
    assert [pts.tobytes() for pts in drawn] == [pts.tobytes() for pts in sets]
    (rng,) = generators
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def reference_fields(params, z):
    z = np.asarray(z, dtype=complex)
    eps = params.eps
    w = z + 0.5 * params.N * eps * z * z * np.exp(-1j * params.beta_s)
    B = 1.0 + params.h_s / 8.0 * np.abs(w) ** 2
    dlt = params.delta_p
    phi1 = (params.mu_s - params.mu_l) * (1.0 - params.h_s / 8.0 * np.abs(w) ** 2) / B
    phi2 = (params.h_s / (2.0 * (params.N + 1) * eps)) \
        * (w * np.conj(dlt) * np.exp(-1j * params.beta_s)).real / B
    ang = np.angle(z)
    phi3 = (params.h_s * abs(dlt) ** 2 / (4.0 * (params.N + 1) ** 2 * eps ** 2 * B)
            * (1.0 - params.h_s * np.abs(z) ** 2
               * (1.0 + np.cos(2.0 * ang - 2.0 * params.theta_sl - 2.0 * params.beta_s))
               / (8.0 * B)))
    phi4 = (params.h_s / 4.0) * ((params.h_l - params.h_s) / params.h_l) * np.abs(w) ** 2 / B
    return phi1, phi2, phi3, phi4


def _pairs():
    out = []
    for mu in (10.0, 16.0, 26.0):
        eps, M = math.exp(-mu / 2.0), 0.01
        out += [
            InteractionParams(N=1, mu_s=mu, mu_l=mu + 0.2, p_s=0j,
                              p_l=-eps * M * np.exp(0.3j), h_s=1.0, h_l=1.0 + 0.01 * M, M=M),
            InteractionParams(N=2, mu_s=mu, mu_l=mu, p_s=0.5 * eps * M * np.exp(2.0j),
                              p_l=-eps * M, h_s=1.3, h_l=1.2, M=M, beta_s=0.7),
            InteractionParams(N=3, mu_s=mu, mu_l=mu - 0.1, p_s=0j, p_l=0j,
                              h_s=1.0, h_l=1.01, M=M),
        ]
    return out


def _sample(params, n, seed):
    """n points with |z| <= 0.5/eps, graded toward 0, and z = 0 itself."""
    rng = np.random.default_rng(seed)
    r = 0.5 / params.eps * rng.uniform(0.0, 1.0, n) ** 4
    z = r * np.exp(1j * rng.uniform(0.0, math.tau, n))
    z[0] = 0.0
    return z


class TestInteractionFields:
    @pytest.mark.parametrize("k", range(9))
    def test_product_form(self, k):
        params = _pairs()[k]
        z = _sample(params, 4000, k)
        for new, old in zip(interaction._fields(params, z), reference_fields(params, z)):
            scale = np.max(np.abs(old))
            assert np.max(np.abs(new - old)) <= 1e-13 * scale
            assert new[0] == old[0]

    @pytest.mark.parametrize("k", range(9))
    def test_scalar_path(self, k):
        params = _pairs()[k]
        for z in (0j, 0.5 + 0.25j, -3.0 + 7.0j, 0.45 / params.eps * np.exp(1.1j)):
            dec = decompose_difference(params, z)
            old = reference_fields(params, z)
            new = (dec.phi1, dec.phi2, dec.phi3, dec.phi4)
            for a, b in zip(new, old):
                assert a == pytest.approx(float(b), rel=1e-13, abs=1e-300)


def reference_harnack(prof):
    m = prof.N + 1
    r_star = prof.b ** (-1.0 / (2.0 * m))
    r_hi = max(1.0, 4.0 * r_star)
    r = np.concatenate([np.geomspace(1e-6, r_hi, 20001),
                        np.geomspace(r_star / 1.5, r_star * 1.5, 4001)])
    vals = closed_form_u(prof.N, prof.b, r) + math.log(prof.lam) + 2.0 * m * np.log(r)
    return float(np.max(vals))


def whole_grid_harnack(prof):
    """The log-grid scan with both grids as whole linspace arrays."""
    m, b = prof.N + 1, prof.b
    t_star = -math.log(b) / (2.0 * m)
    t_hi = max(0.0, t_star + math.log(4.0))
    half = math.log(1.5)
    t = np.concatenate([np.linspace(math.log(1e-6), t_hi, 20001),
                        np.linspace(t_star - half, t_star + half, 4001)])
    s = 2.0 * m * t
    vals = s - 2.0 * np.log1p(b * np.exp(s))
    return float(np.max(vals)) + 2.0 * math.log1p(b) + math.log(prof.lam)


# the branch scenario's 15 profiles at its default N = 1
BRANCH_PROFILES = [RadialProfile(n, b) for n in (0, 1, 2)
                   for b in (0.1, 1.0, 10.0, 100.0, 1000.0)]


@pytest.mark.parametrize("prof", BRANCH_PROFILES, ids=lambda p: f"N{p.N}-b{p.b:g}")
def test_harnack_log_grid(prof):
    value = harnack_diagnostic(prof)
    assert abs(value - reference_harnack(prof)) <= 1e-14
    # the scan in pieces reads the whole grids' value to the bit
    assert value == whole_grid_harnack(prof)

