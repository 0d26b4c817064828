"""Each record shown able to fail: a mutation table.

A row names one package function, a mutant that breaks the mathematics a
record checks (a factor, a sign, an exponent), the scenario run that writes
the record, and the record ids that must fail under the mutant.  A record
no mutation can flip shows green whatever the code computes.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from liouville_lab import bubbles, interaction, pohozaev, radial, scenarios
from liouville_lab.bubbles import roots_of_unity

_closed_form_interaction = interaction.closed_form_interaction
_closed_form_u_prime = radial.closed_form_u_prime
_kernel_terms = bubbles._kernel_terms
_peak_width = bubbles.peak_width
_shoot_once = radial._shoot_once


def laplacian_half_factor(params, y):
    # -4 d_zbar S where Delta V = -8 d_zbar S
    return -4.0 * bubbles._dz_terms(params, y)[1]


def maxima_without_offset(params):
    # Q_l = e^(2 pi i l/(N+1)), the maxima of the centred bubble whatever p
    return roots_of_unity(params.N)


def peak_width_doubled(mu):
    # eps = 2 e^(-mu/2): the rescaled variable twice too wide
    return 2.0 * _peak_width(mu)


def gradient_half_factor(params, y):
    # (V_x, V_y) at half their size
    gx, gy = bubbles.bubble_gradient(params, y)
    return 0.5 * gx, 0.5 * gy


def u_prime_scaled(N, b, r):
    # u' of the radial profile 1% too steep
    return 1.01 * _closed_form_u_prime(N, b, r)


def kernel_weight_raised(params, y):
    # the kernel's weight |y|^(2N+2) in place of |y|^2N
    F, q, weight = _kernel_terms(params, y)
    return F, q, weight * np.abs(y) ** 2


def density_without_lam(profile, r):
    # r^2N e^u, the radial source without its lambda
    return r ** (2 * profile.N) * np.exp(profile.u_at(r))


def closed_form_doubled(params):
    # D_sl twice its size
    return 2.0 * _closed_form_interaction(params)


def shot_at_raised_lambda(N, lam, u0, spec):
    # every shot of the radial equation at 1.01 lambda: a genuine solution,
    # but of the wrong problem
    return _shoot_once(N, 1.01 * lam, u0, spec)


@dataclass(frozen=True)
class Mutation:
    name: str
    module: object
    attr: str
    mutant: object
    run: object             # () -> report entries at the scenario's defaults
    fails: tuple            # ids of which at least one record must fail


def _bubble():
    return scenarios.scenario_bubble(42, 1e-8)


def _pohozaev():
    return scenarios.scenario_pohozaev(10.0)


def _branch():
    return scenarios.scenario_branch(1)


def _farfield():
    return scenarios.scenario_farfield(12.0)


def _interaction():
    return scenarios.scenario_interaction(16.0)


MUTATIONS = (
    Mutation("laplacian-half-factor", bubbles, "bubble_laplacian", laplacian_half_factor,
             _bubble, ("bubble/residual",)),
    Mutation("maxima-without-offset", bubbles, "find_maxima", maxima_without_offset,
             _bubble, ("bubble/maxima-first-order", "bubble/maxima-root")),
    Mutation("peak-width-doubled", bubbles, "peak_width", peak_width_doubled,
             _farfield, ("farfield/rescaled-gap",)),
    Mutation("gradient-half-factor", pohozaev, "bubble_gradient", gradient_half_factor,
             _pohozaev, ("pohozaev/bubble-residual",)),
    Mutation("radial-u-prime-scaled", radial, "closed_form_u_prime", u_prime_scaled,
             _pohozaev, ("pohozaev/radial-residual",)),
    Mutation("radial-density-without-lambda", radial.RadialProfile, "density",
             density_without_lam, _branch, ("branch/mass-limit",)),
    Mutation("kernel-weight-raised", interaction, "_kernel_terms", kernel_weight_raised,
             scenarios.scenario_moments, ("moments/I0", "moments/I1")),
    Mutation("closed-form-interaction-doubled", interaction, "closed_form_interaction",
             closed_form_doubled, _interaction,
             ("interaction/pure-separation", "interaction/pure-coefficient")),
    Mutation("shot-at-raised-lambda", radial, "_shoot_once", shot_at_raised_lambda,
             _branch, ("branch/shooting-gap",)),
)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutation_fails_its_records(mutation, monkeypatch):
    assert all(e.pass_ for e in mutation.run() if e.check_id in mutation.fails)
    monkeypatch.setattr(mutation.module, mutation.attr, mutation.mutant)
    entries = mutation.run()
    for check_id in mutation.fails:
        verdicts = [e.pass_ for e in entries if e.check_id == check_id]
        assert verdicts and not all(verdicts), check_id
