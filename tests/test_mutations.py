"""Each record shown able to fail: a mutation table.

A row names one package function, a mutant that breaks the mathematics a
record checks (a factor, a sign, an exponent), the scenario run that writes
the record, and the record ids that must fail under the mutant.  A record
no mutation can flip shows green whatever the code computes.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from liouville_lab import bubbles, scenarios
from liouville_lab.bubbles import MaximaResult, roots_of_unity


def laplacian_half_factor(params, y):
    # -4 d_zbar S where Delta V = -8 d_zbar S
    return -4.0 * bubbles._dz_terms(params, y)[1]


def maxima_without_offset(params):
    # Q_l = e^(2 pi i l/(N+1)), the maxima of the centred bubble whatever p
    w = roots_of_unity(params.N)
    return MaximaResult(Q=w, gap=np.abs(w - w * (1.0 + params.p / (params.N + 1))))


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


MUTATIONS = (
    Mutation("laplacian-half-factor", bubbles, "bubble_laplacian", laplacian_half_factor,
             _bubble, ("bubble/residual",)),
    Mutation("maxima-without-offset", bubbles, "find_maxima", maxima_without_offset,
             _bubble, ("bubble/maxima-first-order", "bubble/maxima-root")),
)


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutation_fails_its_records(mutation, monkeypatch):
    assert all(e.pass_ for e in mutation.run() if e.check_id in mutation.fails)
    monkeypatch.setattr(mutation.module, mutation.attr, mutation.mutant)
    entries = mutation.run()
    for check_id in mutation.fails:
        verdicts = [e.pass_ for e in entries if e.check_id == check_id]
        assert verdicts and not all(verdicts), check_id
