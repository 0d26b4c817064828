"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liouville_lab.config import Defaults
from liouville_lab.report import all_pass
from liouville_lab.scenarios import run_scenario

CFG = Defaults()
GOLDEN = Path(__file__).parent / "golden" / "all-seed42.json"


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def _scenario_criterion(name, scenario, prefixes, overrides=None, max_seconds=None):
    t0 = time.time()
    entries = run_scenario(scenario, overrides or {"seed": 42}, CFG)
    elapsed = time.time() - t0
    relevant = [e for e in entries if any(e.check_id.startswith(p) for p in prefixes)]
    assert relevant, f"no entries matched {prefixes}"
    bad = [e for e in relevant if not e.pass_]
    detail = f"({len(relevant)} checks, {elapsed:.1f}s)"
    if bad:
        detail += " failing: " + ", ".join(e.check_id for e in bad[:5])
    ok = not bad
    if max_seconds is not None and elapsed > max_seconds:
        ok = False
        detail += f" [runtime {elapsed:.1f}s > {max_seconds}s]"
    _report(name, ok, detail)


def test_criterion_01_identity_suite():
    # sine-sum within 1e-9 N^2 for N <= 64, root-sum within 1e-10 N per l,
    # half-angle within 1e-12 on 720 points; under one second
    _scenario_criterion("01-identities", "identities",
                        ["identities/half-angle", "identities/sine-sum",
                         "identities/root-sum", "identities/row-sum-independence"],
                        max_seconds=1.0)


def test_criterion_02_moment_suite():
    # I2 = 16 pi within 1e-6 relative; |I0|, |I1| <= 1e-6 mass on the 27-grid
    _scenario_criterion("02-moments", "moments", ["moments/"], max_seconds=30.0)


def test_criterion_03_bubble_suite():
    # residual <= 1e-9 at 100 random points; mass = 8 pi (N+1) within 1e-6;
    # maxima match the first-order prediction within 5 |p|^2
    _scenario_criterion("03-bubble", "bubble", ["bubble/"])


def test_criterion_04_farfield():
    # gap below 10 (L^-3N-3 + e^-mu L^-2N-2) at L in {10, 20, 40} and slope
    # at most -(2N+2), for N in {1, 2} and mu >= 12
    for mu in (12.0, 14.0):
        entries = run_scenario("farfield", {"mu": mu}, CFG)
        relevant = [e for e in entries
                    if e.check_id in ("farfield/gap", "farfield/slope")]
        bad = [e for e in relevant if not e.pass_]
        _report(f"04-farfield(mu={mu})", not bad,
                f"({len(relevant)} checks)" + (": " + ", ".join(
                    f"{e.check_id}{e.params}" for e in bad) if bad else ""))


def test_criterion_05_layer_dichotomy():
    # 200 seeded draws with a forced mode >= 0.1: max-root gradient ratio
    # at least 0.05; the constructed counter-example moves the gradient to
    # another root
    _scenario_criterion("05-layer-dichotomy", "layer-dichotomy",
                        ["layer/dichotomy-min-ratio", "layer/counterexample"])


def test_criterion_06_interaction():
    # closed form vs quadrature within 10% in both pure cases; remainder decays
    # by at least a factor 0.7 when eps halves
    _scenario_criterion("06-interaction", "interaction",
                        ["interaction/pure-separation", "interaction/pure-coefficient",
                         "interaction/remainder-halving", "interaction/remainder-size"])


def test_criterion_07_pohozaev():
    # residual <= 1e-6 scale across N in {0,1,2}, two directions, five radii,
    # three centers; contrast ratio within [0.9, 1.1] at mu >= 14
    _scenario_criterion("07-pohozaev", "pohozaev",
                        ["pohozaev/bubble-residual", "pohozaev/radial-residual",
                         "pohozaev/contrast-ratio"])


def test_criterion_08_branch():
    # fold at 2(N+1)^2 within 1e-4; shooting within 1e-8 sup norm; Harnack
    # diagnostic log(2(N+1)^2) within 1e-6 at five b values; fold eigenvalue
    # within 1e-3 of zero
    _scenario_criterion("08-branch", "branch",
                        ["branch/fold-lambda", "branch/shooting-gap",
                         "branch/harnack", "branch/fold-eigenvalue"])


def test_criterion_09_linear_algebra():
    # minimum singular value positive, dominance margin d_l to float rounding,
    # solve residual <= 1e-12 cond(A), N <= 64
    _scenario_criterion("09-linear-algebra", "identities",
                        ["identities/matrix-margin", "identities/matrix-min-singular",
                         "identities/matrix-solve-residual"])


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    # two CLI runs of `verify --scenario all --seed 42` are byte-identical
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report-{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "liouville_lab.cli", "verify", "--scenario", "all",
             "--seed", "42", "--out", str(out), "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    _report("10-determinism", identical,
            f"({len(outs[0])} bytes per report)")


def golden_drift(record: dict, golden: dict) -> str | None:
    """Why ``record`` departs from its golden counterpart, or None if it does not.

    Identity, inputs, expected value, tolerance and verdict must match exactly.
    ``measured`` may drift by the check's own tolerance, read as the check
    reads it (absolute, or relative to ``expected``); the raw value of a
    one-sided check may drift by 1e-3 of its bound.
    """
    gp, rp = golden["params"], record["params"]
    if record["check_id"] != golden["check_id"] or sorted(rp) != sorted(gp):
        return "identity or params keys changed"
    for key in ("expected", "tolerance", "pass"):
        if record[key] != golden[key]:
            return f"{key} {golden[key]!r} -> {record[key]!r}"
    if any(rp[k] != gp[k] for k in gp if k != "value"):
        return f"inputs {gp} -> {rp}"
    tol = golden["tolerance"] * max(1.0, abs(golden["expected"]))
    if abs(record["measured"] - golden["measured"]) > tol:
        return f"measured {golden['measured']!r} -> {record['measured']!r}"
    if "bound" in gp and abs(rp["value"] - gp["value"]) > 1e-3 * abs(gp["bound"]):
        return f"value {gp['value']!r} -> {rp['value']!r}"
    return None


def test_full_suite_green():
    # the seed-42 report: all green, and within each check's tolerance of the
    # committed golden report
    entries = run_scenario("all", {"seed": 42}, CFG)
    bad = [e for e in entries if not e.pass_]
    _report("00-full-suite", all_pass(entries),
            f"({len(entries)} checks)" + (": " + ", ".join(
                e.check_id for e in bad[:8]) if bad else ""))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = [e.to_dict() for e in entries]
    assert len(records) == len(golden), f"{len(records)} checks, golden has {len(golden)}"
    drifts = [f"{g['check_id']}: {why}" for r, g in zip(records, golden)
              if (why := golden_drift(r, g)) is not None]
    _report("00-golden", not drifts, f"({len(golden)} checks) " + "; ".join(drifts[:8]))
