"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import ast
import cProfile
import json
import math
import pstats
import subprocess
import sys
import time
from pathlib import Path

import pytest

import liouville_lab
from liouville_lab import cli, numerics, scenarios
from liouville_lab.report import PROVENANCES, ReportEntry
from liouville_lab.scenarios import INPUTS, PROVENANCE, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "all-seed42.json"


@pytest.fixture(scope="module")
def seed42_report(tmp_path_factory):
    """`verify --scenario all --seed 42`, run in process under cProfile.

    Returns the report's records, its JSON bytes and the set of
    ``(file, first line)`` of every function the run called.
    """
    path = tmp_path_factory.mktemp("seed42") / "report.json"
    numerics._ring_table.cache_clear()  # a warm cache would hide the node builders
    profile = cProfile.Profile()
    profile.enable()
    try:
        cli.main(["verify", "--scenario", "all", "--seed", "42", "--out", str(path),
                  "--format", "json"])
    finally:
        profile.disable()
    called = {(str(Path(f).resolve()), line) for f, line, _ in pstats.Stats(profile).stats}
    data = path.read_bytes()
    return json.loads(data), data, called


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def _scenario_criterion(name, scenario, prefixes, overrides=None, max_seconds=None):
    t0 = time.time()
    entries = run_scenario(scenario, overrides or {"seed": 42})
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
        entries = run_scenario("farfield", {"mu": mu})
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


def test_criterion_10_determinism(seed42_report, tmp_path):
    # a CLI run of `verify --scenario all --seed 42` in a fresh interpreter is
    # byte-identical to the in-process report
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "liouville_lab.cli", "verify", "--scenario", "all",
         "--seed", "42", "--out", str(out), "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    identical = out.read_bytes() == seed42_report[1]
    _report("10-determinism", identical,
            f"({len(seed42_report[1])} bytes per report)")


def golden_drift(record: dict, golden: dict) -> str | None:
    """Why ``record`` departs from its golden counterpart, or None if it does not.

    Identity, inputs, expected value, tolerance, verdict and provenance must
    match exactly.  ``measured`` may drift by the check's own tolerance, read
    as the check reads it (absolute, or relative to ``expected``); the raw
    value of a one-sided check may drift by 1e-3 of its bound.
    """
    gp, rp = golden["params"], record["params"]
    if record["check_id"] != golden["check_id"] or sorted(rp) != sorted(gp):
        return "identity or params keys changed"
    for key in ("expected", "tolerance", "pass", "provenance"):
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


def test_full_suite_green(seed42_report):
    # the seed-42 report: all green, and within each check's tolerance of the
    # committed golden report
    records = seed42_report[0]
    bad = [r["check_id"] for r in records if not r["pass"]]
    _report("00-full-suite", not bad,
            f"({len(records)} checks)" + (": " + ", ".join(bad[:8]) if bad else ""))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(records) == len(golden), f"{len(records)} checks, golden has {len(golden)}"
    drifts = [f"{g['check_id']}: {why}" for r, g in zip(records, golden)
              if (why := golden_drift(r, g)) is not None]
    _report("00-golden", not drifts, f"({len(golden)} checks) " + "; ".join(drifts[:8]))


LOST_DECADES = 3.0


def headroom_decades(record: dict) -> float:
    """log10 of a two-sided check's error over its tolerance, floored at 1e-12.

    The tolerance is read as the check reads it (absolute, or relative to
    ``expected``); the floor keeps errors at rounding level from counting as
    digits.
    """
    err = abs(record["measured"] - record["expected"])
    tol = record["tolerance"] * max(1.0, abs(record["expected"]))
    return math.log10(max(err / tol, 1e-12))


def test_no_lost_digits(seed42_report):
    # stricter than the golden drift above: no two-sided check may lose more
    # than three decades of headroom against the committed golden report
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = seed42_report[0]
    assert len(records) == len(golden)
    lost = []
    for r, g in zip(records, golden):
        assert r["check_id"] == g["check_id"]
        if g["tolerance"] == 0.0 or "bound" in g["params"]:
            continue
        moved = headroom_decades(r) - headroom_decades(g)
        if moved > LOST_DECADES:
            lost.append(f"{g['check_id']}{g['params']}: +{moved:.2f} decades")
    _report("00-lost-digits", not lost, f"({len(golden)} checks) " + "; ".join(lost[:8]))


# Two-sided records that pass at measured = 0 although they expect a nonzero
# value, each with its reason.
VACUOUS_BY_DESIGN = {
    # at mu = 12 the expected -2 e^-mu is -1.2e-5 against a tolerance of 1e-2;
    # a tolerance that scales with it waits on the far-field numerics
    "farfield/secular-coefficient",
}


def test_no_vacuous_records(seed42_report):
    # a record whose verdict is the same at measured = 0 checks nothing: with
    # expected = 5e-3 and tolerance 0.1, any value in [-0.095, 0.105] passes
    records = seed42_report[0]
    assert VACUOUS_BY_DESIGN <= {r["check_id"] for r in records}, \
        "stale VACUOUS_BY_DESIGN entry"
    vacuous = sorted({r["check_id"] for r in records
                      if "bound" not in r["params"] and r["expected"] != 0
                      and r["check_id"] not in VACUOUS_BY_DESIGN
                      and ReportEntry(r["check_id"], r["params"], 0.0, r["expected"],
                                      r["tolerance"], r["provenance"]).pass_})
    _report("00-no-vacuous-records", not vacuous,
            f"({len(vacuous)} pass at measured = 0: {', '.join(vacuous)})")


def test_every_declared_id_is_emitted(seed42_report):
    # a scenario's <name>/error record is written only when it raises
    errors = {f"{name}/error" for name in INPUTS}
    assert set(PROVENANCE) - errors <= {r["check_id"] for r in seed42_report[0]}


def test_every_record_has_its_declared_provenance(seed42_report):
    records = seed42_report[0]
    assert {r["check_id"] for r in records} <= set(PROVENANCE)
    assert all(r["provenance"] == PROVENANCE[r["check_id"]] for r in records)


def test_declared_provenances_are_known():
    assert set(PROVENANCE.values()) <= set(PROVENANCES)


def test_undeclared_id_raises():
    with pytest.raises(KeyError):
        scenarios._entry("moments/I3", {}, 0.0, 0.0, 0.0)


# The force balance at the maxima and the per-mode linear theory, checked in
# the report: each id, its number of records, and the largest measured value
# (the raw value of a one-sided check) that a correct run stays below.
PAPER_CLAIMS = [
    ("identities/root-sum", 1, 1e-12),
    ("bubble/kernel-residual", 4, 1e-12),
    ("branch/mode-certificate", 3, 1.0),
    ("conjecture/image-term", 2, 1.0),
]


@pytest.mark.parametrize("check_id, count, ceiling", PAPER_CLAIMS)
def test_paper_claims_in_report(seed42_report, check_id, count, ceiling):
    records = [r for r in seed42_report[0] if r["check_id"] == check_id]
    values = [r["params"].get("value", r["measured"]) for r in records]
    ok = len(records) == count and all(r["pass"] for r in records) and max(values) < ceiling
    _report(f"00-{check_id}", ok, f"({len(records)} records, values {values})")


# Package code that the seed-42 `all` run cannot reach by design: the CSV
# writer and its number format, the --config parser, and an exception
# constructor that runs only on a raise.
UNREACHED_BY_DESIGN = {
    "config.parse_config",
    "errors.QuadratureBudgetError.__init__",
    "report._fmt",
    "report.render_csv",
}


def package_functions():
    """``{qualified name: (file, first line)}`` for every function and method
    defined in the package, closures included; a decorated function starts at
    its first decorator, as in its code object."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (path, first)
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(Path(liouville_lab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path.resolve()))
    return found


def test_every_package_function_runs(seed42_report):
    # code that only tests reach is either a claim the report should check or
    # code that should go
    called = seed42_report[2]
    functions = package_functions()
    assert UNREACHED_BY_DESIGN <= set(functions), "stale UNREACHED_BY_DESIGN entry"
    missed = sorted(name for name, site in functions.items()
                    if site not in called and name not in UNREACHED_BY_DESIGN)
    _report("00-reachability", not missed,
            f"({len(functions)} functions, {len(missed)} never called: {', '.join(missed)})")


def test_one_adaptive_rule(seed42_report):
    # every adaptive integral runs through the package's own panel rule:
    # nothing in scipy's QUADPACK wrapper may run
    quadpack = sorted(f"{Path(f).name}:{line}" for f, line in seed42_report[2]
                      if Path(f).name == "_quadpack_py.py")
    _report("00-one-adaptive-rule", not quadpack,
            f"({len(quadpack)} QUADPACK functions called: {', '.join(quadpack)})")
