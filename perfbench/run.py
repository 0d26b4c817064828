#!/usr/bin/env python3
"""Verification-report benchmark for liouville-lab.

    python3 perfbench/run.py --workload moments-plane --seed 42 --seconds 40 --trace 0

Run it from the root of a source checkout: it imports ``liouville_lab`` from
the checkout's ``src`` directory and refuses to run without it.  A pass calls
``liouville_lab.cli.main(["verify", "--scenario", <name>, "--seed", <seed>,
"--out", <tmp>, "--format", "json"])`` in-process once per scenario of the
workload.  Passes repeat while the next one is expected to end within
``--seconds``, and run at least twice after a warm-up pass, so that the
reports of two passes can be compared byte for byte.

``--trace 0`` reports the end-to-end metrics: the pass time ``report_s``,
the set-up time ``setup_s`` of fresh interpreters, the peak resident memory,
the number of checks and the share that passed.  The first pass warms caches
and lazy imports and is gated but not timed.  Both times are normalised to a
reference machine speed measured in the same run (see ``speed.py``); the
wall-time median, quartiles and sample count are printed beside them.
``--trace 1`` alternates untraced and traced passes (see ``spans.py``) and
reports the per-layer metrics and the tracing overhead.

Every pass is gated: each ``cli.main`` call must exit 0, every check must pass
at its own tolerance, every report must be byte-identical to the first pass's,
and in the traced run no ring call may escape the quadrature spans.  A breach
is counted in ``failed``, printed, and makes the command exit 1.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Together the workloads run every scenario once: the work of
# `verify --scenario all`.  moments-plane is dominated by whole-plane ring
# quadrature, pohozaev-disk uses the same ring layer on disks with breakpoints
# and on circles, and light-suite bypasses it (ODE shooting, eigen-solves,
# linear algebra, Fourier work, CLI and report rendering).
WORKLOADS = {
    "moments-plane": ("moments",),
    "pohozaev-disk": ("pohozaev",),
    "light-suite": ("identities", "bubble", "farfield", "layer-dichotomy",
                    "interaction", "branch", "conjecture-disk"),
}
ALL_SCENARIOS = tuple(name for names in WORKLOADS.values() for name in names)

MIN_PASSES = 2
WARMUP_PASSES = 1
SETUP_RUNS = 15
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import liouville_lab
from liouville_lab import config
config.load_defaults()
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "file": liouville_lab.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here."""


def _check_source(path) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"liouville_lab imported from {path}, not from {SRC}")


def pin_environment() -> None:
    """One BLAS thread and the serial scenario path, for this process and its children."""
    os.environ.pop("LIOUVILLE_LAB_THREADS", None)
    for key in ONE_THREAD:
        os.environ[key] = "1"


def measure_setup() -> tuple:
    """Seconds for ``import liouville_lab`` plus ``load_defaults()`` in fresh interpreters.

    Returns those wall times, each normalised by the mean of the calibrations
    taken just before and just after it, and the calibration times.  One
    unmeasured run first warms the file cache and writes bytecode.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, normalised, calibrations = [], [], []
    for i in range(SETUP_RUNS + 1):
        before = speed.calibrate()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        _check_source(record["file"])
        if i:
            after = speed.calibrate()
            times.append(record["setup_s"])
            normalised.append(speed.normalised(record["setup_s"], (before + after) / 2))
            calibrations += [before, after]
    return times, normalised, calibrations


@dataclass
class Pass:
    start: float = 0.0
    seconds: float = 0.0
    scenario_s: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)   # scenario -> report bytes
    errors: dict = field(default_factory=dict)    # scenario -> what went wrong


def run_pass(cli, scenarios, seed: int, out_dir: Path) -> Pass:
    """Call ``cli.main`` once per scenario; time the whole pass and each scenario."""
    result = Pass()
    paths = {name: out_dir / f"{name}.json" for name in scenarios}
    for path in paths.values():
        path.unlink(missing_ok=True)
    start = result.start = time.perf_counter()
    for name in scenarios:
        argv = ["verify", "--scenario", name, "--seed", str(seed),
                "--out", str(paths[name]), "--format", "json"]
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a scenario that raises is a counted failure
            traceback.print_exc()
            result.errors[name] = f"raised {type(exc).__name__}: {exc}"
        else:
            if code != 0:
                result.errors[name] = f"exit code {code}"
        result.scenario_s[name] = time.perf_counter() - t0
    result.seconds = time.perf_counter() - start
    for name, path in paths.items():
        if path.exists():
            result.reports[name] = path.read_bytes()
    return result


def grade(report: bytes) -> tuple:
    """(checks, failed): a check fails unless its verdict and its own tolerance agree it passes."""
    entries = json.loads(report)
    failed = 0
    for e in entries:
        abs_err = abs(e["measured"] - e["expected"])
        rel_err = abs_err / abs(e["expected"]) if e["expected"] != 0 else math.inf
        within = abs_err <= e["tolerance"] or rel_err <= e["tolerance"]
        if not (within and e["pass"] is True):
            failed += 1
    return len(entries), failed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)    # checks per pass
    problems: list = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)


def gate(passes, reference: dict, tally: Tally, label: str = "pass") -> None:
    """Count scenario runs and checks, and every breach of the correctness gate."""
    for i, p in enumerate(passes, 1):
        checks = 0
        for name in reference:
            tally.attempted += 1
            where = f"{label} {i}, {name}"
            if name in p.errors:
                tally.fail(f"{where}: {p.errors[name]}")
            report = p.reports.get(name)
            if report is None:
                if name not in p.errors:
                    tally.fail(f"{where}: no report written")
                continue
            try:
                n, bad = grade(report)
            except (ValueError, KeyError, TypeError) as exc:
                tally.fail(f"{where}: unreadable report ({exc!r})")
                continue
            checks += n
            tally.attempted += n
            if bad:
                tally.fail(f"{where}: {bad} of {n} checks failed", bad)
            if report != reference[name]:
                tally.fail(f"{where}: report differs from the first pass")
        tally.checks.append(checks)


def repeat(step, seconds: float, at_least: int) -> list:
    """Results of ``step()`` repeated while the next call is expected to end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (f"n={len(values)}, min {min(values):.4f}, q1 {q1:.4f}, median {med:.4f}, "
            f"q3 {q3:.4f}, max {max(values):.4f}, iqr/median {(q3 - q1) / med:.4f}")


def plain_run(cli, scenarios, seed, seconds, out_dir):
    start = time.perf_counter()
    setup, setup_normalised, setup_calibrations = measure_setup()
    # Set-up counts against --seconds, so that a run lasts about that long.
    budget = seconds - (time.perf_counter() - start)
    with speed.Sampler() as sampler:
        passes = repeat(lambda: run_pass(cli, scenarios, seed, out_dir), budget,
                        WARMUP_PASSES + MIN_PASSES)
    tally = Tally()
    gate(passes, {name: passes[0].reports.get(name) for name in scenarios}, tally)
    timed = passes[WARMUP_PASSES:]
    # Wall time of each timed pass less the calibrations that interrupted it.
    report_s, calibrations = [], []
    for p in timed:
        inside = sampler.between(p.start, p.start + p.seconds)
        report_s.append(p.seconds - sum(inside))
        calibrations.extend(inside)
    if not calibrations:
        raise BenchError("no calibration sample fell inside a timed pass")
    print(f"report_s wall: {spread(report_s)}")
    print(f"report_s calibration: {spread(calibrations)}")
    print(f"setup_s wall: {spread(setup)}")
    print(f"setup_s calibration: {spread(setup_calibrations)}")
    values = {
        # The mean pass at the mean speed sampled during the passes, and the
        # median of the set-ups, each at the speed sampled around it.
        "report_s": speed.normalised(statistics.mean(report_s), statistics.mean(calibrations)),
        "setup_s": statistics.median(setup_normalised),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": tally.checks[0],
        "pass_frac": 1.0 - tally.failed / tally.attempted,
    }
    return values, tally


def traced_run(cli, scenarios, seed, seconds, out_dir):
    import liouville_lab.errors

    def pair():
        untraced = run_pass(cli, scenarios, seed, out_dir)
        tracer = spans.Tracer(budget_error=liouville_lab.errors.QuadratureBudgetError)
        with spans.installed(tracer):
            traced = run_pass(cli, scenarios, seed, out_dir)
        return untraced, traced, spans.layer_metrics(tracer), spans.wrapper_cost_s(tracer)

    plain, traced, layers, costs = zip(*repeat(pair, seconds, MIN_PASSES))
    tally = Tally()
    reference = {name: plain[0].reports.get(name) for name in scenarios}
    gate(plain, reference, tally, "untraced pass")
    gate(traced, reference, tally, "traced pass")
    orphans = max(m[spans.RING + ".orphan_calls"] for m in layers)
    if orphans:
        tally.fail(f"{orphans} ring calls outside the traced quadrature entry points")
    values = {}
    for key in layers[0]:
        seen = [m[key] for m in layers]
        values[key] = (statistics.median_low(seen) if all(isinstance(v, int) for v in seen)
                       else statistics.median(seen))
    for name in ALL_SCENARIOS:
        values[f"scenarios.{name}.s"] = (min(p.scenario_s[name] for p in plain)
                                         if name in scenarios else 0.0)
    # Each pair runs its untraced and traced pass back to back, so that a slow
    # phase of the machine tends to hit both.  On long passes the difference
    # still mostly measures noise; the wrapper cost estimate does not.
    overhead = [t.seconds - p.seconds for p, t in zip(plain, traced)]
    values["trace.overhead_s"] = statistics.median(overhead)
    values["trace.wrapper_cost_s"] = statistics.median(costs)
    plain_s = statistics.median(p.seconds for p in plain)
    print(f"report_s untraced: {spread([p.seconds for p in plain])}")
    print(f"report_s traced:   {spread([p.seconds for p in traced])}")
    print(f"tracing overhead, traced minus untraced pass: {spread(overhead)}")
    print(f"tracing overhead, median {values['trace.overhead_s']:.4f} s "
          f"({values['trace.overhead_s'] / plain_s:.1%} of {plain_s:.4f} s); "
          f"estimated wrapper cost {values['trace.wrapper_cost_s']:.4f} s "
          f"({values['trace.wrapper_cost_s'] / plain_s:.1%})")
    return values, tally


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "liouville_lab" / "__init__.py").is_file():
            raise BenchError(f"no liouville_lab sources under {SRC}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        pin_environment()
        sys.path.insert(0, str(SRC))
        import liouville_lab
        from liouville_lab import cli
        _check_source(liouville_lab.__file__)

        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
        try:
            run = traced_run if args.trace else plain_run
            values, tally = run(cli, WORKLOADS[args.workload], args.seed, args.seconds, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]} {m['unit']}")
    print(f"{args.workload}: {tally.attempted} attempted, {tally.failed} failed "
          f"(fail_frac {tally.failed / tally.attempted:.6g})")
    for problem in tally.problems:
        print(f"FAIL {problem}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
