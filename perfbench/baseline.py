#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/baseline.py [--write perfbench/baseline.json]

For each workload, runs ``perfbench/run.py --trace 0`` once per seed of
``SEEDS`` and ``--trace 1`` once at ``TRACE_SEED``, each in its own process,
serially and with the ``run_seconds`` of BENCHMARK.json.  Prints, for every
end-to-end metric, the median and the quartile spread ``(q3 - q1) / median``
next to the metric's bound, and marks a spread above a third of the bound.  With
``--write`` it stores the runs, the summaries and the environment they were
measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ONE_THREAD, ROOT, WORKLOADS

SEEDS = (42, 1, 2, 3, 4, 5, 6, 7, 8, 9)
TRACE_SEED = 42


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "LIOUVILLE_LAB_THREADS": os.environ.get("LIOUVILLE_LAB_THREADS", "unset"),
        "blas_threads": {key: "1" for key in ONE_THREAD},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=Path, default=None, help="JSON file for the results")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    out = {"run_seconds": seconds, "seeds": list(SEEDS), "trace_seed": TRACE_SEED,
           "environment": environment(), "workloads": {}}
    steady = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        summary = {}
        print(f"{workload}:")
        for m in declared["end_to_end"]:
            s = summarise([r["metrics"][m["name"]] for r in runs])
            summary[m["name"]] = s
            flag = ""
            if s["spread"] > m["bound"] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {m['name']:12s} median {s['median']:.6g} {m['unit']}, "
                  f"spread {s['spread']:.4f} (bound {m['bound']}){flag}")
            print("    " + " ".join(f"{r['metrics'][m['name']]:.5g}" for r in runs))
        failed = sum(r["failed"] for r in runs)
        print(f"  {failed} failed of {sum(r['attempted'] for r in runs)} attempted")
        out["workloads"][workload] = {"end_to_end": summary, "runs": runs,
                                      "traced": run_once(workload, TRACE_SEED, seconds, 1)}
    if args.write:
        args.write.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
