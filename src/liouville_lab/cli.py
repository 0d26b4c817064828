"""Command-line front end.

    liouville-lab verify --scenario <name> [--N <int>] [--mu <real>]
        [--tol <real>] [--seed <int>] [--config <path>] --out <path>
        --format {json,csv}

Exit codes: 0 all checks pass, 1 some check failed, 2 usage error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_defaults
from .report import all_pass, emit
from .scenarios import SCENARIOS, run_scenario

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liouville-lab",
                                     description="Singular Liouville bubble laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification scenario")
    verify.add_argument("--scenario", required=True,
                        help=f"one of: {', '.join(SCENARIOS)}")
    verify.add_argument("--N", type=int, default=None, help="singularity order override")
    verify.add_argument("--mu", type=float, default=None, help="bubble height override")
    verify.add_argument("--tol", type=float, default=None, help="quadrature rel_tol override")
    verify.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
    verify.add_argument("--config", default=None, help="key = value configuration file")
    verify.add_argument("--out", required=True, help="report output path")
    verify.add_argument("--format", required=True, choices=("json", "csv"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        cfg = load_defaults(args.config)
    except (OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.seed is not None:
        cfg.seed = args.seed
    if cfg.seed < 0:
        print(f"usage error: seed must be non-negative, got {cfg.seed}", file=sys.stderr)
        return EXIT_USAGE
    if args.tol is not None:
        cfg.rel_tol = args.tol
    overrides = {"seed": cfg.seed}
    if args.N is not None:
        overrides["N"] = args.N
    if args.mu is not None:
        overrides["mu"] = args.mu

    try:
        entries = run_scenario(args.scenario, overrides, cfg)
    except KeyError as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    try:
        emit(entries, args.format, args.out)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    n_fail = sum(1 for e in entries if not e.pass_)
    print(f"{args.scenario}: {len(entries)} checks, {n_fail} failed -> {args.out}")
    return EXIT_OK if all_pass(entries) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
