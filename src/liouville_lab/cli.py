"""Command-line front end.

    liouville-lab verify --scenario <name> [--N <int>] [--mu <real>]
        [--tol <real>] [--seed <int>] [--config <path>] --out <path>
        --format {json,csv}

Exit codes: 0 all checks pass, 1 some check failed, 2 usage error,
3 I/O failure.  ``--N``, ``--mu``, ``--tol`` and ``--seed`` may also be set in
the ``--config`` file under the same names; a flag wins over the file.  Each
scenario accepts ``seed`` and the inputs it reads (``scenarios.INPUTS``), each
in its range; any other override is a usage error, and ``all`` accepts
``seed`` only.
"""

from __future__ import annotations

import argparse
import sys

from .config import INPUT_TYPES, load_defaults
from .report import emit
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
        overrides = load_defaults(args.config)
    except (OSError, ValueError) as exc:
        print(f"usage error: {args.config}: {getattr(exc, 'strerror', None) or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    overrides.update({key: getattr(args, key) for key in INPUT_TYPES
                      if getattr(args, key) is not None})

    try:
        entries = run_scenario(args.scenario, overrides)
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    try:
        emit(entries, args.format, args.out)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    n_fail = sum(1 for e in entries if not e.pass_)
    print(f"{args.scenario}: {len(entries)} checks, {n_fail} failed -> {args.out}")
    return EXIT_OK if n_fail == 0 else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
