"""The ``--config`` file: ``key = value`` lines that set ``verify`` flags.

Its keys are the names of the four flags that set scenario inputs; which
scenarios read which input, and in what range, is ``scenarios.INPUTS``.
"""

from __future__ import annotations

from pathlib import Path

# the settable scenario inputs, by flag name
INPUT_TYPES = {"seed": int, "N": int, "mu": float, "tol": float}


def parse_config(path) -> dict:
    """Parse a key = value configuration file (UTF-8, # comments)."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    return values


def load_defaults(path=None) -> dict:
    """The typed inputs a configuration file sets; none without a file."""
    if path is None:
        return {}
    values = {}
    for key, raw in parse_config(path).items():
        if key not in INPUT_TYPES:
            raise ValueError(f"unknown configuration key {key!r} "
                             f"(the keys are {', '.join(INPUT_TYPES)})")
        try:
            values[key] = INPUT_TYPES[key](raw)
        except ValueError:
            raise ValueError(f"{key}: expected {INPUT_TYPES[key].__name__}, got {raw!r}") from None
    return values
