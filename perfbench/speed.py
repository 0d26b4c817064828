"""Machine-speed calibration for the benchmark's end-to-end timings.

On a few cores of a shared host the same work takes 50% longer or more in slow
phases that last from seconds to minutes, longer than a run.  No estimator of
wall time alone (fastest, median or mean pass) steadies that across runs.  So
the untraced run also times ``calibrate()``, a fixed piece of interpreter,
numpy vector and small dense linear-algebra work like the program's own, and
reports its timings at a fixed reference speed:

    normalised seconds = wall seconds * REFERENCE_S / calibration seconds

where both seconds are totals over the same stretch of the run.
``REFERENCE_S`` is about what ``calibrate()`` takes on the 2-core machine of
the baseline in a quiet phase, so normalised and wall seconds agree there.

During passes, a ``Sampler`` runs ``calibrate()`` from a ``SIGALRM`` handler
every ``SAMPLE_EVERY_S`` seconds of wall time, so that long passes are sampled
throughout; the time spent in the handler is subtracted from the pass.
Python runs signal handlers between bytecodes of the main thread, never
inside a C call, so the program's state is never observed half-updated.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.009
SAMPLE_EVERY_S = 0.125

_rng = np.random.default_rng(20140101)
_MATRIX = _rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
_VECTOR = _rng.standard_normal(4096)


def calibrate() -> float:
    """Seconds for one fixed piece of work; it does not depend on liouville_lab."""
    start = time.perf_counter()
    acc = 0
    for k in range(40_000):
        acc += k * k % 7
    total = 0.0
    for _ in range(80):
        total += float((np.exp(-_VECTOR * _VECTOR) * np.cos(_VECTOR)).sum())
        total += float(np.linalg.solve(_MATRIX, _VECTOR[:60])[0])
    elapsed = time.perf_counter() - start
    if not (acc > 0 and np.isfinite(total)):
        raise ArithmeticError("calibration work went wrong")
    return elapsed


def normalised(wall_s: float, calibration_s: float) -> float:
    return wall_s * REFERENCE_S / calibration_s


class Sampler:
    """Context manager that calls ``calibrate()`` every ``SAMPLE_EVERY_S`` seconds."""

    def __init__(self, every_s: float = SAMPLE_EVERY_S):
        self.every_s = every_s
        self.samples = []   # (perf_counter at start, seconds)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), calibrate()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> list:
        """Durations of the samples that started in ``[start, end)``."""
        return [seconds for t, seconds in self.samples if start <= t < end]
