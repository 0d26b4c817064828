"""Tests for the machine-speed calibration.  Run with ``python3 -m pytest perfbench``."""

import signal
import time

import speed


def test_normalised_scales_wall_time_to_the_reference_speed():
    assert speed.normalised(2.0, speed.REFERENCE_S) == 2.0
    assert speed.normalised(2.0, 2 * speed.REFERENCE_S) == 1.0


def test_sampler_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(every_s=0.05) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = sampler.between(start, end)
    assert len(inside) >= 3
    assert all(s > 0 for s in inside)
    assert sampler.between(end, end + 1.0) == []
