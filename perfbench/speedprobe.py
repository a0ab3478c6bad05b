"""Sample the host's momentary speed while the program runs.

The benchmark's host is a few vCPUs of a shared machine.  Its speed swings
by up to 1.8x, for seconds or for minutes at a time, so raw wall times of
the same code spread by 20-40 % from run to run.  ``SpeedProbe`` runs a
fixed kernel that does not use vdwpair every ``INTERVAL_S`` seconds of wall
time, from a ``SIGALRM`` handler in the benchmark process, and records how
long the kernel took.  A stretch of program time divided by the mean kernel
time sampled inside that stretch cancels the swing; ``REF_KERNEL_S`` turns
the quotient back into seconds at a fixed reference speed.

The handler's own time is subtracted from the stretch it interrupted
(``overhead_s``), so the program's time excludes the samples.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Median kernel time on the host the benchmark was defined on (2 vCPUs of
# a shared x86-64 machine, CPython 3.11, numpy), measured while the probe
# sampled a halfspace-oscillatory pass.
REF_KERNEL_S = 0.0023
_Q = np.linspace(0.0, 5.0, 64)


def kernel() -> float:
    """A fixed mix of the program's two kinds of work: small complex numpy
    arrays, as in the q-integrands, and a plain Python float loop, as in
    the per-node code."""
    acc = 0.0
    for i in range(160):
        u = 0.1 + 1e-3 * i
        k = np.sqrt(_Q * _Q + u * u + 0j)
        r = (k - 1.0) / (k + 1.0)
        acc += float(np.sum(r.real * np.exp(-k.real)))
        for j in range(20):
            acc += j * u
    return acc


class SpeedProbe:
    """Timer-driven kernel samples; use as a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._old_handler = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.overhead_s, time.perf_counter()

    def since(self, mark) -> tuple[float, float | None]:
        """(program seconds, mean kernel seconds) since ``mark``; the mean
        is None if no sample fell in the stretch."""
        n0, overhead0, t0 = mark
        wall = time.perf_counter() - t0
        seconds = wall - (self.overhead_s - overhead0)
        taken = self.samples[n0:]
        return seconds, statistics.fmean(taken) if taken else None
