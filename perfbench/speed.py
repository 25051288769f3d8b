"""Scaling measured times to a reference CPU speed.

The benchmark runs on shared machines whose speed swings by up to a factor
of two for seconds at a time, on one core and not the other.  A probe in
the measured process runs a fixed chunk of exact arithmetic every
``INTERVAL_S`` from a SIGALRM handler, which Python runs in the main thread
between bytecodes, so on the same core and in the middle of whatever is
being measured.  An interval's time is then scaled by ``REFERENCE_S``
divided by the mean chunk time around it, after taking out the time the
chunks themselves used.  CPU time is scaled the same way by the chunks' CPU
time, so that time the process spends descheduled, which slows a chunk's
wall time but not its CPU time, does not shrink it.  The raw times are
reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL_S = 0.01
# the chunk's time on an uncontended 2-core Xeon VM under Python 3.11.7;
# scaled times read as seconds on that machine
REFERENCE_S = 0.000183


def chunk() -> tuple[Fraction, Fraction]:
    """Fixed work resembling hirsch3's element arithmetic: squaring a 2x2
    rational matrix and applying it to a vector."""
    m = (Fraction(2), Fraction(-1, 3), Fraction(3, 5), Fraction(-2))
    v = (Fraction(1, 2), Fraction(0))
    for _ in range(6):
        m = (
            m[0] * m[0] + m[1] * m[2],
            m[0] * m[1] + m[1] * m[3],
            m[2] * m[0] + m[3] * m[2],
            m[2] * m[1] + m[3] * m[3],
        )
        v = (m[0] * v[0] + m[1] * v[1] + 1, m[2] * v[0] + m[3] * v[1])
        if m[0].denominator > 10**12:
            m = (Fraction(2), Fraction(-1, 3), Fraction(3, 5), Fraction(-2))
    return v


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.cpu_durations: list[float] = []

    def sample(self, *_signal_args) -> None:
        # no collection inside the chunk: it measures the core, not the
        # size of the measured program's heap
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        cpu_start = process_time()
        chunk()
        self.cpu_durations.append(process_time() - cpu_start)
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, t0: float, t1: float, cpu: float | None = None) -> float:
        """Wall time from t0 to t1, or the ``cpu`` seconds of CPU time used
        in it, less the probe's own chunks inside it, at reference speed.
        The speed is the mean wall (or CPU) time of the chunks inside the
        interval and of the one on each side of it."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        if cpu is None:
            total, durations = t1 - t0, self.durations
            own = sum(
                max(0.0, min(t1, s + d) - max(t0, s))
                for s, d in zip(self.starts[lo:hi], self.durations[lo:hi])
            )
        else:
            total, durations = cpu, self.cpu_durations
            own = sum(durations[lo:hi])
        window = durations[max(lo - 1, 0) : hi + 1]
        mean = sum(window) / len(window)
        return (total - own) * REFERENCE_S / mean
