"""Machine-speed probe: rescales measured seconds to a reference speed.

On a shared host the same single-threaded Python code runs up to 2.4
times slower when neighbours are busy, and the slowdown drifts over
seconds to minutes, so raw repeat times of one commit spread too widely
to bound a regression.  The slowdown hits a fixed pure-Python loop of
dict and set work, like the exhibits', in step with the program.  Timing
that loop *during* the measured interval and scaling the interval by
``(reference / mean loop time) ** sensitivity`` removes most of the
drift.  The mean, not the median: a sample that the host preempted is
slow for the same reason the program is.  The sensitivity is how
strongly the measured code's time follows the loop's: fitting
``log(time)`` on ``log(loop slowdown)`` over 60 ten-second runs per
workload on a shared 2-core Intel Xeon VM (Python 3.11) at 1x-2.4x host
load gave 0.81-0.93 for the exhibits (correlation 0.993-0.995), and
set-up followed the loop 1:1.  The loop is the benchmark's own code, so
no change to ``repro`` can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds per loop iteration on a quiet 2-core Intel Xeon VM (Python
#: 3.11).  It only fixes the unit: scaled seconds equal raw seconds at
#: that speed.
REFERENCE_S_PER_ITERATION = 2e-7


def chunk_seconds(iterations):
    """Seconds one probe chunk of ``iterations`` loop iterations takes now.

    The collector is paused: a collection would walk the caller's heap,
    which grows with the workload, and charge it to the probe.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, seen = {}, set()
        for i in range(iterations):
            key = (i * 7919) % 1009
            table[key] = table.get(key, 0) + 1
            if key in seen:
                seen.discard(key)
            else:
                seen.add(key)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Times one chunk every ``period_s`` from ``SIGALRM`` while the body runs.

    ``spent`` is the time the samples took (to subtract from the body's
    time); :meth:`scale` turns the body's seconds into reference seconds.
    The chunk takes about ``iterations * 0.2`` microseconds.
    """

    def __init__(self, period_s, iterations, sensitivity):
        self.period_s, self.iterations, self.sensitivity = period_s, iterations, sensitivity

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(chunk_seconds(self.iterations))
        self.spent += time.perf_counter() - start

    def scale(self, seconds):
        """``seconds`` measured inside the body, at the reference speed."""
        speed = statistics.fmean(self.samples or [chunk_seconds(self.iterations)])
        reference = REFERENCE_S_PER_ITERATION * self.iterations
        return (seconds - self.spent) * (reference / speed) ** self.sensitivity
