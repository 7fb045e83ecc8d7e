"""Machine-speed probe, so that times from a shared host can be compared.

The benchmark runs on a few cores of a shared host. There, the same
single-threaded Python code runs at two or more speeds that switch within
seconds and differ by up to 1.7 times, and process CPU time moves with
wall time. A run of the same code minutes later can read 40% slower.

So the worker times a fixed piece of exact arithmetic (``probe_work``:
row reduction of a small matrix of Fractions, the kind of work fsind does)
right before and right after every command, and every ``INTERVAL`` seconds
while a command runs (from a SIGALRM handler). A command's time is then
scaled to the speed at which the probe takes ``REFERENCE_S``:

    seconds = raw seconds * REFERENCE_S / harmonic mean of the probe times

``raw seconds`` leaves out the time spent in probes. The probes are evenly
spaced in time, so the mean of their speeds (1 / probe time) is the mean
speed over the command; a probe that was held up by the host counts as a
slow spell, not as a huge outlier. The probe does not touch fsind, so a
change to fsind moves the scaled time as much as the raw one. Raw times
are kept next to the scaled ones in the worker's results.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

perf = time.perf_counter

# probe seconds at the reference speed: about its time in the host's fast
# spells, so that scaled times read like raw ones taken then
REFERENCE_S = 0.0004
# seconds between probes while a command runs
INTERVAL = 0.01

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4)
            for j in range(6)] for i in range(5)]


def probe_work():
    """Reduced row echelon form of a fixed 5x6 matrix over Q."""
    m = [row[:] for row in _MATRIX]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return m


class Speedometer:
    """Times calls at the reference speed, from probes taken around them.

    Use as a context manager: inside it, a probe runs every ``INTERVAL``
    seconds.
    """

    def __init__(self):
        self.probes = []  # seconds of each probe, in order
        self.spent = 0.0  # seconds spent in probes
        self._old = None

    def probe(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = perf()
            probe_work()
            t1 = perf()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        self.probes.append(t1 - t0)
        self.spent += t1 - t0

    def _on_alarm(self, signum, frame):
        self.probe()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def time_call(self, fn, *args):
        """Calls fn(*args); returns (its result, raw s, scaled s)."""
        self.probe()
        first = len(self.probes) - 1
        spent = self.spent
        t0 = perf()
        try:
            result = fn(*args)
        finally:
            raw = perf() - t0 - (self.spent - spent)
            self.probe()
        speed = statistics.harmonic_mean(self.probes[first:])
        return result, raw, raw * REFERENCE_S / speed
