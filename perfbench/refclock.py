"""A clock that counts time at a fixed reference speed of the host.

The benchmark runs on small shared hosts whose CPU speed swings from one
millisecond to the next and drifts over minutes: the same determinant took
from 8.4 s to 12.7 s across runs, and one workload repetition from 12.5 s
to 17.0 s within a run.  Wall time alone then measures the neighbours as
much as the program.  This clock takes most of that swing out.

While it runs, a SIGALRM timer interrupts the program every ``INTERVAL_S``
and times ``probe()``, a fixed piece of pure-Python integer arithmetic of the
kind hankelkit does (multiply-adds of 150-300-bit integers, small-integer
loops).  The program's time since the previous probe is scaled by
``REF_PROBE_S / t``, where t is the median time of the last ``WINDOW``
probes, i.e. by how fast the host ran the probe lately compared with the
reference, and added to the clock.  Single probes swing by 40 % from one to
the next; the median over about a second follows the slower drifts without
being pulled by the fastest probes.  Time spent in probes is left out.  So
``now()`` advances by the seconds the work would have taken on a host that
runs the probe in ``REF_PROBE_S``: a change to hankelkit moves it in
proportion, a change in the host's speed mostly does not.

The probe is benchmark code and never changes with the program.  Its working
set is a few dozen integers and nothing it makes outlives the call, so the
size of hankelkit's heap hardly touches it.  The handler runs between
bytecodes of the main thread only; it touches nothing of hankelkit's.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time

INTERVAL_S = 0.1
WINDOW = 9
# About the median time of probe() on the 2-core Xeon (2.1 GHz, Python
# 3.11) host where the benchmark was written.  Any fixed value would do: it
# only sets the unit of the clock.
REF_PROBE_S = 0.0033

_A = tuple(((0x9E3779B97F4A7C15 + 2 * i) ** 5) >> (i * 7) for i in range(24))
_S = tuple(range(-40, 40))


def _probe_unit():
    acc = [0] * (2 * len(_A) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_A):
            acc[i + j] += x * y
    t = 0
    for _ in range(12):
        for s in _S:
            t = (t * 3 + s) % 1000003
    return acc[-1] + t


def probe():
    """Time the fixed probe once; about 3 ms on the reference host."""
    start = time.perf_counter()
    for _ in range(12):
        _probe_unit()
    return time.perf_counter() - start


class RefClock:
    """Reference-speed clock; ``start()`` it, read ``now()``, ``stop()`` it."""

    def __init__(self):
        self._ref = 0.0  # reference seconds up to self._mark
        self._mark = time.perf_counter()
        self._speed = 1.0  # REF_PROBE_S / the median of the recent probes
        self._recent = collections.deque(maxlen=WINDOW)
        self.probes = []  # every probe time, for the details line
        self._ticks = 0
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:  # an alarm that came while the probe ran
            return
        self._busy = True
        now = time.perf_counter()
        self._ref += (now - self._mark) * self._speed
        seconds = probe()
        self.probes.append(seconds)
        self._recent.append(seconds)
        self._speed = REF_PROBE_S / statistics.median(self._recent)
        self._mark = time.perf_counter()
        self._ticks += 1
        self._busy = False

    def start(self):
        self._mark = time.perf_counter()
        for _ in range(WINDOW):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self):
        """Reference seconds since the clock was made."""
        while True:  # read again if a probe ran in between
            ticks = self._ticks
            value = self._ref + (time.perf_counter() - self._mark) * self._speed
            if ticks == self._ticks:
                return value

    def scale(self, raw_seconds):
        """Raw seconds of work done just now (e.g. by a child process) in
        reference seconds, at the host's current speed: the median of
        ``WINDOW`` fresh probes."""
        return raw_seconds * REF_PROBE_S / statistics.median(probe() for _ in range(WINDOW))
