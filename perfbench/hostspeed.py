"""Host-speed correction: a fixed reference chunk interleaved with the work.

The benchmark runs on shared hosts whose speed drifts.  On a 2-core shared
Xeon VM, one darbouxlie call (``verify_tree("s1")``) took 0.31 s in one
20-second window and 0.56 s in the next; over ten runs of a workload such
spells spread the raw times by 30-70 %, more than any useful bound.  A
reference loop run *beside* the work, in a second process, did not track
them.  One run in the *same* process, interleaved with the work, did: the
ratio of the call's time to the reference's stayed within 1.5 % across
those windows.

So while a workload runs, a ``Sampler`` interrupts the process every
``PERIOD_S`` seconds (``SIGALRM``) and runs ``chunk()``, a fixed piece of
exact rational elimination written here without importing darbouxlie, so
that no change to the program changes it.  Its time gives the host's speed
at that moment, ``TICK_S / chunk time``: 1.0 on the reference host, 0.5 on
one running at half speed.  A time the work took, net of the chunks run
inside it, times the mean speed over it is the time the same work would
take on the reference host.  The benchmark reports its times that way and
prints the raw ones next to them.

    with Sampler() as s:
        a = s.net_time(); work(); b = s.net_time()
    corrected = (b - a) * mean_speed(s.samples)
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

#: nominal time of one chunk: its median on a calm 2-core Xeon VM, run
#: between the calls of a darbouxlie workload
TICK_S = 0.006

#: wall seconds between two chunks (about 5 % of the time goes to them)
PERIOD_S = 0.2

_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + 2 * j) % 4)
            for j in range(7)] for i in range(6)]


def chunk() -> int:
    """The reference work: reduce a fixed 6x7 rational matrix to row
    echelon form a few times.  Returns its rank."""
    for _ in range(8):
        m = [row[:] for row in _MATRIX]
        rank = 0
        for col in range(7):
            piv = next((r for r in range(rank, 6) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = 1 / m[rank][col]
            m[rank] = [x * inv for x in m[rank]]
            for r in range(6):
                if r != rank and m[r][col]:
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
            rank += 1
    return rank


def mean_speed(samples) -> float:
    """Mean host speed over samples ``(start, end, cpu)`` of ``chunk()``.
    The samples are evenly spaced in wall time, so the mean weighs each
    stretch of the work by how long it took."""
    return sum(TICK_S / (e - s) for s, e, _ in samples) / len(samples)


class Sampler:
    """Runs ``chunk()`` every ``period`` seconds while active, recording
    ``(start, end, cpu)`` of each, and keeps clocks net of that time."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float, float]] = []
        self._spent = 0.0          # wall time of all chunks so far
        self._spent_cpu = 0.0
        self._old = None

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            s, c = time.perf_counter(), time.process_time()
            chunk()
            e, c = time.perf_counter(), time.process_time() - c
            self.samples.append((s, e, c))
            self._spent_cpu += c
            self._spent += e - s

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def net_time(self) -> float:
        """``perf_counter()`` less the time spent in chunks."""
        while True:                # retry if a chunk ran in between
            spent = self._spent
            t = time.perf_counter()
            if spent == self._spent:
                return t - spent

    def net_cpu(self) -> float:
        """``process_time()`` less the CPU time spent in chunks."""
        while True:
            spent = self._spent_cpu
            t = time.process_time()
            if spent == self._spent_cpu:
                return t - spent
