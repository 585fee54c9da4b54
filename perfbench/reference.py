"""A fixed reference computation that the benchmark's times are scaled by.

On a shared VM the speed of this allocation-heavy, pure-Python code moves
by up to 80 % within seconds and drifts over minutes with the host's load
(another tenant on the same core or cache; see README.md), and CPU time
moves with it.  The worker therefore samples the speed of the machine all
through a pass: a profiling timer interrupts the process every
``EVERY_S`` of CPU time and runs one short burst of fixed work.  A time is
then reported as it would read on a machine where one burst takes
``NOMINAL_BURST_S``: each stretch of work between two bursts is multiplied
by ``NOMINAL_BURST_S`` over the mean CPU time of those two bursts.  A
change of the host's speed moves the work and the bursts together and
cancels.  Burst time is left out of every time the benchmark reports
(``Sampler.work_time``).

The burst does the kind of work lsgreen's kernel does, without calling
lsgreen, so that a change to lsgreen can never change the reference:
products of sparse polynomials held as ``{exponent: int}`` dicts, a
primitive pseudo-remainder gcd over Z, and convolutions of ``Fraction``
vectors.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# The CPU time of one burst on a 2-core shared VM (Python 3.11.7) at its
# usual speed; the scale of every reported time.  Changing it rescales
# every time metric.
NOMINAL_BURST_S = 0.015
# Process CPU time between two bursts while a pass runs.
EVERY_S = 0.2


def _mul(a: dict, b: dict) -> dict:
    c: dict = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            w = c.get(e, 0) + va * vb
            if w:
                c[e] = w
            elif e in c:
                del c[e]
    return c


def _content(a: dict) -> int:
    g = 0
    for v in a.values():
        while v:
            g, v = v, g % v
    return abs(g)


def _prem_gcd(a: dict, b: dict) -> dict:
    """Primitive pseudo-remainder Euclid on dict polynomials over Z."""
    while b:
        db = max(b)
        lb = b[db]
        r = dict(a)
        while r and max(r) >= db:
            dr = max(r)
            lr = r[dr]
            r = {e: v * lb for e, v in r.items()}
            for e, v in b.items():
                k = e + dr - db
                w = r.get(k, 0) - v * lr
                if w:
                    r[k] = w
                else:
                    r.pop(k, None)
        g = _content(r) if r else 1
        a, b = b, {e: v // g for e, v in r.items()}
    return a


def _fraction_conv(x: list, y: list) -> list:
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def _work() -> int:
    """One burst's worth of fixed work; returns a checksum of the results."""
    check = 0
    for k in range(8):
        a = {e: (e * 7 + k) % 11 - 5 for e in range(0, 24, 1 + k % 3)}
        b = {e: (e * 5 + 3 * k) % 13 - 6 for e in range(0, 18, 1 + k % 2)}
        f = {0: 1, 1: k + 2, 3: -1}
        p, q = _mul(a, f), _mul(b, f)
        g = _prem_gcd(p, q)
        for _ in range(4):
            p = _mul(p, b)
        check += len(g) + len(p)
        x = [Fraction(i * k + 1, i + 2) for i in range(10)]
        y = [Fraction(2 * i - k, 3 * i + 1) for i in range(10)]
        check += _fraction_conv(x, y)[-1].denominator % 97
    return check


CHECKSUM = _work()


def burst() -> float:
    """Run one burst; return its CPU time in seconds.

    The cyclic garbage collector is off during the burst, and the burst
    frees all it allocates, so its time does not depend on how large the
    heap of the process around it is, and it leaves the collector's
    allocation count where it found it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        check = _work()
        elapsed = time.thread_time() - start
    finally:
        if enabled:
            gc.enable()
    if check != CHECKSUM:
        raise AssertionError("reference computation gave a different result")
    return elapsed


class Sampler:
    """Bursts at known points of a process's work, and the scaled time of
    any stretch of that work.

    ``marks`` holds (work time, burst CPU time) pairs.  Work time is the
    process's CPU time less the time spent in bursts."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.burst_total = 0.0
        self._busy = False
        self._previous = None

    def work_time(self) -> float:
        return time.thread_time() - self.burst_total

    def sample(self) -> float:
        start = time.thread_time()
        b = burst()
        self.marks.append((start - self.burst_total, b))
        self.burst_total += time.thread_time() - start
        return b

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def start(self, every: float = EVERY_S):
        """Sample every ``every`` seconds of CPU time from here on."""
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, every, every)

    def stop(self, trailing: int = 2):
        """Stop the timer, then take ``trailing`` more samples so that the
        last stretch of work has bursts on both sides."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        for _ in range(trailing):
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Work time from ``t0`` to ``t1`` at the reference speed.  Between
        two marks the speed is the mean of their bursts; before the first
        mark and after the last it is that mark's."""
        at = [a for a, _ in self.marks]
        cost = [b for _, b in self.marks]
        total, lo = 0.0, t0
        i = bisect.bisect_right(at, t0)
        while lo < t1:
            hi = min(t1, at[i]) if i < len(at) else t1
            if i == 0 or i == len(at):
                b = cost[min(i, len(at) - 1)]
            else:
                b = (cost[i - 1] + cost[i]) / 2
            total += (hi - lo) * NOMINAL_BURST_S / b
            lo, i = hi, i + 1
        return total
