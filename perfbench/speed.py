"""Machine-speed probe: rescales wall times to a fixed reference speed.

On a shared virtual machine the speed of pure-Python code drifts by up to
2x over seconds to minutes, and each virtual CPU drifts on its own.  The
benchmark therefore pins itself, and with it every child it starts, to one
CPU (:func:`pin_to_one_cpu`).  While operations run, a :class:`SpeedProbe`
times a fixed reference loop on that CPU every ``PERIOD_S``, from a
``SIGALRM`` handler: the loop runs between bytecodes of in-process work, or
in this process while it waits for a child on the same CPU.  The loop is
timed in CPU time, so a child that shares the CPU does not lengthen it.  An
operation timed from ``t0`` to ``t1`` is then reported as

    (t1 - t0 - probe time inside it) * REF_LOOP_S * mean(1 / loop time)

over the probe samples taken during the operation or within one period of
it: its wall time at the speed where the reference loop takes
``REF_LOOP_S``.  The loop touches no eicount code, so a change to the
program moves the rescaled time in proportion to the wall time.
"""

from __future__ import annotations

import bisect
import os
import signal
from time import perf_counter, thread_time

PERIOD_S = 0.025
REF_ITERS = 3000
# Median time of reference_loop() on the 2-vCPU Xeon virtual machine the
# benchmark was tuned on, so rescaled times read close to its wall times.
REF_LOOP_S = 0.0005


def pin_to_one_cpu():
    """Restrict this process (and the children it starts later) to the
    highest-numbered CPU it may use; returns that CPU, or None where
    affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def reference_loop():
    """Fixed pure-Python integer arithmetic.  It allocates no container, so
    its time does not depend on the heap or the caches the measured code
    left behind (a loop over dicts and sets ran 20% slower inside eicount
    queries than on its own; this one within 5%)."""
    s = 0
    for i in range(REF_ITERS):
        s += (i * 2654435761) & 1023
    return s


class SpeedProbe:
    """Samples the reference loop every ``PERIOD_S`` between :meth:`start`
    and :meth:`stop`.  ``busy_s`` is the total time spent in the probe, so
    that callers can subtract the part that fell inside a timed region."""

    def __init__(self):
        self.times = []     # when each sample ended
        self.loops = []     # the reference loop's CPU time at that sample
        self.busy_s = 0.0
        self._previous = None

    def sample(self, *_):
        c0 = thread_time()
        reference_loop()
        cpu = thread_time() - c0
        self.times.append(perf_counter())
        self.loops.append(cpu)
        self.busy_s += cpu

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def speed(self, t0, t1):
        """Mean of REF_LOOP_S / loop time over the samples within one
        period of [t0, t1] (the last sample before t0 if there is none)."""
        lo = bisect.bisect_left(self.times, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.times, t1 + PERIOD_S)
        if lo >= hi:
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        window = self.loops[lo:hi]
        return REF_LOOP_S * sum(1 / x for x in window) / len(window)

    def rescale(self, t0, t1, busy_s):
        """Wall time of [t0, t1] less ``busy_s`` of probe time inside it,
        at the reference speed."""
        return (t1 - t0 - busy_s) * self.speed(t0, t1)
