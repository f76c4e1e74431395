"""A clock that reads in reference seconds: the host's speed changes divided out.

On a shared virtual machine the speed of a virtual CPU changes while a
run goes on: within a second, and between levels about 1.8x apart that
last seconds to minutes, independently on each CPU (seen on a 2-core
Intel Xeon guest).  A wall clock then measures the host as much as the
program.

RefClock measures the speed of the CPU the process runs on while the
program runs.  Every INTERVAL_S of wall time a SIGALRM handler runs a
fixed calibration slice and times it.  A slice that takes d seconds
gives the factor (REF_SLICE_S / d) ** sensitivity, which scales the wall
time that follows until the next slice.  now() returns the sum of the
scaled stretches; the slices themselves are left out.  sync() runs a
slice at once; the benchmark calls it before each window solve, so that
a window, often only a few milliseconds long, is scaled by the speed
measured just before it rather than up to INTERVAL_S earlier.  So a
reading is
the time the program would have taken on a host where one slice takes
REF_SLICE_S, about that guest's usual speed.

The slice is a loop of numpy calls on a short array: per-call overhead.
Of the kernels tried beside each workload (an interpreter loop, small
and large sparse solves, streaming and gathering over arrays larger than
the caches, short-array numpy calls), its speed followed the program's
most closely as the host's speed changed.

Python runs the handler between bytecodes in the main thread, so a slice
never interrupts the program's C calls; a long factorization is scaled
by the slice before it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
REF_SLICE_S = 0.002  # one slice's usual duration on a 2-core Intel Xeon guest


class RefClock:
    """sensitivity: how strongly the program's speed follows the slice's.

    When the slice runs k times slower, the program runs k ** sensitivity
    times slower.  It depends on the program's mix of work, so each
    workload states its own (workloads.py).
    """

    def __init__(self, sensitivity: float):
        self.sensitivity = sensitivity
        self._v = np.ones(64)
        self.slices = []  # (start, duration) of every slice, wall seconds
        self._state = (0.0, 0.0, 1.0)  # (reference seconds, wall time they hold to, factor)
        self._saved_handler = None

    def _kernel(self) -> None:
        v = self._v
        for _ in range(1000):
            v = v * 0.5 + 1.0

    def _slice(self) -> tuple:
        """Run one slice; return its start and end (wall) and the speed factor now."""
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.slices.append((start, end - start))
        return start, end, (REF_SLICE_S / (end - start)) ** self.sensitivity

    def _on_alarm(self, signum, frame) -> None:
        ref, since, factor = self._state
        start, end, new_factor = self._slice()
        self._state = (ref + (start - since) * factor, end, new_factor)

    def start(self) -> None:
        self._kernel()  # warm caches and lazy set-up; not a measurement
        _, end, factor = self._slice()
        self._state = (0.0, end, factor)
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def sync(self) -> None:
        """Run a slice now, so that the next stretch is scaled by a fresh speed."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._on_alarm(None, None)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def now(self) -> float:
        """Reference seconds since start()."""
        while True:
            state = self._state
            ref, since, factor = state
            value = ref + (time.perf_counter() - since) * factor
            if self._state is state:  # no slice ran while this was read
                return value

    def summary(self) -> dict:
        """The slices, as (start, duration) seconds from the first one."""
        t0 = self.slices[0][0]
        return {
            "slice_s_total": sum(d for _, d in self.slices),
            "timeline": [(round(t - t0, 6), round(d, 7)) for t, d in self.slices],
        }
