"""Scaling timed passes to a fixed host speed with an interleaved reference.

On a shared host the same code runs a fifth faster or slower from one minute
to the next, and the drift is common to all kinds of work.  While a pass
runs, Sampler interrupts it with a timer signal every INTERVAL_S and runs a
fixed reference kernel, recording the kernel's time under the pass's
current part (certify, roundtrip, ...).  The kernel's own time is kept off
the clock that the pass is timed with, and a part's time is scaled by
REFERENCE_S / (mean kernel time during that part): seconds at the host speed
at which the kernel takes REFERENCE_S.  The kernel is the benchmark's own
code and never calls gwschemes, so a change to the program moves the scaled
times and never the scale.  Its mix follows the program's: exact arithmetic
on tuples of Python ints, dicts and small objects, and numpy work.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# the kernel's median time on the host the benchmark was tuned on (2 vCPUs of
# an Intel Xeon); it only sets the scale, so that scaled times read near the
# wall seconds of that host
REFERENCE_S = 0.02
INTERVAL_S = 0.2

_P = 2**61 - 1
_RNG = np.random.default_rng(0)
_F = _RNG.integers(0, 5, (120, 120)).astype(np.float64)
# the numpy work runs in these buffers, so that the kernel's time does not
# depend on how the program has left the allocator
_INTS = _RNG.integers(0, 7, 400_000)
_FLOATS = np.full(400_000, 2.0)
_OUT = np.empty(400_000)


def kernel() -> float:
    """Run the reference work once; return its wall time in s.

    The cyclic garbage collector is off meanwhile: the kernel's allocations
    would otherwise set off collections that walk the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = (1, 2, 3, 4, 5, 6, 7, 8)
        seen = {}
        for r in range(3000):
            acc = tuple((x * 1000003 + y + r) % _P for x, y in zip(acc, acc[1:] + acc[:1]))
            seen[acc[0] % 4099] = acc
        pairs = [(i, str(i)) for i in range(12000)]
        np.multiply(_FLOATS, _INTS, out=_OUT)
        np.add(_OUT, _FLOATS, out=_OUT)
        total = float(_OUT.sum()) + float((_F @ _F).trace())
        del seen, pairs, total
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference-kernel samples taken while a pass runs, by part of the pass.

    It offers the phase() and paused() hooks of a tracer (jobs.run_step
    labels its parts "instance:part") and clock(), the wall clock less the
    time spent in the kernel.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.part = "other"
        self._kernel_s = 0.0

    def clock(self) -> float:
        return perf_counter() - self._kernel_s

    def _sample(self) -> None:
        t0 = perf_counter()
        self.samples[self.part].append(kernel())
        self._kernel_s += perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextlib.contextmanager
    def running(self):
        """Sample on entry, then after every INTERVAL_S of program time."""
        self._sample()
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextlib.contextmanager
    def phase(self, label: str):
        old, self.part = self.part, label.rpartition(":")[2]
        try:
            yield
        finally:
            self.part = old

    def paused(self):
        return contextlib.nullcontext()

    def scale(self, part: str | None = None) -> float:
        """REFERENCE_S over the mean kernel time in the given part, or in all
        parts if none is given or the part was too short to be sampled."""
        times = self.samples.get(part) or [t for ts in self.samples.values() for t in ts]
        return REFERENCE_S / statistics.fmean(times)
