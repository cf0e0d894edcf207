"""The host's speed, measured inside each pass, so that the benchmark's
times do not move with it.

The benchmark runs on a shared virtual machine whose speed drifts: a loop
that does not touch stableplace ran 1.7 times as fast in one ten-second
window as in the one before, and every kind of work (interpreter, small and
medium numpy calls, the HiGHS LP) speeds up and slows down together.  So
a pass times a fixed reference kernel, ``reference()``, between its timed
units and, in untraced passes, every quarter second inside them.  It
scales each unit's wall time by ``REF_S`` over the mean reference time
measured inside, right before and right after the unit.  A scaled time
reads as the unit's wall time on a host that runs the reference kernel in
``REF_S`` seconds.  The kernel uses only Python, numpy and scipy, never
stableplace, so a change to the package moves the scaled time in the same
proportion as the wall time.  Unscaled times are recorded next to the
scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

# A round figure near the median time of one reference() call on the
# machine of the first baseline (2 shared cores of an Intel Xeon at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1; 19.6 ms).  It fixes the scale of
# every scaled time; it is not a calibration and must not be re-measured.
REF_S = 0.02
# Period of the marks taken inside timed units; a one-call mark costs about
# 20 ms, so sampling adds about 8% to a unit's wall time.
SAMPLE_EVERY_S = 0.25

_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(48, 3))
_FIELD = _RNG.normal(size=(2048, 3))
_CLOUD = _RNG.normal(size=(400, 3))
_A_UB = np.vstack([np.eye(3), -np.eye(3), _RNG.normal(size=(8, 3))])
_B_UB = np.concatenate([np.ones(6), 2.0 + _RNG.random(8)])


def reference() -> float:
    """A fixed mix of the kinds of work the package does: interpreter
    loops over dicts and strings, small and medium numpy calls, small HiGHS
    linear programs and qhull hulls.  Returns a checksum, so that nothing
    is skipped."""
    total, counts = 0.0, {}
    for i in range(9000):
        key = i % 61
        counts[key] = counts.get(key, 0) + len(str(i))
    total += sum(counts.values())
    for _ in range(75):
        gram = _SMALL @ _SMALL.T
        total += float(np.linalg.norm(gram[:4], axis=1).sum())
        total += float(np.cross(_SMALL[:16], _SMALL[16:32]).sum())
    for _ in range(20):
        total += float(np.einsum("ij,ij->i", _FIELD, _FIELD).sum())
        total += float(np.sqrt(np.abs(_FIELD)).sum())
    for k in range(3):
        res = linprog(-np.ones(3) + 0.1 * k, A_ub=_A_UB, b_ub=_B_UB, method="highs",
                      bounds=[(None, None)] * 3)
        total += float(res.fun)
    for _ in range(2):
        total += float(ConvexHull(_CLOUD).volume)
    return total


class HostSpeed:
    """Reference timings taken during a pass, and the scale they give.

    A mark is one or more reference calls made between timed units.  Inside
    ``sampling()`` a timer also makes a one-call mark every
    ``SAMPLE_EVERY_S`` seconds, from a signal handler, so that a long unit
    such as a whole pipeline call holds marks of its own.  A mark inside a
    unit is taken out of the unit's time.
    """

    def __init__(self):
        start = time.perf_counter()
        reference()  # warm-up: the first call pays for lazy initialisation
        # Taken out of an interval that holds it, but not a speed sample.
        self.warm_up = (start, time.perf_counter())
        self.marks: list[tuple[float, float, float]] = []  # (start, end, s per call)
        self._busy = False

    def mark(self, calls: int = 1) -> None:
        """Time ``calls`` reference calls; record the median per call."""
        self._busy = True
        start = time.perf_counter()
        per_call = []
        for _ in range(calls):
            t0 = time.perf_counter()
            reference()
            per_call.append(time.perf_counter() - t0)
        self.marks.append((start, time.perf_counter(), statistics.median(per_call)))
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Mark every SAMPLE_EVERY_S seconds of wall time until the block ends."""

        def on_timer(signum, frame):
            if not self._busy:
                self.mark()

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _split(self, t0: float, t1: float) -> tuple[float, float]:
        """The wall time of [t0, t1] less the marks inside it, and the mean
        reference time of those marks and of the last mark before and the
        first mark after the interval."""
        inside = [m for m in self.marks if m[0] >= t0 and m[1] <= t1]
        before = [m for m in self.marks if m[1] <= t0][-1:]
        after = [m for m in self.marks if m[0] >= t1][:1]
        near = before + inside + after
        if not near:
            raise RuntimeError("no reference timing next to a timed unit")
        busy = sum(m[1] - m[0] for m in inside)
        if t0 <= self.warm_up[0] and self.warm_up[1] <= t1:
            busy += self.warm_up[1] - self.warm_up[0]
        return t1 - t0 - busy, statistics.fmean(m[2] for m in near)

    def unscaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1], less the marks (and warm-up) inside it."""
        return self._split(t0, t1)[0]

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1], less the marks inside it, scaled to the
        reference speed."""
        wall, ref = self._split(t0, t1)
        return wall * REF_S / ref
