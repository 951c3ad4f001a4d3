"""Host-speed probe: times a fixed reference kernel from a timer signal while
the library works, so that a pass's time can be stated at a reference speed.

The cores this benchmark runs on are shared.  Their speed for this kind of
work (small rational arithmetic, many short-lived objects) drifts by 20 % and
more over seconds to minutes, in phases longer than a pass, so more passes do
not average it out.  A ``SIGALRM`` handler runs ``kernel()`` every
``interval_s`` seconds of the timed section and records how long it took; the
pass's time with the handler's time taken out, scaled by
``REF_KERNEL_S / mean kernel time``, is the time the pass would have taken on
a host where the kernel takes ``REF_KERNEL_S``.  The kernel is written out
here and does not call the library, so a change to the library moves the
scaled time exactly as it moves the raw time.  A bare integer loop does not
track the drift; a product of rational series does.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.003   # the kernel's time at the reference speed
INTERVAL_S = 0.05      # timer period while a pass runs
EDGE_SAMPLES = 5       # kernel runs taken just before and just after the pass

_A = [Fraction(i * i + 1, 2 * i + 3) for i in range(30)]
_B = [Fraction(3 * i + 7, i * i + 5) for i in range(30)]


def kernel() -> dict:
    """A truncated product of two dense series with rational coefficients."""
    out: dict = {}
    for i, a in enumerate(_A):
        for j in range(len(_B) - i):
            out[i + j] = out.get(i + j, 0) + a * _B[j]
    return out


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, scaled to the
    reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


class Probe:
    """Samples the kernel before, during (from ``SIGALRM``) and after a timed
    section.  ``busy_s`` is the time spent in the handler, to be taken out of
    the section's time."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._sample()
        self.busy_s += time.perf_counter() - t0

    def start(self) -> None:
        for _ in range(EDGE_SAMPLES):   # warm-up, not recorded
            kernel()
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._previous = None
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def kernel_s(self) -> float:
        """The kernel's mean time over the section: the samples are evenly
        spaced in time, so the mean weighs every part of the section alike."""
        return statistics.fmean(self.samples)
