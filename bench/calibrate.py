"""Machine-speed calibration for the benchmark's times.

A shared virtual machine runs the same code up to 1.6x slower from one
second to the next, with no steal time to show for it, so process CPU time
drifts as much as wall time.  The benchmark therefore times a fixed loop
of pure-Python exact arithmetic next to every measured interval and scales
the interval by ``CAL_REF_S / loop time``: the result is the interval's
length at a fixed reference speed.  The loop uses no psicalc code, so a
change to the library cannot move it.

``CAL_REF_S`` is the loop's time at full speed on a 2-vCPU x86-64 Xeon
virtual machine with Python 3, so on that machine a scaled time reads as
the seconds the interval takes when the machine is not slowed.
"""

from __future__ import annotations

import time
from fractions import Fraction

CAL_REF_S = 0.0032
_A = tuple(Fraction(i + 1, 2 * i + 3) for i in range(24))
_B = tuple(Fraction(3 * i - 7, i + 5) for i in range(24))


def _loop() -> list:
    """A small product of Fraction polynomials: allocation, gcds, dispatch."""
    out = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return out


def calibration_s() -> float:
    """Seconds the calibration loop takes now (two rounds of ``_loop``)."""
    t0 = time.perf_counter()
    _loop()
    _loop()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from calibrations taken around it."""
    return seconds * 2 * CAL_REF_S / (before + after)
