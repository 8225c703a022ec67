"""Layer probes: single public calls at fixed sizes, one per growth curve.

Each probe is the median of three calls, each scaled to reference machine
speed (calibrate.py), and stays under about a second on a 2-core x86-64
machine.  They run with the tracer off.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import psicalc
from calibrate import calibration_s, scale
from psicalc import PolyQ, PsiContext
from workloads import NONZERO, random_series

REPEATS = 3


def _median_time(call) -> float:
    times = []
    for _ in range(REPEATS):
        before = calibration_s()
        t0 = time.perf_counter()
        call()
        elapsed = time.perf_counter() - t0
        times.append(scale(elapsed, before, calibration_s()))
    return statistics.median(times)


def _poly(rng, degree):
    return PolyQ(Fraction(rng.choice(NONZERO), rng.randint(1, 9)) for _ in range(degree + 1))


def run_probes(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for degree in (50, 200, 500):
        a, b = _poly(rng, degree), _poly(rng, degree)
        out[f"probe.PolyQ.mul.deg{degree}_s"] = _median_time(lambda: a * b)
    for bound in (24, 32, 40):
        out[f"probe.from_spec.q.b{bound}_s"] = _median_time(
            lambda: PsiContext.from_spec("q", bound))
    q_ctx = PsiContext.from_spec("q", 16)
    for order in (12, 16):
        f, g = random_series(q_ctx, rng, order), random_series(q_ctx, rng, order, c0=2)
        out[f"probe.divide.q.c2.o{order}_s"] = _median_time(lambda: f.divide(g))
    fib = PsiContext.from_spec("fib", 24)
    f, g = random_series(fib, rng, 16), random_series(fib, rng, 16)
    for n in (6, 8):
        out[f"probe.general_leibniz.fib16.n{n}_s"] = _median_time(
            lambda: psicalc.general_leibniz(f, g, n))
    return out
