"""The fixed reference kernel that timings are normalised by.

On the shared host the benchmark was written on (2 vCPUs, Intel Xeon),
identical work ran 1.5 to 2 times slower for stretches of seconds to
minutes, so two runs minutes apart could not be compared by raw time. Every
timed interval is therefore bracketed by this kernel: pure-Python exact
rational arithmetic, like the library's, but no library code, so a change to
the library cannot move it. A reported time is

    raw time * NOMINAL_S / (mean kernel time around the interval)

that is, the time the interval would have taken while the kernel ran in
NOMINAL_S, its time on that host when quiet. Raw times are reported beside
the normalised ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 1.2e-3


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(1, i % 31 + 1)
    return time.perf_counter() - t0


def probe() -> float:
    """Kernel time now: the faster of two runs, to shed a stray interrupt."""
    return min(_kernel(), _kernel())


def normalise(raw_s: float, before_s: float, after_s: float) -> float:
    return raw_s * NOMINAL_S * 2 / (before_s + after_s)
