"""Wall times scaled to the machine's reference speed.

On a 2-CPU Intel Xeon virtual machine shared with other tenants, the
tenants slow every program on a CPU by up to 2x for seconds to minutes at
a time.  The program's CPU time grows with its wall time, so the program
really runs slower; it is not descheduled.  Over one 5-minute series, a
sweep's wall time and the time of the fixed loop below rose together: the
ratio of sweep time to the loop's time, around that sweep, moved about 7%
between the fastest and the slowest quarter of the series, the wall time
itself about 40%.

So every timed call is bracketed by the loop, and its wall time is scaled
by REFERENCE_S / (mean of the loop times just before and just after it).
The loop calls nothing of nfbsm, so only the machine moves it, never the
program under test.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

# The loop's time at the fastest speed seen on that machine: a quarter of
# it took 21 ms at best over 1,480 runs.
REFERENCE_S = 0.084

_X = np.linspace(-1.0, 1.0, 2000)
_N = np.arange(31)[:, None]
_K = np.linspace(0.1, 20.0, 64)[None, :]


def loop_seconds() -> float:
    """Time of a fixed mix of the program's kinds of work: scalar Python
    trigonometry, a Legendre basis and spherical Bessel functions."""
    start = time.perf_counter()
    total = 0.0
    for i in range(160_000):
        a = i * 1e-4
        total += math.cos(a) * math.cos(a + 1.0) + math.sin(a) * math.sin(a + 1.0) * math.cos(a - 2.0)
    for _ in range(40):
        np.polynomial.legendre.legvander(_X, 30)
        special.spherical_jn(_N, _K)
        special.spherical_yn(_N, _K)
    return time.perf_counter() - start


class Scaler:
    """Brackets timed calls with the loop; consecutive calls share the
    loop run between them."""

    def __init__(self):
        self._last = None

    def time(self, measure) -> tuple[float, float]:
        """(wall seconds, scaled seconds) of ``measure()``, which runs the
        timed call and returns its wall seconds."""
        before = self._last if self._last is not None else loop_seconds()
        self._last = None  # a call that raises leaves no loop time behind
        wall = measure()
        self._last = loop_seconds()
        return wall, wall * REFERENCE_S / ((before + self._last) / 2.0)
