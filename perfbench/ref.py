"""Reference kernel: a fixed unit of host work timed between benchmark ops.

Op times are divided by the time this kernel takes next to them, so that a
host that runs slower or faster for a while (shared cores, shared caches,
frequency changes) divides out of every ref-unit figure.  The kernel mixes
the library's two kinds of work, a pure-Python float loop like the scalar
Kahan sums of exponential-polynomial root isolation and one vectorized
``scipy.special.gammaincc`` call like the Gamma/Weibull iterated tails,
with a pass over a 2 MB array.  That last part is there because a shared
host's slow phases come largely from contention for caches and memory,
which the two compute parts alone tracked less well (see README.md).

Frozen: any change to this file rescales every ref-unit figure, so it
would make runs before and after incomparable.  It must never import
tailorder, because a change to the library must not move the unit.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

_LOOP = 1000
_RATES = tuple(0.5 + 0.25 * k for k in range(8))
_COEFS = tuple((-1.0) ** k / (k + 1) for k in range(8))
_SHAPE = 2.5
_POINTS = np.linspace(0.05, 30.0, 6000)
_STREAM = np.linspace(0.0, 1.0, 1 << 18)


def kernel() -> float:
    """One unit of work (4-7 ms on a 2-core x86-64 host); returns a checksum."""
    acc = 0.0
    for i in range(_LOOP):
        x = 0.01 * i
        total = 0.0
        comp = 0.0
        for c, r in zip(_COEFS, _RATES):
            y = c * math.exp(-r * x) - comp
            t = total + y
            comp = (t - total) - y
            total = t
        acc += total
    acc += float(special.gammaincc(_SHAPE, _POINTS).sum())
    return acc + float(np.sqrt(_STREAM * 1.0001 + 0.5).sum())


def time_kernel() -> float:
    """Wall seconds of one kernel call: the faster of two back-to-back
    calls, so that interrupts and cache state left behind by the previous
    op do not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
