"""Times rescaled by a reference workload timed just before them.

On a shared 2-core VM the speed of the same code swings by up to 1.5x from
one second to the next (a fixed 15 ms Python loop timed 13-23 ms in 1-s
windows), and by 10-25% between whole 20-s runs.  Every timed call is
therefore bracketed by two runs of a fixed reference mix of interpreter
work and a small LAPACK call, and reported as ``elapsed * REF_S /
reference``, with ``reference`` the mean of the two: seconds at the speed
the host has when the reference takes REF_S.  A single reference sample
before each call cut the run-to-run spread of mod-p pass times from 11-15%
to 4-5%.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.0015  # the reference's fastest time on a quiet 2-core x86 VM

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def reference() -> float:
    """Seconds one run of the reference mix takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    np.linalg.svd(_MATRIX)
    return time.perf_counter() - t0
