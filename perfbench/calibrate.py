"""A fixed stdlib loop that measures how fast this machine runs Python right now.

On a shared virtual machine the same pass can take 40 % longer for minutes at
a time, and the fastest of a few repetitions does not remove that.  The loop
below does the kind of work the package does (``Fraction`` arithmetic, dict
updates) and never changes, so the ratio of an operation's time to the
loop's time, sampled next to it in the same interpreter, stays steady while
both drift.  Reported times are that ratio multiplied by ``K_REF_MS``: seconds
on a machine where one loop takes exactly ``K_REF_MS``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

K_REF_MS = 20.0


def _kernel() -> Fraction:
    acc: dict[int, Fraction] = {}
    total = Fraction(0)
    for i in range(1, 2000):
        q = Fraction(i, i + 7)
        total += q * q
        acc[i % 97] = acc.get(i % 97, Fraction(0)) + q
    return total


def sample_ms() -> float:
    """Median of three timings of the loop, in milliseconds."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        _kernel()
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)
