"""The host-speed probe: a fixed piece of pure-Python work, timed between
operations, that turns a measured time into a time at reference speed.

On a shared host the speed of one vCPU drifts by 15-45% over seconds, in
CPU time as well as in wall time, and the two vCPUs drift independently.
The probe runs on the same vCPU as the operations (run.py pins itself and
its workers to one), right before and right after each operation, so it
sees the speed the operation saw.  An operation's normalised time is

    measured time * REFERENCE_PROBE_S / probe time

that is, what it would have taken had the probe taken REFERENCE_PROBE_S.
The probe is exact rational Gram-Schmidt on a fixed 4x4 integer matrix,
written here with the standard library only: the same kind of work as the
library's LLL (small Fractions, lists, generator sums), and out of reach
of any change to the library.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# a round figure within the range of the probe's readings (0.67-1.19 ms)
# on the 2-core VM the benchmark was sized on, Python 3.11.7, so that
# normalised times there read close to measured ones
REFERENCE_PROBE_S = 0.001
PROBE_REPEATS = 5  # probes per reading; the reading is their median
_GSO_PASSES = 8

_MATRIX = ((7, -3, 12, 5), (2, 9, -4, 11), (-6, 8, 3, 1), (10, 1, -7, 4))


def _gso(m) -> list:
    """The squared Gram-Schmidt lengths of the rows of m, exactly."""
    n = len(m)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        b[i] = Fraction(sum(x * x for x in m[i]))
        for j in range(i):
            mu[i][j] = Fraction(sum(x * y for x, y in zip(m[i], m[j])))
            mu[i][j] -= sum(mu[i][l] * mu[j][l] * b[l] for l in range(j))
            mu[i][j] /= b[j]
            b[i] -= mu[i][j] * mu[i][j] * b[j]
    return b


def _probe_once() -> float:
    start = time.perf_counter()
    for _ in range(_GSO_PASSES):
        _gso(_MATRIX)
    return time.perf_counter() - start


def probe() -> float:
    """One reading of the host's current speed: the median time of
    PROBE_REPEATS probes, in seconds."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


def warm_up() -> None:
    """Run the probe a few times untimed, so the first reading is not
    a cold one."""
    for _ in range(3):
        probe()


def normalised(seconds: float, probe_s: float) -> float:
    """seconds measured while the probe took probe_s, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s
