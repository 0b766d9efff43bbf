"""Host-speed normalisation: time read against a fixed reference kernel.

A shared 2-core host changes speed by up to 2x in spells of a few seconds
to a few minutes, and every timed metric moves with it, whatever the
estimator (medians, per-operation minima, longer runs).
So the benchmark brackets every timed operation with a short run of a
fixed pure-Python kernel that is the benchmark's own and runs no code of
the program.  The kernel's time tracks the host's speed at that moment;
an interval is converted to *nominal seconds*, the seconds it would have
taken on a host where the kernel runs in ``NOMINAL_S``, by multiplying it
by ``NOMINAL_S / reference`` with the reference taken as the median of
the kernel runs around the interval.

A change to the program moves its operations' times and leaves the
kernel's alone, so it moves the nominal figures by the same ratio as the
raw ones.  The raw figures are reported beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List, Tuple

#: The kernel's time on the nominal host: about its median on the 2-core
#: VM the benchmark was written on, with Python 3.11, where it took
#: 0.33-0.7 ms as the host's speed drifted.
NOMINAL_S = 0.0005
#: Kernel runs on each side of an interval whose median is its reference.
WINDOW = 4


def _successors(state: Tuple[int, int, int]):
    a, b, c = state
    return ((a + 1) % 11, b, c), (a, (b + a) % 7, c), (a, b, (c + b + 1) % 5)


def kernel() -> int:
    """Fixed work shaped like the checker's: a tuple-state BFS, then dict updates."""
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    while frontier:
        following = []
        for state in frontier:
            for successor in _successors(state):
                if successor not in seen:
                    seen.add(successor)
                    following.append(successor)
        frontier = following
    table = {}
    x = 0
    for i in range(600):
        x = (x * 31 + i) % 1_000_003
        table[i & 255] = x
    return len(seen) + len(table)


class SpeedClock:
    """Reference kernel runs (marks) and the nominal length of what lies between.

    Call ``mark()`` before and after each timed operation; it returns the
    mark's index.  ``nominal(i, j)`` is the nominal length of the time from
    the end of mark ``i`` to the start of mark ``j``, leaving out the
    kernel runs between them.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []

    def mark(self) -> int:
        start = perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())
        return len(self.starts) - 1

    def reference_s(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def factors(self) -> List[float]:
        """Per gap ``k`` (from mark ``k`` to mark ``k + 1``): its nominal seconds per second."""
        refs = self.reference_s()
        count = len(refs)
        return [
            NOMINAL_S / statistics.median(refs[max(0, k - WINDOW + 1):min(count, k + 1 + WINDOW)])
            for k in range(count - 1)
        ]

    def nominal(self, i: int, j: int, factors: List[float]) -> float:
        """Nominal seconds from the end of mark ``i`` to the start of mark ``j``."""
        return sum((self.starts[k + 1] - self.ends[k]) * factors[k] for k in range(i, j))

    def raw(self, i: int, j: int) -> float:
        """Seconds from the end of mark ``i`` to the start of mark ``j``, kernel runs left out."""
        return sum(self.starts[k + 1] - self.ends[k] for k in range(i, j))
