"""Host speed, measured with a fixed reference job between timings.

The shared 2-vCPU host this benchmark was tuned on switches between a
fast and a slow state, about 2x apart, in phases lasting from a second
to minutes, and thread CPU time slows with it: the same pass of the same
inputs ran anywhere from 730 to 1,470 arrivals per CPU second within
three minutes.  So every timing is scaled by the host's speed around
it.  The benchmark times :func:`job_ms`, a fixed pure-Python job of its
own (sigmoid scores, dict and heap updates over slotted objects, like
the program's inner loops, but none of the program's code), before and
after each timed stretch, and multiplies the stretch by
:data:`REFERENCE_MS` over the mean job time: figures read as on a host
on which the job takes ``REFERENCE_MS``.  A change to the program moves
the figures; the program cannot move the job.
"""

from __future__ import annotations

import heapq
import math
import time

#: Job time (thread CPU ms) of the reference host that figures are scaled to.
REFERENCE_MS = 1.0


class _Point:
    __slots__ = ("x", "y", "weight")

    def __init__(self, x: float, y: float, weight: int) -> None:
        self.x = x
        self.y = y
        self.weight = weight


_POINTS = tuple(
    _Point((i * 37 % 101) / 10.0, (i * 53 % 97) / 10.0, i % 7) for i in range(400)
)


def _job() -> None:
    for _round in range(6):
        scores: dict = {}
        heap: list = []
        for index, point in enumerate(_POINTS):
            score = 1.0 / (1.0 + math.exp(math.hypot(point.x - 5.0, point.y - 5.0) - 3.0))
            if score > 0.3:
                scores[index] = scores.get(index - 1, 0.0) + score * point.weight
                heapq.heappush(heap, (-score, index))
            if len(heap) > 16:
                heapq.heappop(heap)
        sorted(scores.items(), key=lambda item: item[1])


def job_ms() -> float:
    """Thread CPU milliseconds of the reference job, best of three."""
    best = math.inf
    for _ in range(3):
        started = time.thread_time()
        _job()
        best = min(best, time.thread_time() - started)
    return best * 1000.0


def factor(*marks_ms: float) -> float:
    """Scale for a timing taken between reference jobs of ``marks_ms``."""
    return REFERENCE_MS * len(marks_ms) / sum(marks_ms)
