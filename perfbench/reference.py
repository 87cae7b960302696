"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the speed available to one process can drift by a
third over tens of seconds, in CPU time as much as in wall time, as
other tenants come and go.  The time of a library call alone then
says as much about the host as about the library.  The benchmark runs
this reference between library calls and reports call times in
*reference units*: a call's seconds divided by the reference's seconds
measured just before and just after it.  The reference never calls the
library, so a change to the library moves these ratios exactly as it
moves the raw times, while a slower host stretches both.

The work mixes what the library's hot paths do: elementwise numpy over
large arrays (the closed-form kernels), sparse-graph assembly and
Dijkstra on a lattice (the k estimator), and a Python loop (the glue).
One sample takes about 0.1 s on one core, a third in each part.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

_SIDE = 160          # lattice side: 25600 nodes, about 76000 edges
_POINTS = 250_000    # 2-D points per elementwise pass


def _lattice():
    idx = np.arange(_SIDE * _SIDE).reshape(_SIDE, _SIDE)
    tail = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel(), idx[:-1, :-1].ravel()])
    head = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel(), idx[1:, 1:].ravel()])
    weight = np.random.default_rng(0).random(tail.size) + 0.5
    return tail, head, weight


class ReferenceClock:
    """Samples the reference every ``every`` seconds, between calls."""

    def __init__(self, every: float = 1.0):
        self.every = every
        self.times: list[float] = []      # when each sample ended
        self.seconds: list[float] = []    # how long each sample took
        self._tail, self._head, self._weight = _lattice()
        self._points = np.random.default_rng(1).random((_POINTS, 2))
        self.work()                       # first-touch costs stay out of the samples

    def work(self) -> int:
        n = _SIDE * _SIDE
        for _ in range(5):
            graph = coo_matrix((self._weight, (self._tail, self._head)), shape=(n, n)).tocsr()
            dijkstra(graph, directed=False, indices=0)
        for _ in range(4):
            norm = np.sqrt((self._points * self._points).sum(axis=1))
            np.log1p(norm / (2.0 - norm)).max()
        acc = 0
        for i in range(220_000):
            acc += i * i % 7
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)

    def due(self) -> None:
        """Sample if the last sample is older than ``every`` (or there is none)."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean reference time of the samples just before ``start`` and just after ``end``."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picked = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return statistics.fmean(picked)
