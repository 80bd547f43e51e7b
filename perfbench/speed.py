"""Machine-speed reference for scaling measured times.

The benchmark runs on shared 2-CPU virtual machines whose speed drifts
by up to 1.5x for tens of seconds at a time, whatever runs inside them.
Such drift moves every timing of a run together, so the run measures it
alongside the operations: a fixed pure-Python kernel (Bron-Kerbosch on a
fixed random graph, the same kind of set-and-recursion work eptkit does)
is timed at points spaced through the run. An operation's time is scaled
by NOMINAL_S over the mean of the two points around it, which gives the
time it would have taken on the machine when the kernel runs in
NOMINAL_S. The kernel is benchmark code, so changes to eptkit leave it
unchanged; the raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

# kernel time (best of KERNEL_REPEATS) on an unloaded 2-CPU x86-64 VM,
# Python 3.11
NOMINAL_S = 0.00175
KERNEL_REPEATS = 3
POINT_INTERVAL_S = 0.5
# Work measured in fresh processes (cli invocations, set-up probes) also
# pays process start, page faults and imports, which a slow machine
# slows more than computation. Its reference is a fresh interpreter
# running the kernel SPAWN_KERNELS times: start-up plus some computation,
# like a short eptkit invocation. SPAWN_NOMINAL_S is its wall time at
# nominal speed.
SPAWN_KERNELS = 5
SPAWN_NOMINAL_S = 0.062
SPAWN_INTERVAL_S = 1.0

_N = 40
_rng = random.Random(0)
_ADJ = [set() for _ in range(_N)]
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_u].add(_v)
            _ADJ[_v].add(_u)


def _kernel() -> int:
    cliques: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(p & _ADJ[u]))
        for v in sorted(p - _ADJ[pivot]):
            expand(r + [v], p & _ADJ[v], x & _ADJ[v])
            p.remove(v)
            x.add(v)

    for _ in range(2):
        expand([], set(range(_N)), set())
    return len(cliques)


def kernel_s() -> float:
    """Best of KERNEL_REPEATS timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def spawn_s() -> float:
    """Wall time of a fresh interpreter that runs the kernel."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - t0


class Speedometer:
    """Reference points taken through a run. `factor(k)` scales a time
    measured between point k and point k+1. With `spawn`, the points
    time a fresh interpreter instead of the in-process kernel."""

    def __init__(self, spawn: bool = False) -> None:
        self.points: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")
        self._measure = spawn_s if spawn else kernel_s
        self._nominal = SPAWN_NOMINAL_S if spawn else NOMINAL_S
        self._interval = SPAWN_INTERVAL_S if spawn else POINT_INTERVAL_S
        self.point()

    def point(self) -> int:
        t0 = time.perf_counter()
        self.points.append(self._measure())
        self._last = time.perf_counter()
        self.spent_s += self._last - t0
        return len(self.points) - 1

    def due(self) -> int:
        """Take a point if POINT_INTERVAL_S has passed since the last;
        the index of the latest point either way."""
        if time.perf_counter() - self._last >= self._interval:
            return self.point()
        return len(self.points) - 1

    def factor(self, k: int) -> float:
        return 2 * self._nominal / (self.points[k] + self.points[k + 1])

    def mean_factor(self) -> float:
        return self._nominal * len(self.points) / sum(self.points)


if __name__ == "__main__":
    for _ in range(SPAWN_KERNELS):
        _kernel()
