"""The host-speed reference: a fixed piece of pure-Python work, timed between
the program's calls so that each latency can be scaled to one host speed.

On a shared 2-vCPU virtual machine the CPU's speed drifted by 20-40% over
tens of seconds, on both vCPUs and for every pure-Python workload alike, so
a run that landed in a slow stretch read slow on every timing.  The reference is colour refinement of fixed circulant
digraphs, the kind of work the program does, written here and never
changed, so a change to the program cannot move it.
"""

import random
from statistics import median
from time import perf_counter

# Seconds one reference() call takes at the speed every timing is scaled to.
NOMINAL_S = 0.035


def _refine(n, s):
    """Stable colouring of Cay(Z_n, S) by 1-dimensional Weisfeiler-Leman."""
    out = [[(v + x) % n for x in s] for v in range(n)]
    colour = [0] * n
    while True:
        signature = [(colour[v], tuple(sorted(colour[w] for w in out[v]))) for v in range(n)]
        table = {key: i for i, key in enumerate(sorted(set(signature)))}
        if len(table) == len(set(colour)):
            return colour
        colour = [table[key] for key in signature]


_rng = random.Random(3)
_GRAPHS = [(n, [x for x in range(1, n) if _rng.random() < 0.4]) for n in (40, 48, 56, 64) for _ in range(6)]


def reference() -> float:
    """Seconds taken by one fixed round of colour refinement."""
    started = perf_counter()
    for n, s in _GRAPHS:
        for v in range(0, n, 8):
            _refine(n, s + [v] if v and v not in s else s)
    return perf_counter() - started


class HostSpeed:
    """Reference timings taken between the program's calls.

    A segment is the stretch after one reference timing, up to the next.  A
    latency measured in a segment is scaled by NOMINAL_S over the median of
    the WINDOW timings around it.  One timing is noisy, but the drift it is
    there to follow is slow, so a median over a few seconds follows the drift
    and little of the noise.
    """

    WINDOW = 10
    EVERY_S = 0.5  # least time between two reference timings

    def __init__(self):
        self.timings = [reference()]
        self._last = perf_counter()

    @property
    def segment(self) -> int:
        return len(self.timings) - 1

    def sample(self, force=False):
        """Time the reference if EVERY_S seconds have passed since the last time."""
        if force or perf_counter() - self._last >= self.EVERY_S:
            self.timings.append(reference())
            self._last = perf_counter()

    def scale(self, segment: int) -> float:
        start = max(0, segment + 1 - self.WINDOW // 2)
        return NOMINAL_S / median(self.timings[start:start + self.WINDOW])
