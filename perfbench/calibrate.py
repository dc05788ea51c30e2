"""Host-speed calibration for the end-to-end times.

The shared host the benchmark runs on changes a process's speed by up to
1.7x, for seconds to minutes at a time, whatever the process runs. So the
measured process times a fixed reference block right before and right after
each timed phase, and every end-to-end time is scaled to the reference speed:

    scaled = wall * REFERENCE_S / mean(block before, block after)

A slower program still reads slower by the same factor; a slower host does
not. The block never calls ``lexgraph``. It does the two kinds of work the
program spends its time on, because the host slows them by different
factors: a seeded heap Dijkstra in pure Python with small numpy reductions
and TSV-style formatting and parsing (what the solver loops and the CLI
readers do), and random gathers from a 4 MB array, larger than the L2
cache (what scipy's graph routines on a large graph do). Scaled by either
part alone, one of the two kinds of phase kept most of the host's noise. The
block runs with the garbage collector off and with warm caches, so neither
the program's heap nor what the program last touched leaks into its time.
Its arrays add a fixed ~10 MB to the measured process's peak RSS.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

# median wall time of one block on the machine recorded in baseline.json
REFERENCE_S = 0.11
KERNELS_PER_BLOCK = 4
GATHERS_PER_BLOCK = 16

_N = 3000
_rng = random.Random(12345)
_ADJ: list[list[tuple[int, float]]] = [[] for _ in range(_N)]
for _ in range(4 * _N):
    _u, _v, _w = _rng.randrange(_N), _rng.randrange(_N), _rng.uniform(0.2, 2.0)
    _ADJ[_u].append((_v, _w))
    _ADJ[_v].append((_u, _w))
_ARR = np.random.default_rng(1).random(2000)
_BIG = np.random.default_rng(2).random(500_000)
_PERM = np.random.default_rng(3).permutation(500_000).astype(np.int32)


def _kernel() -> float:
    dist = [float("inf")] * _N
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    acc = 0.0
    for i in range(200):
        acc += float(np.maximum(_ARR[i : i + 500], 0.5).sum())
    lines = "\n".join(f"{i}\t{i + 1}\t{dist[i % _N] * 0.37:.12g}" for i in range(3000)).split("\n")
    rows = [(int(a), int(b), float(c)) for a, b, c in (ln.split("\t") for ln in lines)]
    return acc + rows[-1][2]


def block() -> float:
    """Wall seconds of one reference block. One untimed kernel first brings
    the block's data back into the caches, so what ran before it does not
    count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        for _ in range(KERNELS_PER_BLOCK):
            _kernel()
        for _ in range(GATHERS_PER_BLOCK):
            _BIG[_PERM].sum()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale from wall seconds to reference-speed seconds for a phase timed
    between two blocks."""
    return REFERENCE_S / ((before + after) / 2.0)
