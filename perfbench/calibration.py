"""Host-speed calibration: wall seconds to reference seconds.

The benchmark's host is shared, and its speed drifts by a quarter or more
within seconds.  A fixed piece of pure-Python work (dicts and sets of
strings, a few BFS sweeps, a sort) that imports nothing from cwkit is timed
right before and right after each measured interval.  The interval's wall
time is scaled by REF_S over the mean of those two timings.  The host's
drift moves the interval and the calibration alike and cancels out; a
change to cwkit moves the interval alone and shows in full.
"""

from __future__ import annotations

import gc
import time

#: Scale of a reference second: about what calibrate() takes on a quiet
#: 2-vCPU Linux VM running Python 3.11.  Reported times are wall seconds
#: on a host where calibrate() takes exactly REF_S.
REF_S = 0.005

_N = 600
_STEPS = (1, 2, 7, _N - 1, _N - 2, _N - 7)
_SOURCES = 6


def _work():
    names = [f"v{i}" for i in range(_N)]
    adj = {a: {names[(i + d) % _N] for d in _STEPS} for i, a in enumerate(names)}
    total = 0
    for src in names[:_SOURCES]:
        dist, queue = {src: 0}, [src]
        for u in queue:
            du = dist[u] + 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = du
                    queue.append(w)
        total += len(sorted(dist.items(), key=lambda kv: (kv[1], kv[0])))
    return total


def calibrate():
    """Seconds the fixed work takes now, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure(fn, *args):
    """(fn(*args), its time in reference seconds)."""
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = calibrate()
    return result, wall * 2 * REF_S / (before + after)


class Stopwatch:
    """Sums reference seconds over many short intervals.

    The host's speed changes within a second or two, so a long task
    cancels its drift better when it is timed piece by piece.
    """

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args):
        result, seconds = measure(fn, *args)
        self.seconds += seconds
        return result
