"""Host-speed calibration: a fixed reference work interleaved with the program.

On a shared 2-vCPU host the speed of the same CPU-bound loop changes by up to
2x, both from one second to the next and in regimes lasting minutes, so a raw
wall time says as much about the neighbours as about glomega.  The benchmark
therefore times a fixed pure-Python reference chunk *inside* the measured
process, on the same core and at the same moments as the program:

- during the run, a ``SIGALRM`` timer (``Pacer``) runs one chunk every
  ``PERIOD_S`` of wall time, between two bytecodes of the suite;
- after set-up, ``SETUP_CHUNKS`` chunks run back to back.

A time is then rescaled to the reference host: ``t * REF_CHUNK_S /
mean_chunk_s``, where ``REF_CHUNK_S`` is what one chunk takes on that host
(2 vCPU Xeon VM, CPython 3.11, idle).  The mean, not the median, weights
every slice of the run by its length; the garbage collector is held off while
a chunk runs, so a collection of the program's heap is never billed to it.

The chunk imports nothing from glomega, so a change to the program under test
leaves its cost unchanged.  It is made of what the suites spend their time on
(tuple keys, dict look-ups and updates, ``fractions.Fraction`` sums) on a
small working set: of the chunks tried, it tracked the suites' own speed best.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

CHUNK = 200  # loop iterations of one chunk: about 2.5 ms on the reference host
REF_CHUNK_S = 0.0025
PERIOD_S = 0.025
SETUP_CHUNKS = 20


def reference_work(salt: int) -> Fraction:
    memo = {}
    for i in range(CHUNK):
        key = ((i * 7 + salt) % 61, (i * 13) % 59, i % 17)
        vec = memo.get(key)
        if vec is None:
            vec = memo[key] = {}
        k2 = tuple(sorted(key))
        vec[k2] = vec.get(k2, Fraction(0)) + Fraction(i % 11 + 1, i % 7 + 1)
    return sum(sum(v.values()) for v in memo.values())


def timed_chunk(salt: int) -> float:
    """Wall time of one chunk, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference_work(salt)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def chunk_s() -> float:
    """Mean time of ``SETUP_CHUNKS`` chunks run back to back."""
    return sum(timed_chunk(k) for k in range(SETUP_CHUNKS)) / SETUP_CHUNKS


class Pacer:
    """Runs one timed chunk every ``PERIOD_S`` while the ``with`` block runs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(timed_chunk(len(self.samples)))

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
