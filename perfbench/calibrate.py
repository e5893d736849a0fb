"""Host-speed calibration: a fixed reference kernel timed beside the work.

On a shared host the speed of identical work drifts by 20-40% over tens
of seconds, for minutes at a time (other tenants on the same physical
cores), which is longer than a run.  The benchmark therefore times a
fixed reference kernel of its own — no program code — in short slices
interleaved with the requests (and in bursts around each set-up), and
scales every time by ``REF_SLICE_S / median(nearby slice times)``: the
time the work would have taken at the reference speed.  Raw, unscaled
figures are printed beside the scaled ones in the run's provenance line.

The kernel mixes what the program spends its time on: interpreter work
(dict and tuple churn, small calls) and numpy calls on arrays the size
of an RR-set corpus slice (scatter-add, argmax, fancy indexing, sort).
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: One slice's time at the reference speed: its best time on a 2-vCPU
#: Xeon VM.  Any fixed value would do; this one keeps scaled figures
#: close to raw ones on an idle host.
REF_SLICE_S = 0.6e-3
#: Interleave one slice after the request that ends this long after the
#: previous slice (about 2% of the run's time).
SLICE_PERIOD_S = 0.05
#: A request's speed is the median of this many slices on either side.
HALF_WINDOW = 5
#: Slices timed before and after each set-up.
SETUP_SLICES = 20
#: Kernel runs per slice.
SLICE_REPS = 6

_RNG = np.random.default_rng(20160516)
_VALUES = _RNG.random(20_000)
_IDS = _RNG.integers(0, 500, 4_000)
_WEIGHTS = _RNG.random(500)


def _kernel() -> float:
    counts = {}
    for i in range(400):
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + 1
    gains = np.zeros(500)
    np.add.at(gains, _IDS, _WEIGHTS[_IDS])
    best = int(np.argmax(gains))
    ordered = np.sort(_VALUES[:5_000])
    return best + float(_VALUES[_IDS].sum()) + float(ordered[0]) + len(counts)


def time_slice() -> float:
    """Seconds ``SLICE_REPS`` runs of the reference kernel take now.

    One untimed run first puts the kernel's code and data back in the
    CPU caches, so the slice reads the host's speed, not how much of the
    caches the program's last request evicted.
    """
    _kernel()
    t0 = time.perf_counter()
    for _ in range(SLICE_REPS):
        _kernel()
    return time.perf_counter() - t0


def burst(count: int = SETUP_SLICES) -> List[float]:
    """``count`` slices timed back to back (around a set-up)."""
    return [time_slice() for _ in range(count)]


def speed(slices: List[float]) -> float:
    """Host speed relative to the reference (1.0 = reference, < 1 slower)."""
    return REF_SLICE_S / statistics.median(slices)


def local_speeds(slices: List[float], marks: List[int]) -> List[float]:
    """Host speed at each call of one pass.

    ``marks[k]`` is how many slices had been timed when call ``k``
    started; a call's speed comes from the :data:`HALF_WINDOW` slices
    timed on either side of it, so drift within a pass is followed too.
    """
    at = [speed(slices[max(0, i - HALF_WINDOW):i + HALF_WINDOW])
          for i in range(len(slices) + 1)]
    return [at[mark] for mark in marks]
