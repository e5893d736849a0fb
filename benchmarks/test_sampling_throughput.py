"""Sampling throughput of the coupled RR sampler, per kernel backend.

The offline phase of RIS-DA is dominated by RR-set sampling.
``test_coupled_backend_throughput`` times the counter-based coupled
sampler's ``sample_batch`` on the numpy backend (one batched,
level-by-level array-op reverse BFS over many slots at once) vs the
compiled backend (a per-slot reverse BFS, when the optional numba extra
resolves): the two hash the same coin domain, so the batches must be
**bit-identical**, and on a standard (non-tiny) run the compiled
traversal must be >= 2x the batched numpy one.  Without numba the test
still runs the numpy timing and publishes it report-only.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import emit, emit_json
from repro.bench.reporting import format_table
from repro.kernels import resolve_backend
from repro.network.datasets import load_dataset
from repro.ris.coupled import CoupledRRSampler

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

#: Coupled-sampler backend comparison workload and acceptance bar.
COUPLED_SAMPLES = 2_000 if TINY else 20_000
COUPLED_REPS = 2 if TINY else 3
COUPLED_BAR = 2.0


def _time_coupled(network, backend: str) -> tuple[float, tuple]:
    """Median seconds for one COUPLED_SAMPLES batch on ``backend``.

    A fresh sampler per rep keeps the key range identical across
    backends (sample_batch advances draw_count), so the returned batch
    tuple is directly comparable bit-for-bit.
    """
    times = []
    batch = None
    for _ in range(COUPLED_REPS):
        sampler = CoupledRRSampler(network, seed=7, kernel_backend=backend)
        t0 = time.perf_counter()
        batch = sampler.sample_batch(COUPLED_SAMPLES)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], batch


def test_coupled_backend_throughput():
    network = load_dataset("brightkite", scale=0.2 if TINY else 1.0)
    numba_on = resolve_backend() == "numba"

    if numba_on:
        # Warm-up: first compiled call pays JIT compilation; keep it out
        # of the timed region (compile caches make later runs cheap).
        CoupledRRSampler(network, seed=7, kernel_backend="numba").sample_batch(16)

    numpy_sec, numpy_batch = _time_coupled(network, "numpy")
    rows = [{
        "backend": "numpy",
        "samples": COUPLED_SAMPLES,
        "sec": round(numpy_sec, 4),
        "samples/s": int(COUPLED_SAMPLES / numpy_sec),
        "speedup": 1.0,
    }]
    speedup = None
    if numba_on:
        numba_sec, numba_batch = _time_coupled(network, "numba")
        speedup = numpy_sec / numba_sec
        rows.append({
            "backend": "numba",
            "samples": COUPLED_SAMPLES,
            "sec": round(numba_sec, 4),
            "samples/s": int(COUPLED_SAMPLES / numba_sec),
            "speedup": round(speedup, 2),
        })
        # The coupling contract: same (seed, keys, graph) -> identical
        # batches, backend-independent.
        for name, a, b in zip(
            ("keys", "roots", "flat", "offsets"), numpy_batch, numba_batch
        ):
            assert np.array_equal(a, b), (
                f"coupled sampler {name} diverged between backends"
            )

    text = format_table(
        list(rows[0]),
        [list(r.values()) for r in rows],
        title=(
            f"coupled sample_batch ({network.n} nodes, "
            f"{COUPLED_SAMPLES} slots, median of {COUPLED_REPS})"
        ),
    )
    emit("coupled_backend_throughput", text)
    emit_json("coupled_sampling", {
        "workload": {
            "dataset": "brightkite", "n_nodes": network.n,
            "n_samples": COUPLED_SAMPLES, "reps": COUPLED_REPS, "tiny": TINY,
        },
        "rows": rows,
        "kernel_backend": "numba" if numba_on else "numpy",
        "numba_speedup": speedup,
        "speedup_bar": COUPLED_BAR,
        "speedup_bar_enforced": bool(numba_on and not TINY),
    })

    if numba_on and not TINY:
        assert speedup >= COUPLED_BAR, (
            f"compiled reverse-BFS only {speedup:.2f}x the batched numpy "
            f"traversal "
            f"(bar: {COUPLED_BAR}x)"
        )

