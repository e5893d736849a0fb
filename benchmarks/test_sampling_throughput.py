"""Sampling throughput: serial vs parallel RR-set generation.

The offline phase of RIS-DA is dominated by RR-set sampling, which the
worker-pool engine (:mod:`repro.ris.parallel`) parallelises with
deterministic per-chunk RNG streams.  This benchmark records the
serial-vs-parallel speedup so the trajectory captures the win; the >= 2x
assertion at 4 workers only fires when the machine actually exposes >= 4
cores (a single-core container cannot speed anything up).

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
from repro.bench.workloads import sampling_throughput
from repro.kernels import resolve_backend
from repro.network.datasets import load_dataset
from repro.ris.coupled import CoupledRRSampler
from repro.ris.parallel import ParallelRRSampler

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

N_SAMPLES = int(os.environ.get("REPRO_THROUGHPUT_SAMPLES", "20000"))
WORKER_COUNTS = (1, 2, 4)

#: Coupled-sampler backend comparison workload and acceptance bar.
COUPLED_SAMPLES = 2_000 if TINY else 20_000
COUPLED_REPS = 2 if TINY else 3
COUPLED_BAR = 2.0


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_sampling_throughput():
    network = load_dataset("gowalla")
    rows = sampling_throughput(
        network, N_SAMPLES, workers=WORKER_COUNTS, seed=3
    )
    table = format_table(
        ["workers", "samples", "sec", "samples/s", "speedup"],
        [list(r.as_row().values()) for r in rows],
        title=f"RR-set sampling throughput ({network.n} nodes, "
        f"{_available_cores()} cores visible)",
    )
    emit("sampling_throughput", table)

    assert [r.workers for r in rows] == list(WORKER_COUNTS)
    assert all(r.samples == N_SAMPLES for r in rows)
    assert all(r.seconds > 0 for r in rows)
    # The speedup claim is only testable on hardware with enough cores.
    if _available_cores() >= 4:
        by_workers = {r.workers: r for r in rows}
        assert by_workers[4].speedup >= 2.0, (
            f"expected >= 2x speedup at 4 workers, got "
            f"{by_workers[4].speedup:.2f}x"
        )


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
    numba_on = resolve_backend("auto") == "numba"

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


def test_parallel_corpus_reproducible():
    """The benchmark's determinism premise: same (seed, workers) -> same corpus."""
    network = load_dataset("brightkite")
    a = ParallelRRSampler(network, seed=11, n_workers=4)
    b = ParallelRRSampler(network, seed=11, n_workers=4)
    try:
        ra, fa, oa = a.sample_many_flat(4000)
        rb, fb, ob = b.sample_many_flat(4000)
    finally:
        a.close()
        b.close()
    assert np.array_equal(ra, rb)
    assert np.array_equal(fa, fb)
    assert np.array_equal(oa, ob)
