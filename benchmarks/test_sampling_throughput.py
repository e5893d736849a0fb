"""Sampling throughput of the coupled RR sampler.

The offline phase of RIS-DA is dominated by RR-set sampling.
``test_coupled_backend_throughput`` times the counter-based coupled
sampler's ``sample_batch`` (one batched, level-by-level array-op reverse
BFS over many slots at once) and publishes the rate report-only.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit, emit_json
from repro.bench.reporting import format_table
from repro.network.datasets import load_dataset
from repro.ris.coupled import CoupledRRSampler

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

#: Coupled-sampler throughput workload.
COUPLED_SAMPLES = 2_000 if TINY else 20_000
COUPLED_REPS = 2 if TINY else 3


def _time_coupled(network) -> float:
    """Median seconds for one COUPLED_SAMPLES batch.

    A fresh sampler per rep keeps the key range identical across reps
    (sample_batch advances draw_count).
    """
    times = []
    for _ in range(COUPLED_REPS):
        sampler = CoupledRRSampler(network, seed=7)
        t0 = time.perf_counter()
        sampler.sample_batch(COUPLED_SAMPLES)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def test_coupled_backend_throughput():
    network = load_dataset("brightkite", scale=0.2 if TINY else 1.0)
    sec = _time_coupled(network)
    rows = [{
        "samples": COUPLED_SAMPLES,
        "sec": round(sec, 4),
        "samples/s": int(COUPLED_SAMPLES / sec),
    }]
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
    })
