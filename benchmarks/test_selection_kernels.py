"""Selection-kernel microbenchmark: vectorized cover vs the pre-PR kernel.

Times the uncached online selection path — the part of a query that
remains after index lookup and caching — across five variants over the
same corpus and queries:

* ``reference``: the pre-PR kernel (``repro.ris.reference``): add.at
  score build, per-sample Python decrement, per-iteration bound;
* ``eager``: the new default serving path (bincount build, batched
  decrement, ``compute_bound=False``);
* ``eager+bound``: the new kernels with the full per-iteration bound
  (what certification pays);
* ``eager+obs(off)``: the default path wrapped in the *disabled* tracer
  exactly the way ``QueryEngine._serve`` wraps it (``NULL_TRACER``
  spans + no-op ``record_stages``) — the observability layer's
  everybody-pays cost;
* ``eager+prof(off)``: ``eager+obs(off)`` plus this layer's serving-path
  additions with profiling *not running* — an instantiated-but-unstarted
  ``SamplingProfiler`` in scope and one ``SloTracker.record_query`` per
  query (the CLI serves with SLO tracking on by default).

Every run asserts **seed parity** against the reference kernel — this is
the parity half of the CI smoke step (``REPRO_BENCH_TINY=1`` shrinks the
workload and drops the speedup bar; parity always fails loudly).  On the
standard workload the default path must be >= 3x the reference, and the
disabled-tracer wrapper must stay within ``OBS_OVERHEAD_BAR`` (2%) of
the bare kernel (report-only under TINY, where per-query time is too
small to measure a ratio).  Results land in ``selection_kernels.txt``
and the ``selection_kernels`` section of ``BENCH_query_kernels.json``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.bench.reporting import format_table
from repro.bench.workloads import random_queries
from repro.geo.weights import DistanceDecay
from repro.network.datasets import load_dataset
from repro.obs.profile import SamplingProfiler
from repro.obs.slo import SloTracker
from repro.obs.trace import NULL_TRACER
from repro.ris.corpus import RRCorpus
from repro.ris.coverage import weighted_greedy_cover
from repro.ris.reference import reference_greedy_cover
from repro.ris.coupled import CoupledRRSampler

from .conftest import DEFAULT_ALPHA, emit, emit_json

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

#: Standard workload (calibrated so the reference kernel takes ~100 ms
#: for the whole query set); the tiny variant is the CI smoke shape.
SCALE = 0.1 if TINY else 0.5
N_SAMPLES = 2_000 if TINY else 30_000
K = 5 if TINY else 30
N_QUERIES = 2 if TINY else 4
REPS = 2 if TINY else 5

SPEEDUP_BAR = 3.0
OBS_OVERHEAD_BAR = 1.02
#: A profiler that is constructed but not started (plus per-query SLO
#: recording) must cost <= 2% over the bare kernel.
PROFILER_OFF_BAR = 1.02


def _eager_obs_off(corpus, w, k):
    """The default kernel under the disabled-tracer span pattern.

    Mirrors ``QueryEngine._serve`` with tracing off: one ``serve.query``
    span, one ``index.query`` child, attribute writes, and a no-op
    ``record_stages`` — all against :data:`NULL_TRACER`.
    """
    tracer = NULL_TRACER
    with tracer.span("serve.query", {"k": k}) as span:
        with tracer.span("index.query") as qspan:
            result = weighted_greedy_cover(corpus, w, k, compute_bound=False)
            tracer.record_stages(qspan, result.timings.as_dict())
        span.set_attribute("cached", False)
        span.set_attribute("fallback", False)
    return result


def _eager_prof_off(corpus, w, k, slo):
    """The obs(off) pattern plus the profiling layer, disabled.

    A ``SamplingProfiler`` exists but was never started (so the
    span-tracking registry stays off) and every query's outcome is
    recorded into a live ``SloTracker`` — the CLI's default serving
    shape with ``--profile-out`` absent.
    """
    t0 = time.perf_counter()
    result = _eager_obs_off(corpus, w, k)
    slo.record_query((time.perf_counter() - t0) * 1e3)
    return result


def _time_variant(fn, weights_per_query, reps):
    """Median seconds per full query set; returns (median, per-run results)."""
    times = []
    results = None
    for _ in range(reps):
        t0 = time.perf_counter()
        results = [fn(w) for w in weights_per_query]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), results


def test_selection_kernel_speedup():
    network = load_dataset("brightkite", scale=SCALE)
    decay = DistanceDecay(c=1.0, alpha=DEFAULT_ALPHA)
    corpus = RRCorpus(CoupledRRSampler(network, seed=9))
    corpus.ensure(N_SAMPLES)
    root_coords = network.coords[corpus.roots]
    queries = random_queries(network, N_QUERIES, seed=23)
    weights = [decay.weights(root_coords, q) for q in queries]

    idle_profiler = SamplingProfiler()  # constructed, never started
    assert not idle_profiler.running
    slo = SloTracker()
    variants = {
        "reference": lambda w: reference_greedy_cover(corpus, w, K),
        "eager": lambda w: weighted_greedy_cover(
            corpus, w, K, compute_bound=False
        ),
        "eager+bound": lambda w: weighted_greedy_cover(
            corpus, w, K, compute_bound=True
        ),
        "eager+obs(off)": lambda w: _eager_obs_off(corpus, w, K),
        "eager+prof(off)": lambda w: _eager_prof_off(corpus, w, K, slo),
    }

    # Warm shared lazy state (flat layout, inverted index) so no variant
    # pays the one-off corpus indexing cost inside its timed region.
    for fn in variants.values():
        fn(weights[0])

    medians: dict[str, float] = {}
    results: dict[str, list] = {}
    for name, fn in variants.items():
        medians[name], results[name] = _time_variant(fn, weights, REPS)

    # Parity: every new variant must select the reference kernel's seeds
    # with matching gains, query by query.  This is the CI smoke gate.
    for name in (n for n in variants if n != "reference"):
        for qi, (new, ref) in enumerate(zip(results[name], results["reference"])):
            assert new.seeds == ref.seeds, (
                f"{name} diverged from reference on query {qi}: "
                f"{new.seeds} vs {ref.seeds}"
            )
            np.testing.assert_allclose(
                new.gains, ref.gains, rtol=1e-9, atol=1e-12,
                err_msg=f"{name} gains diverged on query {qi}",
            )

    # Per-stage medians (ms) of the default serving path, from the
    # kernel's own SelectionTimings.
    stage_medians = {
        stage: statistics.median(
            r.timings.as_dict()[stage] for r in results["eager"]
        ) * 1e3
        for stage in ("score_build", "selection", "bound", "total")
    }

    speedups = {
        name: medians["reference"] / medians[name]
        for name in variants if name != "reference"
    }
    obs_overhead = medians["eager+obs(off)"] / medians["eager"]
    profiler_off_overhead = medians["eager+prof(off)"] / medians["eager"]
    headers = ["variant", "median_ms", "speedup_vs_reference"]
    rows = [
        [name, f"{medians[name] * 1e3:.2f}",
         "1.00" if name == "reference" else f"{speedups[name]:.2f}"]
        for name in variants
    ]
    text = format_table(
        headers, rows,
        title=(
            f"selection kernels (brightkite scale={SCALE}, "
            f"{N_SAMPLES} samples, k={K}, {N_QUERIES} queries, "
            f"median of {REPS})"
        ),
    )
    emit("selection_kernels", text)
    emit_json("selection_kernels", {
        "workload": {
            "dataset": "brightkite", "scale": SCALE, "n_nodes": network.n,
            "n_samples": N_SAMPLES, "k": K, "n_queries": N_QUERIES,
            "reps": REPS, "tiny": TINY,
        },
        "median_ms": {n: m * 1e3 for n, m in medians.items()},
        "speedup_vs_reference": speedups,
        "eager_stage_median_ms": stage_medians,
        "speedup_bar": SPEEDUP_BAR,
        "speedup_bar_enforced": not TINY,
        "obs_disabled_overhead": obs_overhead,
        "obs_overhead_bar": OBS_OVERHEAD_BAR,
        "obs_overhead_bar_enforced": not TINY,
        "profiler_off_overhead": profiler_off_overhead,
        "profiler_off_bar": PROFILER_OFF_BAR,
        "profiler_off_bar_enforced": not TINY,
    })

    if not TINY:
        assert speedups["eager"] >= SPEEDUP_BAR, (
            f"default kernel path only {speedups['eager']:.2f}x the "
            f"pre-PR kernel (bar: {SPEEDUP_BAR}x)"
        )
        assert obs_overhead <= OBS_OVERHEAD_BAR, (
            f"disabled-tracer serving wrapper is {obs_overhead:.3f}x the "
            f"bare kernel (bar: {OBS_OVERHEAD_BAR}x)"
        )
        assert profiler_off_overhead <= PROFILER_OFF_BAR, (
            f"profiler-off serving shape is {profiler_off_overhead:.3f}x "
            f"the bare kernel (bar: {PROFILER_OFF_BAR}x)"
        )
