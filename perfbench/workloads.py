"""The benchmark workloads: set-up, closed-loop runners and output checks.

Every workload uses the same ``std`` set-up (brightkite at scale 0.5,
``DistanceDecay(c=1, alpha=0.01)``, one RIS-DA index) and is a closed
loop with one client and one request outstanding.  A runner makes one
pass over the pre-generated inputs, timing each call into the program
with ``time.perf_counter`` from the client side; the answers are
checked after the loop, outside all timings.

A run makes :data:`PASSES` passes over the same inputs, each on fresh
program state (:func:`pass_state`).  Each call's time is scaled to the
reference host speed measured around it (``calibrate.py``), and a
request's time is the median of its scaled times over the passes.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import statistics
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.runner import evaluate_spread
from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.multi_location import multi_location_query
from repro.core.query import DaimQuery
from repro.core.querykind import TargetedQuery, target_mask
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.network import datasets
from repro.obs.slo import SloTracker
from repro.obs.slowlog import SlowQueryLog
from repro.serve.engine import QueryEngine, ServeConfig
from repro.serve.metrics import MetricsRegistry

import calibrate
import inputs

DECAY = DistanceDecay(c=1.0, alpha=0.01)


@dataclass(frozen=True)
class Size:
    scale: float
    ris: RisDaConfig
    mia_anchors: int


SIZES = {
    # brightkite at half scale: 500 nodes, 3.7k edges.
    "std": Size(0.5, RisDaConfig(k_max=30, n_pivots=8, epsilon_pivot=0.35,
                                 max_index_samples=30_000, seed=3), 60),
    # For the smoke test only: not trend data.
    "tiny": Size(0.15, RisDaConfig(k_max=30, n_pivots=4, epsilon_pivot=0.35,
                                   max_index_samples=2_000, seed=3), 8),
}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Passes over the same inputs per untraced run; a request's latency is
#: the median over these.
PASSES = 5
#: Pass length: requests (updates, for update_stream) per second of
#: nominal pass time, sized from single-pass rates on a 2-vCPU host.  A
#: pass has a fixed length, so every run with one seed and ``--seconds``
#: does the same work whatever the host's speed.
PASS_RATE = {"query_mix": 220, "serve_hotspot": 850, "update_stream": 4}
#: Slow-query threshold: above the cache-hit path, inside the miss tail.
SLOW_QUERY_MS = 8.0
#: update_stream: point reads between two updates.
READS_PER_UPDATE = 16
#: serve_hotspot: engine cache misses re-run directly for the bit check.
MISS_CHECKS = 300
#: Monte-Carlo rounds and seed for ``spread_mean`` (untimed, fixed).
MC_ROUNDS = 150
MC_SEED = 2016
#: ``guarantee_met_frac``: point queries on a 12 x 12 grid at both k the
#: workloads ask (288 queries, untimed).
GUARANTEE_GRID = 12
GUARANTEE_K = (10, 30)
#: Pool phase of the traced serve_hotspot run.
POOL_QUERIES = 300

WORKLOADS: Dict[str, dict] = {
    "query_mix": {
        "why": "closed loop, 1 client: RIS-DA/MIA-DA library calls of 7 "
               "kinds, nothing cached; isolates the online query body "
               "(pivot sizing, weight evaluation, greedy cover)",
        "loop": "closed, 1 client",
        "inputs": "uniform locations over the bounding box (paper 5.1); "
                  "per 100 requests: point k=10 45, point k=30 15, "
                  "query_masked 25% targets 12, query_budgeted costs "
                  "U(0.5,2) budget 10 8, query_trajectory 4 waypoints 10, "
                  "multi_location_query 3 stores 5, MIA-DA point k=10 5; "
                  "16 fixed grid probes (point k=10) every 20th request",
        "op": "one library call; median of 5 passes per request",
        "seed": "--seed salts every generated location, mask and cost",
    },
    "serve_hotspot": {
        "why": "closed loop, 1 client: QueryEngine with result cache, "
               "metrics, SLO and slow log on Zipf hot-spot traffic; p50 is "
               "the cache-hit path (dispatch + sinks), p90 the miss path",
        "loop": "closed, 1 client",
        "inputs": "70% Zipf(1.0) over 48 fixed hot spots with N(0,0.5) "
                  "jitter, 30% uniform; per 100 requests: point k=10 75, "
                  "trajectory 3 waypoints 10, targeted 50 targets 8, "
                  "heuristic 7; 16 fixed grid probes every 40th request",
        "op": "one QueryEngine.query; median of 5 passes per request, "
              "each pass on a fresh engine (empty cache, new sinks)",
        "seed": "--seed salts the location stream, kinds and audiences; "
                "hot spot positions are fixed",
        "traced_extra": "a ServePool(n_workers=1, backing='mmap') phase "
                        "of 300 point queries from a save_ris_index file",
    },
    "update_stream": {
        "why": "closed loop, 1 client: hot-spot reads through QueryEngine "
               "with a GraphDelta applied after every 16; the only workload "
               "running apply_delta, slot regeneration and cache "
               "invalidation",
        "loop": "closed, 1 client",
        "inputs": "the serve_hotspot point stream; after every 16 reads one "
                  "GraphDelta (6 edges p~U(0.02,0.15) whose heads walk "
                  "seeded permutations of all nodes, 3 check-ins moved "
                  "by N(0,2)), then the last read repeated; 16 fixed grid "
                  "probes as every 4th read",
        "op": "one QueryEngine.query read (update latency is per layer); "
              "median of 5 passes per read, each pass on a fresh copy of "
              "the set-up index and a fresh engine",
        "seed": "--seed salts reads and deltas",
    },
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (failed requests are +inf, so they count)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class Setup:
    workload: str
    tmp: str
    network: object
    index: RisDaIndex
    mia: Optional[MiaDaIndex] = None
    engine: Optional[QueryEngine] = None
    slow_log_path: Optional[str] = None
    probe_set: frozenset = frozenset()


def _engine(index: RisDaIndex, tmp: str):
    """A serving engine with empty cache and fresh sinks over ``index``."""
    path = os.path.join(tmp, f"slow-{uuid.uuid4().hex}.jsonl")
    engine = QueryEngine(
        index, config=ServeConfig(n_threads=1), metrics=MetricsRegistry(),
        slo=SloTracker(), slow_log=SlowQueryLog(path, SLOW_QUERY_MS),
    )
    return engine, path


def set_up(workload: str, size: Size, tmp: str) -> Setup:
    """The program-side set-up a workload pays before serving anything."""
    network = datasets.load_dataset("brightkite", scale=size.scale,
                                    cache=False)
    index = RisDaIndex(network, DECAY, size.ris)
    probes = frozenset(inputs.probe_locations(network))
    if workload == "query_mix":
        mia = MiaDaIndex(network, DECAY,
                         MiaDaConfig(n_anchors=size.mia_anchors))
        return Setup(workload, tmp, network, index, mia=mia,
                     probe_set=probes)
    engine, path = _engine(index, tmp)
    return Setup(workload, tmp, network, index, engine=engine,
                 slow_log_path=path, probe_set=probes)


def pass_state(setup: Setup) -> Setup:
    """Program state for one pass, equal at the start of every pass.

    The library indexes keep no state between queries, so query_mix
    reuses the set-up.  Serving passes get a fresh engine (empty result
    cache, new metrics, SLO tracker and slow log), and update_stream
    passes also a deep copy of the set-up index, which the pass's
    updates then change.  Untimed.
    """
    if setup.workload == "query_mix":
        return setup
    index = setup.index
    if setup.workload == "update_stream":
        index = copy.deepcopy(index)
    engine, path = _engine(index, setup.tmp)
    return replace(setup, index=index, engine=engine, slow_log_path=path)


def release(setup: Setup) -> None:
    """Delete the files a set-up or pass created (the slow-query log)."""
    if setup.slow_log_path:
        for path in (setup.slow_log_path, setup.slow_log_path + ".1"):
            if os.path.exists(path):
                os.remove(path)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

@dataclass
class Checks:
    failures: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def count(self, what: str) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1

    @property
    def ok(self) -> bool:
        return not self.failures


def check_answer(checks: Checks, result, k: int, n: int, label: str) -> None:
    """1..k distinct node ids in [0, n) and a finite estimate >= 0."""
    seeds = [int(s) for s in result.seeds]
    if not 1 <= len(seeds) <= k:
        checks.fail(f"{label}: {len(seeds)} seeds for k={k}")
    elif len(set(seeds)) != len(seeds):
        checks.fail(f"{label}: repeated seed ids")
    elif min(seeds) < 0 or max(seeds) >= n:
        checks.fail(f"{label}: seed id outside [0, {n})")
    est = float(result.estimate)
    if not (math.isfinite(est) and est >= 0.0):
        checks.fail(f"{label}: estimate {est!r}")
    checks.count("answers_checked")


def same_answer(a, b) -> bool:
    return (list(map(int, a.seeds)) == list(map(int, b.seeds))
            and float(a.estimate) == float(b.estimate))


def token(result) -> str:
    if result is None:
        return "error"
    return ",".join(str(int(s)) for s in result.seeds) + ":" + \
        float(result.estimate).hex()


# ----------------------------------------------------------------------
# Closed-loop runners
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one pass of a workload measured and produced."""

    op_latency: List[float] = field(default_factory=list)
    op_calls: List[int] = field(default_factory=list)  #: Clock call index
    attempted: int = 0
    failed: int = 0
    tokens: List[str] = field(default_factory=list)
    probes: List[tuple] = field(default_factory=list)  #: (location, result)
    guarantee: List[bool] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def add_op(self, clock: "Clock", seconds: float) -> None:
        """Record the latency of the clock's last call as an op."""
        self.op_latency.append(seconds)
        self.op_calls.append(clock.steps - 1)


class Clock:
    """Times the client calls of one pass (and tags traced requests).

    A reference-kernel slice is timed at the start and then between two
    calls every :data:`calibrate.SLICE_PERIOD_S`, outside every call's
    time; :attr:`slices` then gives the host's speed during the pass.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.steps = 0
        self.times: List[float] = []
        self.slices: List[float] = []
        #: Slices timed before each call started, per call.
        self.marks: List[int] = []
        self.slices.append(calibrate.time_slice())
        self._last_slice = time.perf_counter()

    def timed(self, fn: Callable, *args):
        """``(result or None, seconds, error)`` of one client call."""
        if self.recorder is not None:
            self.recorder.request = self.steps
        self.steps += 1
        self.marks.append(len(self.slices))
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed request, counted not fatal
            dt = time.perf_counter() - t0
            self._done(t0, dt)
            return None, dt, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self._done(t0, dt)
        return out, dt, None

    def _done(self, t0: float, dt: float) -> None:
        self.times.append(dt)
        self._maybe_slice(t0 + dt)

    def scaled(self) -> List[float]:
        """Each call's time at the reference host speed."""
        speeds = calibrate.local_speeds(self.slices, self.marks)
        return [t * speed for t, speed in zip(self.times, speeds)]

    def _maybe_slice(self, now: float) -> None:
        if now - self._last_slice >= calibrate.SLICE_PERIOD_S:
            self.slices.append(calibrate.time_slice())
            self._last_slice = time.perf_counter()


def per_request_median(passes: List[List[float]]) -> List[float]:
    """Each request's median time over passes of the same inputs."""
    return [statistics.median(times) for times in zip(*passes)]


def timing_metrics(latency: List[float]) -> Dict[str, float]:
    """qps (completed requests per busy second), p50 and p90 in ms."""
    ok = [x for x in latency if math.isfinite(x)]
    return {
        "qps": len(ok) / sum(ok) if ok else 0.0,
        "latency_p50_ms": percentile(latency, 0.5) * 1e3,
        "latency_p90_ms": percentile(latency, 0.9) * 1e3,
    }


def run_query_mix(setup: Setup, requests, clock: Clock, checks: Checks,
                  first: bool = True) -> Outcome:
    index, mia, n = setup.index, setup.mia, setup.network.n
    calls = {
        "point10": lambda loc, k: index.query(loc, k, return_diagnostics=True),
        "point30": lambda loc, k: index.query(loc, k, return_diagnostics=True),
        "probe": lambda loc, k: index.query(loc, k, return_diagnostics=True),
        "masked": lambda loc, k, m: index.query_masked(
            loc, k, m, return_diagnostics=True),
        "budgeted": lambda loc, b, c: index.query_budgeted(
            loc, b, c, return_diagnostics=True),
        "trajectory": lambda wps, k: index.query_trajectory(
            wps, k, return_diagnostics=True),
        "multi": lambda locs, k: multi_location_query(index, locs, k),
        "mia": lambda loc, k: mia.query(loc, k),
    }
    out = Outcome()
    done = []
    for req in requests:
        res, dt, err = clock.timed(calls[req.kind], *req.args)
        out.attempted += 1
        if err is not None:
            out.failed += 1
            out.add_op(clock, math.inf)
            checks.fail(f"{req.kind}: {err}")
            done.append((req, None))
            continue
        out.add_op(clock, dt)
        done.append((req, res))
    # Checks, digest tokens and quality inputs: all after the loop.  A
    # later pass only has its tokens compared with the first pass's.
    for req, res in done:
        if res is None:
            out.tokens.append("error")
            continue
        kind, args = req.kind, req.args
        if kind in ("multi", "mia"):
            if first:
                check_answer(checks, res, args[1], n, kind)
            out.tokens.append(token(res))
            continue
        pairs = res if kind == "trajectory" else [res]
        for result, _ in pairs:
            out.tokens.append(token(result))
            if first:
                k = index.k_max if kind == "budgeted" else args[1]
                check_answer(checks, result, k, n, kind)
        if not first:
            continue
        if kind == "budgeted":
            spent = float(np.sum(args[2][list(map(int, res[0].seeds))]))
            if spent > args[1] + 1e-9:
                checks.fail(f"budgeted: spent {spent} > budget {args[1]}")
        if kind == "probe":
            out.probes.append((args[0], res[0]))
    if first:
        out.guarantee = guarantee_flags(index, setup.network)
    return out


def guarantee_flags(index: RisDaIndex, network) -> List[bool]:
    """``guarantee_met`` of point queries on a fixed grid (untimed).

    The grid and k values are the same for every seed, so the share
    moves with the program's answer quality, not with which locations a
    seed drew; ``network`` is the set-up graph, whose bounding box
    places the grid.
    """
    return [
        bool(index.query(loc, k, return_diagnostics=True)[1].guarantee_met)
        for loc in inputs.probe_locations(network, GUARANTEE_GRID)
        for k in GUARANTEE_K
    ]


def _check_served(checks: Checks, served, n: int, label: str) -> None:
    results = served.waypoint_results or (served.result,)
    for result in results:
        check_answer(checks, result, 10, n, label)


def _direct(index: RisDaIndex, q, n: int):
    if isinstance(q, TargetedQuery):
        return index.query_masked(q.location, q.k, target_mask(q, n),
                                  return_diagnostics=True)
    return index.query(q.location, q.k, return_diagnostics=True)


def _kind(q) -> str:
    return type(q).__name__


def run_serve_hotspot(setup: Setup, queries, clock: Clock, checks: Checks,
                      first: bool = True) -> Outcome:
    engine, n = setup.engine, setup.network.n
    out = Outcome()
    served_all = []
    hits = 0
    for q in queries:
        served, dt, err = clock.timed(engine.query, q)
        out.attempted += 1
        if err is not None or not served.ok:
            out.failed += 1
            out.add_op(clock, math.inf)
            checks.fail(f"{_kind(q)}: {err or served.error}")
            served_all.append((q, None))
            continue
        out.add_op(clock, dt)
        hits += served.cached
        served_all.append((q, served))
    misses = []
    for q, served in served_all:
        if served is None:
            out.tokens.append("error")
            continue
        out.tokens.append(token(served.result))
        if not first:
            continue
        _check_served(checks, served, n, _kind(q))
        if (not served.cached and isinstance(q, (DaimQuery, TargetedQuery))
                and len(misses) < MISS_CHECKS):
            misses.append((q, served.result))
        if isinstance(q, DaimQuery) and q.location in setup.probe_set:
            out.probes.append((q.location, served.result))
    for q, result in misses:
        direct, _ = _direct(setup.index, q, n)
        if not same_answer(result, direct):
            checks.fail(f"{_kind(q)}: cache miss differs from a direct call")
        checks.count("misses_rechecked")
    if first:
        out.guarantee = guarantee_flags(setup.index, setup.network)
    out.extra["hit_ratio"] = hits / max(1, len(served_all))
    return out


def run_update_stream(setup: Setup, streams, clock: Clock, checks: Checks,
                      first: bool = True) -> Outcome:
    """Reads and updates; the end-to-end op is the read, as for serving.

    Update latency is reported per layer: a pass holds too few updates
    for a steady percentile.
    """
    reads, deltas = streams
    engine, index, n = setup.engine, setup.index, setup.network.n
    out = Outcome()
    update_latency: List[float] = []
    hits = 0
    reads_done = 0
    samples_added: List[int] = []
    dirty: List[float] = []

    def read(q, after_update: bool) -> None:
        nonlocal hits, reads_done
        served, dt, err = clock.timed(engine.query, q)
        out.attempted += 1
        reads_done += 1
        if err is not None or not served.ok:
            out.failed += 1
            out.add_op(clock, math.inf)
            checks.fail(f"read: {err or served.error}")
            out.tokens.append("error")
            return
        out.add_op(clock, dt)
        hits += served.cached
        out.tokens.append(token(served.result))
        if after_update and served.cached:
            checks.fail("read: stale cached answer served after an update")
        if not first:
            return
        check_answer(checks, served.result, q.k, n, "read")
        if q.location in setup.probe_set:
            out.probes.append((q.location, served.result))
        if not served.cached:
            # Untimed: the served miss must equal the updated index's
            # own answer, bit for bit.
            direct = index.query(q.location, q.k)
            if not same_answer(served.result, direct):
                checks.fail("read: answer differs from the current index")
            checks.count("misses_rechecked")

    for i, delta in enumerate(deltas):
        batch = reads[i * READS_PER_UPDATE:(i + 1) * READS_PER_UPDATE]
        for q in batch:
            read(q, after_update=False)
        stats, dt, err = clock.timed(engine.apply_update, delta)
        out.attempted += 1
        if err is not None:
            out.failed += 1
            update_latency.append(math.inf)
            checks.fail(f"update: {err}")
            out.tokens.append("error")
            continue
        update_latency.append(dt)
        samples_added.append(stats.samples_added)
        dirty.append(stats.dirty_fraction)
        out.tokens.append(f"g{stats.generation}:{stats.dirty_nodes}:"
                          f"{stats.samples_retired}:{stats.samples_added}")
        if first:
            checks.count("stale_checks")
        read(batch[-1], after_update=True)
    if first:
        out.guarantee = guarantee_flags(index, setup.network)
    out.extra.update({
        "updates": float(len(samples_added)),
        "reads": float(reads_done),
        "update_p50_ms": percentile(update_latency, 0.5) * 1e3,
        "update_p90_ms": percentile(update_latency, 0.9) * 1e3,
        "read_hit_ratio": hits / max(1, reads_done),
        "samples_regenerated": float(sum(samples_added)),
        "dirty_fraction": float(np.mean(dirty)) if dirty else 0.0,
    })
    return out


RUNNERS = {
    "query_mix": run_query_mix,
    "serve_hotspot": run_serve_hotspot,
    "update_stream": run_update_stream,
}


def make_inputs(workload: str, network, seed: int, seconds: float):
    """One pass of inputs: :data:`PASS_RATE` per nominal pass second.

    Never fewer than the 16 fixed probes need to fit in.
    """
    size = int(PASS_RATE[workload] * seconds)
    if workload == "query_mix":
        return inputs.query_mix_inputs(network, seed, max(size, 320), 20)
    if workload == "serve_hotspot":
        return inputs.hotspot_inputs(network, seed, max(size, 640), 40)
    updates = max(size, 8)
    return inputs.update_stream_inputs(
        network, seed, updates * READS_PER_UPDATE - inputs.PROBE_GRID ** 2,
        updates, 4)


def digest(tokens: List[str]) -> str:
    return hashlib.sha256("\n".join(tokens).encode()).hexdigest()[:16]


def spread_mean(network, probes) -> float:
    """Mean Monte-Carlo spread of the probe answers (fixed rounds, seed).

    Evaluated on the set-up graph, also for answers given after updates,
    so the figure moves with seed quality, not with graph drift.
    """
    if not probes:
        return math.nan
    return statistics.fmean(
        evaluate_spread(network, result.seeds, DECAY, loc,
                        rounds=MC_ROUNDS, seed=MC_SEED)
        for loc, result in probes
    )
