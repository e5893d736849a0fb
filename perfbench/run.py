"""Benchmark entry point: one workload, one process, from a source checkout.

Run from the root of a checkout (nothing to build; the program is the
pure-Python package under ``src/``)::

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the ``std`` index three times (``setup_s`` is the
median), then drives the workload closed-loop over one pass of inputs
sized to ``--seconds / 5`` of nominal work, five times on fresh program
state, and prints every end-to-end metric.  All of its times are scaled
to a reference host speed, which a fixed kernel of the benchmark's own,
timed between requests and around each set-up, measures
(``calibrate.py``); a request's latency is the median of its scaled
times over the five passes.  The raw figures are in the provenance
line.  ``--trace 1`` instead makes one untraced pass over inputs sized
to half of ``--seconds``, then one more with the benchmark's span
wrappers over the same inputs, and prints the per-layer metrics (see
``spans.py``), unscaled but for ``trace.overhead_frac``; the spans are
written once, at the end, to ``.perfbench_out/``.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the run's provenance: workload description, answer digest,
``repro.obs.env.runtime_info()`` and check counts.  Output checks or a
hygiene violation (a live child process, a new ``/dev/shm`` entry, or a
leftover temp file) make ``correct`` false and the exit code 1.  SIGTERM
and SIGINT unwind through every ``finally`` (closing any serving pool
and removing temp files) and exit without a result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("query_mix", "serve_hotspot", "update_stream")

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s", "qps": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "ok_frac": "ratio", "guarantee_met_frac": "ratio",
    "spread_mean": "nodes", "peak_rss_mb": "MB",
}
#: Per-layer metrics (traced runs) and their units; see spans.layer_report.
PER_LAYER = {
    "network.generate_s": "s",
    "ris.sampler.busy_s": "s",
    "ris.sampler.samples": "count",
    "ris.sampler.samples_per_s": "1/s",
    "ris.lower_bound.busy_s": "s",
    "ris.corpus.inverted_s": "s",
    "ris.corpus.inverted_calls": "count",
    "geo.voronoi.busy_s": "s",
    "mia.build_s": "s",
    "core.persistence.save_s": "s",
    "serve.pool.spawn_s": "s",
    "core.ris_da.query_s": "s",
    "core.ris_da.sizing_s": "s",
    "geo.weights.busy_s": "s",
    "ris.coverage.busy_s": "s",
    "ris.coverage.score_build_s": "s",
    "ris.coverage.selection_s": "s",
    "ris.coverage.calls": "count",
    "ris.coverage.samples_scanned": "count",
    "core.ris_da.unattributed_frac": "ratio",
    "core.mia_da.query_s": "s",
    "serve.cache.lookups": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.engine.self_s": "s",
    "obs.sinks.busy_s": "s",
    "obs.sinks.calls": "count",
    "core.heuristics.busy_s": "s",
    "serve.pool.ipc_ms": "ms",
    "serve.pool.worker_ms": "ms",
    "serve.pool.queries": "count",
    "stream.apply_delta_s": "s",
    "stream.index_update_s": "s",
    "serve.engine.update_self_s": "s",
    "stream.updates": "count",
    "stream.samples_regenerated": "count",
    "stream.dirty_fraction": "ratio",
    "stream.update_p50_ms": "ms",
    "stream.update_p90_ms": "ms",
    "stream.read_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("std", "tiny"), default="std",
                   help="tiny is for the smoke test, not for trend data")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# Process and resource hygiene
# ----------------------------------------------------------------------

def _on_signal(signum, frame):
    # Unwind through every finally block once; ignore repeats while the
    # clean-up runs.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _child_pids() -> list:
    """Live processes whose parent is this one (a /proc scan, no ``ps``)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry))
    return found


def hygiene(tmp: Path, shm_before: set) -> list:
    """Violations left behind by the run; removes the run's temp dir."""
    problems = []
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=2.0)
    alive = [t.name for t in threading.enumerate()
             if t is not threading.main_thread() and t.is_alive()]
    if alive:
        problems.append(f"threads still running: {alive}")
    if multiprocessing.active_children():
        problems.append("multiprocessing children alive")
    children = _child_pids()
    if children:
        problems.append(f"child processes alive: {children}")
    new_shm = sorted(_shm_entries() - shm_before)
    if new_shm:
        problems.append(f"/dev/shm entries left: {new_shm}")
    if tmp.exists():
        left = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*"))
        if left:
            problems.append(f"temp files left: {left[:10]}")
        shutil.rmtree(tmp, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass  # another run's directory, or already gone
    if tmp.exists():
        problems.append(f"temp dir not removed: {tmp}")
    return problems


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def untraced(args, size, tmp: str, checks):
    import calibrate
    import workloads as wl

    setup_raw, setup_speed = [], []
    setup = None
    for _ in range(wl.SETUP_REPS):
        if setup is not None:
            wl.release(setup)
        before = calibrate.burst()
        t0 = time.perf_counter()
        setup = wl.set_up(args.workload, size, tmp)
        setup_raw.append(time.perf_counter() - t0)
        setup_speed.append(calibrate.speed(before + calibrate.burst()))
    passes, scaled, speeds = [], [], []
    try:
        t0 = time.perf_counter()
        inputs = wl.make_inputs(args.workload, setup.network, args.seed,
                                args.seconds / wl.PASSES)
        t1 = time.perf_counter()
        for i in range(wl.PASSES):
            state = wl.pass_state(setup)
            clock = wl.Clock()
            try:
                passes.append(wl.RUNNERS[args.workload](
                    state, inputs, clock, checks, first=i == 0))
            finally:
                wl.release(state)
            # A failed request keeps its +inf, so it counts as too slow.
            calls = clock.scaled()
            scaled.append([calls[k] if math.isfinite(t) else t for k, t in
                           zip(passes[i].op_calls, passes[i].op_latency)])
            speeds.append(calibrate.speed(clock.slices))
            if passes[i].tokens != passes[0].tokens:
                checks.fail(f"pass {i} answers differ from the first pass")
        t2 = time.perf_counter()
        out = passes[0]
        spread = wl.spread_mean(setup.network, out.probes)
        t3 = time.perf_counter()
    finally:
        wl.release(setup)
    latency = wl.per_request_median(scaled)
    raw = wl.per_request_median([p.op_latency for p in passes])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "setup_s": statistics.median(
            t * speed for t, speed in zip(setup_raw, setup_speed)),
        **wl.timing_metrics(latency),
        "ok_frac": 1.0 - failed / max(1, attempted),
        "guarantee_met_frac": (statistics.fmean(out.guarantee)
                               if out.guarantee else 0.0),
        "spread_mean": spread,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: _metric(values[name], unit)
               for name, unit in END_TO_END.items()}
    info = {
        "raw": {"setup_s": statistics.median(setup_raw),
                **wl.timing_metrics(raw)},
        "host_speed": {"setup": setup_speed, "passes": speeds},
        "setup_times_s": setup_raw,
        "phase_s": {"inputs": t1 - t0, "passes": t2 - t1, "spread": t3 - t2},
        "pass_busy_s": [sum(p.op_latency) for p in passes],
        "ops_per_pass": len(latency),
        "probes": len(out.probes),
        "guarantee_samples": len(out.guarantee),
        **out.extra,
    }
    return out, attempted, failed, metrics, info


def pool_phase(recorder, setup, queries, tmp: str, checks) -> dict:
    """Serve point queries through a one-worker mmap ServePool.

    Runs unwrapped: forked workers would keep their spans to themselves,
    so the layer split comes from ``ServedResult.elapsed`` alone.
    """
    import workloads as wl
    from repro.core.persistence import save_ris_index
    from repro.core.query import DaimQuery
    from repro.serve.engine import ServeConfig
    from repro.serve.pool import ServePool

    recorder.phase = "pool"
    path = os.path.join(tmp, "std-index.npz")
    recorder.call("core.persistence.save", save_ris_index, setup.index, path)
    try:
        pool = recorder.call(
            "serve.pool.spawn", ServePool, path, setup.network, n_workers=1,
            backing="mmap", config=ServeConfig(n_threads=1),
        )
        ipc, worker = [], []
        try:
            print("perfbench: pool phase", file=sys.stderr, flush=True)
            points = [q for q in queries if isinstance(q, DaimQuery)]
            for q in points[:wl.POOL_QUERIES]:
                t0 = time.perf_counter()
                served = pool.query(q)
                dt = time.perf_counter() - t0
                if not served.ok:
                    checks.fail(f"pool: {served.error}")
                    continue
                wl.check_answer(checks, served.result, q.k,
                                setup.network.n, "pool")
                if not served.cached:
                    direct = setup.index.query(q.location, q.k)
                    if not wl.same_answer(served.result, direct):
                        checks.fail("pool: answer differs from the index")
                ipc.append(dt - served.elapsed)
                worker.append(served.elapsed)
        finally:
            pool.close()
    finally:
        os.remove(path)
    return {
        "serve.pool.ipc_ms": statistics.median(ipc) * 1e3 if ipc else 0.0,
        "serve.pool.worker_ms": (statistics.median(worker) * 1e3
                                 if worker else 0.0),
        "serve.pool.queries": float(len(worker)),
    }


def traced(args, size, tmp: str, checks):
    import workloads as wl
    from spans import SpanRecorder, layer_report, span_rows

    base = wl.set_up(args.workload, size, tmp)
    try:
        inputs = wl.make_inputs(args.workload, base.network, args.seed,
                                args.seconds / 2)
        state = wl.pass_state(base)
        try:
            plain_clock = wl.Clock()
            plain = wl.RUNNERS[args.workload](state, inputs, plain_clock,
                                              checks)
        finally:
            wl.release(state)
    finally:
        wl.release(base)
    del base, state
    recorder = SpanRecorder()
    with recorder.patched():
        setup = wl.set_up(args.workload, size, tmp)
        try:
            state = wl.pass_state(setup)
            try:
                recorder.phase = "window"
                clock = wl.Clock(recorder=recorder)
                out = wl.RUNNERS[args.workload](state, inputs, clock, checks,
                                                first=False)
            finally:
                wl.release(state)
        finally:
            wl.release(setup)
    if out.tokens != plain.tokens:
        checks.fail("tracing changed the answers")
    pool = {"serve.pool.ipc_ms": 0.0, "serve.pool.worker_ms": 0.0,
            "serve.pool.queries": 0.0}
    if args.workload == "serve_hotspot":
        pool = pool_phase(recorder, setup, inputs, tmp, checks)
    report = layer_report(recorder.spans)
    report.update(pool)
    report.update({
        # Both passes at the reference host speed, so host drift
        # between them does not read as tracing cost.
        "trace.overhead_frac": (sum(clock.scaled())
                                / sum(plain_clock.scaled()) - 1.0),
        "stream.updates": out.extra.get("updates", 0.0),
        "stream.samples_regenerated": out.extra.get("samples_regenerated",
                                                    0.0),
        "stream.dirty_fraction": out.extra.get("dirty_fraction", 0.0),
        # Update latencies come from the untraced half.
        "stream.update_p50_ms": plain.extra.get("update_p50_ms", 0.0),
        "stream.update_p90_ms": plain.extra.get("update_p90_ms", 0.0),
        "stream.read_hit_ratio": plain.extra.get("read_hit_ratio", 0.0),
    })
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_us", "end_us", "parent",
                              "request", "phase", "work"],
                   "spans": span_rows(recorder.spans),
                   "layers": report}, fh)
    metrics = {name: _metric(report[name], unit)
               for name, unit in PER_LAYER.items()}
    info = {"spans": len(recorder.spans), "trace_file": str(
        trace_path.relative_to(ROOT)), "ops": len(plain.op_latency)}
    return plain, plain.attempted + out.attempted, plain.failed + out.failed, \
        metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    shm_before = _shm_entries()
    tmp = TMP_ROOT / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir(parents=True)
    # Everything the program puts in a temp dir (pool spill files) lands
    # inside the checkout, where the hygiene check can see it.
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)

    import workloads as wl
    from repro.obs.env import runtime_info

    size = wl.SIZES[args.size]
    checks = wl.Checks()
    problems = []
    try:
        run = traced if args.trace else untraced
        out, attempted, failed, metrics, info = run(args, size, str(tmp),
                                                    checks)
    finally:
        problems = hygiene(tmp, shm_before)
        for problem in problems:
            print(f"perfbench: hygiene: {problem}", file=sys.stderr)
    for problem in problems:
        checks.fail(f"hygiene: {problem}")
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "description": wl.WORKLOADS[args.workload],
        "digest": wl.digest(out.tokens),
        "answers": len(out.tokens),
        "check_counts": checks.counts,
        "check_failures": checks.failures,
        "runtime": runtime_info(),
        **info,
    }
    print(json.dumps({"perfbench": provenance}, default=str))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
