"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
generate
    Write a synthetic dataset (edge list + check-ins) to disk.
stats
    Print summary statistics of a dataset or file pair.
build-ris
    Build a RIS-DA index over a dataset and save it to ``.npz``.
build-mia
    Build a MIA-DA index over a dataset and save it to ``.npz``.
update
    Apply a JSONL stream of edge/check-in deltas to a saved index —
    incremental maintenance instead of a rebuild — and save the updated
    index plus the post-update network files.
query
    Answer a DAIM query with MIA-DA (indexed or built on the fly), RIS-DA
    (indexed or ad-hoc), or a heuristic.
serve-batch
    Answer a JSONL batch of queries against a prebuilt index through the
    serving engine (result cache, thread pool, timeouts, metrics).  Each
    line may carry a ``kind`` field — ``point`` (default), ``trajectory``,
    ``targeted``, ``budgeted`` or ``heuristic`` (see
    :mod:`repro.core.querykind`).  With ``--processes N`` the batch is
    sharded across N pre-forked worker processes that attach the index
    zero-copy via shared memory.
serve-http
    Expose a prebuilt index over HTTP: ``/query``, ``/metrics``
    (Prometheus text format), ``/healthz``, ``/slo`` (rolling-window SLO
    burn rates), ``/debug/profile`` (ad-hoc sampling profile) and
    ``POST /admin/update`` (streaming deltas against the live index);
    also accepts ``--processes N``.
diag
    Capture a one-file diagnostics bundle (tar.gz: metrics, Prometheus
    text, SLO state, traces, a span-attributed profile, slow-query tail,
    runtime info) — from a live serve-http server via ``--url``, or
    offline by loading the index and profiling a short self-driven
    workload.
info
    Print the runtime-environment snapshot (python/numpy/BLAS/CPU).

Observability flags (``--log-json``, ``--trace-out``, ``--profile-out``)
are shared by the build and serve commands: ``--log-json`` switches
progress reporting to structured JSON events on stderr, ``--trace-out
PATH`` activates the span tracer and exports the collected trace as JSON
on exit, ``--profile-out PATH`` runs the sampling profiler for the whole
command and writes flamegraph-ready collapsed stacks.  The build
commands add ``--alloc-out PATH`` (tracemalloc top allocation sites);
the serve commands add ``--slo-config PATH`` (JSON SLO objectives — SLO
tracking is on by default with standard objectives).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import time
from typing import Optional, Sequence

from repro.core.heuristics import degree_discount, top_weighted_degree
from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import (
    load_index,
    load_mia_index,
    load_ris_index,
    save_mia_index,
    save_ris_index,
)
from repro.core.querykind import query_from_json
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import DataFormatError, QueryError, ReproError
from repro.geo.weights import DistanceDecay
from repro.network.datasets import DATASET_RECIPES, load_dataset
from repro.network.io import read_network, write_network
from repro.network.stats import summarize
from repro.obs.env import runtime_info
from repro.obs.log import JsonLogger, use_logger
from repro.obs.profile import (
    DEFAULT_HZ,
    SamplingProfiler,
    allocation_snapshot,
)
from repro.obs.prom import render_prometheus
from repro.obs.slo import SloConfig, SloTracker, slo_report
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer
from repro.ris.adhoc import adhoc_ris_query
from repro.serve.engine import QueryEngine, ServeConfig, served_row
from repro.serve.pool import ServePool
from repro.stream.delta import GraphDelta


def _add_network_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dataset",
        choices=sorted(DATASET_RECIPES),
        help="built-in synthetic dataset name",
    )
    p.add_argument("--scale", type=float, default=None,
                   help="size multiplier for --dataset")
    p.add_argument("--edges", help="edge-list file (alternative to --dataset)")
    p.add_argument("--checkins", help="check-in file accompanying --edges")


def _resolve_network(args: argparse.Namespace):
    if args.dataset and args.edges:
        raise ReproError("pass either --dataset or --edges, not both")
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    if args.edges:
        return read_network(args.edges, args.checkins)
    raise ReproError("a network is required: --dataset or --edges")


def _add_decay_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.01,
                   help="weight decay rate (paper default 0.01)")
    p.add_argument("--c", type=float, default=1.0, help="maximum node weight")


def _add_serve_args(p: argparse.ArgumentParser) -> None:
    """The index, engine and SLO flags ``serve-batch`` and ``serve-http`` share."""
    p.add_argument("--index", required=True,
                   help="saved index (.npz) from build-ris or build-mia")
    p.add_argument("--method", choices=("ris", "mia"), default=None,
                   help="require this index kind (default: serve whatever "
                        "the file holds)")
    p.add_argument("--threads", type=int, default=4,
                   help="serving thread-pool size (per process)")
    p.add_argument("--processes", type=int, default=0,
                   help="serve through N pre-forked worker processes "
                        "sharing the index zero-copy, sharded by query "
                        "location (0 = in-process serving)")
    p.add_argument("--backing", choices=("shm", "mmap"), default="shm",
                   help="shared-index storage for --processes: POSIX "
                        "shared memory, or memory-mapped .npy spill "
                        "files (kernel-evictable; for indexes larger "
                        "than RAM)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-query deadline in seconds; on expiry the "
                        "degree-discount fallback answers instead")
    p.add_argument("--cache-size", type=int, default=1024,
                   help="result-cache capacity (0 disables caching)")
    p.add_argument("--cache-cells", type=int, default=4096,
                   help="quantization-grid cell budget for cache keys")
    p.add_argument(
        "--slow-query-ms", type=float, default=None,
        help="record queries at or above this latency (span tree + "
             "diagnostics) to the slow-query JSONL sink",
    )
    p.add_argument(
        "--slow-query-out", default="slow-queries.jsonl",
        help="slow-query JSONL sink path (default: slow-queries.jsonl)",
    )
    p.add_argument(
        "--slo-config", metavar="PATH",
        help="JSON file with SLO objectives (latency_threshold_ms, "
             "latency_target, availability_target, staleness_limit_s, "
             "shed_burn, windows); default objectives apply without it",
    )


def _add_obs_args(
    p: argparse.ArgumentParser, alloc: bool = False
) -> None:
    p.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON events (one per line) on stderr",
    )
    p.add_argument(
        "--trace-out", metavar="PATH",
        help="activate span tracing and export the trace JSON here on exit",
    )
    p.add_argument(
        "--profile-out", metavar="PATH",
        help="run the in-process sampling profiler for the whole command "
             "and write collapsed stacks (flamegraph input) here on exit",
    )
    p.add_argument(
        "--profile-hz", type=float, default=DEFAULT_HZ,
        help=f"profiler sampling rate (default {DEFAULT_HZ})",
    )
    if alloc:
        p.add_argument(
            "--alloc-out", metavar="PATH",
            help="trace allocations with tracemalloc around the build and "
                 "write the top allocation sites here (slows the build; "
                 "diagnostics only)",
        )


class _ObsSession:
    """One command's observability flags, from set-up to export.

    Entering installs the JSON logger (``--log-json``), a tracer
    (``--trace-out``; ``--profile-out`` needs one too, for span
    attribution) and the sampling profiler (``--profile-out``).  Leaving
    writes the trace and the collapsed-stack profile, merging in the
    worker profiles of ``pool`` (the :class:`ServePool` a serve command
    entered on ``stack``), and then unwinds ``stack``, closing the pool.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.stack = contextlib.ExitStack()
        self.tracer = NULL_TRACER
        self.profiler: Optional[SamplingProfiler] = None
        self.pool: Optional[ServePool] = None

    def __enter__(self) -> "_ObsSession":
        args = self.args
        if getattr(args, "log_json", False):
            self.stack.enter_context(use_logger(JsonLogger(sys.stderr)))
        if getattr(args, "trace_out", None) or getattr(args, "profile_out", None):
            self.tracer = self.stack.enter_context(use_tracer(Tracer()))
        if getattr(args, "profile_out", None):
            self.profiler = SamplingProfiler(hz=args.profile_hz).start()
            self.stack.callback(self.profiler.stop)
        return self

    def __exit__(self, *exc_info) -> bool:
        with self.stack:
            self._export()
        return False

    def _export(self) -> None:
        args, tracer, profiler = self.args, self.tracer, self.profiler
        if getattr(args, "trace_out", None):
            tracer.export_json(args.trace_out)
            print(f"trace ({len(tracer.finished_spans)} spans) -> "
                  f"{args.trace_out}")
        if profiler is None:
            return
        merged = self.pool.collect_worker_profiles() if self.pool else None
        profiler.stop()
        if merged is not None:
            profiler.merge(merged)
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            fh.write(profiler.collapsed())
        dump = profiler.dump()
        print(f"profile ({dump['sample_count']} samples at "
              f"{args.profile_hz:g} Hz, {len(dump['counts'])} distinct "
              f"stacks) -> {args.profile_out}")


def _serve_slo_config(args: argparse.Namespace) -> SloConfig:
    """The serve commands' SLO objectives: defaults, or ``--slo-config``."""
    if getattr(args, "slo_config", None):
        return SloConfig.from_file(args.slo_config)
    return SloConfig()


def _build_index(args: argparse.Namespace, cls, *build_args):
    """``cls(*build_args)``, under tracemalloc when ``--alloc-out`` is set."""
    if not args.alloc_out:
        return cls(*build_args)
    with allocation_snapshot() as alloc:
        index = cls(*build_args)
    with open(args.alloc_out, "w", encoding="utf-8") as fh:
        fh.write(alloc.report() + "\n")
    print(f"allocation snapshot -> {args.alloc_out}")
    return index


def _serve_engine(args: argparse.Namespace, network, obs: _ObsSession):
    """The serve commands' engine, per ``--processes``.

    With ``--processes N`` a :class:`ServePool` over shared index arrays,
    entered on the session so it outlives the profile export.  Its SLO
    windows are tracked per worker and merged at refresh, and with
    ``--profile-out`` each worker profiles too; the slow-query sink is an
    in-process feature (worker engines run without one).  Otherwise an
    in-process :class:`QueryEngine`.
    """
    config = ServeConfig(
        n_threads=args.threads,
        timeout=args.timeout,
        result_cache_size=args.cache_size,
        cache_cells=args.cache_cells,
    )
    slo_cfg = _serve_slo_config(args)
    if args.processes > 0:
        obs.pool = obs.stack.enter_context(ServePool(
            args.index, network, n_workers=args.processes,
            kind=args.method, config=config, backing=args.backing,
            slo_config=slo_cfg,
            profile_hz=args.profile_hz if args.profile_out else None,
        ))
        return obs.pool
    slow_log = None
    if args.slow_query_ms is not None:
        slow_log = SlowQueryLog(args.slow_query_out, args.slow_query_ms)
    return QueryEngine.from_path(
        args.index, network, kind=args.method, config=config,
        slow_log=slow_log, slo=SloTracker(slo_cfg),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    network = load_dataset(args.dataset, scale=args.scale)
    write_network(network, args.out_edges, args.out_checkins)
    print(f"wrote {network.n} nodes / {network.m} edges to "
          f"{args.out_edges} and {args.out_checkins}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    network = _resolve_network(args)
    for key, value in summarize(network).as_row().items():
        print(f"{key:8s} {value}")
    return 0


def cmd_build_ris(args: argparse.Namespace) -> int:
    network = _resolve_network(args)
    decay = DistanceDecay(c=args.c, alpha=args.alpha)
    cfg = RisDaConfig(
        k_max=args.k_max,
        n_pivots=args.pivots,
        epsilon_pivot=args.epsilon_pivot,
        epsilon=args.epsilon,
        max_index_samples=args.max_samples,
        seed=args.seed,
    )
    with _ObsSession(args):
        index = _build_index(args, RisDaIndex, network, decay, cfg)
    save_ris_index(index, args.out)
    print(
        f"built RIS-DA index in {index.build_seconds:.1f}s: "
        f"{len(index.corpus)} samples "
        f"({'truncated' if index.truncated else 'complete'}), "
        f"kernel backend {index.kernel_backend}, saved to {args.out}"
    )
    return 0


def cmd_build_mia(args: argparse.Namespace) -> int:
    network = _resolve_network(args)
    decay = DistanceDecay(c=args.c, alpha=args.alpha)
    cfg = MiaDaConfig(
        theta=args.theta,
        n_anchors=args.anchors,
        tau=args.tau,
        n_heavy=args.n_heavy,
        anchor_strategy=args.anchor_strategy,
        seed=args.seed,
    )
    with _ObsSession(args):
        index = _build_index(args, MiaDaIndex, network, decay, cfg)
    save_mia_index(index, args.out)
    print(
        f"built MIA-DA index in {index.build_seconds:.1f}s: "
        f"{len(index.model.trees)} arborescences, "
        f"{len(index.anchor_bounds.anchors)} anchors, "
        f"{len(index.region_bounds.nodes)} heavy nodes, "
        f"saved to {args.out}"
    )
    return 0


def _read_delta_events(path: str) -> list[dict]:
    """Parse a JSONL delta file: one event object per line."""
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: bad delta line ({exc}); expected "
                    'one JSON event per line, e.g. '
                    '{"op": "edge", "u": 0, "v": 1, "p": 0.1}'
                )
    if not events:
        raise DataFormatError(f"{path} holds no delta events")
    return events


def cmd_update(args: argparse.Namespace) -> int:
    network = _resolve_network(args)
    kind, index = load_index(args.index, network)
    if args.method is not None and kind != args.method:
        raise ReproError(
            f"{args.index} holds a {kind.upper()}-DA index but "
            f"--method {args.method} was required"
        )
    delta = GraphDelta.from_events(_read_delta_events(args.deltas))
    with _ObsSession(args):
        stats = index.update(delta=delta)
    out = args.out if args.out else args.index
    if kind == "ris":
        save_ris_index(index, out)
    else:
        save_mia_index(index, out)
    # The updated index validates against the *post-update* graph on
    # load, so the network files must be saved alongside it.
    write_network(index.network, args.out_edges, args.out_checkins)
    print(
        f"updated {kind.upper()}-DA index to generation {stats.generation}: "
        f"{stats.dirty_nodes} dirty nodes ({stats.dirty_fraction:.1%}), "
        f"{stats.samples_retired} samples retired / "
        f"{stats.samples_added} added, {stats.trees_rebuilt} trees rebuilt, "
        f"{stats.moved_nodes} check-ins, in {stats.seconds:.2f}s; "
        f"saved to {out} (+ {args.out_edges}, {args.out_checkins})"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    network = _resolve_network(args)
    decay = DistanceDecay(c=args.c, alpha=args.alpha)
    q = (args.x, args.y)
    if args.method == "ris" and args.index:
        result = load_ris_index(args.index, network).query(q, args.k)
    elif args.method == "ris":
        result = adhoc_ris_query(network, q, args.k, decay, seed=args.seed)
    elif args.method == "mia" and args.index:
        mia = load_mia_index(args.index, network)
        result = mia.query(q, args.k)
    elif args.method == "mia":
        mia = MiaDaIndex(network, decay, MiaDaConfig(seed=args.seed))
        result = mia.query(q, args.k)
    elif args.method == "weighted-degree":
        result = top_weighted_degree(network, q, args.k, decay)
    else:  # degree-discount
        result = degree_discount(network, q, args.k, decay)
    print(f"method    {result.method}")
    print(f"time      {result.elapsed * 1000:.1f} ms")
    print(f"estimate  {result.estimate:.2f}")
    if result.samples_used is not None:
        print(f"samples   {result.samples_used}")
    if result.evaluations is not None:
        print(f"evals     {result.evaluations}")
    print("seeds     " + " ".join(str(s) for s in result.seeds))
    return 0


def _read_query_batch(path: str, default_k: int) -> list:
    """Parse a JSONL query file: one query object per line.

    Every line is a ``kind``-tagged object parsed by
    :func:`repro.core.querykind.query_from_json`; ``kind`` defaults to
    ``"point"`` so the original ``{"x":, "y":, "k":?}`` format keeps
    working unchanged.
    """
    queries: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                queries.append(query_from_json(obj, default_k))
            except (ValueError, KeyError, TypeError, QueryError) as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: bad query line ({exc}); expected "
                    '{"x": <float>, "y": <float>, "k": <int, optional>} '
                    'or a "kind"-tagged query object'
                )
    if not queries:
        raise DataFormatError(f"{path} holds no queries")
    return queries


def cmd_serve_batch(args: argparse.Namespace) -> int:
    network = _resolve_network(args)
    queries = _read_query_batch(args.queries, args.k)
    with _ObsSession(args) as obs:
        engine = _serve_engine(args, network, obs)
        start = time.perf_counter()
        served = engine.serve_batch(queries)
        wall = time.perf_counter() - start
        engine.refresh_slo()
        if obs.pool is not None:
            # Fold worker-side counters/histograms into the report and
            # the Prometheus rendering below before workers stop.
            obs.pool.collect_worker_metrics()

    lines = [json.dumps(served_row(q, sr)) for q, sr in zip(queries, served)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)

    n_err = sum(1 for sr in served if not sr.ok)
    n_fb = sum(1 for sr in served if sr.fallback)
    print(
        f"served {len(served)} queries in {wall:.3f}s "
        f"({len(served) / wall:.0f} q/s), {n_fb} fallbacks, {n_err} errors"
        + (f", results -> {args.out}" if args.out else "")
    )
    slow_log = getattr(engine, "slow_log", None)
    if slow_log is not None:
        print(f"slow queries (>= {slow_log.threshold_ms:g} ms): "
              f"{slow_log.recorded} -> {slow_log.path}")
    if engine.slo is not None:
        print(slo_report(engine.slo))
    report = engine.metrics.report()
    print(report)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    if args.metrics_prom:
        with open(args.metrics_prom, "w", encoding="utf-8") as fh:
            fh.write(render_prometheus(engine.metrics))
    return 0 if n_err == 0 else 1


def cmd_serve_http(args: argparse.Namespace) -> int:
    from repro.obs.httpd import ObsHttpServer

    network = _resolve_network(args)
    with _ObsSession(args) as obs:
        engine = _serve_engine(args, network, obs)
        server = ObsHttpServer(
            engine=engine, host=args.host, port=args.port, default_k=args.k,
        )
        print(f"serving on http://{server.host}:{server.port} "
              f"(/query /metrics /healthz /slo /debug/profile, "
              f"POST /admin/update), Ctrl-C to stop", file=sys.stderr)
        # SIGTERM (docker stop, systemd, kill) must unwind the session
        # like Ctrl-C does — with --processes that is what stops the
        # workers and unlinks the shared index segments.
        def _on_sigterm(signum, frame):
            raise KeyboardInterrupt
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.stop()
    return 0


def _diag_live(args: argparse.Namespace) -> int:
    """Capture a bundle from a running serve-http server over HTTP."""
    from urllib.request import urlopen

    from repro.obs.diag import bundle_report, slowlog_tail, write_bundle

    base = args.url.rstrip("/")

    def fetch(path: str, timeout: float) -> Optional[str]:
        try:
            with urlopen(base + path, timeout=timeout) as resp:
                return resp.read().decode("utf-8")
        except Exception as exc:  # a partial bundle beats no bundle
            print(f"warning: GET {path} failed: {exc}", file=sys.stderr)
            return None

    health = fetch("/healthz", 10.0)
    metrics = fetch("/metrics", 10.0)
    slo = fetch("/slo", 10.0)
    profile = fetch(
        f"/debug/profile?seconds={args.seconds:g}&hz={args.profile_hz:g}",
        args.seconds + 30.0,
    )
    extra = {}
    if health is not None:
        extra["healthz.json"] = health.encode("utf-8")
    write_bundle(
        args.out,
        prometheus_text=metrics,
        slo_prom_text=slo,
        profile_collapsed=profile,
        slow_rows=(
            slowlog_tail(args.slow_query_log)
            if args.slow_query_log else None
        ),
        extra_files=extra,
        source=f"live {base}",
    )
    print(bundle_report(args.out))
    return 0


def _diag_offline(args: argparse.Namespace) -> int:
    """Capture a bundle by loading the index and driving a short
    profiled workload against it (result cache off, so the profile shows
    real selection work)."""
    from repro.obs.diag import bundle_report, slowlog_tail, write_bundle

    network = _resolve_network(args)
    config = ServeConfig(n_threads=1, result_cache_size=0)
    tracer = Tracer()
    engine = QueryEngine.from_path(
        args.index, network, kind=args.method, config=config,
        tracer=tracer, slo=SloTracker(_serve_slo_config(args)),
    )
    queries = (
        _read_query_batch(args.queries, args.k) if args.queries else None
    )
    # RIS indexes answer k <= k_max only; clamp the self-driven budget
    # so a small smoke index still yields a real (non-error) workload.
    k = args.k
    k_max = getattr(engine.index, "k_max", None)
    if k_max is not None:
        k = min(k, int(k_max))
    box = network.bounding_box()
    fracs = (0.2, 0.5, 0.8)
    locations = [
        (box.xmin + (box.xmax - box.xmin) * fx,
         box.ymin + (box.ymax - box.ymin) * fy)
        for fx in fracs for fy in fracs
    ]
    profiler = SamplingProfiler(hz=args.profile_hz)
    profiler.start()
    deadline = time.perf_counter() + args.seconds
    count = 0
    try:
        while time.perf_counter() < deadline:
            if queries:
                engine.query(queries[count % len(queries)])
            else:
                engine.query(locations[count % len(locations)], k)
            count += 1
    finally:
        profiler.stop()
    engine.refresh_slo()
    write_bundle(
        args.out,
        metrics=engine.metrics,
        slo=engine.slo,
        traces=tracer.export(),
        profile_dump=profiler.dump(),
        slow_rows=(
            slowlog_tail(args.slow_query_log)
            if args.slow_query_log else None
        ),
        source=f"offline {args.index}",
    )
    print(f"drove {count} queries over {args.seconds:g}s "
          f"(cache disabled) while profiling at {args.profile_hz:g} Hz")
    print(bundle_report(args.out))
    return 0


def cmd_diag(args: argparse.Namespace) -> int:
    if args.url and args.index:
        raise ReproError("pass either --url (live) or --index (offline), "
                         "not both")
    if args.url:
        return _diag_live(args)
    if not args.index:
        raise ReproError(
            "diag needs a live server (--url) or an index to load "
            "(--index plus --dataset/--edges)"
        )
    return _diag_offline(args)


def cmd_info(args: argparse.Namespace) -> int:
    print(json.dumps(runtime_info(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distance-aware influence maximization (DAIM) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to disk")
    p.add_argument("--dataset", choices=sorted(DATASET_RECIPES), required=True)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-checkins", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="summarise a dataset")
    _add_network_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("build-ris", help="build and save a RIS-DA index")
    _add_network_args(p)
    _add_decay_args(p)
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--pivots", type=int, default=100)
    p.add_argument("--epsilon-pivot", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--max-samples", type=int, default=300_000)
    p.add_argument("--seed", type=int, default=0)
    _add_obs_args(p, alloc=True)
    p.set_defaults(func=cmd_build_ris)

    p = sub.add_parser("build-mia", help="build and save a MIA-DA index")
    _add_network_args(p)
    _add_decay_args(p)
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--theta", type=float, default=0.05,
                   help="MIP pruning threshold (paper default 0.05)")
    p.add_argument("--anchors", type=int, default=300,
                   help="anchor-point count |L| (paper default 300)")
    p.add_argument("--tau", type=int, default=200,
                   help="region-grid cell budget (paper default 200)")
    p.add_argument("--n-heavy", type=int, default=None,
                   help="heavy-node count for region bounds "
                        "(default: max(32, n/20))")
    p.add_argument("--anchor-strategy", choices=("uniform", "density"),
                   default="uniform")
    p.add_argument("--seed", type=int, default=0)
    _add_obs_args(p, alloc=True)
    p.set_defaults(func=cmd_build_mia)

    p = sub.add_parser(
        "update",
        help="apply streaming edge/check-in deltas to a saved index",
    )
    _add_network_args(p)
    p.add_argument("--index", required=True,
                   help="saved index (.npz) from build-ris or build-mia")
    p.add_argument(
        "--deltas", required=True,
        help='JSONL delta events, one per line: '
             '{"op": "edge", "u":, "v":, "p":} upserts an edge, '
             '{"op": "drop_edge", "u":, "v":} removes one, '
             '{"op": "checkin", "node":, "x":, "y":} moves a node',
    )
    p.add_argument("--out",
                   help="output .npz path (default: overwrite --index)")
    p.add_argument("--out-edges", required=True,
                   help="write the post-update edge list here (the "
                        "updated index only loads against it)")
    p.add_argument("--out-checkins", required=True,
                   help="write the post-update check-in file here")
    p.add_argument("--method", choices=("ris", "mia"), default=None,
                   help="require this index kind (default: update "
                        "whatever the file holds)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("query", help="answer a DAIM query")
    _add_network_args(p)
    _add_decay_args(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("-k", "--k", type=int, default=30)
    p.add_argument(
        "--method",
        choices=("mia", "ris", "weighted-degree", "degree-discount"),
        default="mia",
    )
    p.add_argument(
        "--index",
        help="saved index (.npz) for --method ris (build-ris) or "
             "--method mia (build-mia)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "serve-batch",
        help="serve a JSONL query batch against a prebuilt index",
    )
    _add_network_args(p)
    _add_serve_args(p)
    p.add_argument("--queries", required=True,
                   help='JSONL input, one {"x":, "y":, "k":?} per line')
    p.add_argument("--out",
                   help="JSONL output path (default: print results)")
    p.add_argument("-k", "--k", type=int, default=30,
                   help="budget for query lines without their own k")
    p.add_argument("--metrics-out",
                   help="also write the metrics report to this file")
    p.add_argument("--metrics-prom",
                   help="write the metrics in Prometheus text format here")
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve_batch)

    p = sub.add_parser(
        "serve-http",
        help="serve a prebuilt index over HTTP "
             "(/query, /metrics, /healthz)",
    )
    _add_network_args(p)
    _add_serve_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464,
                   help="listen port (0 picks an ephemeral port)")
    p.add_argument("-k", "--k", type=int, default=30,
                   help="budget for /query requests without their own k")
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve_http)

    p = sub.add_parser(
        "diag",
        help="capture a one-file diagnostics bundle (tar.gz with "
             "metrics, SLO state, a span-attributed profile, traces, "
             "slow-query tail, runtime info)",
    )
    p.add_argument("--out", default="repro-diag.tar.gz",
                   help="bundle path (default: repro-diag.tar.gz)")
    p.add_argument(
        "--url",
        help="base URL of a live serve-http server (e.g. "
             "http://127.0.0.1:9464); fetches /healthz /metrics /slo "
             "/debug/profile instead of loading an index",
    )
    _add_network_args(p)
    p.add_argument("--index",
                   help="saved index (.npz) for offline capture")
    p.add_argument("--method", choices=("ris", "mia"), default=None,
                   help="require this index kind in offline mode")
    p.add_argument("--queries",
                   help="optional JSONL queries to drive the offline "
                        "workload (default: a deterministic location "
                        "grid over the network bounding box)")
    p.add_argument("-k", "--k", type=int, default=30,
                   help="budget for the self-driven offline workload")
    p.add_argument("--seconds", type=float, default=2.0,
                   help="profiling window (live) / workload duration "
                        "(offline); default 2s")
    p.add_argument("--profile-hz", type=float, default=DEFAULT_HZ,
                   help=f"profiler sampling rate (default {DEFAULT_HZ})")
    p.add_argument(
        "--slo-config", metavar="PATH",
        help="JSON SLO objectives for the offline tracker "
             "(ignored with --url: the server owns its objectives)",
    )
    p.add_argument(
        "--slow-query-log", metavar="PATH",
        help="existing slow-query JSONL sink whose tail to include",
    )
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser(
        "info",
        help="print the runtime-environment snapshot (JSON)",
    )
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
