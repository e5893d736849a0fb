"""Sharded multi-process serving over a zero-copy shared index.

One Python process cannot scale index serving past a point: the
selection kernels release the GIL inside NumPy, but cache bookkeeping,
fallbacks, and per-query orchestration are interpreter-bound, and a
single process is a single failure domain.  :class:`ServePool` runs N
pre-forked worker processes, each holding a full
:class:`~repro.serve.engine.QueryEngine` over the *same* physical index
arrays (attached zero-copy via :mod:`repro.serve.shared`), and routes
each query to a worker by its spatial shard.

Sharding — :class:`ShardRouter` quantizes the query location to a
:class:`~repro.geo.grid.UniformGrid` cell and maps
``cell % n_shards -> worker``.  The assignment is a pure function of the
network bounding box and the shard count, so it is identical across
restarts and across processes; a given query neighbourhood always lands
on the same worker, which keeps that worker's result cache hot for its
own territory instead of every worker caching everything.

Fault tolerance — the router detects a dead worker (crash, OOM-kill)
while collecting, respawns it against the same shared arrays, and
resubmits that worker's outstanding sub-batches under fresh task ids;
late replies from a previous incarnation are dropped by task-id.  A
batch therefore completes (with at-least-once execution of the affected
sub-batches) as long as the parent survives.

Streaming — :meth:`ServePool.apply_update` applies a
:class:`~repro.stream.GraphDelta` to a parent-side copy of the index,
republishes only the shared segments the update touched, and rotates
workers one at a time onto the new generation; old workers drain their
queued tasks before stopping, so no request fails during a rotation.

Observability — each query is recorded once, by the worker engine
that served it (:meth:`QueryEngine._record`).  The parent counts routing
(``shard<i>_queries_total``, ``worker_restarts_total``) and applies
:func:`~repro.serve.engine.count_served` to every returned
:class:`ServedResult`, error results of a failed sub-batch included, so
its ``queries_total``, ``serve_queries_total{kind=...}``, ``errors``,
``latency_ms`` and ``guarantee_miss_total{kind=...}`` follow the same
rules as an in-process engine.  Each worker's own registry (cache hits,
stage timings...) is merged into the parent's under the ``worker.``
prefix on :meth:`ServePool.close`.  With a tracer attached, each worker
returns a ``pool.worker`` span dict per sub-batch that the parent
re-parents under its ``pool.serve_batch`` span via
:meth:`~repro.obs.trace.Tracer.adopt`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.persistence import assemble_index, index_arrays
from repro.core.querykind import AnyQuery, kind_of, route_location
from repro.exceptions import ServeError
from repro.geo.grid import UniformGrid
from repro.geo.point import BoundingBox, PointLike
from repro.network.graph import GeoSocialNetwork
from repro.obs.log import get_logger
from repro.obs.profile import SamplingProfiler, merge_profile_dumps
from repro.obs.slo import SloConfig, SloTracker
from repro.obs.trace import (
    Tracer,
    get_tracer,
    span_context,
    wall_now,
    worker_span,
)
from repro.serve.engine import QueryEngine, ServeConfig, ServedResult, count_served, unpack_query
from repro.serve.metrics import MetricsRegistry, record_staleness
from repro.serve.shared import SharedIndexArrays, SharedIndexManifest, attach_index

#: How long the collector waits on the result queue before checking
#: worker liveness.  Small enough to notice a crash promptly, large
#: enough to not busy-poll.
_POLL_SECONDS = 0.1

#: How long close() waits for a worker to drain its stop message before
#: escalating to terminate().
_JOIN_SECONDS = 5.0

#: How often an idle worker wakes from its task-queue wait to check
#: whether its parent is still alive.  A worker whose parent was killed
#: (SIGKILL skips any parent-side cleanup) would otherwise block on the
#: queue forever, keeping the shared segments pinned.
_ORPHAN_POLL_SECONDS = 1.0


class ShardRouter:
    """Deterministic location -> shard assignment via grid cells.

    ``shard_of`` is a pure function of the bounding box, the cell
    budget, and ``n_shards`` — no randomness, no per-process state — so
    every process (and every restart) routes identically.  Using grid
    cells rather than raw coordinates means queries that would share a
    result-cache entry (same cell) always share a worker.
    """

    def __init__(self, box: BoundingBox, n_shards: int, cells: int = 1024):
        if n_shards < 1:
            raise ServeError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.grid = UniformGrid.with_cell_budget(box, max(cells, n_shards))

    def shard_of(self, location: PointLike) -> int:
        return self.grid.cell_of(location) % self.n_shards


def _worker_main(
    worker_id: int,
    manifest: SharedIndexManifest,
    network: GeoSocialNetwork,
    config: ServeConfig,
    task_q: "mp.Queue",
    result_q: "mp.Queue",
    untrack_shm: bool,
    parent_pid: int,
    slo_config: Optional[SloConfig] = None,
    profile_hz: Optional[float] = None,
) -> None:
    """Worker loop: attach the shared index, serve sub-batches forever.

    Messages: ``("serve", task_id, [(idx, query), ...], span_ctx)`` —
    where ``query`` is any :data:`~repro.core.querykind.AnyQuery`
    (frozen dataclasses, so they pickle cleanly) — is answered with
    ``(worker_id, task_id, "ok", [(idx, ServedResult), ...],
    [span_dict...])``; ``("stats", task_id)`` with ``(worker_id,
    task_id, "stats", metrics_dump, None)``; ``("slo", task_id)`` with
    the worker's SLO-tracker dump (``None`` when SLO tracking is off);
    ``("profile", task_id)`` with the worker's profiler dump (``None``
    when profiling is off); ``("stop",)`` exits.  A failure inside a
    serve is reported as ``"err"`` with the traceback — the worker
    itself stays up.

    With ``slo_config`` set, the worker engine records every query
    outcome into its own :class:`SloTracker`; the parent merges the
    per-worker dumps at scrape time (absolute-second slots sum, like
    ``merge_dump``).  With ``profile_hz`` set, the worker runs a
    :class:`SamplingProfiler` for its whole life, alongside a real (but
    bounded) tracer so samples carry span attribution.

    The wait on the task queue is a timed poll: if the parent process
    disappears (its pid is re-parented away), the worker exits on its
    own rather than lingering as an orphan pinning the shm segments —
    once the last attachment closes, the shared resource tracker
    reclaims them.
    """
    # parent_pid comes from the parent itself: reading os.getppid() here
    # races with parent death — a worker first scheduled after the
    # parent is gone would record the re-parented pid (1) and never
    # detect the orphaning.
    if os.getppid() != parent_pid:  # orphaned before first running
        return
    handle, index = attach_index(manifest, network, untrack=untrack_shm)
    slo = SloTracker(slo_config) if slo_config is not None else None
    tracer = None
    profiler = None
    if profile_hz:
        # Profiling without spans yields anonymous stacks; give the
        # worker a real tracer (memory-bounded) purely for attribution.
        tracer = Tracer()
        profiler = SamplingProfiler(hz=profile_hz).start()
    engine = QueryEngine(
        index, config=config, fingerprint=manifest.fingerprint,
        slo=slo, tracer=tracer,
    )
    try:
        while True:
            try:
                msg = task_q.get(timeout=_ORPHAN_POLL_SECONDS)
            except queue_mod.Empty:
                if os.getppid() != parent_pid:  # orphaned
                    break
                continue
            except (EOFError, OSError):  # parent died; nothing to serve
                break
            if msg[0] == "stop":
                break
            if msg[0] == "stats":
                result_q.put(
                    (worker_id, msg[1], "stats", engine.metrics.dump(), None)
                )
                continue
            if msg[0] == "slo":
                result_q.put((
                    worker_id, msg[1], "slo",
                    slo.dump() if slo is not None else None, None,
                ))
                continue
            if msg[0] == "profile":
                result_q.put((
                    worker_id, msg[1], "profile",
                    profiler.dump() if profiler is not None else None, None,
                ))
                continue
            _, task_id, sub, ctx = msg
            # wall_now() anchors to one wall-clock reading taken at
            # import and advances by perf_counter, so a clock step while
            # a batch is in flight cannot skew the span against the
            # parent's monotonic deadlines.
            start_unix = wall_now()
            t0 = time.perf_counter()
            try:
                served = engine.serve_batch([q for _, q in sub])
                span = worker_span(
                    "pool.worker",
                    ctx,
                    start_unix,
                    (time.perf_counter() - t0) * 1e3,
                    {"worker_id": worker_id, "queries": len(sub)},
                )
                result_q.put((
                    worker_id, task_id, "ok",
                    [(idx, res) for (idx, _), res in zip(sub, served)],
                    [span] if span else None,
                ))
            except BaseException:
                result_q.put((
                    worker_id, task_id, "err",
                    traceback.format_exc(limit=8), None,
                ))
    finally:
        if profiler is not None:
            profiler.stop()
        # Timed-out queries may still run on the engine's batch threads,
        # reading the shared arrays: unmap them only once those finish.
        for thread in threading.enumerate():
            if thread.name.startswith("repro-serve"):
                thread.join(timeout=_JOIN_SECONDS)
        handle.close()


class ServePool:
    """N pre-forked workers serving one shared index, sharded by space.

    Construct from a *saved* index path — the parent reads the ``.npz``
    once, publishes the arrays (``backing="shm"`` or ``"mmap"``), and
    forks workers that attach without copying.  The pool mirrors the
    single-process engine's surface where it matters: ``serve_batch``
    returns :class:`ServedResult` in input order, ``query`` serves one.
    Always :meth:`close` (or use as a context manager) — it is what
    releases the shared segments.
    """

    def __init__(
        self,
        path,
        network: GeoSocialNetwork,
        n_workers: int = 2,
        kind: Optional[str] = None,
        config: Optional[ServeConfig] = None,
        backing: str = "shm",
        shard_cells: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        logger=None,
        slo_config: Optional[SloConfig] = None,
        profile_hz: Optional[float] = None,
    ):
        if n_workers < 1:
            raise ServeError(f"n_workers must be >= 1, got {n_workers}")
        #: SLO objectives forwarded to every worker engine; None turns
        #: rolling-window tracking off pool-wide.
        self.slo_config = slo_config
        #: Sampling rate forwarded to every worker (None = no profiling).
        self.profile_hz = profile_hz
        #: Merged pool-wide tracker, rebuilt from worker dumps by
        #: :meth:`refresh_slo` (never incrementally mutated, so repeated
        #: scrapes cannot double-count).
        self.slo: Optional[SloTracker] = None
        self.network = network
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.logger = logger if logger is not None else get_logger()
        # Workers inherit copy-on-write pages under fork, but the index
        # arrays specifically must be the *published* ones: fork keeps
        # pages shared only until anything in them is written, while the
        # shm/mmap backing is shared by construction and survives other
        # start methods.
        self._shared = SharedIndexArrays.create(path, backing=backing)
        if kind is not None and self._shared.manifest.kind != kind:
            self._shared.unlink()
            raise ServeError(
                f"{path} holds a {self._shared.manifest.kind.upper()}-DA "
                f"index but this pool serves {kind.upper()}-DA queries"
            )
        self.index_kind = self._shared.manifest.kind
        self.fingerprint = self._shared.manifest.fingerprint
        self.router = ShardRouter(
            network.bounding_box(), n_workers, cells=shard_cells
        )
        start_methods = mp.get_all_start_methods()
        self._ctx = mp.get_context(
            "fork" if "fork" in start_methods else "spawn"
        )
        self._result_q: "mp.Queue" = self._ctx.Queue()
        self._workers: List[Optional[mp.process.BaseProcess]] = [None] * n_workers
        self._task_qs: List[Optional["mp.Queue"]] = [None] * n_workers
        self._task_seq = 0
        self._closed = False
        self._metrics_merged = False
        # Guards worker-slot mutation (rotation, revival) against
        # concurrent submission.  Reentrant because _revive_dead
        # resubmits through _submit while already holding it.
        self._lock = threading.RLock()
        self._update_lock = threading.Lock()
        self._parent_index = None
        self.last_update = None
        self._base_fingerprint = self.fingerprint.split("#g", 1)[0]
        try:
            for wid in range(n_workers):
                self._start_worker(wid)
        except BaseException:
            self.close()
            raise

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _start_worker(self, worker_id: int) -> None:
        task_q: "mp.Queue" = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id, self._shared.manifest, self.network,
                self.config, task_q, self._result_q,
                # Spawn children own a private resource tracker that must
                # not adopt (and later destroy) the parent's segments;
                # fork children share the parent's tracker and must not
                # strip its registrations.
                self._ctx.get_start_method() != "fork",
                os.getpid(),
                self.slo_config,
                self.profile_hz,
            ),
            name=f"repro-serve-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._workers[worker_id] = proc
        self._task_qs[worker_id] = task_q

    def _next_task_id(self) -> int:
        self._task_seq += 1
        return self._task_seq

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def query(self, q, k: Optional[int] = None) -> ServedResult:
        """Serve one query through its shard's worker."""
        return self.serve_batch([q], k)[0]

    def serve_batch(
        self, queries: Sequence, k: Optional[int] = None
    ) -> List[ServedResult]:
        """Serve a batch across the pool, results in input order.

        Queries are grouped by shard, each group goes to its worker as
        one sub-batch (the worker applies the usual per-query deadlines
        and fallbacks), and replies are aggregated by original position.
        A worker that dies mid-batch is restarted and its sub-batches
        resubmitted, so the batch still completes.
        """
        if self._closed:
            raise ServeError("pool is closed")
        self._metrics_merged = False
        items = [unpack_query(q, k) for q in queries]
        if not items:
            return []
        log = self.logger
        if log.enabled:
            log.event(
                "pool_serve_start", queries=len(items),
                workers=self.n_workers,
            )
        start = time.perf_counter()
        by_worker: Dict[int, List[Tuple[int, AnyQuery]]] = {}
        for i, query in enumerate(items):
            # Trajectories route by their first waypoint's cell.
            shard = self.router.shard_of(route_location(query))
            self.metrics.inc(f"shard{shard}_queries_total")
            by_worker.setdefault(shard, []).append((i, query))

        out: List[Optional[ServedResult]] = [None] * len(items)
        with self.tracer.span(
            "pool.serve_batch",
            {"queries": len(items), "workers": self.n_workers},
        ) as span:
            ctx = span_context(span)
            pending: Dict[int, Tuple[int, list]] = {}
            for wid, sub in by_worker.items():
                self._submit(wid, sub, ctx, pending)
            while pending:
                try:
                    reply = self._result_q.get(timeout=_POLL_SECONDS)
                except queue_mod.Empty:
                    self._revive_dead(pending, ctx)
                    continue
                wid, task_id, status, payload, spans = reply
                if task_id not in pending:
                    # A resubmitted task's original reply arriving late
                    # (the first incarnation answered before dying).
                    continue
                _, sub = pending.pop(task_id)
                if spans:
                    self.tracer.adopt(spans)
                if status == "err":
                    self.metrics.inc("worker_errors_total")
                    elapsed = time.perf_counter() - start
                    payload = [
                        (idx, ServedResult(
                            result=None, elapsed=elapsed, kind=kind_of(q),
                            error=f"worker {wid} failed: {payload}",
                        ))
                        for idx, q in sub
                    ]
                for idx, served in payload:
                    out[idx] = served
                    count_served(self.metrics, served)
        if log.enabled:
            log.event(
                "pool_serve_end", queries=len(items),
                errors=sum(1 for s in out if s is not None and not s.ok),
            )
        return out  # type: ignore[return-value]

    def _submit(self, worker_id: int, sub, ctx, pending) -> None:
        with self._lock:
            task_id = self._next_task_id()
            pending[task_id] = (worker_id, sub)
            task_q = self._task_qs[worker_id]
            assert task_q is not None
            task_q.put(("serve", task_id, sub, ctx))

    def _revive_dead(self, pending, ctx) -> None:
        """Restart crashed workers and resubmit their outstanding tasks."""
        with self._lock:
            dead = {
                wid for wid, proc in enumerate(self._workers)
                if proc is not None and not proc.is_alive()
            }
            if not dead:
                return
            stranded = [
                (task_id, wid, sub)
                for task_id, (wid, sub) in pending.items()
                if wid in dead
            ]
            for wid in dead:
                proc = self._workers[wid]
                if proc is not None:
                    proc.join(timeout=0)
                old_q = self._task_qs[wid]
                if old_q is not None:
                    old_q.close()
                self.metrics.inc("worker_restarts_total")
                if self.logger.enabled:
                    self.logger.event("worker_restart", worker=wid)
                self._start_worker(wid)
            for task_id, wid, sub in stranded:
                del pending[task_id]
                self._submit(wid, sub, ctx, pending)

    # ------------------------------------------------------------------
    # Streaming maintenance
    # ------------------------------------------------------------------

    def apply_update(self, delta):
        """Apply a :class:`~repro.stream.GraphDelta` and rotate workers.

        The parent keeps its own assembled index over the shared views
        (built lazily on the first update), runs the index family's
        ``update()`` on it, republishes only the arrays the update
        actually changed (:meth:`SharedIndexArrays.republish`) under a
        generation-suffixed fingerprint, and rotates workers one at a
        time.  Each replacement is spawned against the successor
        segments *before* its predecessor is told to stop, and a
        stopping worker drains every task already queued to it first —
        so a batch in flight during rotation completes with no failed
        requests and serving never pauses pool-wide.  The replaced
        segments are unlinked only after every old worker has exited.

        The engine-side counters of rotated-out workers are not merged
        (collecting them would race a concurrent batch on the shared
        reply queue); parent-side routing metrics are unaffected.  The
        shard router keeps the original bounding box — out-of-box query
        locations clamp to edge cells, so routing stays deterministic
        even when check-ins grow the network's extent.

        Returns the family's :class:`~repro.stream.UpdateStats`.
        """
        if self._closed:
            raise ServeError("pool is closed")
        with self._update_lock:
            if self._parent_index is None:
                manifest = self._shared.manifest
                self._parent_index = assemble_index(
                    manifest.kind, self.network, manifest.meta,
                    self._shared.arrays,
                    source=f"shared index {manifest.fingerprint}",
                )
            stats = self._parent_index.update(delta=delta)
            self.network = self._parent_index.network
            kind, meta, arrays = index_arrays(self._parent_index)
            fingerprint = f"{self._base_fingerprint}#g{stats.generation}"
            successor, retired = self._shared.republish(
                kind, meta, arrays, fingerprint
            )
            self._shared = successor
            self.fingerprint = fingerprint
            # Re-anchor the parent index onto the successor's views: the
            # update left it holding views into the replaced segments
            # (surviving RR members, unchanged trees), which must not
            # outlive retired.unlink() — and private update-grown arrays
            # would otherwise accumulate in the parent across updates.
            self._parent_index = assemble_index(
                kind, self.network, successor.manifest.meta,
                successor.arrays, source=f"shared index {fingerprint}",
            )
            rotated: List[Tuple[Optional[mp.process.BaseProcess],
                                Optional["mp.Queue"]]] = []
            for wid in range(self.n_workers):
                with self._lock:
                    old_proc = self._workers[wid]
                    old_q = self._task_qs[wid]
                    self._start_worker(wid)  # attaches the successor manifest
                    if old_q is not None:
                        # Queued behind any in-flight tasks: the old
                        # worker answers them all before it sees this.
                        try:
                            old_q.put(("stop",))
                        except (OSError, ValueError):  # pragma: no cover
                            pass
                rotated.append((old_proc, old_q))
            for proc, _q in rotated:
                if proc is None:
                    continue
                proc.join(timeout=_JOIN_SECONDS)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=1.0)
            for _proc, q in rotated:
                if q is not None:
                    q.close()
            retired.unlink()
            record_staleness(self.metrics, stats)
            self.last_update = stats
        return stats

    def refresh_staleness(self) -> None:
        """Re-record the staleness gauges from the last update so
        ``staleness_seconds_since_refresh`` ages between scrapes
        (mirrors :meth:`QueryEngine.refresh_staleness`)."""
        if self.last_update is not None:
            record_staleness(self.metrics, self.last_update)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _collect_from_workers(
        self, msg_kind: str, timeout: float
    ) -> List[object]:
        """Ask every live worker for ``msg_kind`` and gather the replies.

        Shared request/collect loop behind metrics, SLO and profile
        collection.  Returns the payloads that arrived within
        ``timeout`` seconds total (a dead or slow worker just doesn't
        contribute); replies to other outstanding requests are not
        consumed — task ids disambiguate.
        """
        expect = {}
        with self._lock:
            for wid, proc in enumerate(self._workers):
                task_q = self._task_qs[wid]
                if proc is None or task_q is None or not proc.is_alive():
                    continue
                task_id = self._next_task_id()
                expect[task_id] = wid
                task_q.put((msg_kind, task_id))
        payloads: List[object] = []
        deadline = time.monotonic() + timeout
        while expect and time.monotonic() < deadline:
            try:
                reply = self._result_q.get(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except queue_mod.Empty:
                break
            _wid, task_id, status, payload, _ = reply
            if task_id in expect and status == msg_kind:
                del expect[task_id]
                payloads.append(payload)
        return payloads

    def collect_worker_metrics(self, timeout: float = _JOIN_SECONDS) -> int:
        """Merge each live worker's registry under ``worker.``; returns
        how many workers answered within ``timeout`` seconds total.

        Merging is cumulative — each call adds the workers' *lifetime*
        totals again — so call it once per reporting point.  ``close``
        collects automatically unless this was already called after the
        last batch.
        """
        self._metrics_merged = True
        merged = 0
        for payload in self._collect_from_workers("stats", timeout):
            self.metrics.merge_dump(payload, prefix="worker.")
            merged += 1
        return merged

    def refresh_slo(self, timeout: float = _JOIN_SECONDS) -> None:
        """Rebuild the pool-wide SLO view from worker dumps and publish.

        Queries are served *by workers*, so the parent's burn rates are
        the merge of every worker's windows: absolute-second slots sum
        (the analogue of ``merge_dump`` for ring windows).  The merged
        tracker is rebuilt from scratch each call — repeated scrapes of
        long-lived workers never double-count.  A no-op when the pool
        was built without ``slo_config``.
        """
        if self.slo_config is None:
            return
        dumps = self._collect_from_workers("slo", timeout)
        tracker = SloTracker.from_dumps(dumps, config=self.slo_config)
        if self.last_update is not None:
            tracker.note_staleness(
                max(0.0, time.time() - self.last_update.updated_unix)
            )
        self.slo = tracker
        tracker.publish(self.metrics)

    def should_shed(self) -> bool:
        """Pool-wide admission-control hook (see ``QueryEngine.should_shed``)."""
        self.refresh_slo()
        return self.slo.should_shed() if self.slo is not None else False

    def collect_worker_profiles(
        self, timeout: float = _JOIN_SECONDS
    ) -> Optional[Dict]:
        """One merged profiler dump across every live worker.

        ``None`` when the pool was built without ``profile_hz`` or no
        worker answered.  Stacks with identical frames (common: every
        worker runs the same kernels) sum their sample counts, so the
        merged flamegraph reads as "the pool's CPU time".
        """
        if not self.profile_hz:
            return None
        dumps = [
            d for d in self._collect_from_workers("profile", timeout) if d
        ]
        if not dumps:
            return None
        return merge_profile_dumps(dumps)

    def close(self) -> None:
        """Stop workers, merge their metrics, release the shared index."""
        if self._closed:
            return
        self._closed = True
        if not self._metrics_merged:
            self.collect_worker_metrics()
        for task_q in self._task_qs:
            if task_q is not None:
                try:
                    task_q.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for wid, proc in enumerate(self._workers):
            if proc is None:
                continue
            proc.join(timeout=_JOIN_SECONDS)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            self._workers[wid] = None
        for wid, task_q in enumerate(self._task_qs):
            if task_q is not None:
                task_q.close()
                self._task_qs[wid] = None
        self._result_q.close()
        self._shared.unlink()

    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False
