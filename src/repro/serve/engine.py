"""The online query-serving engine.

:class:`QueryEngine` wraps one loaded index (RIS-DA or MIA-DA — both
expose the same ``query(location, k) -> SeedResult`` online interface)
and turns it into a serving component:

* **result caching** — answers are cached by ``(index fingerprint,
  index generation, quantized query cell, kind, k-or-budget [, mask/cost
  fingerprint])`` (see :mod:`repro.serve.cache` and
  :func:`repro.core.querykind.cache_extra`), so hot query neighbourhoods
  are answered from memory and an in-memory ``index.update()`` — which
  bumps the generation — invalidates every stale entry at once.  An
  entry keeps the answer's guarantee flag beside it;
* **query kinds** — point, trajectory, targeted, budgeted and heuristic
  queries (:mod:`repro.core.querykind`) all dispatch through
  :meth:`QueryEngine.query` / :meth:`QueryEngine.serve_batch`;
* **concurrent batches** — :meth:`QueryEngine.serve_batch` fans a batch
  over a thread pool.  Both indexes are read-only after construction
  (corpus, inverted index, arborescences, k-d trees), so concurrent
  queries are safe; NumPy releases the GIL in the hot kernels;
* **per-query timeout with graceful fallback** — a query that misses its
  deadline is answered by the distance-aware degree-discount heuristic
  instead (milliseconds, no index needed), and the result is marked
  ``fallback_reason="timeout"`` so callers can tell.

One record per query, written once.  A query body (index, heuristic or
timeout fallback) only returns its :class:`ServedResult` and the index
diagnostics.  :meth:`QueryEngine._record` then writes that record to
every sink: the counters and their ``{kind}`` copies, ``latency_ms``,
the stage histograms, ``guarantee_miss_total{kind}``, the JSON log
events, the root-span attributes, the slow-query log and the SLO
tracker.  It runs once per logical query: in the calling thread on the
serial path, in the batch collector otherwise.  :func:`count_served` is
the part a :class:`ServedResult` alone determines; a
:class:`~repro.serve.pool.ServePool` parent applies it to every reply.
Every served query carries a fresh trace id (``ServedResult.trace_id``)
whether or not tracing is on.

``latency_ms`` observes every query except a timed-out one, whose own
latency is unknown (its computation may still be running); the slow log
and the SLO tracker charge a timed-out query the deadline it blew.

Timeout semantics: every query's deadline is anchored at *submission*
(``deadline_i = submit_time + timeout``); the collector walks futures in
input order but only ever grants each one the time left until its own
deadline, so a slow early query cannot stretch a later query's budget.
Each query carries a one-shot claim, a lock taken without blocking: the
worker takes it once its answer is ready, the collector when the
deadline passes.  The winner's answer is the one recorded.  A worker
that loses only counts ``abandoned_queries_total`` and never touches the
result cache; its thread is not interrupted (Python threads cannot be
killed), so it may still finish in the background.  The fallback is
computed synchronously by the collecting thread.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.heuristics import degree_discount, heuristic_ladder
from repro.core.mia_da import MiaDaIndex
from repro.core.query import SeedResult
from repro.core.querykind import (
    AnyQuery,
    BudgetedQuery,
    HeuristicQuery,
    TargetedQuery,
    TrajectoryQuery,
    cache_extra,
    cost_array,
    fallback_k,
    fallback_location,
    kind_of,
    normalize_query,
    query_to_row,
    route_location,
    target_mask,
)
from repro.core.ris_da import RisDaIndex
from repro.exceptions import QueryError, ReproError, ServeError
from repro.geo.grid import UniformGrid
from repro.geo.point import PointLike
from repro.network.graph import GeoSocialNetwork
from repro.obs.log import get_logger
from repro.obs.slo import SloTracker
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer, get_tracer, new_trace_id
from repro.serve.cache import IndexCache, ResultCache
from repro.serve.metrics import MetricsRegistry, labelled, record_staleness

AnyIndex = Union[RisDaIndex, MiaDaIndex]
QueryLike = Union[AnyQuery, PointLike]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of a :class:`QueryEngine`.

    ``n_threads`` sizes the batch thread pool; ``timeout`` (seconds,
    ``None`` = unlimited) is the per-query deadline after which the
    engine answers with the ``fallback`` method instead
    (``"degree-discount"``, ``"ladder"`` for the graded heuristic ladder
    of :func:`repro.core.heuristics.heuristic_ladder`, or ``"none"`` to
    surface a timeout error result).  ``fallback_budget`` (seconds,
    ``"ladder"`` only) is the wall-clock the ladder may spend on a
    fallback answer — the cheaper rungs engage as it shrinks; ``None``
    always takes the most accurate rung.  ``result_cache_size`` bounds
    the result LRU (0 disables result caching); ``cache_cells`` is the
    budget for the quantization grid — more cells mean finer-grained
    (more exact, less shared) cache keys.
    """

    n_threads: int = 4
    timeout: Optional[float] = None
    result_cache_size: int = 1024
    cache_cells: int = 4096
    fallback: str = "degree-discount"
    fallback_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_threads < 1:
            raise ServeError(
                f"n_threads must be at least 1, got {self.n_threads}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ServeError(
                f"timeout must be positive (or None), got {self.timeout}"
            )
        if self.result_cache_size < 0:
            raise ServeError(
                f"result_cache_size must be >= 0, got {self.result_cache_size}"
            )
        if self.cache_cells <= 0:
            raise ServeError(
                f"cache_cells must be positive, got {self.cache_cells}"
            )
        if self.fallback not in ("degree-discount", "ladder", "none"):
            raise ServeError(
                f"fallback must be 'degree-discount', 'ladder' or 'none', "
                f"got {self.fallback!r}"
            )
        if self.fallback_budget is not None and self.fallback_budget < 0:
            raise ServeError(
                f"fallback_budget must be >= 0 (or None), "
                f"got {self.fallback_budget}"
            )


@dataclass(frozen=True)
class ServedResult:
    """One served query: the answer plus everything the sinks record.

    ``result`` is ``None`` only when ``error`` is set (the query raised,
    or it timed out with fallback disabled or failing).  ``elapsed`` is
    the end-to-end serving latency in seconds — cache lookup included,
    queue wait excluded — as opposed to ``result.elapsed`` which is the
    method's own selection time.  ``cached`` marks a result-cache hit;
    ``fallback_reason`` marks answers the fallback heuristic produced
    (or, with ``error`` set, failed to produce) instead of the index:
    ``"timeout"``, or ``"requested"`` for a heuristic query.  A
    fallback's ``result.estimate`` is a heuristic score, *not* an Eq. 9
    spread estimate.  ``timed_out`` marks a query that missed its
    deadline.  ``trace_id`` identifies the query in traces, logs, and
    the slow-query sink (always set, even with tracing disabled).

    ``kind`` is the query's kind tag.  ``guarantee_met`` says whether
    the RIS-DA answer carries the paper's ``1 - 1/e - ε`` guarantee
    (its sample prefix reached the Lemma 7 size): a cache hit reports
    the flag of the answer it returns, a trajectory the conjunction over
    its waypoints.  It is ``None`` for MIA-DA, heuristic, fallback and
    error answers.

    For trajectory queries ``waypoint_results`` holds one
    :class:`SeedResult` per waypoint in order and ``result`` aliases the
    *last* waypoint's (the trajectory's current position); for every
    other kind it stays ``None``.  ``cached`` is then true only when
    every waypoint was a result-cache hit.
    """

    result: Optional[SeedResult]
    elapsed: float
    cached: bool = False
    fallback_reason: Optional[str] = None
    error: Optional[str] = None
    trace_id: Optional[str] = None
    waypoint_results: Optional[Tuple[SeedResult, ...]] = None
    kind: str = "point"
    guarantee_met: Optional[bool] = None
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def fallback(self) -> bool:
        return self.fallback_reason is not None


def served_row(query: AnyQuery, served: ServedResult) -> dict:
    """The JSON form of one served query (``serve-batch`` rows, ``/query``).

    Fallback and heuristic-ladder answers are tagged ``"fallback": true``
    and publish their spread as ``heuristic_score``, never ``estimate``
    — a degree-discount score is not an Eq. 9 influence estimate and
    must not be mistaken for one downstream.  Rows echo the query's
    ``kind`` (plus kind-specific parameters); trajectory rows add the
    per-waypoint seed sets.
    """
    row = query_to_row(query)
    row.update(
        elapsed_ms=round(served.elapsed * 1e3, 3),
        cached=served.cached,
        fallback=served.fallback,
        fallback_reason=served.fallback_reason,
        error=served.error,
        guarantee_met=served.guarantee_met,
        trace_id=served.trace_id,
    )
    if served.result is not None:
        row["seeds"] = [int(s) for s in served.result.seeds]
        row["method"] = served.result.method
        score = "heuristic_score" if served.fallback else "estimate"
        row[score] = served.result.estimate
    if served.waypoint_results:
        row["waypoint_seeds"] = [
            [int(s) for s in r.seeds] for r in served.waypoint_results
        ]
        row["waypoint_estimates"] = [
            r.estimate for r in served.waypoint_results
        ]
    return row


def unpack_query(q: QueryLike, k: Optional[int] = None) -> AnyQuery:
    """Serving input as a query object; a :class:`ServeError` if it is none.

    Bare locations normalise through ``as_point``, so a ``DaimQuery`` and
    the equivalent bare location quantize identically and share one
    result-cache entry regardless of the caller's coordinate types.
    """
    try:
        return normalize_query(q, k)
    except QueryError as exc:
        raise ServeError(str(exc)) from exc


@functools.lru_cache(maxsize=None)
def _kind_names(kind: str) -> Tuple[str, str, str]:
    """The ``{kind}``-labelled instrument names of one kind, built once."""
    return (
        labelled("serve_queries_total", kind=kind),
        labelled("latency_ms", kind=kind),
        labelled("guarantee_miss_total", kind=kind),
    )


def count_served(metrics: MetricsRegistry, served: ServedResult) -> None:
    """Record the metrics that one :class:`ServedResult` alone determines.

    The metrics-only part of :meth:`QueryEngine._record`, and all that a
    :class:`~repro.serve.pool.ServePool` parent records per reply.
    """
    queries, latency, guarantee_miss = _kind_names(served.kind)
    metrics.inc("queries_total")
    metrics.inc(queries)
    if served.error is not None:
        metrics.inc("errors")
    if served.guarantee_met is False:
        metrics.inc(guarantee_miss)
    if served.waypoint_results is not None:
        metrics.inc("trajectory_waypoints_total",
                    len(served.waypoint_results))
    if not served.timed_out:
        ms = served.elapsed * 1e3
        metrics.observe("latency_ms", ms)
        metrics.observe(latency, ms)
        return
    metrics.inc("timeouts")
    if served.fallback_reason is not None:
        metrics.inc("fallbacks")
        metrics.inc("serve_fallback_total")
        if served.ok:
            metrics.observe("fallback_latency_ms", served.elapsed * 1e3)


def _guarantee(diag: object) -> Optional[bool]:
    flag = getattr(diag, "guarantee_met", None)
    return None if flag is None else bool(flag)


def _parts(served: ServedResult, diag: object) -> list:
    """``(result, diagnostics)`` per part of an index answer.

    One part per trajectory waypoint, else one; the diagnostics are
    None for a part answered from the result cache.
    """
    if served.waypoint_results is not None:
        return list(zip(served.waypoint_results, diag))
    return [(served.result, diag)]


def _span_stages(result: SeedResult, diag: object) -> dict:
    """The per-stage seconds an ``index.query`` span lays out as children."""
    timings = getattr(diag, "timings", None)
    if timings is not None:  # RIS-DA
        return timings.as_dict()
    setup = getattr(diag, "setup_seconds", None)
    if setup is not None:  # MIA-DA: bound setup, then selection
        return {"bound_setup": setup, "selection": result.elapsed}
    return {}


class QueryEngine:
    """Serve many online DAIM queries against one loaded index."""

    def __init__(
        self,
        index: AnyIndex,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        fingerprint: str | None = None,
        tracer=None,
        logger=None,
        slow_log: Optional[SlowQueryLog] = None,
        slo: Optional[SloTracker] = None,
    ):
        self.index = index
        self.network: GeoSocialNetwork = index.network
        self.decay = index.decay
        #: The index's native-kernel backend (MIA-DA has none and runs
        #: numpy); stamped onto stage
        #: histograms (``stage_*_ms{kernel_backend=...}``) and query spans.
        self.kernel_backend: str = getattr(index, "kernel_backend", "numpy")
        self._stage_labels = {"kernel_backend": self.kernel_backend}
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Tracer/logger are resolved once from the ambient context here
        # (contextvars do not propagate into pool threads, so per-query
        # code must read instance attributes, not the ambient context).
        self.tracer = tracer if tracer is not None else get_tracer()
        self.logger = logger if logger is not None else get_logger()
        self.slow_log = slow_log
        #: Optional rolling-window SLO tracker.  The engine feeds it every
        #: logical query once; ``refresh_slo`` publishes burn
        #: rates as gauges and feeds it index staleness at scrape time.
        self.slo = slo
        if slow_log is not None and not self.tracer.enabled:
            # A slow-query row without a span tree answers "that it was
            # slow" but not "why"; give the sink a real tracer.
            self.tracer = Tracer()
        # In-memory indexes get an identity-based fingerprint: distinct
        # engine instances over distinct indexes never share cache keys.
        self.fingerprint = (
            fingerprint if fingerprint is not None else f"mem:{id(index):x}"
        )
        if self.config.result_cache_size > 0:
            self._grid = UniformGrid.with_cell_budget(
                self.network.bounding_box(), self.config.cache_cells
            )
            self._results: Optional[ResultCache] = ResultCache(
                self.config.result_cache_size, metrics=self.metrics
            )
        else:
            self._grid = None
            self._results = None
        # RIS: make sure the corpus's inverted index is built before any
        # concurrent query triggers its (unsynchronised) lazy build.
        corpus = getattr(index, "corpus", None)
        if corpus is not None:
            corpus.inverted()
        #: The last :class:`repro.stream.UpdateStats` applied through
        #: :meth:`apply_update` (None until the first update).
        self.last_update = None

    # ------------------------------------------------------------------
    # Streaming maintenance
    # ------------------------------------------------------------------

    def apply_update(self, delta) -> "object":
        """Apply a :class:`repro.stream.GraphDelta` to the served index.

        Delegates to ``index.update()`` (both families implement it),
        refreshes the engine's network reference, and records the
        staleness gauges.  Result-cache entries need no explicit flush:
        the update bumps ``index.generation``, which is part of every
        cache key.  The quantization grid keeps the build-time bounding
        box — keys only need to be internally consistent, and reusing
        the grid keeps pre-update and post-update keys from colliding
        only through the generation, which is the point.
        """
        update = getattr(self.index, "update", None)
        if update is None:
            raise ServeError(
                f"index of type {type(self.index).__name__} does not "
                "support streaming updates"
            )
        stats = update(delta=delta)
        self.network = self.index.network
        self.last_update = stats
        record_staleness(self.metrics, stats)
        return stats

    def refresh_staleness(self) -> None:
        """Re-record the staleness gauges so the age gauge keeps ticking.

        Called by metrics exporters right before a scrape; a no-op until
        the first update.
        """
        if self.last_update is not None:
            record_staleness(self.metrics, self.last_update)

    def refresh_slo(self) -> None:
        """Feed staleness to the SLO tracker and publish ``slo_*`` gauges.

        Called at scrape time (``/metrics``, ``/slo``) and before
        :meth:`should_shed`; a no-op without a tracker attached.
        """
        if self.slo is None:
            return
        if self.last_update is not None:
            self.slo.note_staleness(
                max(0.0, time.time() - self.last_update.updated_unix)
            )
        self.slo.publish(self.metrics)

    def should_shed(self) -> bool:
        """True when the attached SLO tracker says to shed load *now*.

        The hook the admission controller (ROADMAP item 3) consumes;
        always False without a tracker.
        """
        if self.slo is None:
            return False
        if self.last_update is not None:
            self.slo.note_staleness(
                max(0.0, time.time() - self.last_update.updated_unix)
            )
        return self.slo.should_shed()

    @classmethod
    def from_path(
        cls,
        path,
        network: GeoSocialNetwork,
        kind: Optional[str] = None,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        cache: IndexCache | None = None,
        tracer=None,
        logger=None,
        slow_log: Optional[SlowQueryLog] = None,
        slo: Optional[SloTracker] = None,
    ) -> "QueryEngine":
        """An engine over the saved index at ``path``.

        ``kind`` (``"ris"`` / ``"mia"``) restricts what the engine will
        accept; ``None`` serves whatever the file holds.  Pass a shared
        :class:`IndexCache` so several engines (or repeated CLI batches
        in one process) load each file once.
        """
        metrics = metrics if metrics is not None else MetricsRegistry()
        cache = cache if cache is not None else IndexCache(metrics=metrics)
        _, index = cache.get(path, network, kind=kind)
        return cls(
            index,
            config=config,
            metrics=metrics,
            fingerprint=IndexCache.fingerprint(path),
            tracer=tracer,
            logger=logger,
            slow_log=slow_log,
            slo=slo,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def query(self, q: QueryLike, k: int | None = None) -> ServedResult:
        """Serve one query synchronously (no pool, no timeout).

        ``q`` may be any query-kind object (:class:`DaimQuery`,
        :class:`TrajectoryQuery`, :class:`TargetedQuery`,
        :class:`BudgetedQuery`, :class:`HeuristicQuery`) or a bare
        location with ``k``.
        """
        return self._serve(unpack_query(q, k))

    def serve_batch(
        self, queries: Sequence[QueryLike], k: int | None = None
    ) -> List[ServedResult]:
        """Serve a batch concurrently, in input order.

        ``queries`` may be query-kind objects or bare locations (then
        ``k`` supplies the shared budget).  Results line up with the
        input; per-query failures become error results instead of
        aborting the batch.
        """
        items = [unpack_query(q, k) for q in queries]
        cfg = self.config
        if not items:
            return []
        log = self.logger
        if log.enabled:
            log.event(
                "serve_start", queries=len(items), threads=cfg.n_threads,
                timeout_s=cfg.timeout,
            )
        if cfg.n_threads == 1 and cfg.timeout is None:
            out = [self._serve(query) for query in items]
        else:
            out = self._serve_concurrent(items)
        if log.enabled:
            log.event(
                "serve_end",
                queries=len(out),
                cached=sum(1 for s in out if s.cached),
                fallbacks=sum(1 for s in out if s.fallback),
                errors=sum(1 for s in out if not s.ok),
            )
        return out

    def _serve_concurrent(self, items: List[AnyQuery]) -> List[ServedResult]:
        """The thread-pool batch; this collecting thread records every query."""
        timeout = self.config.timeout
        out: List[ServedResult] = []
        pool = ThreadPoolExecutor(
            max_workers=self.config.n_threads,
            thread_name_prefix="repro-serve",
        )
        try:
            claims = [threading.Lock() for _ in items]
            futures = []
            deadlines: List[float] = []
            for query, claim in zip(items, claims):
                futures.append(pool.submit(self._run, query, claim))
                # The deadline is anchored at submission: collecting
                # earlier results must not stretch later queries' budgets.
                deadlines.append(time.monotonic() + (timeout or 0.0))
            for query, claim, future, deadline in zip(
                items, claims, futures, deadlines
            ):
                try:
                    ran = future.result(
                        timeout=None if timeout is None
                        else max(0.0, deadline - time.monotonic())
                    )
                except FutureTimeoutError:
                    if claim.acquire(blocking=False):
                        future.cancel()
                        ran = self._run(query, timed_out=True)
                    else:
                        # The worker claimed the query just in time and
                        # is only storing its answer.
                        ran = future.result()
                self._record(query, *ran)
                out.append(ran[0])
        finally:
            # Do not wait for abandoned (timed-out) computations; their
            # threads drain in the background.
            pool.shutdown(wait=False, cancel_futures=True)
        return out

    # ------------------------------------------------------------------

    def _serve(self, query: AnyQuery) -> ServedResult:
        ran = self._run(query)
        self._record(query, *ran)
        return ran[0]

    def _run(
        self,
        query: AnyQuery,
        claim: Optional[threading.Lock] = None,
        timed_out: bool = False,
    ):
        """Answer one query inside its root span: ``(served, diag, span)``.

        ``claim`` is the query's one-shot claim in a concurrent batch.
        The run takes it once the answer is ready, before it stores
        anything, and returns None when the collector took it first.
        ``timed_out`` answers with the configured fallback instead of
        the index.
        """
        if claim is not None and claim.locked():
            # The collector gave up on this query before the pool even
            # started it; don't burn a core computing a discarded answer.
            return self._abandon()
        start = time.perf_counter()
        trace_id = new_trace_id()
        kind = kind_of(query)
        location = route_location(query)
        k = getattr(query, "k", None)
        if self.logger.enabled:
            self.logger.event(
                "query_start", trace_id=trace_id, kind=kind,
                x=location[0], y=location[1], k=k,
            )
        attrs = {"x": location[0], "y": location[1], "kind": kind,
                 "kernel_backend": self.kernel_backend}
        if k is not None:
            attrs["k"] = k
        if timed_out:
            name, body = "serve.fallback", self._fallback
        elif isinstance(query, HeuristicQuery):
            name, body = "serve.query", self._serve_heuristic
        else:
            name, body = "serve.query", self._serve_index
        with self.tracer.span(name, attrs, trace_id=trace_id) as span:
            served, diag = body(query, start, trace_id)
        if claim is not None and not claim.acquire(blocking=False):
            return self._abandon()
        self._store(query, served, diag)
        return served, diag, span

    def _abandon(self) -> None:
        """The losing side of a claim: the collector recorded the query."""
        self.metrics.inc("abandoned_queries_total")
        return None

    def _served(
        self, query: AnyQuery, start: float, trace_id: str,
        result: Optional[SeedResult] = None, **fields,
    ) -> ServedResult:
        return ServedResult(
            result=result, elapsed=time.perf_counter() - start,
            trace_id=trace_id, kind=kind_of(query), **fields,
        )

    def _keys(self, query: AnyQuery) -> list:
        """The result-cache key of each part of a query (None: uncacheable).

        A trajectory has one part per waypoint, keyed as a ``point``
        query on purpose: a waypoint's answer *is* the point answer for
        that location, so trajectories warm the point cache and vice
        versa.  Every other kind is one part, whose ``cache_extra``
        carries the kind (and a mask/cost fingerprint for
        targeted/budgeted queries): two kinds quantizing to the same
        ``(fingerprint, generation, cell)`` can never collide.
        """
        trajectory = isinstance(query, TrajectoryQuery)
        if self._results is None:
            return [None] * (len(query.waypoints) if trajectory else 1)
        # The index generation is part of the key: an in-memory
        # update() bumps it, so entries computed against the previous
        # graph die immediately (an mtime-based fingerprint alone
        # cannot see in-memory mutations).
        head = (self.fingerprint, getattr(self.index, "generation", 0))
        if trajectory:
            return [
                head + (self._grid.cell_of(wp), "point", query.k)
                for wp in query.waypoints
            ]
        extra = cache_extra(query)
        if extra is None:
            return [None]
        return [head + (self._grid.cell_of(query.location),) + extra]

    def _serve_index(
        self, query: AnyQuery, start: float, trace_id: str
    ) -> Tuple[ServedResult, object]:
        """Every kind but heuristic: the result cache, then the index.

        The parts the cache misses go to the index together, in one
        call.  The diagnostics are the index's own, None on a cache
        hit, and one entry per waypoint for a trajectory.
        """
        keys = self._keys(query)
        entries = [
            None if key is None else self._results.get(key) for key in keys
        ]
        missing = [i for i, entry in enumerate(entries) if entry is None]
        diags: List[object] = [None] * len(keys)
        if missing:
            try:
                answered = self._index_call(query, missing)
            except ReproError as exc:
                return self._served(
                    query, start, trace_id, error=str(exc)
                ), None
            for i, (result, diag) in zip(missing, answered):
                entries[i] = (result, _guarantee(diag))
                diags[i] = diag
        results = tuple(result for result, _ in entries)
        flags = [flag for _, flag in entries]
        trajectory = isinstance(query, TrajectoryQuery)
        served = self._served(
            query, start, trace_id, result=results[-1], cached=not missing,
            waypoint_results=results if trajectory else None,
            guarantee_met=None if None in flags else all(flags),
        )
        return served, (tuple(diags) if trajectory else diags[0])

    def _index_call(self, query: AnyQuery, missing: List[int]) -> list:
        """``[(result, diag)]`` for the missing parts of one query.

        The call runs in an ``index.query`` span that gets one child
        span per selection stage.
        """
        n = self.network.n
        with self.tracer.span("index.query") as qspan:
            if isinstance(query, TrajectoryQuery):
                qspan.set_attribute("waypoints", len(missing))
                answered = self.index.query_trajectory(
                    [query.waypoints[i] for i in missing], query.k,
                    return_diagnostics=True,
                )
            elif isinstance(query, TargetedQuery):
                answered = [self.index.query_masked(
                    query.location, query.k, target_mask(query, n),
                    return_diagnostics=True,
                )]
            elif isinstance(query, BudgetedQuery):
                answered = [self.index.query_budgeted(
                    query.location, query.budget, cost_array(query, n),
                    return_diagnostics=True,
                )]
            else:
                answered = [self.index.query(
                    query.location, query.k, return_diagnostics=True
                )]
        if self.tracer.enabled:
            for result, diag in answered:
                self.tracer.record_stages(qspan, _span_stages(result, diag))
        return answered

    def _store(self, query: AnyQuery, served: ServedResult, diag) -> None:
        """Cache the index answers a run computed, with their guarantee flags.

        Cache hits, heuristic, fallback and error answers are never
        stored: a later query in the same cell deserves the real index
        answer, not a frozen heuristic.
        """
        if (self._results is None or served.result is None
                or served.fallback_reason is not None):
            return
        for key, (result, part_diag) in zip(
            self._keys(query), _parts(served, diag)
        ):
            if key is not None and part_diag is not None:
                self._results.put(key, (result, _guarantee(part_diag)))

    def _serve_heuristic(
        self, query: HeuristicQuery, start: float, trace_id: str
    ) -> Tuple[ServedResult, object]:
        """An explicit heuristic-ladder request (never the index).

        The answer is tagged ``fallback_reason="requested"`` and never
        cached: like an overload fallback, its score is the heuristic's
        own objective, not an Eq. 9 estimate.  The diagnostics name the
        ladder rung.
        """
        budget_s = (
            query.budget_ms / 1e3 if query.budget_ms is not None else None
        )
        try:
            result, rung = heuristic_ladder(
                self.network, query.location, query.k, self.decay,
                budget_s=budget_s, level=query.level,
            )
        except ReproError as exc:
            return self._served(query, start, trace_id, error=str(exc)), None
        return self._served(
            query, start, trace_id, result=result,
            fallback_reason="requested",
        ), {"rung": rung}

    def _fallback(
        self, query: AnyQuery, start: float, trace_id: str
    ) -> Tuple[ServedResult, object]:
        """The answer to a timed-out query, from the configured fallback."""
        cfg = self.config
        if cfg.fallback == "none":
            return self._served(
                query, start, trace_id, timed_out=True,
                error=f"query timed out after {cfg.timeout}s "
                      f"(fallback disabled)",
            ), None
        # A trajectory falls back at its *last* waypoint — the one whose
        # answer ServedResult.result carries; a budgeted query converts
        # its budget into the seed count it could at most afford.
        location = fallback_location(query)
        k = fallback_k(query, self.network.n)
        rung = None
        try:
            if cfg.fallback == "ladder":
                result, rung = heuristic_ladder(
                    self.network, location, k, self.decay,
                    budget_s=cfg.fallback_budget,
                )
            else:
                result = degree_discount(self.network, location, k, self.decay)
        except ReproError as exc:
            return self._served(
                query, start, trace_id, timed_out=True,
                fallback_reason="timeout",
                error=f"timeout, then fallback failed: {exc}",
            ), None
        return self._served(
            query, start, trace_id, result=result, timed_out=True,
            fallback_reason="timeout",
        ), (None if rung is None else {"rung": rung})

    def _record(
        self, query: AnyQuery, served: ServedResult, diag: object, span
    ) -> None:
        """Write one logical query to every sink, exactly once."""
        m = self.metrics
        count_served(m, served)
        rung = None
        if served.fallback_reason is not None:
            rung = diag["rung"] if diag else None
            if rung is not None:
                m.inc(labelled("heuristic_rung_total", rung=rung))
        elif served.result is not None:
            for result, part_diag in _parts(served, diag):
                if part_diag is None:
                    continue
                if result.samples_used is not None:
                    m.observe("samples_used", result.samples_used)
                if result.evaluations is not None:
                    m.observe("evaluations", result.evaluations)
                timings = getattr(part_diag, "timings", None)
                if timings is not None:
                    m.observe_stage_seconds(timings.as_dict(),
                                            labels=self._stage_labels)
                setup = getattr(part_diag, "setup_seconds", None)
                if setup is not None:
                    # MIA-DA reports its per-query bound setup separately.
                    m.observe_stage_seconds({"bound_setup": setup})
        # The root span has ended; its attribute dict is what the
        # tracer exports, so the outcome still reaches the trace.
        if served.cached:
            span.set_attribute("cached", True)
        if served.error is not None:
            span.set_attribute("error", served.error)
        if served.guarantee_met is not None:
            span.set_attribute("guarantee_met", served.guarantee_met)
        if rung is not None:
            span.set_attribute("rung", rung)
        # A timed-out query took at least the deadline it blew (its own
        # computation may still be running).
        elapsed = self.config.timeout if served.timed_out else served.elapsed
        log = self.logger
        if log.enabled:
            tid = served.trace_id
            if served.cached:
                log.event("cache_hit", trace_id=tid, cache="result")
            if served.error is not None:
                log.event("error", trace_id=tid, message=served.error)
            elif served.fallback:
                log.event(
                    "fallback", trace_id=tid, reason=served.fallback_reason,
                    method=served.result.method, rung=rung,
                )
            log.event(
                "query_end", trace_id=tid, kind=served.kind,
                elapsed_ms=round(served.elapsed * 1e3, 3),
                cached=served.cached, fallback=served.fallback,
                error=served.error, guarantee_met=served.guarantee_met,
            )
        sl = self.slow_log
        if sl is not None and sl.should_record(elapsed):
            m.inc("slow_queries_total")
            sl.record(
                trace_id=served.trace_id,
                location=route_location(query),
                k=getattr(query, "k", 0),
                elapsed_s=elapsed,
                cached=served.cached,
                fallback_reason=served.fallback_reason,
                error=served.error,
                diagnostics=diag,
                spans=self.tracer.spans_for_trace(served.trace_id) or None,
            )
            if log.enabled:
                log.event(
                    "slow_query", trace_id=served.trace_id,
                    elapsed_ms=round(elapsed * 1e3, 3),
                    threshold_ms=sl.threshold_ms, sink=sl.path,
                )
        if self.slo is not None:
            # "requested" marks an explicit heuristic answer — the
            # contract, not a degradation — so it does not burn the
            # availability budget the way a timeout fallback does.
            self.slo.record_query(
                elapsed * 1e3,
                fallback=served.fallback_reason not in (None, "requested"),
                error=served.error is not None,
            )
