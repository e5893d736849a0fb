"""The online query-serving engine.

:class:`QueryEngine` wraps one loaded index (RIS-DA or MIA-DA — both
expose the same ``query(location, k) -> SeedResult`` online interface)
and turns it into a serving component:

* **result caching** — answers are cached by ``(index fingerprint,
  index generation, quantized query cell, kind, k-or-budget [, mask/cost
  fingerprint])`` (see :mod:`repro.serve.cache` and
  :func:`repro.core.querykind.cache_extra`), so hot query neighbourhoods
  are answered from memory and an in-memory ``index.update()`` — which
  bumps the generation — invalidates every stale entry at once;
* **query kinds** — point, trajectory, targeted, budgeted and heuristic
  queries (:mod:`repro.core.querykind`) all dispatch through
  :meth:`QueryEngine.query` / :meth:`QueryEngine.serve_batch`, with
  per-kind counters and latency histograms
  (``serve_queries_total{kind=...}``, ``latency_ms{kind=...}``);
* **concurrent batches** — :meth:`QueryEngine.serve_batch` fans a batch
  over a thread pool.  Both indexes are read-only after construction
  (corpus, inverted index, arborescences, k-d trees), so concurrent
  queries are safe; NumPy releases the GIL in the hot kernels;
* **per-query timeout with graceful fallback** — a query that misses its
  deadline is answered by the distance-aware degree-discount heuristic
  instead (milliseconds, no index needed), and the result is marked
  ``fallback_reason="timeout"`` so callers can tell;
* **metrics** — every serve updates a
  :class:`~repro.serve.metrics.MetricsRegistry` (query counters, cache
  hit/miss, a latency histogram, samples-used / evaluations
  distributions);
* **observability** — every served query carries a fresh trace id
  (``ServedResult.trace_id``) whether or not tracing is on.  With a real
  :class:`~repro.obs.trace.Tracer` attached, each query becomes a span
  tree (``serve.query`` -> ``index.query`` -> per-stage children from
  :class:`SelectionTimings`); with a structured logger attached,
  ``query_start`` / ``query_end`` / ``cache_hit`` / ``fallback`` events
  are emitted; with a :class:`~repro.obs.slowlog.SlowQueryLog` attached,
  queries over its threshold dump their span tree and diagnostics to a
  JSONL sink.  All three default to no-ops costing roughly one branch
  each on the hot path.  With a :class:`~repro.obs.slo.SloTracker`
  attached, every non-abandoned query outcome also feeds the
  rolling-window SLO burn rates (:meth:`QueryEngine.refresh_slo`
  publishes them as gauges; :meth:`QueryEngine.should_shed` is the
  admission-control hook).

Timeout semantics: every query's deadline is anchored at *submission*
(``deadline_i = submit_time + timeout``); the collector walks futures in
input order but only ever grants each one the time left until its own
deadline, so a slow early query cannot stretch a later query's budget.
The worker thread itself is not interrupted (Python threads cannot be
killed): an abandoned computation may still complete in the background,
where a per-query cancellation token stops it from touching the latency
histograms or the result cache — the run is counted under
``abandoned_queries_total`` instead, and its result is discarded.  The
fallback is computed synchronously by the collecting thread.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.heuristics import degree_discount, heuristic_ladder
from repro.core.mia_da import MiaDaIndex
from repro.core.query import DaimQuery, SeedResult
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
    route_location,
    target_mask,
)
from repro.core.ris_da import RisDaIndex
from repro.exceptions import QueryError, ReproError, ServeError
from repro.geo.grid import UniformGrid
from repro.geo.point import PointLike, as_point
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
    """One served query: the answer plus serving-layer context.

    ``result`` is ``None`` only when ``error`` is set (the query raised,
    or it timed out with fallback disabled).  ``elapsed`` is the
    end-to-end serving latency in seconds — cache lookup included, queue
    wait excluded — as opposed to ``result.elapsed`` which is the
    method's own selection time.  ``cached`` marks a result-cache hit;
    ``fallback_reason`` (e.g. ``"timeout"``) marks answers produced by
    the fallback heuristic rather than the index — a fallback's
    ``result.estimate`` is a heuristic score, *not* an Eq. 9 spread
    estimate.  ``abandoned`` marks a computation whose caller already
    timed out and was answered by the fallback; such results never reach
    callers (the batch slot holds the fallback) and are excluded from
    latency metrics and the result cache.  ``trace_id`` identifies the
    query in traces, logs, and the slow-query sink (always set, even
    with tracing disabled).

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
    abandoned: bool = False
    waypoint_results: Optional[Tuple[SeedResult, ...]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def fallback(self) -> bool:
        return self.fallback_reason is not None


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
        kernel_backend: Optional[str] = None,
        slo: Optional[SloTracker] = None,
    ):
        self.index = index
        self.network: GeoSocialNetwork = index.network
        self.decay = index.decay
        if kernel_backend is not None:
            setter = getattr(index, "set_kernel_backend", None)
            if setter is not None:
                setter(kernel_backend)
            elif kernel_backend not in ("auto", "numpy"):
                # MIA-DA has no native kernels; an explicit numba request
                # against it is a caller mistake, not a silent no-op.
                raise ServeError(
                    f"index of type {type(index).__name__} does not "
                    f"support kernel backend {kernel_backend!r}"
                )
        #: The index's resolved native-kernel backend; stamped onto stage
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
        #: non-abandoned query outcome; ``refresh_slo`` publishes burn
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
        kernel_backend: Optional[str] = None,
        slo: Optional[SloTracker] = None,
    ) -> "QueryEngine":
        """An engine over the saved index at ``path``.

        ``kind`` (``"ris"`` / ``"mia"``) restricts what the engine will
        accept; ``None`` serves whatever the file holds.  Pass a shared
        :class:`IndexCache` so several engines (or repeated CLI batches
        in one process) load each file once.  ``kernel_backend``
        overrides the loaded index's native-kernel backend request.
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
            kernel_backend=kernel_backend,
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
        return self._serve(self._unpack(q, k))

    def serve_batch(
        self, queries: Sequence[QueryLike], k: int | None = None
    ) -> List[ServedResult]:
        """Serve a batch concurrently, in input order.

        ``queries`` may be query-kind objects or bare locations (then
        ``k`` supplies the shared budget).  Results line up with the
        input; per-query failures become error results instead of
        aborting the batch.
        """
        items = [self._unpack(q, k) for q in queries]
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
            out_serial = [self._serve(query) for query in items]
            self._log_batch_end(out_serial)
            return out_serial

        out: List[Optional[ServedResult]] = [None] * len(items)
        pool = ThreadPoolExecutor(
            max_workers=cfg.n_threads, thread_name_prefix="repro-serve"
        )
        try:
            tokens = [threading.Event() for _ in items]
            futures = []
            deadlines: List[float] = []
            for query, token in zip(items, tokens):
                futures.append(pool.submit(self._serve, query, token))
                # The deadline is anchored at submission: collecting
                # earlier results must not stretch later queries' budgets.
                deadlines.append(time.monotonic() + (cfg.timeout or 0.0))
            for i, future in enumerate(futures):
                try:
                    if cfg.timeout is None:
                        out[i] = future.result()
                    else:
                        remaining = deadlines[i] - time.monotonic()
                        out[i] = future.result(timeout=max(0.0, remaining))
                except FutureTimeoutError:
                    # Tell the (possibly still running) worker its caller
                    # is gone, so it stays out of the metrics and cache.
                    tokens[i].set()
                    future.cancel()
                    out[i] = self._fallback(items[i], "timeout")
        finally:
            # Do not wait for abandoned (timed-out) computations; their
            # threads drain in the background.
            pool.shutdown(wait=False, cancel_futures=True)
        self._log_batch_end(out)  # type: ignore[arg-type]
        return out  # type: ignore[return-value]

    def _log_batch_end(self, served: Sequence[ServedResult]) -> None:
        if not self.logger.enabled:
            return
        self.logger.event(
            "serve_end",
            queries=len(served),
            cached=sum(1 for s in served if s.cached),
            fallbacks=sum(1 for s in served if s.fallback),
            errors=sum(1 for s in served if not s.ok),
        )

    # ------------------------------------------------------------------

    def _unpack(self, q: QueryLike, k: int | None) -> AnyQuery:
        # Bare locations normalise through as_point, so a DaimQuery and
        # the equivalent bare location quantize identically and share one
        # result-cache entry regardless of the caller's coordinate types.
        try:
            return normalize_query(q, k)
        except QueryError as exc:
            raise ServeError(str(exc))

    def _serve(
        self,
        query: AnyQuery,
        cancel: Optional[threading.Event] = None,
    ) -> ServedResult:
        start = time.perf_counter()
        trace_id = new_trace_id()
        log = self.logger
        kind = kind_of(query)
        location = route_location(query)
        k = getattr(query, "k", None)
        self.metrics.inc("queries_total")
        self.metrics.inc(labelled("serve_queries_total", kind=kind))
        if cancel is not None and cancel.is_set():
            # The collector gave up on this query before the pool even
            # started it; don't burn a core computing a discarded answer.
            self.metrics.inc("abandoned_queries_total")
            return ServedResult(
                result=None, elapsed=0.0, error="abandoned after timeout",
                trace_id=trace_id, abandoned=True,
            )
        if log.enabled:
            log.event(
                "query_start", trace_id=trace_id, kind=kind,
                x=location[0], y=location[1], k=k,
            )
        attrs = {"x": location[0], "y": location[1], "kind": kind,
                 "kernel_backend": self.kernel_backend}
        if k is not None:
            attrs["k"] = k
        with self.tracer.span(
            "serve.query", attrs, trace_id=trace_id,
        ) as span:
            if isinstance(query, HeuristicQuery):
                served, diag = self._serve_heuristic(
                    query, start, trace_id, span
                )
            elif isinstance(query, TrajectoryQuery):
                served, diag = self._serve_trajectory(
                    query, start, trace_id, span, cancel
                )
            else:
                served, diag = self._serve_in_span(
                    query, start, trace_id, span, cancel
                )
        if log.enabled:
            log.event(
                "query_end", trace_id=trace_id,
                elapsed_ms=round(served.elapsed * 1e3, 3),
                cached=served.cached, fallback=served.fallback,
                error=served.error, abandoned=served.abandoned,
            )
        if not served.abandoned:
            # The collector records the timed-out query against its
            # deadline; a second slow-log row here would double-count it.
            self._maybe_record_slow(
                location, self._slow_k(query), served, diag
            )
            if self.slo is not None:
                # "requested" marks an explicit heuristic answer — the
                # contract, not a degradation — so it does not burn the
                # availability budget the way a timeout fallback does.
                self.slo.record_query(
                    served.elapsed * 1e3,
                    fallback=(served.fallback_reason is not None
                              and served.fallback_reason != "requested"),
                    error=not served.ok,
                )
        return served

    @staticmethod
    def _slow_k(query: AnyQuery) -> int:
        k = getattr(query, "k", None)
        return int(k) if k is not None else 0

    def _observe_latency(self, kind: str, elapsed: float) -> None:
        self.metrics.observe("latency_ms", elapsed * 1e3)
        self.metrics.observe(labelled("latency_ms", kind=kind), elapsed * 1e3)

    def _cache_key(self, query: AnyQuery) -> Optional[tuple]:
        """The result-cache key of a query, or None when uncacheable.

        ``cache_extra`` carries the kind (and a mask/cost fingerprint
        for targeted/budgeted queries): two kinds quantizing to the same
        ``(fingerprint, generation, cell)`` can no longer collide.
        """
        if self._results is None:
            return None
        extra = cache_extra(query)
        if extra is None:
            return None
        # The index generation is part of the key: an in-memory
        # update() bumps it, so entries computed against the previous
        # graph die immediately (an mtime-based fingerprint alone
        # cannot see in-memory mutations).
        return (
            self.fingerprint,
            getattr(self.index, "generation", 0),
            self._grid.cell_of(query.location),
        ) + extra

    def _waypoint_key(self, location: Tuple[float, float], k: int) -> Optional[tuple]:
        """A trajectory waypoint's cache key — a ``point`` entry on purpose.

        A waypoint's answer *is* the point answer for that location, so
        trajectories warm the point cache and vice versa.
        """
        if self._results is None:
            return None
        return (
            self.fingerprint,
            getattr(self.index, "generation", 0),
            self._grid.cell_of(location),
            "point", k,
        )

    def _index_answer(self, query: AnyQuery) -> Tuple[SeedResult, object]:
        """Dispatch one point/targeted/budgeted query to the index."""
        if isinstance(query, TargetedQuery):
            mask = target_mask(query, self.network.n)
            return self.index.query_masked(
                query.location, query.k, mask, return_diagnostics=True
            )
        if isinstance(query, BudgetedQuery):
            costs = cost_array(query, self.network.n)
            return self.index.query_budgeted(
                query.location, query.budget, costs, return_diagnostics=True
            )
        return self.index.query(
            query.location, query.k, return_diagnostics=True
        )

    def _serve_in_span(
        self,
        query: AnyQuery,
        start: float,
        trace_id: str,
        span,
        cancel: Optional[threading.Event] = None,
    ) -> Tuple[ServedResult, object]:
        """The serve body for single-location kinds; runs inside the root span."""
        m = self.metrics
        tracer = self.tracer
        kind = kind_of(query)
        key = self._cache_key(query)
        if key is not None:
            hit = self._results.get(key)
            if hit is not None:
                elapsed = time.perf_counter() - start
                self._observe_latency(kind, elapsed)
                span.set_attribute("cached", True)
                if self.logger.enabled:
                    self.logger.event(
                        "cache_hit", trace_id=trace_id, cache="result"
                    )
                return ServedResult(
                    result=hit, elapsed=elapsed, cached=True,
                    trace_id=trace_id,
                ), None
        try:
            # Both index families accept return_diagnostics; the engine
            # always asks so per-stage timings reach the metrics.
            with tracer.span("index.query") as qspan:
                result, diag = self._index_answer(query)
        except ReproError as exc:
            if cancel is not None and cancel.is_set():
                # The caller already got the fallback; an abandoned run's
                # failure is not a serving error.
                m.inc("abandoned_queries_total")
                span.set_attribute("abandoned", True)
                return ServedResult(
                    result=None,
                    elapsed=time.perf_counter() - start,
                    error=str(exc),
                    trace_id=trace_id,
                    abandoned=True,
                ), None
            m.inc("errors")
            span.set_attribute("error", str(exc))
            if self.logger.enabled:
                self.logger.event(
                    "error", trace_id=trace_id, message=str(exc)
                )
            return ServedResult(
                result=None,
                elapsed=time.perf_counter() - start,
                error=str(exc),
                trace_id=trace_id,
            ), None
        if cancel is not None and cancel.is_set():
            # Timed out while computing: the collector has already
            # recorded the fallback for this logical query, so recording
            # latency/stages here (or caching a result the caller never
            # saw) would count it twice.  The check sits before every
            # metrics/cache write; a token set later races harmlessly.
            m.inc("abandoned_queries_total")
            span.set_attribute("abandoned", True)
            return ServedResult(
                result=result,
                elapsed=time.perf_counter() - start,
                trace_id=trace_id,
                abandoned=True,
            ), diag
        if result.samples_used is not None:
            m.observe("samples_used", result.samples_used)
        if result.evaluations is not None:
            m.observe("evaluations", result.evaluations)
        timings = getattr(diag, "timings", None)
        if timings is not None:
            # RIS-DA: weight-eval / score-build / selection / bound stages.
            m.observe_stage_seconds(timings.as_dict(),
                                    labels=self._stage_labels)
            if tracer.enabled:
                tracer.record_stages(qspan, timings.as_dict())
        setup = getattr(diag, "setup_seconds", None)
        if setup is not None:
            # MIA-DA reports its per-query bound setup separately.
            m.observe_stage_seconds({"bound_setup": setup})
            if tracer.enabled:
                tracer.record_stages(
                    qspan,
                    {"bound_setup": setup, "selection": result.elapsed},
                )
        if key is not None:
            self._results.put(key, result)
        elapsed = time.perf_counter() - start
        self._observe_latency(kind, elapsed)
        return ServedResult(
            result=result, elapsed=elapsed, cached=False, trace_id=trace_id
        ), diag

    def _serve_trajectory(
        self,
        query: TrajectoryQuery,
        start: float,
        trace_id: str,
        span,
        cancel: Optional[threading.Event] = None,
    ) -> Tuple[ServedResult, object]:
        """Serve a trajectory: per-waypoint cache, one shared index call.

        Each waypoint hits the result cache under its *point* key; the
        misses go to the index together in one ``query_trajectory`` call
        and are cached individually, so a trajectory warms the point
        cache cell by cell.
        """
        m = self.metrics
        tracer = self.tracer
        wps = query.waypoints
        k = query.k
        keys = [self._waypoint_key(wp, k) for wp in wps]
        results: List[Optional[SeedResult]] = [None] * len(wps)
        hits = 0
        for i, key in enumerate(keys):
            if key is not None:
                hit = self._results.get(key)
                if hit is not None:
                    results[i] = hit
                    hits += 1
        missing = [i for i in range(len(wps)) if results[i] is None]
        last_diag: object = None
        if missing:
            try:
                with tracer.span(
                    "index.query", {"waypoints": len(missing)}
                ) as qspan:
                    answered = self.index.query_trajectory(
                        [wps[i] for i in missing], k,
                        return_diagnostics=True,
                    )
            except ReproError as exc:
                if cancel is not None and cancel.is_set():
                    m.inc("abandoned_queries_total")
                    span.set_attribute("abandoned", True)
                    return ServedResult(
                        result=None,
                        elapsed=time.perf_counter() - start,
                        error=str(exc),
                        trace_id=trace_id,
                        abandoned=True,
                    ), None
                m.inc("errors")
                span.set_attribute("error", str(exc))
                if self.logger.enabled:
                    self.logger.event(
                        "error", trace_id=trace_id, message=str(exc)
                    )
                return ServedResult(
                    result=None,
                    elapsed=time.perf_counter() - start,
                    error=str(exc),
                    trace_id=trace_id,
                ), None
            if cancel is not None and cancel.is_set():
                # As in the point path: the caller already holds the
                # fallback, so stay out of the metrics and the cache.
                m.inc("abandoned_queries_total")
                span.set_attribute("abandoned", True)
                return ServedResult(
                    result=None,
                    elapsed=time.perf_counter() - start,
                    trace_id=trace_id,
                    abandoned=True,
                ), None
            for i, (result, diag) in zip(missing, answered):
                results[i] = result
                last_diag = diag
                if result.samples_used is not None:
                    m.observe("samples_used", result.samples_used)
                if result.evaluations is not None:
                    m.observe("evaluations", result.evaluations)
                timings = getattr(diag, "timings", None)
                if timings is not None:
                    m.observe_stage_seconds(timings.as_dict(),
                                            labels=self._stage_labels)
                    if tracer.enabled:
                        tracer.record_stages(qspan, timings.as_dict())
                setup = getattr(diag, "setup_seconds", None)
                if setup is not None:
                    m.observe_stage_seconds({"bound_setup": setup})
                if keys[i] is not None:
                    self._results.put(keys[i], result)
        m.inc("trajectory_waypoints_total", len(wps))
        span.set_attribute("waypoints", len(wps))
        span.set_attribute("waypoint_cache_hits", hits)
        elapsed = time.perf_counter() - start
        self._observe_latency("trajectory", elapsed)
        if self.logger.enabled and hits:
            self.logger.event(
                "cache_hit", trace_id=trace_id, cache="result",
                waypoints=hits,
            )
        return ServedResult(
            result=results[-1],
            elapsed=elapsed,
            cached=hits == len(wps),
            trace_id=trace_id,
            waypoint_results=tuple(results),  # type: ignore[arg-type]
        ), last_diag

    def _serve_heuristic(
        self,
        query: HeuristicQuery,
        start: float,
        trace_id: str,
        span,
    ) -> Tuple[ServedResult, object]:
        """Serve an explicit heuristic-ladder request (never the index).

        The answer is tagged ``fallback_reason="requested"`` and never
        cached: like an overload fallback, its score is the heuristic's
        own objective, not an Eq. 9 estimate, and must not shadow a real
        index answer in the cache.
        """
        m = self.metrics
        budget_s = (
            query.budget_ms / 1e3 if query.budget_ms is not None else None
        )
        try:
            result, rung = heuristic_ladder(
                self.network, query.location, query.k, self.decay,
                budget_s=budget_s, level=query.level,
            )
        except ReproError as exc:
            m.inc("errors")
            span.set_attribute("error", str(exc))
            return ServedResult(
                result=None,
                elapsed=time.perf_counter() - start,
                error=str(exc),
                trace_id=trace_id,
            ), None
        m.inc(labelled("heuristic_rung_total", rung=rung))
        span.set_attribute("rung", rung)
        elapsed = time.perf_counter() - start
        self._observe_latency("heuristic", elapsed)
        if self.logger.enabled:
            self.logger.event(
                "heuristic", trace_id=trace_id, rung=rung,
                method=result.method, elapsed_ms=round(elapsed * 1e3, 3),
            )
        return ServedResult(
            result=result, elapsed=elapsed, fallback_reason="requested",
            trace_id=trace_id,
        ), None

    def _maybe_record_slow(
        self,
        location: Tuple[float, float],
        k: int,
        served: ServedResult,
        diag: object,
        elapsed_override: Optional[float] = None,
    ) -> None:
        sl = self.slow_log
        if sl is None:
            return
        elapsed = (
            elapsed_override if elapsed_override is not None
            else served.elapsed
        )
        if not sl.should_record(elapsed):
            return
        self.metrics.inc("slow_queries_total")
        spans = self.tracer.spans_for_trace(served.trace_id or "")
        sl.record(
            trace_id=served.trace_id or "",
            location=location,
            k=k,
            elapsed_s=elapsed,
            cached=served.cached,
            fallback_reason=served.fallback_reason,
            error=served.error,
            diagnostics=diag,
            spans=spans or None,
        )
        if self.logger.enabled:
            self.logger.event(
                "slow_query", trace_id=served.trace_id,
                elapsed_ms=round(elapsed * 1e3, 3),
                threshold_ms=sl.threshold_ms, sink=sl.path,
            )

    def _fallback(self, query: AnyQuery, reason: str) -> ServedResult:
        start = time.perf_counter()
        m = self.metrics
        trace_id = new_trace_id()
        kind = kind_of(query)
        m.inc("timeouts" if reason == "timeout" else "fallback_triggers")
        if self.config.fallback == "none":
            if self.slo is not None:
                self.slo.record_query(
                    (self.config.timeout or 0.0) * 1e3, error=True,
                )
            return ServedResult(
                result=None,
                elapsed=time.perf_counter() - start,
                error=f"query timed out after {self.config.timeout}s "
                      f"(fallback disabled)",
                trace_id=trace_id,
            )
        m.inc("fallbacks")
        m.inc("serve_fallback_total")
        # A trajectory falls back at its *last* waypoint — the one whose
        # answer ServedResult.result carries; a budgeted query converts
        # its budget into the seed count it could at most afford.
        location = fallback_location(query)
        k = fallback_k(query, self.network.n)
        with self.tracer.span(
            "serve.fallback",
            {"x": location[0], "y": location[1], "k": k, "kind": kind,
             "reason": reason},
            trace_id=trace_id,
        ) as fspan:
            try:
                if self.config.fallback == "ladder":
                    result, rung = heuristic_ladder(
                        self.network, location, k, self.decay,
                        budget_s=self.config.fallback_budget,
                    )
                    m.inc(labelled("heuristic_rung_total", rung=rung))
                    fspan.set_attribute("rung", rung)
                else:
                    result = degree_discount(
                        self.network, location, k, self.decay
                    )
            except ReproError as exc:
                m.inc("errors")
                if self.slo is not None:
                    self.slo.record_query(
                        (self.config.timeout or 0.0) * 1e3,
                        fallback=True, error=True,
                    )
                return ServedResult(
                    result=None,
                    elapsed=time.perf_counter() - start,
                    error=f"timeout, then fallback failed: {exc}",
                    trace_id=trace_id,
                )
        elapsed = time.perf_counter() - start
        m.observe("fallback_latency_ms", elapsed * 1e3)
        if self.logger.enabled:
            self.logger.event(
                "fallback", trace_id=trace_id, reason=reason,
                method=result.method, elapsed_ms=round(elapsed * 1e3, 3),
            )
        # Fallback answers are never cached: a later, slower query in the
        # same cell deserves the real index answer, not a frozen heuristic.
        served = ServedResult(
            result=result, elapsed=elapsed, fallback_reason=reason,
            trace_id=trace_id,
        )
        # A timed-out query *is* a slow query: record it against the
        # deadline it blew (its true latency is unknown — the abandoned
        # thread is still running), not the fallback's own latency.
        if reason == "timeout" and self.config.timeout is not None:
            self._maybe_record_slow(
                location, k, served, None,
                elapsed_override=self.config.timeout,
            )
        if self.slo is not None:
            # Same convention as the slow log: the query's latency is at
            # least the deadline it blew, so burn against that.
            self.slo.record_query(
                (self.config.timeout or elapsed) * 1e3, fallback=True,
                error=not served.ok,
            )
        return served
