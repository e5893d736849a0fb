"""A stdlib HTTP server exposing ``/metrics``, ``/healthz`` and ``/query``.

No web framework: :class:`http.server.ThreadingHTTPServer` plus a small
handler is all a scrape endpoint needs.  Endpoints:

``GET /metrics``
    The engine's :class:`~repro.serve.metrics.MetricsRegistry` rendered
    by :func:`repro.obs.prom.render_prometheus` (text format 0.0.4).
``GET /healthz``
    ``{"status": "ok", "uptime_s": ..., "index_kind": ..., ...}`` — 200
    while the process can answer; a scrape target for liveness probes.
``GET /query?x=..&y=..&k=..``
    One DAIM query through the :class:`~repro.serve.QueryEngine` (result
    cache, metrics, tracing all apply); the JSON answer is the same row
    ``serve-batch`` writes (:func:`repro.serve.engine.served_row`), with
    the trace id, ``guarantee_met`` and ``certified_ratio``.
    ``kind=`` selects a query kind (default ``point``): ``targeted``
    adds ``targets=1,2,3``; ``budgeted`` adds ``budget=`` plus optional
    ``cost=`` / ``costs=node:cost,...``; ``trajectory`` replaces ``x``/
    ``y`` with ``waypoints=x:y;x:y``; ``heuristic`` takes optional
    ``level=`` / ``budget_ms=``.
``GET /slo``
    The engine's rolling-window SLO state — burn-rate gauges per
    objective and window — as its own small Prometheus exposition, so an
    admission controller (or a human) can read just the SLO view without
    scraping the full registry.  404 when no SLO tracker is attached.
``GET /debug/profile?seconds=N&hz=H``
    Run the in-process sampling profiler for N seconds (default 5,
    capped at 30) and return the collapsed-stack text — point a browser
    (or ``flamegraph.pl``) at a live server and see where time goes.
    One profile at a time; concurrent requests get 409.
``POST /admin/update``
    Apply a streaming graph delta — JSONL events in the request body,
    the same format the ``update`` CLI reads — through the engine's
    ``apply_update`` surface (in-process engine or serving pool alike);
    answers with the resulting update stats.  404 when the attached
    engine has no streaming surface.

Query serving is read-only (GET); the single mutating route is the
admin update above.  The server binds loopback by default; it is an
operational sidecar, not a public API gateway.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.core.querykind import query_from_json
from repro.exceptions import QueryError, ReproError, ServeError
from repro.obs.log import get_logger
from repro.obs.prom import render_prometheus
from repro.serve.engine import QueryEngine, served_row
from repro.serve.metrics import MetricsRegistry

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObsHttpServer:
    """Serves observability endpoints for one engine (or bare registry).

    Pass an ``engine`` to expose ``/query`` as well; with only a
    ``metrics`` registry the server is a pure exposition sidecar.
    ``engine`` may be a :class:`QueryEngine` or anything with the same
    ``query``/``metrics`` surface — notably a
    :class:`~repro.serve.pool.ServePool`, which fans ``/query`` requests
    to its sharded workers.  ``port=0`` binds an ephemeral port (see
    :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        engine: Optional["QueryEngine"] = None,
        metrics: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_k: int = 30,
        namespace: str = "repro",
        health_extra: Optional[Dict[str, Any]] = None,
    ):
        if engine is None and metrics is None:
            raise ServeError("need an engine or a metrics registry to serve")
        self.engine = engine
        self.metrics = metrics if metrics is not None else engine.metrics
        self.default_k = int(default_k)
        self.namespace = namespace
        self.health_extra = dict(health_extra or {})
        self.started_at = time.time()
        self.logger = get_logger()
        # /debug/profile runs one ad-hoc profiler at a time: a second
        # concurrent request is refused (409) rather than queued, so a
        # scrape storm cannot stack samplers.
        self._profile_lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _respond(self, status, body, content_type, t0) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                if outer.logger.enabled:
                    outer.logger.event(
                        "http_request",
                        path=self.path,
                        status=status,
                        elapsed_ms=round(
                            (time.perf_counter() - t0) * 1e3, 3
                        ),
                    )

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                t0 = time.perf_counter()
                self._respond(*outer._route(self.path), t0)

            def do_POST(self) -> None:  # noqa: N802 (http.server API)
                t0 = time.perf_counter()
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                self._respond(*outer._route_post(self.path, raw), t0)

            def log_message(self, format, *args):  # noqa: A002
                pass  # request logging goes through the structured logger

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # -- routing -------------------------------------------------------

    def _route(self, path: str) -> tuple:
        split = urlsplit(path)
        route = split.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                # Age staleness_seconds_since_refresh at scrape time so
                # the gauge keeps moving between updates; refresh the
                # SLO gauges the same way (burn rates are windows over
                # *now*, not over the last recorded query).
                refresh = getattr(self.engine, "refresh_staleness", None)
                if refresh is not None:
                    refresh()
                refresh_slo = getattr(self.engine, "refresh_slo", None)
                if refresh_slo is not None:
                    refresh_slo()
                text = render_prometheus(self.metrics, self.namespace)
                return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
            if route == "/healthz":
                return self._json(200, self._health())
            if route == "/query":
                return self._query(parse_qs(split.query))
            if route == "/slo":
                return self._slo()
            if route == "/debug/profile":
                return self._debug_profile(parse_qs(split.query))
            return self._json(
                404,
                {"error": f"no route {route}",
                 "routes": ["/metrics", "/healthz", "/query", "/slo",
                            "/debug/profile"]},
            )
        except Exception as exc:  # never kill the scrape loop
            return self._json(500, {"error": str(exc)})

    def _route_post(self, path: str, raw: bytes) -> tuple:
        route = urlsplit(path).path.rstrip("/") or "/"
        try:
            if route == "/admin/update":
                return self._admin_update(raw)
            return self._json(
                404,
                {"error": f"no POST route {route}",
                 "routes": ["/admin/update"]},
            )
        except Exception as exc:  # never kill the serve loop
            return self._json(500, {"error": str(exc)})

    def _admin_update(self, raw: bytes) -> tuple:
        apply_update = getattr(self.engine, "apply_update", None)
        if apply_update is None:
            return self._json(
                404,
                {"error": "attached engine has no streaming update surface"},
            )
        from repro.stream.delta import GraphDelta

        try:
            events = [
                json.loads(line)
                for line in raw.decode("utf-8").splitlines()
                if line.strip()
            ]
            delta = GraphDelta.from_events(events)
        except (ValueError, ReproError) as exc:
            return self._json(400, {"error": f"bad delta body: {exc}"})
        try:
            stats = apply_update(delta)
        except ReproError as exc:
            return self._json(400, {"error": str(exc)})
        return self._json(200, dict(stats.as_dict(), status="ok"))

    def _slo(self) -> tuple:
        """The SLO view alone, as its own Prometheus exposition.

        Renders a throwaway registry holding just the freshly published
        ``slo_*`` gauges, so the consumer never has to filter the full
        scrape — and the text still parses with ``parse_prometheus``.
        """
        refresh_slo = getattr(self.engine, "refresh_slo", None)
        if refresh_slo is not None:
            refresh_slo()
        tracker = getattr(self.engine, "slo", None)
        if tracker is None:
            return self._json(
                404, {"error": "no SLO tracker attached to this engine"}
            )
        registry = MetricsRegistry()
        tracker.publish(registry)
        text = render_prometheus(registry, self.namespace)
        return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE

    def _debug_profile(self, params: Dict[str, list]) -> tuple:
        """Profile this process for N seconds, return collapsed stacks.

        Samples the *parent* process (for a pooled server the workers'
        continuous profiles travel through ``repro diag`` instead); the
        request blocks for the profiling window, which is why ``seconds``
        is clamped to 30.
        """
        from repro.obs.profile import DEFAULT_HZ, SamplingProfiler

        try:
            seconds = float(params.get("seconds", ["5"])[0])
            hz = float(params.get("hz", [str(DEFAULT_HZ)])[0])
        except ValueError:
            return self._json(
                400, {"error": "seconds and hz must be numbers"}
            )
        if seconds <= 0 or hz <= 0:
            return self._json(
                400, {"error": "seconds and hz must be positive"}
            )
        seconds = min(seconds, 30.0)
        if not self._profile_lock.acquire(blocking=False):
            return self._json(
                409, {"error": "a profile is already running; retry later"}
            )
        try:
            profiler = SamplingProfiler(hz=hz)
            profiler.start()
            time.sleep(seconds)
            profiler.stop()
            text = profiler.collapsed()
        finally:
            self._profile_lock.release()
        return 200, text.encode("utf-8"), "text/plain; charset=utf-8"

    @staticmethod
    def _json(status: int, payload: Dict[str, Any]) -> tuple:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        return status, body, "application/json; charset=utf-8"

    def _health(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
        }
        if self.engine is not None:
            # An in-process engine exposes the index object; a ServePool
            # only knows the kind tag (its indexes live in the workers).
            index = getattr(self.engine, "index", None)
            payload["index_kind"] = (
                type(index).__name__ if index is not None
                else str(getattr(self.engine, "index_kind", "unknown"))
            )
            n_workers = getattr(self.engine, "n_workers", None)
            if n_workers is not None:
                payload["workers"] = int(n_workers)
            payload["queries_total"] = (
                self.metrics.counter("queries_total").value
            )
        payload.update(self.health_extra)
        return payload

    def _parse_query(self, params: Dict[str, list]):
        """Build a query object from HTTP parameters.

        Scalar fields pass straight through to
        :func:`~repro.core.querykind.query_from_json` (which parses the
        strings); the compound ones use flat encodings —
        ``targets=1,2,3``, ``waypoints=x:y;x:y``, ``costs=node:cost,...``
        — since query strings have no nesting.
        """
        obj: Dict[str, Any] = {
            key: vals[0] for key, vals in params.items() if vals
        }
        if "targets" in obj:
            obj["targets"] = [t for t in str(obj["targets"]).split(",") if t]
        if "waypoints" in obj:
            pts = []
            for part in str(obj["waypoints"]).split(";"):
                part = part.strip()
                if not part:
                    continue
                xy = part.split(":")
                if len(xy) != 2:
                    raise QueryError(
                        f"waypoints must be x:y pairs separated by ';', "
                        f"got {part!r}"
                    )
                pts.append([xy[0], xy[1]])
            obj["waypoints"] = pts
        if "costs" in obj:
            pairs = []
            for part in str(obj["costs"]).split(","):
                part = part.strip()
                if not part:
                    continue
                nc = part.split(":")
                if len(nc) != 2:
                    raise QueryError(
                        f"costs must be node:cost pairs separated by ',', "
                        f"got {part!r}"
                    )
                pairs.append([nc[0], nc[1]])
            obj["costs"] = pairs
        return query_from_json(obj, self.default_k)

    def _query(self, params: Dict[str, list]) -> tuple:
        if self.engine is None:
            return self._json(
                404, {"error": "no engine attached; /query is disabled"}
            )
        try:
            query = self._parse_query(params)
        except (ReproError, ValueError, TypeError) as exc:
            return self._json(400, {"error": str(exc)})
        try:
            served = self.engine.query(query)
        except ReproError as exc:
            return self._json(400, {"error": str(exc)})
        return self._json(200 if served.ok else 500, served_row(query, served))

    # -- lifecycle -----------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "ObsHttpServer":
        """Serve on a daemon thread (for tests and embedding)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-obs-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``serve-http`` mode)."""
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
