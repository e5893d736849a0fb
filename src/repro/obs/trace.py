"""A dependency-free span tracer for builds and queries.

The serving and build layers answer "where did the time go?" with
*spans*: named, timed intervals carrying a trace id, a parent link, and
free-form attributes.  A :class:`Tracer` collects finished spans; its
:meth:`Tracer.export` emits a JSON document (see
``docs/example-trace.json``) that groups one build or one query per
trace.

Design constraints, in order:

* **near-zero disabled cost** — the default tracer is the module
  singleton :data:`NULL_TRACER`, whose :meth:`NullTracer.span` returns a
  pre-allocated no-op context manager: the hot serving path pays one
  attribute load and one method call per query when tracing is off
  (``tests/obs/test_trace.py`` pins the shared no-op span, and
  ``tests/obs/test_profile.py`` that an unstarted profiler leaves span
  tracking off);
* **worker-pool propagation** — spans cannot cross process boundaries as
  objects, so a parent serialises a :func:`span_context` (trace id +
  span id), ships it with the task, and the worker returns a plain span
  *dict* built by :func:`worker_span` that the parent re-parents with
  :meth:`Tracer.adopt`.  Span timestamps come from :func:`wall_now` — a
  wall-clock anchor taken once at import plus a monotonic
  (``perf_counter``) offset — so an NTP step mid-batch cannot skew span
  durations or scramble the ordering of adopted worker spans against the
  parent's timeline;
* **thread-safe collection** — the serving engine traces from pool
  threads; the finished-span list takes a lock per append;
* **bounded retention** — finished spans live in a ring buffer capped at
  ``max_finished`` (default :data:`DEFAULT_MAX_FINISHED`): a long
  ``serve-http`` run keeps the most recent spans instead of growing
  without limit, and :attr:`Tracer.spans_dropped` counts what the cap
  evicted (exported as the ``spans_dropped_total`` gauge at scrape
  time).

Nesting uses a :class:`contextvars.ContextVar`, so spans opened in
``async`` code or in the thread that opened the parent nest correctly;
threads start with no current span and therefore open new roots, which
is exactly what per-query serving wants.

The sampling profiler (:mod:`repro.obs.profile`) cannot read another
thread's contextvars, so while a profiler is running the span
context managers additionally maintain a thread-id -> open-span-name
stack (:func:`thread_span_names`); the registry costs one global int
check per span when no profiler is active.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.env import runtime_info

#: Schema version stamped on every export.
TRACE_SCHEMA_VERSION = 1

#: Default finished-span retention cap (ring buffer; oldest evicted).
DEFAULT_MAX_FINISHED = 20_000

SpanContext = Tuple[str, str]  # (trace_id, span_id)

#: ``stage -> "stage.<stage>"``: the names :meth:`Tracer.record_stages`
#: gives its child spans, each built once.
_STAGE_SPAN_NAMES: Dict[str, str] = {}

_current_span: contextvars.ContextVar[Optional["Span"]] = (
    contextvars.ContextVar("repro_current_span", default=None)
)
_current_tracer: contextvars.ContextVar[Optional["Tracer"]] = (
    contextvars.ContextVar("repro_current_tracer", default=None)
)


# Wall-clock anchor taken once at import; timestamps derive from it via
# monotonic perf_counter offsets so a clock step (NTP, manual set) after
# import cannot skew durations or reorder spans recorded in one process.
_ANCHOR_UNIX = time.time()
_ANCHOR_PERF = time.perf_counter()


# ---------------------------------------------------------------------
# Thread -> open-span registry (profiler span attribution)
# ---------------------------------------------------------------------
#
# contextvars are invisible from other threads, so the sampling profiler
# (repro.obs.profile) attributes stack samples through this registry
# instead: while at least one profiler is running, the span context
# managers push/pop the span name onto a per-thread stack.  List
# append/pop are atomic under the GIL, so the sampler thread reading
# stack[-1] needs no lock; when no profiler is active the registry costs
# a single falsy int check per span.

_THREAD_SPAN_STACKS: Dict[int, List[str]] = {}
_span_tracking = 0  # count of profilers currently asking for attribution


def enable_span_tracking() -> None:
    """Start maintaining the thread -> span-name stacks (refcounted)."""
    global _span_tracking
    _span_tracking += 1


def disable_span_tracking() -> None:
    """Stop maintaining the stacks once no profiler needs them."""
    global _span_tracking
    _span_tracking = max(0, _span_tracking - 1)
    if _span_tracking == 0:
        _THREAD_SPAN_STACKS.clear()


def thread_span_names() -> Dict[int, str]:
    """Snapshot of ``{thread_ident: innermost open span name}``.

    Only meaningful while span tracking is enabled; threads with no open
    span are absent.
    """
    out: Dict[int, str] = {}
    for tid, stack in list(_THREAD_SPAN_STACKS.items()):
        try:
            out[tid] = stack[-1]
        except IndexError:
            continue
    return out


def wall_now() -> float:
    """Monotonic-derived wall-clock seconds (anchor + perf_counter offset).

    Use this instead of ``time.time()`` for span timestamps: successive
    calls never go backwards, and durations computed from two calls are
    exactly ``perf_counter`` differences.
    """
    return _ANCHOR_UNIX + (time.perf_counter() - _ANCHOR_PERF)


def new_id(n_bytes: int = 8) -> str:
    """A random lowercase-hex id (``2 * n_bytes`` chars)."""
    return os.urandom(n_bytes).hex()


def new_trace_id() -> str:
    """A fresh 16-byte trace id, usable with any tracer (or none)."""
    return new_id(16)


class Span:
    """One named, timed interval of a trace.

    Spans are created by :meth:`Tracer.span` (used as context managers:
    entering one makes it the current span, so spans opened inside nest
    under it) or :meth:`Tracer.start_span` (ended explicitly);
    attributes may be added via :meth:`set_attribute`, also after the
    span ended: the finished record shares the attribute dict.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes",
        "start_unix", "duration_ms", "_t0", "_tracer", "_token", "_tracked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Optional[Mapping[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_id()
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        # wall_now() of the same clock reading the duration starts from.
        self._t0 = t0 = time.perf_counter()
        self.start_unix = _ANCHOR_UNIX + (t0 - _ANCHOR_PERF)
        self.duration_ms: Optional[float] = None
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None
        self._tracked = False

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def end(self) -> None:
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._t0) * 1e3
            self._tracer._finish(self)

    @property
    def context(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_ms": self.duration_ms,
            "attributes": self.attributes,
        }

    # -- context manager: maintains the nesting stack ------------------

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        if _span_tracking:
            _THREAD_SPAN_STACKS.setdefault(
                threading.get_ident(), []
            ).append(self.name)
            self._tracked = True
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.set_attribute("error", f"{exc_type.__name__}: {exc}")
        self.end()
        if self._tracked:
            # A profiler stopping mid-span may have cleared the registry;
            # pop defensively rather than assume our frame survived.
            tid = threading.get_ident()
            stack = _THREAD_SPAN_STACKS.get(tid)
            if stack:
                stack.pop()
                if not stack:
                    _THREAD_SPAN_STACKS.pop(tid, None)
        if self._token is not None:
            _current_span.reset(self._token)
        return False


class _NullSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    attributes: Dict[str, Any] = {}
    duration_ms = None

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def end(self) -> None:
        pass

    @property
    def context(self) -> None:  # no context to propagate when disabled
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one process; export as a JSON trace document.

    ``max_finished`` caps the finished-span ring buffer: beyond the cap
    the oldest spans are evicted and :attr:`spans_dropped` counts them,
    so an always-on tracer (a ``serve-http`` sidecar, a profiling worker)
    holds bounded memory no matter how long it runs.
    """

    enabled = True

    def __init__(
        self, service: str = "repro",
        max_finished: int = DEFAULT_MAX_FINISHED,
    ):
        if max_finished < 1:
            raise ValueError(
                f"max_finished must be >= 1, got {max_finished}"
            )
        self.service = service
        self.max_finished = int(max_finished)
        self.spans_dropped = 0
        self._lock = threading.Lock()
        self._finished: Deque[Dict[str, Any]] = deque(maxlen=self.max_finished)

    def _extend(self, rows: List[Dict[str, Any]]) -> None:
        """Append finished-span dicts, accounting for ring eviction.

        Caller must hold ``self._lock``.  The deque's ``maxlen`` does the
        actual eviction; this only counts what fell off the left edge.
        """
        overflow = len(self._finished) + len(rows) - self.max_finished
        if overflow > 0:
            self.spans_dropped += overflow
        self._finished.extend(rows)

    # -- span creation -------------------------------------------------

    def span(
        self,
        name: str,
        attributes: Optional[Mapping[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Span:
        """A context manager opening a child of the current span.

        With no current span (or an explicit ``trace_id``) a new root is
        opened; ``trace_id`` pins the id so callers can stamp results
        before the span closes.
        """
        return self.start_span(name, attributes, trace_id)

    def start_span(
        self,
        name: str,
        attributes: Optional[Mapping[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> Span:
        """Open a span without entering it (caller must ``end()`` it).

        Does not touch the nesting stack — children opened while this
        span is live still parent under the *context-manager* stack.
        """
        parent = _current_span.get()
        if trace_id is not None:
            tid, pid = trace_id, (
                parent.span_id
                if parent is not None and parent.trace_id == trace_id
                else None
            )
        elif parent is not None:
            tid, pid = parent.trace_id, parent.span_id
        else:
            tid, pid = new_trace_id(), None
        return Span(self, name, tid, pid, attributes)

    def _finish(self, span: Span) -> None:
        row = span.to_dict()
        with self._lock:
            self._extend([row])

    # -- worker-span adoption ------------------------------------------

    def adopt(self, spans: Sequence[Optional[Mapping[str, Any]]]) -> None:
        """Accept finished span dicts produced in worker processes.

        Workers build spans with :func:`worker_span` against a
        :func:`span_context` the parent shipped with the task; the dicts
        already carry the right trace id and parent id, so adoption is
        just collection (``None`` entries — untraced chunks — are
        skipped).
        """
        cleaned = [dict(s) for s in spans if s]
        if not cleaned:
            return
        with self._lock:
            self._extend(cleaned)

    def record_stages(
        self,
        parent: Span,
        stages: Mapping[str, float],
        skip: Tuple[str, ...] = ("total",),
    ) -> None:
        """Retrospective child spans from a per-stage seconds breakdown.

        The selection kernels report :class:`SelectionTimings`-style
        ``{stage: seconds}`` dicts after the fact; this lays the stages
        out sequentially from the parent's start so the exported tree
        shows them as children.  Stage spans are marked
        ``synthetic: true`` — their start offsets are reconstructed, only
        their durations are measured.
        """
        kept = [(stage, seconds) for stage, seconds in stages.items()
                if stage not in skip]
        # One random draw covers every span id of the batch.
        ids = os.urandom(8 * len(kept)).hex()
        trace_id, parent_id = parent.trace_id, parent.span_id
        start = parent.start_unix
        offset = 0.0
        rows = []
        for i, (stage, seconds) in enumerate(kept):
            name = _STAGE_SPAN_NAMES.get(stage)
            if name is None:
                name = _STAGE_SPAN_NAMES.setdefault(stage, f"stage.{stage}")
            ms = float(seconds) * 1e3
            rows.append({
                "name": name,
                "trace_id": trace_id,
                "span_id": ids[16 * i:16 * i + 16],
                "parent_id": parent_id,
                "start_unix": start + offset / 1e3,
                "duration_ms": ms,
                "attributes": {"synthetic": True},
            })
            offset += ms
        with self._lock:
            self._extend(rows)

    # -- output --------------------------------------------------------

    @property
    def finished_spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._finished)

    def spans_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [s for s in self._finished if s["trace_id"] == trace_id]

    def export(self) -> Dict[str, Any]:
        """The full trace document: environment + every finished span."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "service": self.service,
            "environment": runtime_info(),
            "spans_dropped": self.spans_dropped,
            "spans": self.finished_spans,
        }

    def export_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh, indent=2, sort_keys=False)
            fh.write("\n")


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False
    service = "repro"
    spans_dropped = 0
    max_finished = 0

    def span(self, name, attributes=None, trace_id=None) -> _NullSpan:
        return NULL_SPAN

    def start_span(self, name, attributes=None, trace_id=None) -> _NullSpan:
        return NULL_SPAN

    def adopt(self, spans) -> None:
        pass

    def record_stages(self, parent, stages, skip=("total",)) -> None:
        pass

    @property
    def finished_spans(self) -> List[Dict[str, Any]]:
        return []

    def spans_for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------
# Ambient tracer
# ---------------------------------------------------------------------

def get_tracer() -> "Tracer | NullTracer":
    """The ambient tracer (:data:`NULL_TRACER` unless one is activated).

    Build code (``RisDaIndex._build``, ``MiaDaIndex``) reads the ambient
    tracer instead of threading a parameter through every constructor;
    the CLI activates a real tracer around a build when ``--trace-out``
    is passed.
    """
    t = _current_tracer.get()
    return t if t is not None else NULL_TRACER


class use_tracer:
    """``with use_tracer(tracer): ...`` — activate an ambient tracer."""

    def __init__(self, tracer: "Tracer | NullTracer"):
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "Tracer | NullTracer":
        self._token = _current_tracer.set(
            self._tracer if self._tracer.enabled else None  # type: ignore[arg-type]
        )
        return self._tracer

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _current_tracer.reset(self._token)
        return False


# ---------------------------------------------------------------------
# Worker-side helpers (picklable plain data only)
# ---------------------------------------------------------------------

def span_context(span: "Span | _NullSpan") -> Optional[SpanContext]:
    """The picklable ``(trace_id, span_id)`` pair to ship to a worker.

    ``None`` when tracing is disabled — workers then skip span bookkeeping
    entirely.
    """
    return span.context


def worker_span(
    name: str,
    ctx: Optional[SpanContext],
    start_unix: float,
    duration_ms: float,
    attributes: Optional[Mapping[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """A finished span *dict* created inside a worker process.

    Returns ``None`` when ``ctx`` is ``None`` (untraced), so call sites
    can pass the result straight back for :meth:`Tracer.adopt`.
    """
    if ctx is None:
        return None
    attrs = dict(attributes or {})
    attrs.setdefault("pid", os.getpid())
    attrs.setdefault("worker", True)
    return {
        "name": name,
        "trace_id": ctx[0],
        "span_id": new_id(),
        "parent_id": ctx[1],
        "start_unix": start_unix,
        "duration_ms": duration_ms,
        "attributes": attrs,
    }


def span_tree(spans: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Nest a flat span list into ``children`` trees (roots returned).

    Orphans (parent id not in the list — e.g. a filtered export) are
    promoted to roots rather than dropped, so partial traces still render.
    """
    nodes: Dict[str, Dict[str, Any]] = {}
    for s in spans:
        node = dict(s)
        node["children"] = []
        nodes[node["span_id"]] = node
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda c: c["start_unix"])
    roots.sort(key=lambda c: c["start_unix"])
    return roots
