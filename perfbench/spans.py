"""In-memory span recorder that wraps the program's public entry points.

The benchmark measures layers from outside: :class:`SpanRecorder`
replaces public functions and methods of :mod:`repro` with thin wrappers
that record a span ``(layer, start, end, parent, request id, phase,
work)`` around each call, and puts the originals back when the traced
phase ends.  Nothing inside ``src/`` changes.

Functions that :mod:`repro.core.ris_da` and friends import *by name* are
wrapped where they are looked up (``repro.core.ris_da.weighted_greedy_cover``,
not ``repro.ris.coverage.weighted_greedy_cover``).

A call of a layer made while a span of the same layer is already open
(``sample_batch`` calling ``regenerate``, ``observe_stage_seconds``
calling ``observe``) records no span of its own, so busy times never
count the same interval twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, List, Optional

# Span record fields (plain lists keep a 100k-span trace cheap).
NAME, START, END, PARENT, REQUEST, PHASE, WORK = range(7)


def _cover_work(args, kwargs, result) -> dict:
    t = result.timings
    return {
        "prefix": int(kwargs.get("prefix") or 0),
        "score_build": t.score_build if t else 0.0,
        "selection": t.selection if t else 0.0,
        "bound": t.bound if t else 0.0,
    }


def _batch_work(args, kwargs, result) -> dict:
    return {"samples": int(args[1] if len(args) > 1 else kwargs["count"])}


def _one_sample(args, kwargs, result) -> dict:
    return {"samples": 1}


def _cache_get_work(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _patch_table():
    """``(owner, attribute, layer, work-extractor)`` for every wrapped call."""
    import repro.core.multi_location as multi_location
    import repro.core.ris_da as ris_da
    import repro.network.datasets as datasets
    import repro.serve.engine as engine
    import repro.stream.delta as delta
    from repro.core.mia_da import MiaDaIndex
    from repro.geo.kdtree import KDTree
    from repro.geo.voronoi import VoronoiDiagram
    from repro.geo.weights import DistanceDecay
    from repro.obs.slo import SloTracker
    from repro.obs.slowlog import SlowQueryLog
    from repro.ris.corpus import RRCorpus
    from repro.ris.coupled import CoupledRRSampler
    from repro.serve.cache import ResultCache
    from repro.serve.metrics import MetricsRegistry

    return [
        # Set-up layers.
        (datasets, "load_dataset", "network.generate", None),
        (CoupledRRSampler, "sample_batch", "ris.sampler", _batch_work),
        (CoupledRRSampler, "regenerate", "ris.sampler", _one_sample),
        (ris_da, "lb_est", "ris.lower_bound", None),
        (RRCorpus, "inverted", "ris.corpus.inverted", None),
        (VoronoiDiagram, "__init__", "geo.voronoi", None),
        (MiaDaIndex, "__init__", "mia.build", None),
        # Online query body.
        (ris_da.RisDaIndex, "query", "core.ris_da.query", None),
        (ris_da.RisDaIndex, "query_masked", "core.ris_da.query", None),
        (ris_da.RisDaIndex, "query_budgeted", "core.ris_da.query", None),
        (ris_da.RisDaIndex, "query_trajectory", "core.ris_da.query", None),
        (multi_location, "multi_location_query", "core.ris_da.query", None),
        (KDTree, "nearest", "core.ris_da.sizing", None),
        (ris_da, "lemma8_lower_bound", "core.ris_da.sizing", None),
        (ris_da, "required_sample_size", "core.ris_da.sizing", None),
        (multi_location, "required_sample_size", "core.ris_da.sizing", None),
        (DistanceDecay, "weights", "geo.weights", None),
        (multi_location, "multi_location_weights", "geo.weights", None),
        (ris_da, "weighted_greedy_cover", "ris.coverage", _cover_work),
        (ris_da, "weighted_budgeted_cover", "ris.coverage", _cover_work),
        (multi_location, "weighted_greedy_cover", "ris.coverage", _cover_work),
        (MiaDaIndex, "query", "core.mia_da.query", None),
        # Serving layer.
        (engine.QueryEngine, "query", "serve.engine.query", None),
        (engine.QueryEngine, "apply_update", "serve.engine.update", None),
        (engine, "heuristic_ladder", "core.heuristics", None),
        (ResultCache, "get", "serve.cache", _cache_get_work),
        (ResultCache, "put", "serve.cache", None),
        (MetricsRegistry, "inc", "obs.sinks", None),
        (MetricsRegistry, "observe", "obs.sinks", None),
        (MetricsRegistry, "set_gauge", "obs.sinks", None),
        (MetricsRegistry, "observe_stage_seconds", "obs.sinks", None),
        (SloTracker, "record_query", "obs.sinks", None),
        (SlowQueryLog, "record", "obs.sinks", None),
        # Streaming update.
        (ris_da.RisDaIndex, "update", "core.ris_da.update", None),
        (delta, "apply_delta", "stream.apply_delta", None),
    ]


class SpanRecorder:
    """Collects spans in memory; :meth:`patched` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self.request = -1
        self._stack: List[int] = []

    def _record(self, name: str, fn: Callable, args, kwargs,
                work: Optional[Callable]):
        stack = self._stack
        if stack and self.spans[stack[-1]][NAME] == name:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                self.request, self.phase, None]
        self.spans.append(span)
        stack.append(idx)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
        if work is not None:
            span[WORK] = work(args, kwargs, result)
        return result

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span of the benchmark's own (no patching)."""
        return self._record(name, fn, args, kwargs, None)

    def _wrap(self, name: str, fn: Callable, work: Optional[Callable]):
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(name, fn, args, kwargs, work)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every entry point for the ``with`` block, then restore."""
        saved = []
        try:
            for owner, attr, layer, work in _patch_table():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Layer report
# ----------------------------------------------------------------------

def _dur(span) -> float:
    return span[END] - span[START]


def layer_report(spans: List[list]) -> Dict[str, float]:
    """Per-layer busy/self times and work counts from one traced run.

    Set-up layers (``network.generate``, ``ris.lower_bound``,
    ``geo.voronoi``, ``mia.build``, and the benchmark's own
    ``core.persistence.save`` / ``serve.pool.spawn`` spans) are summed
    over the phase they occur in; ``ris.sampler`` and
    ``ris.corpus.inverted`` run both at build time and inside streaming
    updates, so they are summed over the whole traced run.  Every
    other layer is summed over the traced ``window`` phase only, so the
    build's own calls of shared helpers (the pivot phase runs the greedy
    cover too) do not leak into query-time figures.
    """
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] = (
                child_time.get(span[PARENT], 0.0) + _dur(span)
            )

    def self_time(i: int) -> float:
        return _dur(spans[i]) - child_time.get(i, 0.0)

    def busy(name, phase=None) -> float:
        return sum(_dur(s) for s in spans
                   if s[NAME] == name and (phase is None or s[PHASE] == phase))

    window = [i for i, s in enumerate(spans) if s[PHASE] == "window"]
    ris_queries = {i for i in window if spans[i][NAME] == "core.ris_da.query"}
    # Direct children of a query call, by layer; time under no named
    # layer is the query's unattributed rest.
    under_query: Dict[str, float] = {}
    for i in window:
        s = spans[i]
        if s[PARENT] in ris_queries:
            under_query[s[NAME]] = under_query.get(s[NAME], 0.0) + _dur(s)
    query_s = sum(_dur(spans[i]) for i in ris_queries)
    attributed = sum(under_query.get(name, 0.0) for name in (
        "core.ris_da.sizing", "geo.weights", "ris.coverage"))

    covers = [spans[i] for i in window if spans[i][NAME] == "ris.coverage"]
    sampler = [s for s in spans if s[NAME] == "ris.sampler"]
    samples = sum(s[WORK]["samples"] for s in sampler if s[WORK])
    sampler_s = sum(_dur(s) for s in sampler)
    inverted = [i for i, s in enumerate(spans)
                if s[NAME] == "ris.corpus.inverted"]
    lookups = [spans[i] for i in window if spans[i][NAME] == "serve.cache"
               and spans[i][WORK] is not None]
    hits = sum(1 for s in lookups if s[WORK]["hit"])
    sinks = [i for i in window if spans[i][NAME] == "obs.sinks"]

    return {
        "network.generate_s": busy("network.generate", "setup"),
        "ris.sampler.busy_s": sampler_s,
        "ris.sampler.samples": float(samples),
        "ris.sampler.samples_per_s": samples / sampler_s if sampler_s else 0.0,
        "ris.lower_bound.busy_s": busy("ris.lower_bound", "setup"),
        "ris.corpus.inverted_s": sum(self_time(i) for i in inverted),
        "ris.corpus.inverted_calls": float(len(inverted)),
        "geo.voronoi.busy_s": busy("geo.voronoi", "setup"),
        "mia.build_s": busy("mia.build", "setup"),
        "core.persistence.save_s": busy("core.persistence.save"),
        "serve.pool.spawn_s": busy("serve.pool.spawn"),
        "core.ris_da.query_s": query_s,
        "core.ris_da.sizing_s": under_query.get("core.ris_da.sizing", 0.0),
        "geo.weights.busy_s": under_query.get("geo.weights", 0.0),
        "ris.coverage.busy_s": under_query.get("ris.coverage", 0.0),
        "ris.coverage.score_build_s": sum(s[WORK]["score_build"]
                                          for s in covers),
        "ris.coverage.selection_s": sum(s[WORK]["selection"] for s in covers),
        "ris.coverage.calls": float(len(covers)),
        "ris.coverage.samples_scanned": float(sum(s[WORK]["prefix"]
                                                  for s in covers)),
        "core.ris_da.unattributed_frac": (
            (query_s - attributed) / query_s if query_s else 0.0
        ),
        "core.mia_da.query_s": busy("core.mia_da.query", "window"),
        "serve.cache.lookups": float(len(lookups)),
        "serve.cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "serve.engine.self_s": sum(self_time(i) for i in window
                                   if spans[i][NAME] == "serve.engine.query"),
        "obs.sinks.busy_s": sum(_dur(spans[i]) for i in sinks),
        "obs.sinks.calls": float(len(sinks)),
        "core.heuristics.busy_s": busy("core.heuristics", "window"),
        "stream.apply_delta_s": busy("stream.apply_delta", "window"),
        "stream.index_update_s": busy("core.ris_da.update", "window"),
        "serve.engine.update_self_s": sum(
            self_time(i) for i in window
            if spans[i][NAME] == "serve.engine.update"
        ),
    }


def span_rows(spans: List[list]) -> List[list]:
    """The spans as JSON-ready rows (start/end in microseconds from t0)."""
    if not spans:
        return []
    t0 = min(s[START] for s in spans)
    return [
        [s[NAME], round((s[START] - t0) * 1e6, 1),
         round((s[END] - t0) * 1e6, 1), s[PARENT], s[REQUEST], s[PHASE],
         s[WORK]]
        for s in spans
    ]
