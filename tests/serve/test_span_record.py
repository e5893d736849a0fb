"""The span record of each served query, serially and in a threaded batch.

A cache miss exports one ``serve.query`` root, one ``index.query`` child
and one synthetic ``stage.<name>`` grandchild per non-``total`` stage,
laid out in sequence from the ``index.query`` start; a result-cache hit
exports a single root marked ``cached`` with no children.
"""

import dataclasses
import re

import pytest

from repro.core.ris_da import QueryTimings, RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.obs.trace import DEFAULT_MAX_FINISHED, Tracer
from repro.serve.engine import QueryEngine, ServeConfig
from repro.serve.metrics import MetricsRegistry

STAGES = tuple(
    f"stage.{f.name}" for f in dataclasses.fields(QueryTimings)
    if f.name != "total"
)

#: Far enough apart to fall in distinct result-cache cells.
POINTS = [(10.0, 10.0), (30.0, 70.0), (60.0, 40.0), (90.0, 85.0)]


@pytest.fixture(scope="module")
def index(small_net):
    cfg = RisDaConfig(
        k_max=4, n_pivots=5, epsilon_pivot=0.45,
        max_index_samples=4000, seed=6,
    )
    return RisDaIndex(small_net, DistanceDecay(alpha=0.02), cfg)


def engine_over(index, n_threads=1):
    return QueryEngine(
        index, config=ServeConfig(n_threads=n_threads),
        metrics=MetricsRegistry(), tracer=Tracer(),
    )


def check_miss(spans):
    roots = [s for s in spans if s["parent_id"] is None]
    assert [r["name"] for r in roots] == ["serve.query"]
    root = roots[0]
    assert "cached" not in root["attributes"]
    children = [s for s in spans if s["parent_id"] == root["span_id"]]
    assert [c["name"] for c in children] == ["index.query"]
    call = children[0]
    stages = [s for s in spans if s["parent_id"] == call["span_id"]]
    assert tuple(s["name"] for s in stages) == STAGES
    assert len(spans) == 2 + len(STAGES)
    offset = 0.0
    for stage in stages:
        assert stage["attributes"] == {"synthetic": True}
        assert stage["trace_id"] == root["trace_id"]
        assert stage["start_unix"] == call["start_unix"] + offset / 1e3
        offset += stage["duration_ms"]


def check_hit(spans):
    assert len(spans) == 1
    root = spans[0]
    assert root["name"] == "serve.query" and root["parent_id"] is None
    assert root["attributes"]["cached"] is True


def check_ids(tracer):
    ids = [s["span_id"] for s in tracer.finished_spans]
    assert all(re.fullmatch(r"[0-9a-f]{16}", i) for i in ids)
    assert len(set(ids)) == len(ids)


class TestSpanRecord:
    def test_serial_miss_then_hit(self, index):
        engine = engine_over(index)
        for x, y in POINTS:
            miss = engine.query((x, y), 3)
            hit = engine.query((x, y), 3)
            assert not miss.cached and hit.cached
            check_miss(engine.tracer.spans_for_trace(miss.trace_id))
            check_hit(engine.tracer.spans_for_trace(hit.trace_id))
        check_ids(engine.tracer)

    def test_two_thread_batch(self, index):
        engine = engine_over(index, n_threads=2)
        misses = engine.serve_batch(POINTS, k=3)
        hits = engine.serve_batch(POINTS, k=3)
        assert not any(s.cached for s in misses)
        assert all(s.cached for s in hits)
        for served in misses:
            check_miss(engine.tracer.spans_for_trace(served.trace_id))
        for served in hits:
            check_hit(engine.tracer.spans_for_trace(served.trace_id))
        check_ids(engine.tracer)

    def test_spans_dropped_when_ring_wraps(self, index):
        engine = engine_over(index)
        tracer = engine.tracer
        assert tracer.max_finished == DEFAULT_MAX_FINISHED
        per_miss = 2 + len(STAGES)
        engine.query(POINTS[0], 3)
        for _ in range(DEFAULT_MAX_FINISHED):
            assert engine.query(POINTS[0], 3).cached
        assert tracer.spans_dropped == per_miss
        last = engine.query(POINTS[1], 3)
        assert not last.cached
        assert tracer.spans_dropped == 2 * per_miss
        assert len(tracer.finished_spans) == DEFAULT_MAX_FINISHED
        check_miss(tracer.spans_for_trace(last.trace_id))
