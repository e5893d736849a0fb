"""Tests for the sampling profiler (repro.obs.profile)."""

import threading
import time

import pytest

from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.network.generators import (
    GeoSocialConfig,
    generate_geo_social_network,
)
from repro.obs.profile import (
    DEFAULT_HZ,
    AllocationReport,
    SamplingProfiler,
    allocation_snapshot,
    collapsed_text,
    merge_profile_dumps,
    profile_report,
    span_table,
)
from repro.obs.trace import Tracer, use_tracer


def _busy(stop: threading.Event) -> None:
    x = 0
    while not stop.is_set():
        x += 1


class TestLifecycle:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stack=0)

    def test_start_stop_idempotent(self):
        p = SamplingProfiler(hz=200)
        assert p.start() is p
        assert p.start() is p
        assert p.running
        assert p.stop() is p
        assert p.stop() is p
        assert not p.running

    def test_context_manager_stops(self):
        with SamplingProfiler(hz=200) as p:
            assert p.running
        assert not p.running

    def test_unstarted_profiler_dumps_empty(self):
        dump = SamplingProfiler().dump()
        assert dump["sample_count"] == 0
        assert dump["counts"] == {}
        assert collapsed_text(dump) == ""


class TestSampling:
    def test_captures_busy_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=_busy, args=(stop,), daemon=True)
        worker.start()
        try:
            with SamplingProfiler(hz=500) as p:
                time.sleep(0.25)
        finally:
            stop.set()
            worker.join()
        dump = p.dump()
        assert dump["sample_count"] > 0
        assert dump["thread_samples"] >= dump["sample_count"]
        assert any("_busy" in key for key in dump["counts"])

    def test_span_attribution_prefixes_innermost(self):
        tracer = Tracer()
        with SamplingProfiler(hz=500) as p:
            with use_tracer(tracer):
                with tracer.span("outer.stage"):
                    with tracer.span("inner.stage"):
                        deadline = time.perf_counter() + 0.25
                        while time.perf_counter() < deadline:
                            pass
        dump = p.dump()
        assert dump["span_samples"].get("inner.stage", 0) > 0
        assert "outer.stage" not in dump["span_samples"]
        assert any(
            key.startswith("span:inner.stage;") for key in dump["counts"]
        )

    def test_collapsed_format(self):
        dump = {
            "hz": 100, "sample_count": 3, "thread_samples": 3,
            "duration_s": 0.03,
            "counts": {"a;b": 2, "a;c": 1}, "span_samples": {},
        }
        assert collapsed_text(dump) == "a;b 2\na;c 1\n"

    def test_profiler_excludes_own_thread(self):
        with SamplingProfiler(hz=500) as p:
            time.sleep(0.1)
        assert not any(
            "SamplingProfiler._run" in key for key in p.dump()["counts"]
        )


class TestMerge:
    def test_merge_dumps_sums_counts(self):
        a = {
            "hz": 101, "sample_count": 10, "thread_samples": 12,
            "duration_s": 0.5, "counts": {"x;y": 5, "x;z": 2},
            "span_samples": {"s": 3},
        }
        b = {
            "hz": 101, "sample_count": 4, "thread_samples": 4,
            "duration_s": 0.9, "counts": {"x;y": 1, "q": 3},
            "span_samples": {"s": 1, "t": 2},
        }
        merged = merge_profile_dumps([a, None, b])
        assert merged["sample_count"] == 14
        assert merged["thread_samples"] == 16
        assert merged["counts"] == {"x;y": 6, "x;z": 2, "q": 3}
        assert merged["span_samples"] == {"s": 4, "t": 2}
        # Workers run concurrently: durations overlap, so max not sum.
        assert merged["duration_s"] == 0.9

    def test_merge_empty_defaults_hz(self):
        assert merge_profile_dumps([])["hz"] == DEFAULT_HZ

    def test_profiler_merge_requires_stopped(self):
        p = SamplingProfiler(hz=200).start()
        try:
            with pytest.raises(RuntimeError):
                p.merge({"counts": {"a": 1}})
        finally:
            p.stop()
        p.merge({"sample_count": 2, "counts": {"a": 1}})
        assert p.dump()["counts"]["a"] == 1


class TestReports:
    def test_span_table_ordering_and_share(self):
        dump = {
            "hz": 100, "sample_count": 10, "thread_samples": 10,
            "duration_s": 0.1, "counts": {},
            "span_samples": {"cold": 2, "hot": 8},
        }
        rows = span_table(dump)
        assert [r["span"] for r in rows] == ["hot", "cold"]
        assert rows[0]["share"] == pytest.approx(0.8)
        assert rows[0]["seconds"] == pytest.approx(0.08)

    def test_profile_report_mentions_spans_and_leaves(self):
        dump = {
            "hz": 100, "sample_count": 5, "thread_samples": 5,
            "duration_s": 0.05,
            "counts": {"span:q;mod:f;mod:g": 3, "mod:h": 2},
            "span_samples": {"q": 3},
        }
        text = profile_report(dump)
        assert "q" in text and "mod:g" in text and "mod:h" in text


class TestDeterminismNeutrality:
    def test_selection_identical_with_profiler_on(self):
        """Profiling is observation-only: bit-identical seed sets."""
        net = generate_geo_social_network(
            GeoSocialConfig(
                n=100, avg_out_degree=4.0, extent=100.0, city_std=8.0
            ),
            seed=17,
        )
        decay = DistanceDecay(alpha=0.02)
        cfg = RisDaConfig(
            k_max=5, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=4_000, seed=3,
        )
        queries = [(30.0, 40.0), (60.0, 55.0), (85.0, 20.0)]

        baseline = [
            RisDaIndex(net, decay, cfg).query(q, 4).seeds for q in queries
        ]

        tracer = Tracer()
        with SamplingProfiler(hz=400):
            with use_tracer(tracer):
                with tracer.span("test.determinism"):
                    profiled = [
                        RisDaIndex(net, decay, cfg).query(q, 4).seeds
                        for q in queries
                    ]
        assert profiled == baseline

    def test_unstarted_profiler_leaves_span_tracking_off(self):
        """A profiler that exists but never started costs serving
        nothing: spans skip the per-thread attribution registry."""
        from repro.obs import trace
        from repro.obs.slo import SloTracker
        from repro.serve.engine import QueryEngine

        net = generate_geo_social_network(
            GeoSocialConfig(n=60, avg_out_degree=3.0, extent=100.0),
            seed=17,
        )
        cfg = RisDaConfig(
            k_max=3, n_pivots=4, epsilon_pivot=0.4,
            max_index_samples=2_000, seed=3,
        )
        index = RisDaIndex(net, DistanceDecay(alpha=0.02), cfg)
        profiler = SamplingProfiler()
        engine = QueryEngine(index, slo=SloTracker())
        served = engine.query((50.0, 50.0), k=3)
        assert served.ok and not profiler.running
        assert trace._span_tracking == 0


class TestAllocationSnapshot:
    def test_reports_block_allocations(self):
        with allocation_snapshot(top=5) as report:
            blob = [bytearray(256) for _ in range(2000)]
        assert isinstance(report, AllocationReport)
        assert report.top_stats
        assert report.peak_bytes > 0
        text = report.report()
        assert "allocations" in text
        assert report.rows()[0]["site"]
        del blob

    def test_nests_without_stopping_outer_trace(self):
        import tracemalloc

        with allocation_snapshot():
            with allocation_snapshot():
                pass
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()
