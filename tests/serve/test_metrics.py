"""Tests for repro.serve.metrics (counters, histograms, report format)."""

import math
import sys
import threading
import time

import pytest

from repro.serve.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_MS,
    RATIO_BUCKETS,
    Histogram,
    MetricsRegistry,
)


def linear_bucket(buckets, value: float) -> int:
    """The bucket rule ``Histogram.observe`` had as a linear scan.

    The first ``i`` with ``value <= buckets[i]`` (the +inf slot past the
    last bound); NaN fails every ``value > bound`` test and so lands in
    bucket 0.
    """
    i = 0
    while i < len(buckets) and value > buckets[i]:
        i += 1
    return i


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        m = MetricsRegistry()
        c = m.counter("queries_total")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_same_name_same_instrument(self):
        m = MetricsRegistry()
        m.inc("hits")
        m.inc("hits")
        assert m.counter("hits").value == 2


class TestHistogram:
    def test_bucket_assignment(self):
        m = MetricsRegistry()
        h = m.histogram("latency_ms", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # <=1: {0.5, 1.0}; <=10: {5.0}; <=100: {50.0}; +inf: {500.0}
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 500.0
        assert h.mean == pytest.approx((0.5 + 1 + 5 + 50 + 500) / 5)

    def test_default_buckets_by_name(self):
        m = MetricsRegistry()
        assert m.histogram("latency_ms").buckets == LATENCY_BUCKETS_MS
        assert m.histogram("samples_used").buckets == COUNT_BUCKETS

    def test_quantiles_bracket_observations(self):
        m = MetricsRegistry()
        h = m.histogram("x_ms", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 3.0, 6.0):
            h.observe(v)
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        assert h.quantile(1.0) == pytest.approx(6.0)

    def test_empty_quantile_is_zero(self):
        m = MetricsRegistry()
        assert m.histogram("empty_ms").quantile(0.5) == 0.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (), threading.Lock())
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0), threading.Lock())

    def test_bad_quantile_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.histogram("x_ms").quantile(1.5)


class TestHistogramEdgeCases:
    def test_empty_histogram_all_quantiles_zero(self):
        m = MetricsRegistry()
        h = m.histogram("empty_ms")
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.quantile(q) == 0.0
        assert h.count == 0
        assert h.mean == 0.0

    def test_single_observation(self):
        m = MetricsRegistry()
        h = m.histogram("one_ms", buckets=(1.0, 10.0))
        h.observe(3.0)
        assert h.count == 1
        assert h.min == h.max == 3.0
        assert h.mean == pytest.approx(3.0)
        # Every quantile of a single sample brackets that sample's bucket.
        for q in (0.0, 0.5, 1.0):
            assert 1.0 <= h.quantile(q) <= 10.0

    def test_overflow_bucket_observations(self):
        m = MetricsRegistry()
        h = m.histogram("over_ms", buckets=(1.0, 2.0))
        h.observe(1e9)
        h.observe(2e9)
        # Both land in +inf; counts has one slot per finite bucket + 1.
        assert h.counts == [0, 0, 2]
        assert h.max == 2e9
        # Quantiles from the overflow bucket stay finite (interpolation
        # is clamped by the observed max, not the infinite edge).
        for q in (0.5, 0.99, 1.0):
            value = h.quantile(q)
            assert value == value and value != float("inf")
        assert h.quantile(1.0) == pytest.approx(2e9)

    def test_dump_prometheus_round_trip(self):
        from repro.obs.prom import parse_prometheus, render_prometheus

        m = MetricsRegistry()
        m.inc("queries_total", 2)
        for v in (0.5, 5.0, 500.0):
            m.observe("latency_ms", v)
        dump = m.dump()
        parsed = parse_prometheus(render_prometheus(m))
        # The counter and histogram aggregates survive the text format.
        assert parsed.value("repro_queries_total") == dump["counters"][
            "queries_total"
        ]
        hist = dump["histograms"]["latency_ms"]
        assert parsed.value("repro_latency_ms_count") == hist["count"]
        assert parsed.value("repro_latency_ms_sum") == pytest.approx(
            hist["sum"]
        )
        assert parsed.value("repro_latency_ms_min") == hist["min"]
        assert parsed.value("repro_latency_ms_max") == hist["max"]
        # Cumulative bucket counts match the per-bucket dump, accumulated.
        cumulative = 0
        for bucket in hist["buckets"]:
            cumulative += bucket["count"]
            le = "+Inf" if bucket["le"] == float("inf") else (
                str(int(bucket["le"]))
                if bucket["le"] == int(bucket["le"])
                else repr(bucket["le"])
            )
            assert parsed.value("repro_latency_ms_bucket", le=le) == (
                cumulative
            )


class TestDumpAndReport:
    def test_dump_structure(self):
        m = MetricsRegistry()
        m.inc("queries_total", 3)
        m.observe("latency_ms", 2.0)
        snap = m.dump()
        assert snap["counters"] == {"queries_total": 3}
        hist = snap["histograms"]["latency_ms"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(2.0)
        assert sum(b["count"] for b in hist["buckets"]) == 1
        assert hist["buckets"][-1]["le"] == float("inf")

    def test_report_shows_everything(self):
        m = MetricsRegistry()
        m.inc("result_cache.hits", 5)
        m.inc("result_cache.misses", 2)
        for v in (0.3, 1.1, 4.2, 40.0):
            m.observe("latency_ms", v)
        text = m.report()
        assert "result_cache.hits" in text and "5" in text
        assert "result_cache.misses" in text
        assert "latency_ms" in text
        assert "count=4" in text
        assert "p95=" in text
        assert "#" in text  # histogram bars

    def test_empty_histogram_reported(self):
        m = MetricsRegistry()
        m.histogram("never_ms")
        assert "never_ms: count=0" in m.report()


class TestBucketRule:
    """``Histogram.observe`` picks the bucket the linear rule picked."""

    @staticmethod
    def probes(buckets):
        values = [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]
        for bound in buckets:
            values += [bound, math.nextafter(bound, -math.inf),
                       math.nextafter(bound, math.inf)]
        return values

    @pytest.mark.parametrize(
        "buckets", [LATENCY_BUCKETS_MS, COUNT_BUCKETS, RATIO_BUCKETS],
        ids=["latency", "count", "ratio"],
    )
    def test_matches_linear_rule(self, buckets):
        for value in self.probes(buckets):
            h = Histogram("h", buckets, threading.Lock())
            h.observe(value)
            expected = [0] * (len(buckets) + 1)
            expected[linear_bucket(buckets, value)] = 1
            assert h.counts == expected, value

    def test_nan_keeps_min_max(self):
        h = Histogram("h", RATIO_BUCKETS, threading.Lock())
        h.observe(0.5)
        h.observe(math.nan)
        assert h.min == 0.5 and h.max == 0.5
        assert h.counts[0] == 1 and h.count == 2


class YieldOnMiss(dict):
    """A dict whose failed ``get`` sleeps briefly before returning."""

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is default:
            time.sleep(1e-4)
        return value


class TestThreadSafety:
    def test_concurrent_updates_are_lossless(self):
        m = MetricsRegistry()
        rounds = 200

        def work():
            for _ in range(rounds):
                m.inc("n")
                m.observe("v_ms", 1.0)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n").value == 8 * rounds
        assert m.histogram("v_ms").count == 8 * rounds

    def test_concurrent_creation_makes_one_instrument_per_name(self):
        # Instruments are looked up without the lock and created under
        # it: threads racing to create one name must share it.  Failed
        # lookups yield the GIL, which widens the check-then-create
        # window: creating without a re-check under the lock then loses
        # counts here.
        m = MetricsRegistry()
        m._counters = YieldOnMiss()
        m._histograms = YieldOnMiss()
        n_threads, calls, n_names = 4, 10_000, 50
        start = threading.Barrier(n_threads)
        seen = [dict() for _ in range(n_threads)]

        def work(t):
            start.wait()
            for i in range(calls):
                name = f"c{i % n_names}"
                m.inc(name)
                m.observe(f"h{i % n_names}_ms", 1.0)
                if i < n_names:
                    seen[t][name] = (m.counter(name),
                                     m.histogram(f"h{i}_ms"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        dump = m.dump()
        per_name = n_threads * calls // n_names
        assert dump["counters"] == {f"c{i}": per_name for i in range(n_names)}
        assert {name: h["count"] for name, h in dump["histograms"].items()} \
            == {f"h{i}_ms": per_name for i in range(n_names)}
        for name in seen[0]:
            assert all(s[name][0] is seen[0][name][0] for s in seen)
            assert all(s[name][1] is seen[0][name][1] for s in seen)


class TestMergeDump:
    def test_counters_add_and_histograms_combine(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("queries_total", 3)
        a.observe("latency_ms", 2.0)
        b.inc("queries_total", 2)
        b.inc("fallbacks")
        b.observe("latency_ms", 40.0)
        b.observe("latency_ms", 1.0)
        a.merge_dump(b.dump())
        assert a.counter("queries_total").value == 5
        assert a.counter("fallbacks").value == 1
        h = a.histogram("latency_ms")
        assert h.count == 3
        assert h.min == 1.0 and h.max == 40.0
        assert abs(h.total - 43.0) < 1e-9
        assert sum(h.counts) == 3

    def test_prefix_keeps_sources_apart(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.inc("queries_total", 10)
        worker.inc("queries_total", 4)
        worker.observe("latency_ms", 3.0)
        parent.merge_dump(worker.dump(), prefix="worker.")
        assert parent.counter("queries_total").value == 10
        assert parent.counter("worker.queries_total").value == 4
        assert parent.histogram("worker.latency_ms").count == 1

    def test_repeated_merge_accumulates(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.inc("queries_total", 2)
        parent.merge_dump(worker.dump())
        parent.merge_dump(worker.dump())
        assert parent.counter("queries_total").value == 4

    def test_mismatched_buckets_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("x", buckets=[1.0, 2.0])
        b.observe("x", 0.5, buckets=[5.0])
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge_dump(b.dump())


def _uncached_observe_stage_seconds(registry, stages, prefix="stage_"):
    """The stage observation as it was before names were cached: every
    call formats each name afresh."""
    for stage, seconds in stages.items():
        registry.observe(f"{prefix}{stage}_ms", float(seconds) * 1e3)


class TestStageNameCache:
    """Cached stage names must render exactly what formatting gives."""

    def test_engine_fed_exposition_is_byte_identical(self, small_net):
        from repro.core.mia_da import MiaDaConfig, MiaDaIndex
        from repro.core.ris_da import RisDaConfig, RisDaIndex
        from repro.geo.weights import DistanceDecay
        from repro.obs.prom import render_prometheus
        from repro.serve.engine import QueryEngine, ServeConfig

        decay = DistanceDecay(alpha=0.02)
        ris = RisDaIndex(small_net, decay, RisDaConfig(
            k_max=5, n_pivots=4, max_index_samples=4000, seed=3))
        mia = MiaDaIndex(small_net, decay, MiaDaConfig(n_anchors=6, tau=16))
        fed = MetricsRegistry()
        calls = []
        observe = fed.observe_stage_seconds

        def spy(stages, prefix="stage_"):
            calls.append((dict(stages), prefix))
            observe(stages, prefix=prefix)

        fed.observe_stage_seconds = spy
        cfg = ServeConfig(result_cache_size=0)
        for index in (ris, mia):
            engine = QueryEngine(index, config=cfg, metrics=fed)
            for i in range(6):
                engine.query((20.0 + 10 * i, 50.0), k=1 + i % 5)
        assert calls

        replayed = MetricsRegistry()
        for stages, prefix in calls:
            _uncached_observe_stage_seconds(replayed, stages, prefix)

        def stage_lines(registry):
            return [line for line in render_prometheus(registry).splitlines()
                    if "stage_" in line]

        got, want = stage_lines(fed), stage_lines(replayed)
        assert got and got == want
        names = {n for n in fed.dump()["histograms"] if n.startswith("stage_")}
        assert names == set(replayed.dump()["histograms"])
        # Each stage is one unlabelled histogram, observed once per
        # answer; no per-backend sibling is kept beside it.
        for stage in ("weight_eval", "score_build", "selection", "bound",
                      "total"):
            assert f"stage_{stage}_ms" in names
        assert not any("{" in n for n in names)
        answers = fed.dump()["histograms"]["stage_total_ms"]["count"]
        assert answers == sum(1 for stages, _ in calls if "total" in stages)

    def test_label_sets_and_prefixes_kept_apart(self):
        m = MetricsRegistry()
        m.observe_stage_seconds({"total": 0.001})
        m.observe_stage_seconds({"total": 0.002})
        m.observe_stage_seconds({"total": 0.004}, prefix="mia_")
        with pytest.raises(TypeError):
            m.observe_stage_seconds({"total": 0.003}, labels={"a": "z"})
        h = m.dump()["histograms"]
        assert set(h) == {"stage_total_ms", "mia_total_ms"}
        assert h["stage_total_ms"]["count"] == 2
        assert h["mia_total_ms"]["count"] == 1


