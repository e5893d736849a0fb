"""Tests for repro.serve.engine (caching, batches, timeout fallback)."""

import time

import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import save_mia_index, save_ris_index
from repro.core.query import DaimQuery
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import ServeError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.serve.cache import IndexCache
from repro.serve.engine import QueryEngine, ServeConfig
from repro.serve.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=29,
    )


@pytest.fixture(scope="module")
def decay():
    return DistanceDecay(alpha=0.02)


@pytest.fixture(scope="module")
def ris_index(net, decay):
    cfg = RisDaConfig(
        k_max=6, n_pivots=8, epsilon_pivot=0.4, max_index_samples=10_000,
        seed=3,
    )
    return RisDaIndex(net, decay, cfg)


@pytest.fixture(scope="module")
def mia_index(net, decay):
    return MiaDaIndex(net, decay, MiaDaConfig(n_anchors=10, tau=24, seed=3))


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ServeError):
            ServeConfig(n_threads=0)
        with pytest.raises(ServeError):
            ServeConfig(timeout=0.0)
        with pytest.raises(ServeError):
            ServeConfig(result_cache_size=-1)
        with pytest.raises(ServeError):
            ServeConfig(cache_cells=0)


class TestSingleQuery:
    def test_matches_direct_index_query(self, ris_index):
        engine = QueryEngine(ris_index)
        q = (50.0, 50.0)
        served = engine.query(q, k=4)
        direct = ris_index.query(q, 4)
        assert served.ok and not served.cached and not served.fallback
        assert served.result.seeds == direct.seeds
        assert served.result.estimate == pytest.approx(direct.estimate)

    def test_mia_index_served_identically(self, mia_index):
        engine = QueryEngine(mia_index)
        served = engine.query((40.0, 60.0), k=3)
        direct = mia_index.query((40.0, 60.0), 3)
        assert served.ok
        assert served.result.seeds == direct.seeds

    def test_bare_location_requires_k(self, ris_index):
        with pytest.raises(ServeError):
            QueryEngine(ris_index).query((1.0, 2.0))

    def test_query_error_becomes_error_result(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        served = engine.query((50.0, 50.0), k=999)  # k > k_max
        assert not served.ok
        assert served.result is None
        assert "k must be" in served.error
        assert metrics.counter("errors").value == 1


class TestResultCache:
    def test_repeat_query_hits_cache(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        first = engine.query((50.0, 50.0), k=4)
        second = engine.query((50.0, 50.0), k=4)
        assert not first.cached and second.cached
        assert second.result is first.result
        assert metrics.counter("result_cache.hits").value == 1
        assert metrics.counter("result_cache.misses").value == 1

    def test_nearby_queries_share_a_cell(self, ris_index):
        engine = QueryEngine(ris_index)
        first = engine.query((50.0, 50.0), k=4)
        # Well inside the same grid cell (extent 100, 4096 cells -> ~1.6
        # units per cell side; 1e-4 is far below that).
        second = engine.query((50.0001, 50.0001), k=4)
        assert second.cached
        assert second.result is first.result

    def test_different_k_is_a_different_key(self, ris_index):
        engine = QueryEngine(ris_index)
        engine.query((50.0, 50.0), k=4)
        other = engine.query((50.0, 50.0), k=5)
        assert not other.cached

    def test_cache_disabled(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index, config=ServeConfig(result_cache_size=0),
            metrics=metrics,
        )
        engine.query((50.0, 50.0), k=4)
        second = engine.query((50.0, 50.0), k=4)
        assert not second.cached
        assert metrics.counter("result_cache.hits").value == 0

    def test_latency_and_samples_metrics_recorded(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        engine.query((50.0, 50.0), k=4)
        assert metrics.histogram("latency_ms").count == 1
        assert metrics.histogram("samples_used").count == 1
        assert metrics.counter("queries_total").value == 1

    def test_stage_timings_exported_per_query(self, ris_index):
        """Each uncached query feeds its per-stage breakdown into
        stage_*_ms histograms; cache hits add nothing."""
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        engine.query((50.0, 50.0), k=4)
        engine.query((10.0, 80.0), k=4)
        engine.query((50.0, 50.0), k=4)  # cache hit: no new stage samples
        for stage in (
            "sizing", "weight_eval", "score_build", "selection", "bound",
            "total",
        ):
            h = metrics.histogram(f"stage_{stage}_ms")
            assert h.count == 2, f"stage_{stage}_ms missing observations"
            assert h.min >= 0.0
        dump = metrics.dump()
        assert "stage_selection_ms" in dump["histograms"]
        assert "stage_selection_ms" in metrics.report()


class TestServeBatch:
    def test_batch_matches_looped_queries(self, ris_index):
        engine = QueryEngine(
            ris_index, config=ServeConfig(n_threads=4, result_cache_size=0)
        )
        locations = [(20.0, 20.0), (50.0, 50.0), (80.0, 30.0)]
        batch = engine.serve_batch(locations, k=4)
        assert len(batch) == 3
        for loc, served in zip(locations, batch):
            direct = ris_index.query(loc, 4)
            assert served.ok
            assert served.result.seeds == direct.seeds

    def test_empty_batch(self, ris_index):
        assert QueryEngine(ris_index).serve_batch([]) == []

    def test_serial_path_when_single_thread(self, ris_index):
        engine = QueryEngine(ris_index, config=ServeConfig(n_threads=1))
        batch = engine.serve_batch([(10.0, 10.0), (90.0, 90.0)], k=3)
        assert all(s.ok for s in batch)

    def test_error_does_not_poison_batch(self, ris_index):
        engine = QueryEngine(ris_index, config=ServeConfig(result_cache_size=0))
        batch = engine.serve_batch(
            [DaimQuery((50.0, 50.0), 4), DaimQuery((20.0, 20.0), 999)]
        )
        assert batch[0].ok
        assert not batch[1].ok and batch[1].result is None

    def test_warm_batch_is_all_hits(self, ris_index, monkeypatch):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        locations = [(float(x), 50.0) for x in range(0, 100, 10)]
        engine.serve_batch(locations, k=4)
        hits_before = metrics.counter("result_cache.hits").value
        # A hit is answered from memory: the index body never runs.
        answered = []
        real_answer = RisDaIndex._answer
        monkeypatch.setattr(
            RisDaIndex, "_answer",
            lambda self, *a, **kw: answered.append(1)
            or real_answer(self, *a, **kw),
        )
        warm = engine.serve_batch(locations, k=4)
        assert all(s.cached for s in warm)
        assert answered == []
        assert (
            metrics.counter("result_cache.hits").value
            == hits_before + len(locations)
        )


class TestTimeoutFallback:
    def _slow_engine(self, ris_index, monkeypatch):
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index,
            config=ServeConfig(n_threads=2, timeout=0.05, result_cache_size=0),
            metrics=metrics,
        )
        real_query = ris_index.query

        def slow_query(q, k=None, **kwargs):
            time.sleep(0.3)
            return real_query(q, k, **kwargs)

        monkeypatch.setattr(ris_index, "query", slow_query)
        return engine, metrics

    def test_timeout_answers_with_degree_discount(
        self, ris_index, monkeypatch
    ):
        engine, metrics = self._slow_engine(ris_index, monkeypatch)
        batch = engine.serve_batch([(50.0, 50.0), (20.0, 80.0)], k=4)
        assert all(s.ok for s in batch)
        assert all(s.fallback_reason == "timeout" for s in batch)
        assert all(s.result.method == "DegreeDiscount" for s in batch)
        assert all(len(s.result.seeds) == 4 for s in batch)
        assert metrics.counter("timeouts").value == 2
        assert metrics.counter("fallbacks").value == 2
        assert metrics.histogram("fallback_latency_ms").count == 2

    def test_fast_queries_beat_the_deadline(self, ris_index):
        engine = QueryEngine(
            ris_index, config=ServeConfig(n_threads=2, timeout=30.0)
        )
        batch = engine.serve_batch([(50.0, 50.0)], k=4)
        assert batch[0].ok and not batch[0].fallback


class TestObservability:
    def test_every_query_carries_a_trace_id(self, ris_index):
        engine = QueryEngine(ris_index)
        served = engine.query((50.0, 50.0), k=4)
        assert served.trace_id and len(served.trace_id) == 32
        cached = engine.query((50.0, 50.0), k=4)
        assert cached.cached
        assert cached.trace_id and cached.trace_id != served.trace_id

    def test_error_results_carry_a_trace_id(self, ris_index):
        engine = QueryEngine(ris_index)
        served = engine.query((50.0, 50.0), k=999)
        assert not served.ok
        assert served.trace_id

    def test_span_tree_includes_selection_stages(self, ris_index):
        from repro.obs.trace import Tracer, span_tree

        tracer = Tracer()
        engine = QueryEngine(
            ris_index, config=ServeConfig(result_cache_size=0),
            tracer=tracer,
        )
        served = engine.query((50.0, 50.0), k=4)
        spans = tracer.spans_for_trace(served.trace_id)
        (root,) = span_tree(spans)
        assert root["name"] == "serve.query"
        (index_query,) = root["children"]
        assert index_query["name"] == "index.query"
        stage_names = {c["name"] for c in index_query["children"]}
        assert {"stage.weight_eval", "stage.selection"} <= stage_names
        assert "stage.total" not in stage_names

    def test_mia_span_tree_has_bound_setup_stage(self, mia_index):
        from repro.obs.trace import Tracer, span_tree

        tracer = Tracer()
        engine = QueryEngine(
            mia_index, config=ServeConfig(result_cache_size=0),
            tracer=tracer,
        )
        served = engine.query((40.0, 60.0), k=3)
        (root,) = span_tree(tracer.spans_for_trace(served.trace_id))
        (index_query,) = root["children"]
        stage_names = {c["name"] for c in index_query["children"]}
        assert {"stage.bound_setup", "stage.selection"} <= stage_names

    def test_query_events_logged(self, ris_index):
        import io
        import json as json_mod

        from repro.obs.log import JsonLogger

        stream = io.StringIO()
        engine = QueryEngine(ris_index, logger=JsonLogger(stream))
        served = engine.query((51.0, 51.0), k=4)
        events = [
            json_mod.loads(line) for line in stream.getvalue().splitlines()
        ]
        names = [e["event"] for e in events]
        assert names[0] == "query_start"
        assert "query_end" in names
        end = next(e for e in events if e["event"] == "query_end")
        assert end["trace_id"] == served.trace_id

    def test_slow_log_captures_span_tree_and_diagnostics(
        self, ris_index, tmp_path
    ):
        import json as json_mod

        from repro.obs.slowlog import SlowQueryLog

        path = tmp_path / "slow.jsonl"
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index, config=ServeConfig(result_cache_size=0),
            metrics=metrics, slow_log=SlowQueryLog(path, 0.0),
        )
        # Attaching a slow log auto-upgrades the tracer so rows have trees.
        assert engine.tracer.enabled
        served = engine.query((50.0, 50.0), k=4)
        (line,) = path.read_text().splitlines()
        row = json_mod.loads(line)
        assert row["trace_id"] == served.trace_id
        assert row["diagnostics"]["samples_used"] >= 1
        (tree_root,) = row["span_tree"]
        assert tree_root["name"] == "serve.query"
        assert metrics.counter("slow_queries_total").value == 1

    def test_high_threshold_records_nothing(self, ris_index, tmp_path):
        from repro.obs.slowlog import SlowQueryLog

        path = tmp_path / "slow.jsonl"
        slow_log = SlowQueryLog(path, 60_000.0)
        engine = QueryEngine(
            ris_index, config=ServeConfig(result_cache_size=0),
            slow_log=slow_log,
        )
        engine.query((50.0, 50.0), k=4)
        assert slow_log.recorded == 0
        assert not path.exists()


class TestFallbackTagging:
    def _slow_engine(self, ris_index, monkeypatch):
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index,
            config=ServeConfig(
                n_threads=2, timeout=0.05, result_cache_size=0
            ),
            metrics=metrics,
        )
        real_query = ris_index.query

        def slow_query(q, k=None, **kwargs):
            time.sleep(0.3)
            return real_query(q, k, **kwargs)

        monkeypatch.setattr(ris_index, "query", slow_query)
        return engine, metrics

    def test_fallback_results_are_distinguishable(
        self, ris_index, monkeypatch
    ):
        engine, metrics = self._slow_engine(ris_index, monkeypatch)
        (served,) = engine.serve_batch([(50.0, 50.0)], k=4)
        assert served.fallback is True
        assert served.fallback_reason == "timeout"
        assert served.result.method == "DegreeDiscount"
        assert served.trace_id
        assert metrics.counter("serve_fallback_total").value == 1
        # The legacy counter still moves too.
        assert metrics.counter("fallbacks").value == 1
    def test_ris_file_round_trip(self, net, decay, ris_index, tmp_path):
        path = tmp_path / "ris.npz"
        save_ris_index(ris_index, path)
        engine = QueryEngine.from_path(path, net, kind="ris")
        served = engine.query((50.0, 50.0), k=4)
        assert served.ok
        assert served.result.seeds == ris_index.query((50.0, 50.0), 4).seeds
        assert engine.fingerprint == IndexCache.fingerprint(path)

    def test_kind_mismatch_is_a_serve_error(
        self, net, decay, mia_index, tmp_path
    ):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        with pytest.raises(ServeError, match="MIA-DA"):
            QueryEngine.from_path(path, net, kind="ris")

    def test_auto_kind_serves_mia(self, net, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        engine = QueryEngine.from_path(path, net)
        assert engine.query((40.0, 60.0), k=3).ok

    def test_shared_cache_loads_once(self, net, ris_index, tmp_path):
        path = tmp_path / "ris.npz"
        save_ris_index(ris_index, path)
        metrics = MetricsRegistry()
        cache = IndexCache(metrics=metrics)
        e1 = QueryEngine.from_path(path, net, cache=cache, metrics=metrics)
        e2 = QueryEngine.from_path(path, net, cache=cache, metrics=metrics)
        assert e1.index is e2.index
        assert metrics.counter("index_cache.misses").value == 1
        assert metrics.counter("index_cache.hits").value == 1
        # Same file, same fingerprint: the engines share result-cache keys.
        assert e1.fingerprint == e2.fingerprint


class TestDeadlineAnchoring:
    """Regressions for the batch-timeout drift and abandonment fixes."""

    def _delayed_engine(self, ris_index, monkeypatch, delays, **cfg_kwargs):
        """An engine whose index sleeps ``delays[k]`` seconds per query."""
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index,
            config=ServeConfig(n_threads=2, **cfg_kwargs),
            metrics=metrics,
        )
        real_query = ris_index.query

        def slow_query(q, k=None, **kwargs):
            time.sleep(delays.get(k, 0.0))
            return real_query(q, k, **kwargs)

        monkeypatch.setattr(ris_index, "query", slow_query)
        return engine, metrics

    def test_deadline_anchored_at_submission_not_collection(
        self, ris_index, monkeypatch
    ):
        # The collector used to grant each query a *fresh* timeout when
        # it reached it: with timeout=0.25s, waiting 0.25s on a 0.6s
        # first query stretched the second query's effective deadline to
        # ~0.5s, so a 0.4s query wrongly met its SLO.  Anchored at
        # submission, both must time out.
        engine, metrics = self._delayed_engine(
            ris_index, monkeypatch, {4: 0.6, 5: 0.4},
            timeout=0.25, result_cache_size=0,
        )
        batch = engine.serve_batch(
            [DaimQuery((50.0, 50.0), 4), DaimQuery((20.0, 80.0), 5)]
        )
        assert batch[0].fallback_reason == "timeout"
        assert batch[1].fallback_reason == "timeout"
        assert metrics.counter("timeouts").value == 2

    def test_abandoned_run_stays_out_of_metrics_and_cache(
        self, ris_index, monkeypatch
    ):
        engine, metrics = self._delayed_engine(
            ris_index, monkeypatch, {4: 0.3},
            timeout=0.05, result_cache_size=64,
        )
        batch = engine.serve_batch([(50.0, 50.0)], k=4)
        assert batch[0].fallback_reason == "timeout"
        # The worker thread is still computing the discarded answer;
        # wait for it to notice its cancellation token.
        deadline = time.monotonic() + 5.0
        while (
            metrics.counter("abandoned_queries_total").value < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert metrics.counter("abandoned_queries_total").value == 1
        # The abandoned completion must not have recorded a latency (its
        # caller already got the fallback) nor cached its result.
        assert metrics.histogram("latency_ms").count == 0
        served = engine.query((50.0, 50.0), k=4)
        assert not served.cached

    def test_queued_query_never_runs_after_cancellation(
        self, ris_index, monkeypatch
    ):
        # Three slow queries, two threads: the third is still queued
        # when its deadline passes, so it is cancelled outright and must
        # never reach the index; the two in-flight runs are abandoned.
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index,
            config=ServeConfig(n_threads=2, timeout=0.1, result_cache_size=0),
            metrics=metrics,
        )
        real_query = ris_index.query
        calls = []

        def slow_query(q, k=None, **kwargs):
            calls.append(q)
            time.sleep(0.4)
            return real_query(q, k, **kwargs)

        monkeypatch.setattr(ris_index, "query", slow_query)
        batch = engine.serve_batch(
            [(50.0, 50.0), (20.0, 80.0), (70.0, 30.0)], k=4
        )
        assert all(s.fallback_reason == "timeout" for s in batch)
        deadline = time.monotonic() + 5.0
        while (
            metrics.counter("abandoned_queries_total").value < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert metrics.counter("abandoned_queries_total").value == 2
        assert len(calls) == 2  # the queued third query never started


class TestCacheKeyNormalisation:
    def test_daim_query_and_bare_location_share_cache_entry(self, ris_index):
        engine = QueryEngine(ris_index, config=ServeConfig(n_threads=1))
        first = engine.query(DaimQuery((50.0, 50.0), 4))
        assert not first.cached
        # The same point as a bare tuple of ints must normalise to the
        # same quantized cache key as the DaimQuery form.
        second = engine.query((50, 50), k=4)
        assert second.cached
        assert second.result.seeds == first.result.seeds
