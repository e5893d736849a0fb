"""End-to-end serving of the query kinds (engine, sidecar, pool).

The parity suite (``tests/core/test_querykind_parity.py``) proves the
degenerate cases collapse to the point path; this file covers the
serving semantics around the kinds themselves: per-kind metrics and
latency, the heuristic ladder's tagging (requested answers and overload
fallbacks alike), trajectory waypoint results and their cache sharing,
the HTTP sidecar's flat parameter encodings, and mixed-kind batches
through the multi-process pool.
"""

import json
import time
import urllib.request

import pytest

from repro.core.heuristics import heuristic_ladder
from repro.core.persistence import save_ris_index
from repro.core.querykind import (
    BudgetedQuery,
    HeuristicQuery,
    TargetedQuery,
    TrajectoryQuery,
    query_from_json,
)
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.serve.engine import QueryEngine, ServeConfig
from repro.serve.metrics import MetricsRegistry, labelled


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=31,
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
def ris_path(ris_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("qk") / "ris.npz"
    save_ris_index(ris_index, path)
    return path


class TestPerKindMetrics:
    def test_each_kind_counted_and_timed(self, ris_index, net):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        q = (50.0, 50.0)
        engine.query(q, k=3)
        engine.query(TrajectoryQuery(waypoints=(q, (10.0, 10.0)), k=3))
        engine.query(TargetedQuery(location=q, k=3, targets=(0, 1, 2)))
        engine.query(BudgetedQuery(location=q, budget=2.0))
        engine.query(HeuristicQuery(location=q, k=3))
        for kind in ("point", "trajectory", "targeted", "budgeted",
                     "heuristic"):
            name = labelled("serve_queries_total", kind=kind)
            assert metrics.counter(name).value == 1, kind
            lat = labelled("latency_ms", kind=kind)
            assert metrics.histogram(lat).count == 1, kind
        assert metrics.counter("queries_total").value == 5
        assert metrics.counter("trajectory_waypoints_total").value == 2

    def test_latency_histogram_shares_latency_buckets(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        engine.query((50.0, 50.0), k=3)
        plain = metrics.histogram("latency_ms")
        kinded = metrics.histogram(labelled("latency_ms", kind="point"))
        assert plain.buckets == kinded.buckets


class TestNonFiniteBudget:
    """A non-finite budget is a query error at parse time, so the engine
    (``int(budget // min_cost)``) never sees one."""

    @pytest.mark.parametrize("budget", ["inf", "1e400", "nan", "-inf"])
    def test_rejected_at_parse(self, budget):
        row = {"kind": "budgeted", "x": 50, "y": 50, "budget": budget}
        with pytest.raises(QueryError):
            query_from_json(row, 5)


class TestHeuristicKind:
    def test_requested_heuristic_is_tagged_like_fallback(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        served = engine.query(HeuristicQuery(location=(50.0, 50.0), k=4))
        assert served.ok
        assert served.fallback
        assert served.fallback_reason == "requested"
        # Never scored as Eq. 9: the method names the heuristic.
        assert served.result.method == "DegreeDiscount"
        assert metrics.counter(
            labelled("heuristic_rung_total", rung="degree-discount")
        ).value == 1

    def test_zero_budget_walks_down_the_ladder(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        served = engine.query(
            HeuristicQuery(location=(50.0, 50.0), k=4, budget_ms=0.0)
        )
        assert served.ok
        assert served.result.method == "TopWeightedDegree"
        assert metrics.counter(
            labelled("heuristic_rung_total", rung="high-degree")
        ).value == 1

    def test_pinned_level(self, ris_index):
        served = QueryEngine(ris_index).query(
            HeuristicQuery(location=(50.0, 50.0), k=4, level="single-discount")
        )
        assert served.ok
        assert served.result.method == "SingleDiscount"

    def test_heuristic_answers_never_enter_the_cache(self, ris_index):
        engine = QueryEngine(ris_index)
        query = HeuristicQuery(location=(42.0, 42.0), k=4)
        engine.query(query)
        assert not engine.query(query).cached
        # And the point path at the same cell still misses afterwards.
        assert not engine.query((42.0, 42.0), k=4).cached


class TestTrajectoryServing:
    def test_waypoint_results_and_alias(self, ris_index):
        engine = QueryEngine(ris_index)
        wps = ((10.0, 10.0), (50.0, 50.0), (90.0, 90.0))
        served = engine.query(TrajectoryQuery(waypoints=wps, k=3))
        assert served.ok
        assert len(served.waypoint_results) == 3
        assert served.result is served.waypoint_results[-1]

    def test_waypoints_warm_the_point_cache(self, ris_index):
        engine = QueryEngine(ris_index)
        wps = ((15.0, 85.0), (85.0, 15.0))
        engine.query(TrajectoryQuery(waypoints=wps, k=3))
        for wp in wps:
            assert engine.query(wp, k=3).cached

    def test_fully_cached_trajectory(self, ris_index):
        engine = QueryEngine(ris_index)
        query = TrajectoryQuery(waypoints=((33.0, 33.0), (66.0, 66.0)), k=3)
        first = engine.query(query)
        assert not first.cached
        again = engine.query(query)
        assert again.cached
        for a, b in zip(first.waypoint_results, again.waypoint_results):
            assert list(a.seeds) == list(b.seeds)


class TestLadderFallback:
    def _slow_engine(self, ris_index, monkeypatch):
        metrics = MetricsRegistry()
        engine = QueryEngine(
            ris_index,
            config=ServeConfig(n_threads=2, timeout=0.05, result_cache_size=0),
            metrics=metrics,
        )
        for name in ("query", "query_masked", "query_budgeted",
                     "query_trajectory"):
            real = getattr(ris_index, name)

            def slow(*args, _real=real, **kwargs):
                time.sleep(0.3)
                return _real(*args, **kwargs)

            monkeypatch.setattr(ris_index, name, slow)
        return engine, metrics

    def test_ladder_fallback_without_budget_takes_top_rung(
        self, ris_index, net, monkeypatch
    ):
        """A timed-out query answers as the ladder's top rung would."""
        engine, _ = self._slow_engine(ris_index, monkeypatch)
        [served] = engine.serve_batch([(50.0, 50.0)], k=4)
        assert served.ok and served.fallback_reason == "timeout"
        top, rung = heuristic_ladder(net, (50.0, 50.0), 4, engine.decay)
        assert rung == "degree-discount"
        assert served.result.method == top.method
        assert served.result.seeds == top.seeds

    def test_budgeted_fallback_honours_budget_as_k(
        self, ris_index, monkeypatch
    ):
        engine, _ = self._slow_engine(ris_index, monkeypatch)
        query = BudgetedQuery(location=(50.0, 50.0), budget=3.0)
        [served] = engine.serve_batch([query])
        assert served.ok and served.fallback
        assert len(served.result.seeds) == 3  # budget // min cost

    def test_trajectory_fallback_aims_last_waypoint(
        self, ris_index, net, monkeypatch
    ):
        engine, _ = self._slow_engine(ris_index, monkeypatch)
        query = TrajectoryQuery(
            waypoints=((10.0, 10.0), (90.0, 90.0)), k=4
        )
        [served] = engine.serve_batch([query])
        assert served.ok and served.fallback
        from repro.core.heuristics import degree_discount
        expected = degree_discount(net, (90.0, 90.0), 4, engine.decay)
        assert served.result.seeds == expected.seeds


class TestHttpKinds:
    @pytest.fixture(scope="class")
    def server(self, ris_index):
        from repro.obs.httpd import ObsHttpServer

        srv = ObsHttpServer(
            engine=QueryEngine(ris_index), port=0, default_k=3
        ).start()
        yield srv
        srv.stop()

    def _get(self, server, path):
        url = f"http://{server.host}:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())

    def test_targeted_via_params(self, server):
        status, payload = self._get(
            server, "/query?kind=targeted&x=50&y=50&k=3&targets=0,1,2,3,4"
        )
        assert status == 200
        assert payload["kind"] == "targeted"
        assert payload["targets"] == 5
        assert len(payload["seeds"]) <= 3
        assert "estimate" in payload

    def test_budgeted_via_params(self, server):
        status, payload = self._get(
            server, "/query?kind=budgeted&x=50&y=50&budget=2&costs=0:0.5"
        )
        assert status == 200
        assert payload["kind"] == "budgeted"
        assert payload["budget"] == 2.0

    def test_trajectory_via_params(self, server):
        status, payload = self._get(
            server, "/query?kind=trajectory&waypoints=10:10;50:50&k=3"
        )
        assert status == 200
        assert payload["kind"] == "trajectory"
        assert len(payload["waypoint_seeds"]) == 2
        assert payload["seeds"] == payload["waypoint_seeds"][-1]

    def test_heuristic_via_params(self, server):
        status, payload = self._get(
            server, "/query?kind=heuristic&x=50&y=50&k=3&level=high-degree"
        )
        assert status == 200
        assert payload["kind"] == "heuristic"
        assert payload["method"] == "TopWeightedDegree"
        assert "heuristic_score" in payload and "estimate" not in payload

    def test_bad_kind_is_400(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server, "/query?kind=psychic&x=1&y=1")
        assert err.value.code == 400

    def test_non_finite_budget_is_400(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server, "/query?kind=budgeted&x=50&y=50&budget=inf")
        assert err.value.code == 400

    def test_malformed_waypoints_is_400(self, server):
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server, "/query?kind=trajectory&waypoints=oops&k=3")
        assert err.value.code == 400


class TestPoolKinds:
    def test_mixed_kind_batch_matches_in_process(self, ris_path, net,
                                                 ris_index):
        from repro.serve.pool import ServePool

        queries = [
            (50.0, 50.0),
            TrajectoryQuery(waypoints=((10.0, 10.0), (90.0, 90.0)), k=3),
            TargetedQuery(location=(50.0, 50.0), k=3,
                          targets=tuple(range(0, net.n, 2))),
            BudgetedQuery(location=(20.0, 80.0), budget=3.0),
            HeuristicQuery(location=(80.0, 20.0), k=3),
        ]
        single = QueryEngine(ris_index).serve_batch(queries, k=3)
        metrics = MetricsRegistry()
        with ServePool(ris_path, net, n_workers=2, metrics=metrics) as pool:
            pooled = pool.serve_batch(queries, k=3)
        assert all(s.ok for s in pooled), [s.error for s in pooled]
        for s1, sp in zip(single, pooled):
            assert list(s1.result.seeds) == list(sp.result.seeds)
        # The parent counts kinds from the replies.
        for kind in ("point", "trajectory", "targeted", "budgeted",
                     "heuristic"):
            name = labelled("serve_queries_total", kind=kind)
            assert metrics.counter(name).value == 1, kind
        # Worker-side per-kind counters merged under the worker. prefix.
        merged = metrics.counter(
            "worker." + labelled("serve_queries_total", kind="point")
        ).value
        assert merged == 1
