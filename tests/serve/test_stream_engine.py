"""Streaming updates through a live :class:`QueryEngine`."""

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import ServeError
from repro.geo.weights import DistanceDecay
from repro.serve.engine import QueryEngine, ServeConfig
from repro.serve.metrics import MetricsRegistry
from repro.stream.delta import GraphDelta


@pytest.fixture
def engine(small_net):
    cfg = RisDaConfig(
        k_max=4, n_pivots=5, epsilon_pivot=0.45,
        max_index_samples=4000, seed=6,
    )
    index = RisDaIndex(small_net, DistanceDecay(alpha=0.02), cfg)
    return QueryEngine(index, metrics=MetricsRegistry())


@pytest.fixture
def delta():
    return GraphDelta.make(
        edges=[(0, 60), (12, 90)], probabilities=[0.2, 0.25],
        checkins=[(5, 3.0, 4.0)],
    )


class TestApplyUpdate:
    def test_returns_stats_and_tracks_generation(self, engine, delta):
        stats = engine.apply_update(delta)
        assert stats.generation == 1
        assert engine.last_update is stats
        assert engine.index.generation == 1

    def test_network_reference_refreshed(self, engine, delta):
        old_net = engine.network
        engine.apply_update(delta)
        assert engine.network is engine.index.network
        assert engine.network is not old_net
        assert engine.network.coords[5].tolist() == [3.0, 4.0]

    def test_cached_result_not_replayed_across_update(self, engine, delta):
        q = (50.0, 50.0)
        first = engine.query(q, 3)
        cached = engine.query(q, 3)
        assert cached.cached
        engine.apply_update(delta)
        after = engine.query(q, 3)
        assert not after.cached  # generation is part of the cache key

    def test_staleness_gauges_recorded(self, engine, delta):
        engine.apply_update(delta)
        gauges = engine.metrics.dump()["gauges"]
        assert gauges["staleness_generation"] == 1.0
        assert gauges["staleness_samples_retired"] >= 0.0
        assert "staleness_seconds_since_refresh" in gauges

    def test_refresh_staleness_ages_gauge(self, engine, delta):
        engine.apply_update(delta)
        g = engine.metrics.gauge("staleness_seconds_since_refresh")
        g.set(-1.0)  # poison; refresh must overwrite
        engine.refresh_staleness()
        assert g.value >= 0.0

    def test_refresh_before_any_update_is_noop(self, engine):
        engine.refresh_staleness()
        assert "staleness_generation" not in engine.metrics.dump()["gauges"]

    def test_queries_answer_on_updated_graph(self, engine, delta):
        engine.apply_update(delta)
        res = engine.query((50.0, 50.0), 3)
        assert res.ok
        assert len(res.result.seeds) == 3

    def test_mia_engine_updates_too(self, small_net, delta):
        index = MiaDaIndex(
            small_net, DistanceDecay(alpha=0.02),
            MiaDaConfig(n_anchors=10, tau=24, seed=3),
        )
        engine = QueryEngine(index)
        stats = engine.apply_update(delta)
        assert stats.generation == 1
        assert stats.trees_rebuilt > 0
        assert engine.query((50.0, 50.0), 3).ok

    def test_index_without_update_rejected(self, engine):
        class Frozen:
            pass

        engine.index = Frozen()
        with pytest.raises(ServeError, match="streaming updates"):
            engine.apply_update(GraphDelta.make())


class TestUpdateDuringIndexCall:
    """An answer is stored under the key it was looked up with."""

    def test_pre_update_answer_not_served_as_current(
        self, engine, delta, monkeypatch
    ):
        # The update lands while the index call is running, as a
        # concurrent ``POST /admin/update`` can do to a ``GET /query``.
        q = (50.0, 50.0)
        answer = engine.index.query

        def racing(*args, **kwargs):
            out = answer(*args, **kwargs)
            engine.apply_update(delta)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(engine.index, "query", racing)
            first = engine.query(q, 3)
        assert first.ok and not first.cached
        assert engine.index.generation == 1
        after = engine.query(q, 3)
        assert not after.cached  # the stale answer sits under generation 0
        direct = engine.index.query(q, 3)
        assert after.result.seeds == direct.seeds
        assert after.result.estimate == direct.estimate
        assert engine.query(q, 3).cached
