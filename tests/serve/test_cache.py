"""Tests for repro.serve.cache (index LRU + result LRU)."""

import os
import pickle
import threading
import time

import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import save_mia_index, save_ris_index
from repro.core.query import DaimQuery, SeedResult
from repro.core.querykind import (
    BudgetedQuery,
    HeuristicQuery,
    TargetedQuery,
    cache_extra,
    targets_fingerprint,
)
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import ServeError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.serve.cache import IndexCache, ResultCache
from repro.serve.engine import QueryEngine
from repro.serve.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=23,
    )


@pytest.fixture(scope="module")
def decay():
    return DistanceDecay(alpha=0.02)


@pytest.fixture(scope="module")
def ris_path(net, decay, tmp_path_factory):
    path = tmp_path_factory.mktemp("idx") / "ris.npz"
    cfg = RisDaConfig(
        k_max=5, n_pivots=6, epsilon_pivot=0.4, max_index_samples=8000, seed=2
    )
    save_ris_index(RisDaIndex(net, decay, cfg), path)
    return path


@pytest.fixture(scope="module")
def mia_path(net, decay, tmp_path_factory):
    path = tmp_path_factory.mktemp("idx") / "mia.npz"
    cfg = MiaDaConfig(theta=0.05, n_anchors=10, tau=24, seed=2)
    save_mia_index(MiaDaIndex(net, decay, cfg), path)
    return path


class TestIndexCache:
    def test_second_get_is_a_hit_and_same_object(self, net, ris_path):
        metrics = MetricsRegistry()
        cache = IndexCache(metrics=metrics)
        kind1, idx1 = cache.get(ris_path, net)
        kind2, idx2 = cache.get(ris_path, net)
        assert kind1 == kind2 == "ris"
        assert idx1 is idx2
        assert metrics.counter("index_cache.misses").value == 1
        assert metrics.counter("index_cache.hits").value == 1

    def test_kind_detected_for_mia(self, net, mia_path):
        kind, idx = IndexCache().get(mia_path, net)
        assert kind == "mia"
        assert isinstance(idx, MiaDaIndex)

    def test_kind_mismatch_rejected_with_clear_error(self, net, mia_path):
        cache = IndexCache()
        with pytest.raises(ServeError, match="MIA-DA index.*serves RIS-DA"):
            cache.get(mia_path, net, kind="ris")

    def test_kind_mismatch_rejected_on_cached_entry(self, net, mia_path):
        cache = IndexCache()
        cache.get(mia_path, net)  # cache it untyped
        with pytest.raises(ServeError):
            cache.get(mia_path, net, kind="ris")

    def test_bad_kind_argument(self, net, ris_path):
        with pytest.raises(ServeError):
            IndexCache().get(ris_path, net, kind="pmia")

    def test_mtime_change_invalidates(self, net, decay, tmp_path):
        path = tmp_path / "ris.npz"
        cfg = RisDaConfig(
            k_max=5, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=8000, seed=2,
        )
        save_ris_index(RisDaIndex(net, decay, cfg), path)
        cache = IndexCache()
        _, idx1 = cache.get(path, net)
        # Rewrite the file and bump its mtime well past the original.
        save_ris_index(RisDaIndex(net, decay, cfg), path)
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10_000_000))
        _, idx2 = cache.get(path, net)
        assert idx1 is not idx2
        # The stale entry is dropped, not left behind.
        assert len(cache) == 1

    def test_lru_eviction(self, net, decay, tmp_path):
        cfg = RisDaConfig(
            k_max=5, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=8000, seed=2,
        )
        paths = []
        for i in range(3):
            p = tmp_path / f"ris{i}.npz"
            save_ris_index(RisDaIndex(net, decay, cfg), p)
            paths.append(p)
        metrics = MetricsRegistry()
        cache = IndexCache(capacity=2, metrics=metrics)
        for p in paths:
            cache.get(p, net)
        assert len(cache) == 2
        assert metrics.counter("index_cache.evictions").value == 1
        # paths[0] was evicted; re-getting it is a miss.
        cache.get(paths[0], net)
        assert metrics.counter("index_cache.misses").value == 4

    def test_missing_file(self, net, tmp_path):
        with pytest.raises(ServeError, match="cannot stat"):
            IndexCache().get(tmp_path / "nope.npz", net)

    def test_fingerprint_tracks_content(self, ris_path):
        fp1 = IndexCache.fingerprint(ris_path)
        assert str(ris_path) in fp1
        st = os.stat(ris_path)
        os.utime(ris_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        assert IndexCache.fingerprint(ris_path) != fp1

    def test_bad_capacity(self):
        with pytest.raises(ServeError):
            IndexCache(capacity=0)


def _result(seeds) -> SeedResult:
    return SeedResult(seeds=list(seeds), estimate=float(len(seeds)),
                      method="test")


class TestResultCache:
    def test_roundtrip_and_metrics(self):
        metrics = MetricsRegistry()
        cache = ResultCache(capacity=4, metrics=metrics)
        key = ("fp", 7, 3)
        assert cache.get(key) is None
        cache.put(key, _result([1, 2]))
        assert cache.get(key).seeds == [1, 2]
        assert metrics.counter("result_cache.misses").value == 1
        assert metrics.counter("result_cache.hits").value == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", _result([1]))
        cache.put("b", _result([2]))
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", _result([3]))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_clear(self):
        cache = ResultCache(capacity=2)
        cache.put("a", _result([1]))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_bad_capacity(self):
        with pytest.raises(ServeError):
            ResultCache(capacity=0)


class TestKindAwareCacheKeys:
    """Regression: the result-cache key must discriminate query *kind*.

    Before the fix the key was ``(fingerprint, generation, cell, k)`` —
    a targeted or budgeted query landing on a point query's cell would
    be answered from the point entry (wrong seed set, wrong objective).
    The key now ends in :func:`repro.core.querykind.cache_extra`, which
    tags the kind and fingerprints the mask/cost structure.
    """

    @pytest.fixture(scope="class")
    def engine(self, net, decay):
        cfg = RisDaConfig(
            k_max=5, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=8000, seed=2,
        )
        return QueryEngine(RisDaIndex(net, decay, cfg))

    def test_targeted_does_not_hit_point_entry(self, engine, net):
        """Pre-fix this failed: the targeted query came back cached with
        the point query's (unmasked) answer."""
        q, k = (50.0, 50.0), 3
        point = engine.query(q, k=k)
        assert point.ok
        # Warm hit for the same point query proves the entry is live...
        assert engine.query(q, k=k).cached
        # ...yet a targeted query at the same cell and k must miss it.
        targeted = engine.query(
            TargetedQuery(location=q, k=k, targets=tuple(range(0, net.n, 4)))
        )
        assert targeted.ok, targeted.error
        assert not targeted.cached
        assert targeted.result.estimate < point.result.estimate

    def test_repeated_targeted_hits_its_own_entry(self, engine, net):
        query = TargetedQuery(
            location=(20.0, 20.0), k=3, targets=tuple(range(0, net.n, 4))
        )
        first = engine.query(query)
        assert first.ok and not first.cached
        again = engine.query(query)
        assert again.cached
        assert again.result.seeds == first.result.seeds

    def test_different_target_sets_get_distinct_entries(self, engine, net):
        q, k = (80.0, 20.0), 3
        a = engine.query(TargetedQuery(location=q, k=k, targets=(0, 1, 2)))
        b = engine.query(
            TargetedQuery(location=q, k=k, targets=tuple(range(net.n)))
        )
        assert a.ok and b.ok
        assert not b.cached  # same cell, same k, different mask

    def test_budgeted_does_not_hit_point_entry(self, engine):
        q, k = (35.0, 65.0), 3
        engine.query(q, k=k)
        budgeted = engine.query(BudgetedQuery(location=q, budget=float(k)))
        assert budgeted.ok and not budgeted.cached
        # A different cost structure at the same budget is another entry.
        other = engine.query(
            BudgetedQuery(location=q, budget=float(k), costs=((0, 0.5),))
        )
        assert other.ok and not other.cached

    def test_heuristic_is_never_cached(self, engine):
        query = HeuristicQuery(location=(50.0, 50.0), k=3)
        assert cache_extra(query) is None
        first = engine.query(query)
        second = engine.query(query)
        assert first.ok and second.ok
        assert not first.cached and not second.cached

    def test_cache_extra_discriminates_kinds(self):
        q = (1.0, 2.0)
        point = cache_extra(DaimQuery(location=q, k=3))
        targeted = cache_extra(TargetedQuery(location=q, k=3, targets=(0, 1)))
        budgeted = cache_extra(BudgetedQuery(location=q, budget=3.0))
        assert len({point, targeted, budgeted}) == 3
        # Same kind, different parameterisation -> different tails.
        assert cache_extra(
            TargetedQuery(location=q, k=3, targets=(0, 2))
        ) != targeted
        assert cache_extra(
            BudgetedQuery(location=q, budget=3.0, costs=((1, 2.0),))
        ) != budgeted

    def test_targets_fingerprint_is_computed_once_and_pickles(self):
        """The fingerprint is fixed at construction, whatever the order
        or repetition of the targets, and rides along to a pool worker
        (whose task queue pickles with ``ForkingPickler``)."""
        from multiprocessing.reduction import ForkingPickler

        q = (1.0, 2.0)
        want = targets_fingerprint([0, 2, 5])
        for targets in ((0, 2, 5), (5, 0, 2), (2, 2, 5, 0, 0)):
            query = TargetedQuery(location=q, k=3, targets=targets)
            assert query.targets_fp == want
            assert cache_extra(query) == ("targeted", 3, want)
            shipped = pickle.loads(ForkingPickler.dumps(query))
            assert shipped == query
            assert shipped.targets_fp == want
            assert cache_extra(shipped) == cache_extra(query)


class TestIndexCacheConcurrency:
    """Regressions for loads blocking the cache lock (double-checked
    locking with per-key load futures)."""

    def test_concurrent_misses_coalesce_into_one_load(
        self, net, ris_path, monkeypatch
    ):
        import repro.serve.cache as cache_mod

        metrics = MetricsRegistry()
        cache = IndexCache(capacity=4, metrics=metrics)
        real_load = cache_mod.load_index
        calls = []

        def slow_load(path, network):
            calls.append(path)
            time.sleep(0.15)
            return real_load(path, network)

        monkeypatch.setattr(cache_mod, "load_index", slow_load)
        results = []

        def worker():
            results.append(cache.get(ris_path, net))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(results) == 6
        assert all(r[1] is results[0][1] for r in results)
        assert metrics.counter("index_cache.misses").value == 1
        assert metrics.counter("index_cache.coalesced").value == 5

    def test_slow_load_does_not_block_other_keys(
        self, net, ris_path, mia_path, monkeypatch
    ):
        import repro.serve.cache as cache_mod

        cache = IndexCache(capacity=4)
        cache.get(mia_path, net)  # warm the other key
        real_load = cache_mod.load_index
        gate = threading.Event()
        load_started = threading.Event()

        def gated_load(path, network):
            load_started.set()
            assert gate.wait(10.0)
            return real_load(path, network)

        monkeypatch.setattr(cache_mod, "load_index", gated_load)
        loader = threading.Thread(target=lambda: cache.get(ris_path, net))
        loader.start()
        try:
            assert load_started.wait(10.0)
            # While that load is parked, a hit on the cached key must
            # return promptly — the lock only guards the maps.
            hit_done = threading.Event()

            def hit():
                kind, _ = cache.get(mia_path, net)
                assert kind == "mia"
                hit_done.set()

            threading.Thread(target=hit).start()
            assert hit_done.wait(2.0), (
                "cached hit blocked behind an unrelated in-flight load"
            )
        finally:
            gate.set()
            loader.join(10.0)
        assert not loader.is_alive()
        assert len(cache) == 2

    def test_failed_load_propagates_and_later_get_retries(
        self, net, ris_path, monkeypatch
    ):
        import repro.serve.cache as cache_mod

        real_load = cache_mod.load_index
        calls = []

        def flaky_load(path, network):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("disk hiccup")
            return real_load(path, network)

        monkeypatch.setattr(cache_mod, "load_index", flaky_load)
        cache = IndexCache()
        with pytest.raises(OSError, match="disk hiccup"):
            cache.get(ris_path, net)
        kind, _ = cache.get(ris_path, net)  # the failed future was dropped
        assert kind == "ris"
        assert len(calls) == 2
