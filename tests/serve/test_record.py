"""One served-query record, written once: every sink reads the same count.

Convention under test: ``latency_ms`` observes every query except a
timed-out one (its own latency is unknown), so for N logical queries
``latency_ms.count + <timed-out count> == N``; the SLO tracker and the
slow-query log count every query once, a timed-out one at its deadline.
"""

import json
import sys
import threading
import time
import urllib.request

import pytest

import repro.core.heuristics as heuristics
import repro.serve.engine as engine_mod
from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import save_ris_index
from repro.core.query import DaimQuery
from repro.core.querykind import (
    BudgetedQuery,
    HeuristicQuery,
    TargetedQuery,
    TrajectoryQuery,
    target_mask,
)
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.obs.httpd import ObsHttpServer
from repro.obs.slo import SloConfig, SloTracker
from repro.obs.slowlog import SlowQueryLog
from repro.serve.engine import QueryEngine, ServeConfig, served_row
from repro.serve.metrics import MetricsRegistry, labelled
from repro.serve.pool import ServePool

KINDS = ("point", "trajectory", "targeted", "budgeted", "heuristic")

#: Point queries with these k sleep past the deadline; k=5 also makes
#: the degree-discount fallback raise.
SLOW_K = (4, 5)
FAILING_FALLBACK_K = 5
TIMEOUT_S = 0.3
SLOW_S = 1.0


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
def ris_path(ris_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("record") / "ris.npz"
    save_ris_index(ris_index, path)
    return path


@pytest.fixture
def slow_and_failing(monkeypatch):
    """Slow point queries (by k) and a degree-discount that fails at k=5.

    Patched on the class and the modules, so forked pool workers see it.
    """
    real_query = RisDaIndex.query
    real_dd = heuristics.degree_discount

    def slow_query(self, q, k=None, **kwargs):
        if k in SLOW_K:
            time.sleep(SLOW_S)
        return real_query(self, q, k, **kwargs)

    def failing_dd(network, location, k, decay=None):
        if k == FAILING_FALLBACK_K:
            raise QueryError("degree-discount failed on purpose")
        return real_dd(network, location, k, decay)

    monkeypatch.setattr(RisDaIndex, "query", slow_query)
    monkeypatch.setattr(heuristics, "degree_discount", failing_dd)
    monkeypatch.setattr(engine_mod, "degree_discount", failing_dd)


WARM = [DaimQuery((50.0, 50.0), 3), DaimQuery((20.0, 80.0), 3)]

MIXED = [
    DaimQuery((50.0, 50.0), 3),                      # cache hit
    DaimQuery((20.0, 80.0), 3),                      # cache hit
    HeuristicQuery(location=(80.0, 20.0), k=3),      # heuristic
    DaimQuery((30.0, 30.0), 99),                     # index error
    DaimQuery((60.0, 40.0), 4),                      # timeout
    DaimQuery((40.0, 60.0), FAILING_FALLBACK_K),     # timeout, fallback fails
    TrajectoryQuery(waypoints=((10.0, 10.0), (70.0, 70.0)), k=3),
    TargetedQuery(location=(50.0, 50.0), k=3, targets=(0, 2, 4, 6)),
]

#: A cache-less batch at a deadline close to a query's own run time, so
#: workers keep finishing right around the collector's deadline.
RACE = [DaimQuery((10.0 * i, 100.0 - 10.0 * i), 3) for i in range(1, 7)]
RACE_TIMEOUT_S = 0.002


def _config(**kwargs):
    kwargs.setdefault("n_threads", len(MIXED))
    kwargs.setdefault("timeout", TIMEOUT_S)
    return ServeConfig(**kwargs)


def assert_sinks_agree(metrics, served, slo_total):
    n = len(served)
    per_kind = sum(
        metrics.counter(labelled("serve_queries_total", kind=kind)).value
        for kind in KINDS
    )
    timed_out = sum(1 for s in served if s.timed_out)
    assert metrics.counter("queries_total").value == n
    assert per_kind == n
    assert metrics.histogram("latency_ms").count + timed_out == n
    assert slo_total == n
    assert metrics.counter("errors").value == sum(
        1 for s in served if not s.ok
    )
    assert metrics.counter("timeouts").value == timed_out


def assert_mixed_outcomes(batch):
    hit_a, hit_b, heur, index_err, slow, failing, traj, targeted = batch
    assert hit_a.cached and hit_b.cached
    assert heur.ok and heur.fallback_reason == "requested"
    assert not index_err.ok and not index_err.timed_out
    assert slow.timed_out and failing.timed_out
    assert not failing.ok
    assert slow.ok and slow.result.method == "DegreeDiscount"
    assert traj.ok and targeted.ok
    assert targeted.guarantee_met is False


@pytest.mark.usefixtures("lemma7_sizing")
class TestSinkAgreement:
    """On the Lemma 7 path, so the targeted query misses its guarantee
    and ``guarantee_miss_total`` has a count to agree on."""

    def test_engine(self, ris_index, tmp_path, slow_and_failing):
        metrics = MetricsRegistry()
        slow_log = SlowQueryLog(tmp_path / "slow.jsonl", 0.0)
        slo = SloTracker()
        engine = QueryEngine(
            ris_index, config=_config(), metrics=metrics,
            slow_log=slow_log, slo=slo,
        )
        served = engine.serve_batch(WARM)
        batch = engine.serve_batch(MIXED)
        assert_mixed_outcomes(batch)
        served += batch
        race = QueryEngine(
            ris_index, metrics=metrics, slow_log=slow_log, slo=slo,
            config=_config(timeout=RACE_TIMEOUT_S,
                           result_cache_size=0),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per claim race
        try:
            for _ in range(20):
                served += race.serve_batch(RACE)
                assert_sinks_agree(metrics, served, slo.total_queries)
        finally:
            sys.setswitchinterval(interval)
        rows = [
            json.loads(line)
            for line in (tmp_path / "slow.jsonl").read_text().splitlines()
        ]
        assert len(rows) == len(served)
        assert len({row["trace_id"] for row in rows}) == len(served)
        assert {row["trace_id"] for row in rows} == {
            s.trace_id for s in served
        }
        assert metrics.counter("slow_queries_total").value == len(served)
        # The abandoned runs finish in the background (and must be done
        # before a later test forks): the two slow ones lose their claims
        # and leave every sink but abandoned_queries_total alone.
        for thread in threading.enumerate():
            if thread.name.startswith("repro-serve"):
                thread.join(timeout=5 * SLOW_S)
        assert metrics.counter("abandoned_queries_total").value >= 2
        assert metrics.counter("queries_total").value == len(served)

    def test_pool(self, net, ris_path, slow_and_failing):
        metrics = MetricsRegistry()
        served = []
        with ServePool(
            ris_path, net, n_workers=2, config=_config(),
            metrics=metrics, slo_config=SloConfig(),
        ) as pool:
            served += pool.serve_batch(WARM)
            batch = pool.serve_batch(MIXED)
            assert_mixed_outcomes(batch)
            served += batch
            pool.refresh_slo()
            assert_sinks_agree(metrics, served, pool.slo.total_queries)
        with ServePool(
            ris_path, net, n_workers=2, metrics=metrics,
            slo_config=SloConfig(),
            config=_config(timeout=RACE_TIMEOUT_S,
                           result_cache_size=0),
        ) as race:
            race_served = []
            for _ in range(20):
                race_served += race.serve_batch(RACE)
            race.refresh_slo()
            served += race_served
            assert_sinks_agree(
                metrics, served,
                pool.slo.total_queries + race.slo.total_queries,
            )


class TestPoolReplies:
    def test_failed_sub_batch_counted_like_any_query(
        self, net, ris_path, monkeypatch
    ):
        def broken(self, queries, k=None):
            raise RuntimeError("worker blew up")

        monkeypatch.setattr(QueryEngine, "serve_batch", broken)
        metrics = MetricsRegistry()
        queries = MIXED[:3] + MIXED[6:]
        with ServePool(ris_path, net, n_workers=2, metrics=metrics) as pool:
            served = pool.serve_batch(queries)
        assert all(not s.ok and "worker blew up" in s.error for s in served)
        per_kind = sum(
            metrics.counter(labelled("serve_queries_total", kind=kind)).value
            for kind in KINDS
        )
        assert metrics.counter("queries_total").value == per_kind
        assert per_kind == len(queries)
        assert metrics.counter("errors").value == len(queries)
        assert metrics.counter("worker_errors_total").value >= 1


def _miss(metrics, kind):
    return metrics.counter(labelled("guarantee_miss_total", kind=kind)).value


class TestGuaranteeMetric:
    def test_point_and_cache_hit_report_the_index_flag(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        _, diag = ris_index.query((50.0, 50.0), 3, return_diagnostics=True)
        flag = bool(diag.guarantee_met)
        first = engine.query((50.0, 50.0), k=3)
        hit = engine.query((50.0, 50.0), k=3)
        assert hit.cached and not first.cached
        assert first.guarantee_met is hit.guarantee_met is flag
        assert _miss(metrics, "point") == (0 if flag else 2)
        row = served_row(DaimQuery((50.0, 50.0), 3), hit)
        assert row["guarantee_met"] is flag

    def test_targeted_flag_matches_sized_prefix(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        query = TargetedQuery(location=(50.0, 50.0), k=3, targets=(0, 1, 2))
        _, diag = ris_index.query_masked(
            query.location, query.k, target_mask(query, ris_index.network.n),
            return_diagnostics=True,
        )
        flag = diag.samples_used >= diag.samples_required
        first = engine.query(query)
        hit = engine.query(query)
        assert hit.cached
        assert first.guarantee_met is hit.guarantee_met is flag
        assert _miss(metrics, "targeted") == (0 if flag else 2)

    def test_mia_and_heuristic_answers_carry_no_flag(self, net, decay):
        metrics = MetricsRegistry()
        mia = MiaDaIndex(net, decay, MiaDaConfig(n_anchors=10, tau=24, seed=3))
        engine = QueryEngine(mia, metrics=metrics)
        served = [
            engine.query((40.0, 60.0), k=3),
            engine.query(HeuristicQuery(location=(40.0, 60.0), k=3)),
        ]
        assert all(s.ok and s.guarantee_met is None for s in served)
        assert all(_miss(metrics, kind) == 0 for kind in KINDS)

    @pytest.mark.usefixtures("lemma7_sizing")
    def test_http_query_body_carries_the_flag(self, ris_index):
        engine = QueryEngine(ris_index)
        server = ObsHttpServer(engine=engine, port=0, default_k=3).start()
        try:
            url = (f"http://{server.host}:{server.port}"
                   "/query?kind=targeted&x=50&y=50&k=3&targets=0,1,2")
            with urllib.request.urlopen(url, timeout=10) as resp:
                payload = json.loads(resp.read().decode())
        finally:
            server.stop()
        assert payload["guarantee_met"] is False


class TestCertifiedRatio:
    """The fixture index (10,000 samples) certifies top-k answers early."""

    def test_point_hit_row_and_histogram(self, ris_index):
        metrics = MetricsRegistry()
        engine = QueryEngine(ris_index, metrics=metrics)
        _, diag = ris_index.query((50.0, 50.0), 3, return_diagnostics=True)
        assert diag.certified_ratio is not None
        first = engine.query((50.0, 50.0), k=3)
        hit = engine.query((50.0, 50.0), k=3)
        assert hit.cached and not first.cached
        assert first.certified_ratio == hit.certified_ratio
        assert hit.certified_ratio == diag.certified_ratio
        row = served_row(DaimQuery((50.0, 50.0), 3), hit)
        assert row["certified_ratio"] == diag.certified_ratio
        hist = metrics.histogram("certified_ratio")
        assert hist.count == 2
        assert hist.buckets[-1] == 1.0

    def test_trajectory_reports_its_weakest_waypoint(self, ris_index):
        waypoints = ((10.0, 10.0), (70.0, 70.0))
        served = QueryEngine(ris_index).query(
            TrajectoryQuery(waypoints=waypoints, k=3)
        )
        ratios = [
            ris_index.query(wp, 3, return_diagnostics=True)[1].certified_ratio
            for wp in waypoints
        ]
        assert served.certified_ratio == min(ratios)

    def test_budgeted_and_mia_answers_carry_none(self, ris_index, net, decay):
        metrics = MetricsRegistry()
        mia = MiaDaIndex(net, decay, MiaDaConfig(n_anchors=10, tau=24, seed=3))
        served = [
            QueryEngine(ris_index, metrics=metrics).query(BudgetedQuery(
                location=(50.0, 50.0), budget=3.0,
            )),
            QueryEngine(mia, metrics=metrics).query((40.0, 60.0), k=3),
        ]
        assert all(s.ok and s.certified_ratio is None for s in served)
        assert metrics.histogram("certified_ratio").count == 0

    def test_http_query_body_carries_the_ratio(self, ris_index):
        engine = QueryEngine(ris_index)
        server = ObsHttpServer(engine=engine, port=0, default_k=3).start()
        try:
            url = f"http://{server.host}:{server.port}/query?x=50&y=50&k=3"
            with urllib.request.urlopen(url, timeout=10) as resp:
                payload = json.loads(resp.read().decode())
        finally:
            server.stop()
        _, diag = ris_index.query((50.0, 50.0), 3, return_diagnostics=True)
        assert payload["certified_ratio"] == diag.certified_ratio
