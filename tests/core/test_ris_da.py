"""Tests for repro.core.ris_da (index construction and online queries)."""

import numpy as np
import pytest

from repro.core.query import DaimQuery
from repro.core.ris_da import QueryDiagnostics, RisDaConfig, RisDaIndex
from repro.diffusion.spread import monte_carlo_weighted_spread
from repro.exceptions import QueryError, SamplingError
from repro.geo.weights import DistanceDecay
from repro.ris.sample_size import required_sample_size


@pytest.fixture(scope="module")
def net():
    from repro.network.generators import GeoSocialConfig, generate_geo_social_network

    return generate_geo_social_network(
        GeoSocialConfig(n=250, avg_out_degree=5.0, extent=100.0, city_std=8.0),
        seed=41,
    )


@pytest.fixture(scope="module")
def index(net):
    decay = DistanceDecay(alpha=0.02)
    cfg = RisDaConfig(
        k_max=10, n_pivots=16, epsilon_pivot=0.3,
        max_index_samples=40_000, seed=5,
    )
    return RisDaIndex(net, decay, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(QueryError):
            RisDaConfig(k_max=0)
        with pytest.raises(QueryError):
            RisDaConfig(n_pivots=0)
        with pytest.raises(QueryError):
            RisDaConfig(pivot_strategy="teleport")
        with pytest.raises(QueryError):
            RisDaConfig(max_index_samples=0)

    def test_resolved_deltas_defaults(self):
        cfg = RisDaConfig()
        dp, d = cfg.resolved_deltas(1000)
        assert dp == pytest.approx(1.0 / 10_000)
        assert d == pytest.approx(1.0 / 1000)

    def test_resolved_deltas_ordering_enforced(self):
        cfg = RisDaConfig(delta_pivot=0.5, delta=0.1)
        with pytest.raises(SamplingError):
            cfg.resolved_deltas(1000)


class TestBuild:
    def test_pivot_info_shapes(self, index):
        assert index.pivot_estimates.shape == (16, 10)
        assert index.pivot_lower_bounds.shape == (16, 10)

    def test_pivot_estimates_monotone_in_k(self, index):
        """Greedy prefixes: the estimate curve is non-decreasing in k."""
        for row in index.pivot_estimates:
            assert all(row[i] <= row[i + 1] + 1e-9 for i in range(9))

    def test_lower_bounds_below_estimates(self, index):
        """LB-EST bounds a quantity the greedy estimate approximates from
        below; allow estimator noise but catch gross inversions."""
        ok = index.pivot_lower_bounds <= index.pivot_estimates * 1.5 + 1.0
        assert ok.mean() > 0.9

    def test_corpus_sized_for_worst_cell(self, index):
        assert len(index.corpus) >= min(
            index.index_samples_required, index.config.max_index_samples
        )

    def test_pivot_strategies_build(self, net):
        decay = DistanceDecay(alpha=0.02)
        for strategy in ("density", "farthest"):
            cfg = RisDaConfig(
                k_max=3, n_pivots=6, epsilon_pivot=0.4,
                max_index_samples=8_000, pivot_strategy=strategy, seed=1,
            )
            idx = RisDaIndex(net, decay, cfg)
            assert len(idx.pivots) == 6


class TestQuery:
    def test_returns_k_seeds(self, index):
        res = index.query((50.0, 50.0), 5)
        assert res.k == 5
        assert res.method == "RIS-DA"
        assert res.samples_used is not None and res.samples_used > 0

    def test_daim_query_object(self, index):
        res = index.query(DaimQuery((50.0, 50.0), 4))
        assert res.k == 4

    def test_k_above_kmax_rejected(self, index):
        with pytest.raises(QueryError):
            index.query((0.0, 0.0), 11)

    def test_missing_k_rejected(self, index):
        with pytest.raises(QueryError):
            index.query((0.0, 0.0))

    def test_diagnostics(self, index):
        res, diag = index.query((50.0, 50.0), 5, return_diagnostics=True)
        assert isinstance(diag, QueryDiagnostics)
        assert 0 <= diag.pivot_index < 16
        assert diag.pivot_distance >= 0
        assert diag.lower_bound > 0
        assert diag.samples_used == res.samples_used
        assert diag.samples_required >= diag.samples_used

    def test_diagnostics_timings(self, index):
        """Per-stage timings ride along; the serving path books no bound."""
        _, diag = index.query((50.0, 50.0), 5, return_diagnostics=True)
        t = diag.timings
        assert t is not None
        stages = t.as_dict()
        assert set(stages) == {
            "sizing", "weight_eval", "score_build", "selection", "bound",
            "total",
        }
        assert all(v >= 0.0 for v in stages.values())
        assert stages["sizing"] > 0.0
        assert stages["bound"] == 0.0
        # total covers every stage, sizing included.
        assert stages["total"] >= sum(
            v for name, v in stages.items() if name != "total"
        )
        # Wall-clock never repeats, but diagnostics compare equal anyway.
        _, again = index.query((50.0, 50.0), 5, return_diagnostics=True)
        assert diag == again

    def test_prefix_size_follows_lemma(self, index, net):
        """samples_required must equal the Lemma 7 formula for L_q^k."""
        q, k = (42.0, 58.0), 5
        res, diag = index.query(q, k, return_diagnostics=True)
        cfg = index.config
        dp, d = cfg.resolved_deltas(net.n)
        expected = required_sample_size(
            net.n, k, index.decay.w_max, cfg.epsilon, d - dp, diag.lower_bound
        )
        assert diag.samples_required == expected

    def test_near_pivot_needs_fewer_samples_than_far(self, index):
        """The lower bound decays with pivot distance, so sample need grows."""
        pivot = tuple(index.pivots[0])
        _, near = index.query(pivot, 5, return_diagnostics=True)
        far_point = (
            pivot[0] + 80.0,
            pivot[1] + 80.0,
        )
        _, far = index.query(far_point, 5, return_diagnostics=True)
        if far.pivot_distance > near.pivot_distance:
            assert far.samples_required >= near.samples_required

    def test_estimate_close_to_mc_truth(self, index, net):
        """The index's Eq. 9 estimate agrees with forward simulation."""
        q, k = (50.0, 50.0), 8
        res = index.query(q, k)
        w = index.decay.weights(net.coords, q)
        mc = monte_carlo_weighted_spread(
            net, res.seeds, node_weights=w, rounds=2000, seed=7
        )
        assert res.estimate == pytest.approx(mc.value, rel=0.25)

    def test_deterministic_given_build(self, index):
        a = index.query((33.0, 44.0), 5)
        b = index.query((33.0, 44.0), 5)
        assert a.seeds == b.seeds

    def test_spread_monotone_in_k(self, index):
        e = [index.query((50.0, 50.0), k).estimate for k in (1, 5, 10)]
        assert e[0] <= e[1] <= e[2]

    def test_query_many_matches_single(self, index):
        locs = [(15.0, 15.0), (70.0, 40.0)]
        batch = index.query_many(locs, 3)
        assert len(batch) == 2
        for res, q in zip(batch, locs):
            assert res.seeds == index.query(q, 3).seeds

    def test_query_many_diagnostics(self, index):
        locs = [(15.0, 15.0), (70.0, 40.0), (33.0, 90.0)]
        batch = index.query_many(locs, 3, return_diagnostics=True)
        assert len(batch) == 3
        for (res, diag), q in zip(batch, locs):
            single_res, single_diag = index.query(
                q, 3, return_diagnostics=True
            )
            assert isinstance(diag, QueryDiagnostics)
            assert res.seeds == single_res.seeds
            assert diag == single_diag

    def test_batch_totals_include_sizing(self, index):
        """Every waypoint's total covers its own sizing, as a point
        query's does, and stays the sum-bound of its stages."""
        locs = [(15.0, 15.0), (70.0, 40.0), (33.0, 90.0)]
        for _, diag in index.query_trajectory(
            locs, 3, return_diagnostics=True
        ):
            stages = diag.timings.as_dict()
            assert stages["sizing"] > 0.0
            assert stages["total"] >= sum(
                v for name, v in stages.items() if name != "total"
            )

    @pytest.mark.parametrize("budget", [float("inf"), float("1e400"),
                                        float("nan"), "inf"])
    def test_non_finite_budget_rejected(self, index, net, budget):
        with pytest.raises(QueryError):
            index.query_budgeted((50.0, 50.0), budget, np.ones(net.n))


class TestParallelBuild:
    def test_n_workers_validated(self):
        with pytest.raises(QueryError):
            RisDaConfig(n_workers=0)

    def test_parallel_build_reproducible(self, net):
        """Same (seed, n_workers) -> identical index, corpus and answers."""
        decay = DistanceDecay(alpha=0.02)
        cfg = RisDaConfig(
            k_max=3, n_pivots=4, epsilon_pivot=0.45,
            max_index_samples=3_000, seed=3, n_workers=2,
        )
        a = RisDaIndex(net, decay, cfg)
        b = RisDaIndex(net, decay, cfg)
        assert len(a.corpus) == len(b.corpus)
        assert a.corpus.roots.tolist() == b.corpus.roots.tolist()
        flat_a, off_a = a.corpus.flat()
        flat_b, off_b = b.corpus.flat()
        assert np.array_equal(flat_a, flat_b)
        assert np.array_equal(off_a, off_b)
        assert np.allclose(a.pivot_estimates, b.pivot_estimates)
        for q in [(25.0, 25.0), (80.0, 45.0)]:
            assert a.query(q, 3).seeds == b.query(q, 3).seeds

    def test_parallel_build_releases_pool(self, net):
        cfg = RisDaConfig(
            k_max=2, n_pivots=3, epsilon_pivot=0.45,
            max_index_samples=2_000, seed=4, n_workers=2,
        )
        index = RisDaIndex(net, DistanceDecay(alpha=0.02), cfg)
        assert not index.sampler.pool_active
        assert index.query((40.0, 40.0), 2).seeds
