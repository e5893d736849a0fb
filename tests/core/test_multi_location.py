"""Tests for repro.core.multi_location (the Appendix E extension)."""

import numpy as np
import pytest

from repro.core.multi_location import multi_location_query, multi_location_weights
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay


@pytest.fixture(scope="module")
def net():
    from repro.network.generators import GeoSocialConfig, generate_geo_social_network

    return generate_geo_social_network(
        GeoSocialConfig(n=200, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=51,
    )


@pytest.fixture(scope="module")
def index(net):
    cfg = RisDaConfig(
        k_max=8, n_pivots=10, epsilon_pivot=0.35, max_index_samples=20_000,
        seed=2,
    )
    return RisDaIndex(net, DistanceDecay(alpha=0.02), cfg)


class TestWeights:
    def test_single_location_matches_plain(self, net):
        decay = DistanceDecay(alpha=0.02)
        q = (30.0, 30.0)
        combined = multi_location_weights(decay, net.coords, [q])
        plain = decay.weights(net.coords, q)
        assert np.allclose(combined, plain)

    def test_max_semantics(self, net):
        decay = DistanceDecay(alpha=0.02)
        q1, q2 = (10.0, 10.0), (90.0, 90.0)
        combined = multi_location_weights(decay, net.coords, [q1, q2])
        w1 = decay.weights(net.coords, q1)
        w2 = decay.weights(net.coords, q2)
        assert np.allclose(combined, np.maximum(w1, w2))

    def test_weights_dominate_each_single(self, net):
        decay = DistanceDecay(alpha=0.02)
        locs = [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0)]
        combined = multi_location_weights(decay, net.coords, locs)
        for q in locs:
            assert np.all(combined >= decay.weights(net.coords, q) - 1e-12)

    def test_empty_locations_rejected(self, net):
        with pytest.raises(QueryError):
            multi_location_weights(DistanceDecay(), net.coords, [])


class TestQuery:
    def test_returns_seeds(self, index):
        res = multi_location_query(index, [(20.0, 20.0), (80.0, 80.0)], 5)
        assert res.k == 5
        assert res.method == "RIS-DA-multi"
        assert res.samples_used > 0

    def test_two_stores_at_least_as_good_as_each_alone(self, index, net):
        """OPT_Q >= OPT_q pointwise, so the estimate should dominate
        (up to estimator noise)."""
        q1, q2 = (20.0, 20.0), (80.0, 80.0)
        multi = multi_location_query(index, [q1, q2], 5)
        single1 = index.query(q1, 5)
        single2 = index.query(q2, 5)
        best_single = max(single1.estimate, single2.estimate)
        assert multi.estimate >= 0.8 * best_single

    def test_empty_locations_rejected(self, index):
        with pytest.raises(QueryError):
            multi_location_query(index, [], 3)

    def test_k_above_kmax_rejected(self, index):
        with pytest.raises(QueryError):
            multi_location_query(index, [(0.0, 0.0)], 99)

    def test_single_location_consistent_with_plain_query(self, net):
        """One location is the point query bit-for-bit."""
        q = (40.0, 60.0)
        cfg = RisDaConfig(
            k_max=8, n_pivots=10, epsilon_pivot=0.35,
            max_index_samples=20_000, seed=2,
        )
        index = RisDaIndex(net, DistanceDecay(alpha=0.02), cfg)
        multi = multi_location_query(index, [q], 5)
        plain = index.query(q, 5)
        assert multi.seeds == plain.seeds
        assert multi.estimate == plain.estimate
        assert multi.samples_used == plain.samples_used

    def test_uses_index_kernel_settings(self, index, monkeypatch):
        """The cover skips the certification bound like every serving query."""
        import repro.core.ris_da as ris_da

        seen = {}
        real = ris_da.weighted_greedy_cover

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(ris_da, "weighted_greedy_cover", spy)
        multi_location_query(index, [(20.0, 20.0), (80.0, 80.0)], 5)
        assert seen["compute_bound"] is False
