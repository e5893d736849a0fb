"""Tests for repro.network.generators."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.network.generators import (
    GeoSocialConfig,
    gaussian_cities,
    generate_geo_social_network,
)
from repro.network.probability import is_weighted_cascade
from repro.network.stats import degree_histogram


class TestConfig:
    def test_defaults_valid(self):
        GeoSocialConfig()

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialConfig(n=1)

    def test_bad_degree_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialConfig(avg_out_degree=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialConfig(background_fraction=1.5)

    def test_bad_geo_attachment_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialConfig(geo_attachment=-0.1)

    def test_zero_cities_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialConfig(n_cities=0)


class TestGaussianCities:
    def test_shapes(self):
        cfg = GeoSocialConfig(n=500, n_cities=3)
        coords, centers = gaussian_cities(cfg, seed=0)
        assert coords.shape == (500, 2)
        assert centers.shape == (3, 2)

    def test_coords_within_extent(self):
        cfg = GeoSocialConfig(n=500, extent=100.0, city_std=5.0)
        coords, _ = gaussian_cities(cfg, seed=1)
        assert coords.min() >= 0.0
        assert coords.max() <= 100.0

    def test_clustering_present(self):
        """Most users should sit near a city centre, not uniformly."""
        cfg = GeoSocialConfig(
            n=1000, n_cities=2, city_std=3.0, extent=300.0,
            background_fraction=0.1,
        )
        coords, centers = gaussian_cities(cfg, seed=2)
        d = np.min(
            np.hypot(
                coords[:, None, 0] - centers[None, :, 0],
                coords[:, None, 1] - centers[None, :, 1],
            ),
            axis=1,
        )
        # ~90% of users within 4 sigma of some city.
        assert np.mean(d < 12.0) > 0.75

    def test_deterministic(self):
        cfg = GeoSocialConfig(n=100)
        a, _ = gaussian_cities(cfg, seed=5)
        b, _ = gaussian_cities(cfg, seed=5)
        assert np.array_equal(a, b)


class TestGenerator:
    @pytest.fixture(scope="class")
    def net(self):
        cfg = GeoSocialConfig(n=400, avg_out_degree=6.0, n_cities=3,
                              extent=200.0, city_std=10.0)
        return generate_geo_social_network(cfg, seed=3)

    def test_node_count(self, net):
        assert net.n == 400

    def test_edge_count_near_target(self, net):
        target = 6.0 * 400
        assert 0.8 * target <= net.m <= 1.05 * target

    def test_weighted_cascade_assigned(self, net):
        assert is_weighted_cascade(net)

    def test_no_isolated_in_expectation(self, net):
        """The vast majority of nodes participate in the graph."""
        deg = np.asarray(net.out_degree()) + np.asarray(net.in_degree())
        assert np.mean(deg == 0) < 0.05

    def test_heavy_tail(self, net):
        """Max in-degree far exceeds the mean (hub formation)."""
        indeg = np.asarray(net.in_degree())
        assert indeg.max() > 4 * indeg.mean()

    def test_degree_histogram_shape(self, net):
        hist = degree_histogram(net, "in")
        assert hist.sum() == net.n
        # Monotone-ish tail: more low-degree than high-degree nodes.
        assert hist[:3].sum() > hist[10:].sum()

    def test_deterministic(self):
        cfg = GeoSocialConfig(n=150, avg_out_degree=4.0)
        a = generate_geo_social_network(cfg, seed=9)
        b = generate_geo_social_network(cfg, seed=9)
        assert a.m == b.m
        ea, _ = a.edge_array()
        eb, _ = b.edge_array()
        assert np.array_equal(ea, eb)

    def test_different_seed_different_graph(self):
        cfg = GeoSocialConfig(n=150, avg_out_degree=4.0)
        a = generate_geo_social_network(cfg, seed=1)
        b = generate_geo_social_network(cfg, seed=2)
        ea, _ = a.edge_array()
        eb, _ = b.edge_array()
        assert ea.shape != eb.shape or not np.array_equal(ea, eb)


class TestFenwickPick:
    """The O(log n) preferential pick returns the index the cumsum search
    over the same integer weights would, boundaries included."""

    def test_matches_cumsum_search(self):
        from repro.network.generators import _Fenwick

        rng = np.random.default_rng(3)
        weights = rng.integers(1, 9, size=37)
        tree = _Fenwick(weights.tolist())
        for i in rng.integers(0, 37, size=20).tolist():
            weights[i] += 1
            tree.add(i, 1)
        for m in (1, 2, 16, 17, 37):
            sums = np.cumsum(weights[:m].astype(float))
            assert tree.prefix(m) == sums[-1]
            draws = np.concatenate([sums, sums - 0.5, [0.0, sums[-1] + 1],
                                    rng.random(50) * sums[-1]])
            for r in draws.tolist():
                assert tree.count_upto(m, r) == np.searchsorted(sums, r, "right")
