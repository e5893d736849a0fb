"""Tests for repro.core.bounds (anchor and region bounds must be *valid*)."""

import numpy as np
import pytest

from repro.core.bounds import AnchorBounds, RegionBounds
from repro.exceptions import QueryError
from repro.geo.sampling import sample_uniform_points
from repro.geo.weights import DistanceDecay
from repro.mia.pmia import MiaModel


@pytest.fixture(scope="module")
def setup(request):
    from repro.network.generators import GeoSocialConfig, generate_geo_social_network

    net = generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=21,
    )
    model = MiaModel(net, theta=0.03)
    decay = DistanceDecay(alpha=0.03)
    anchors = sample_uniform_points(net.bounding_box(), 20, seed=1)
    return net, model, decay, anchors


class TestAnchorBounds:
    def test_empty_anchors_rejected(self, setup):
        net, model, decay, _ = setup
        with pytest.raises(Exception):
            AnchorBounds(model, decay, np.empty((0, 2)))

    def test_bounds_bracket_truth_everywhere(self, setup):
        """lower <= I_q^m({u}) <= upper for random queries, all nodes."""
        net, model, decay, anchors = setup
        ab = AnchorBounds(model, decay, anchors)
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = tuple(rng.uniform(0, 100, 2))
            w = decay.weights(net.coords, q)
            truth = model.singleton_influences(w)
            lower, upper = ab.bounds(q)
            assert np.all(truth <= upper + 1e-9)
            assert np.all(truth >= lower - 1e-9)

    def test_bounds_exact_at_anchor(self, setup):
        """Query at an anchor: bounds collapse onto the truth."""
        net, model, decay, anchors = setup
        ab = AnchorBounds(model, decay, anchors)
        q = tuple(anchors[0])
        w = decay.weights(net.coords, q)
        truth = model.singleton_influences(w)
        lower, upper = ab.bounds(q)
        assert np.allclose(lower, truth, atol=1e-9)
        # Upper may still be clipped by the mass cap, but not below truth.
        assert np.all(upper >= truth - 1e-9)

    def test_nearest_anchor(self, setup):
        net, model, decay, anchors = setup
        ab = AnchorBounds(model, decay, anchors)
        idx, dist = ab.nearest_anchor(tuple(anchors[5]))
        assert idx == 5
        assert dist == pytest.approx(0.0, abs=1e-12)

    def test_far_query_does_not_overflow(self, setup):
        """Regression: alpha * d > ~709 used to raise OverflowError in
        math.exp; the bound must degrade to the c * mass cap instead."""
        net, model, decay, anchors = setup
        ab = AnchorBounds(model, decay, anchors)
        # alpha=0.03, d ~ 4.2e7 => alpha * d ~ 1.3e6, far past exp range.
        q = (3e7, 3e7)
        lower, upper = ab.bounds(q)
        assert np.all(np.isfinite(lower))
        assert np.all(np.isfinite(upper))
        assert np.all(lower <= upper + 1e-12)
        assert np.all(upper <= ab.mass * decay.c + 1e-12)
        w = decay.weights(net.coords, q)
        truth = model.singleton_influences(w)
        assert np.all(truth <= upper + 1e-9)
        assert np.all(truth >= lower - 1e-9)

    def test_large_alpha_far_query(self, setup):
        """Fig. 8's alpha sweep at alpha = 1.0 with a distant query."""
        net, model, _, anchors = setup
        decay = DistanceDecay(alpha=1.0)
        ab = AnchorBounds(model, decay, anchors)
        for q in [(1e4, 1e4), (1e6, -1e6), (-1e6, 0.0)]:
            lower, upper = ab.bounds(q)
            assert np.all(np.isfinite(upper)), q
            assert np.all(lower <= upper + 1e-12)
            truth = model.singleton_influences(decay.weights(net.coords, q))
            assert np.all(truth <= upper + 1e-9)
            assert np.all(truth >= lower - 1e-9)

    def test_moderate_distances_unchanged(self, setup):
        """The log-space path must agree with the direct formula where the
        direct formula is representable."""
        net, model, decay, anchors = setup
        ab = AnchorBounds(model, decay, anchors)
        import math

        q = (140.0, -30.0)
        a, d = ab.nearest_anchor(q)
        base = ab.influence[a]
        direct = np.minimum(
            base * math.exp(decay.alpha * d), ab.mass * decay.c
        )
        _, upper = ab.bounds(q)
        assert np.allclose(upper, direct, rtol=1e-12)

    def test_tighter_with_more_anchors(self, setup):
        """Average upper-lower gap shrinks as anchors densify."""
        net, model, decay, _ = setup
        few = AnchorBounds(
            model, decay, sample_uniform_points(net.bounding_box(), 4, seed=2)
        )
        many = AnchorBounds(
            model, decay, sample_uniform_points(net.bounding_box(), 64, seed=2)
        )
        rng = np.random.default_rng(4)
        gaps_few, gaps_many = [], []
        for _ in range(10):
            q = tuple(rng.uniform(0, 100, 2))
            lo_f, up_f = few.bounds(q)
            lo_m, up_m = many.bounds(q)
            gaps_few.append(float(np.mean(up_f - lo_f)))
            gaps_many.append(float(np.mean(up_m - lo_m)))
        assert np.mean(gaps_many) < np.mean(gaps_few)


class TestRegionBounds:
    def test_covers(self, setup):
        net, model, decay, _ = setup
        rb = RegionBounds(model, decay, [0, 5, 7], tau=50)
        assert rb.covers(5)
        assert not rb.covers(6)

    def test_unknown_node_rejected(self, setup):
        net, model, decay, _ = setup
        rb = RegionBounds(model, decay, [0], tau=50)
        d_min, d_max = rb.cell_distances((10.0, 10.0))
        with pytest.raises(QueryError):
            rb.bounds_for(3, d_min, d_max)

    def test_bad_tau_rejected(self, setup):
        net, model, decay, _ = setup
        with pytest.raises(QueryError):
            RegionBounds(model, decay, [0], tau=0)

    def test_bounds_bracket_truth(self, setup):
        net, model, decay, _ = setup
        heavy = list(range(0, net.n, 7))
        rb = RegionBounds(model, decay, heavy, tau=100)
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = tuple(rng.uniform(-20, 120, 2))
            w = decay.weights(net.coords, q)
            truth = model.singleton_influences(w)
            d_min, d_max = rb.cell_distances(q)
            for u in heavy:
                lo, hi = rb.bounds_for(u, d_min, d_max)
                assert lo - 1e-9 <= truth[u] <= hi + 1e-9, (q, u)

    def test_query_bounds_equal_per_node_evaluation(self, setup):
        """One weight evaluation per query gives the same bits as
        evaluating each node's own cells separately."""
        net, model, decay, _ = setup
        heavy = list(range(0, net.n, 5))
        rb = RegionBounds(model, decay, heavy, tau=100)
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = tuple(rng.uniform(-20, 120, 2))
            lower, upper = rb.bounds(q)
            d_min, d_max = rb.cell_distances(q)
            for i, u in enumerate(rb.nodes):
                lo, hi = rb._offsets[i], rb._offsets[i + 1]
                cells, mass = rb._cells[lo:hi], rb._masses[lo:hi]
                assert upper[i] == float(
                    np.dot(mass, decay.weight_of_distance(d_min[cells]))
                )
                assert lower[i] == float(
                    np.dot(mass, decay.weight_of_distance(d_max[cells]))
                )
                assert (lower[i], upper[i]) == rb.bounds_for(u, d_min, d_max)

    def test_finer_grid_tighter(self, setup):
        net, model, decay, _ = setup
        heavy = [int(np.argmax(model.unweighted_singleton_mass()))]
        coarse = RegionBounds(model, decay, heavy, tau=4)
        fine = RegionBounds(model, decay, heavy, tau=400)
        q = (37.0, 61.0)
        dc_min, dc_max = coarse.cell_distances(q)
        df_min, df_max = fine.cell_distances(q)
        lo_c, hi_c = coarse.bounds_for(heavy[0], dc_min, dc_max)
        lo_f, hi_f = fine.bounds_for(heavy[0], df_min, df_max)
        assert hi_f <= hi_c + 1e-9
        assert lo_f >= lo_c - 1e-9
