"""Tests for repro.core.mia_da.

The decisive property: MIA-DA's pruning is *lossless* — it must return
exactly the same seed set as PMIA (full greedy over the same MIA model),
just with fewer marginal evaluations.
"""

import time

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.query import DaimQuery
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.mia.pmia import MiaModel, PmiaDa


@pytest.fixture(scope="module")
def net():
    from repro.network.generators import GeoSocialConfig, generate_geo_social_network

    return generate_geo_social_network(
        GeoSocialConfig(n=200, avg_out_degree=5.0, extent=100.0, city_std=8.0),
        seed=31,
    )


@pytest.fixture(scope="module")
def model(net):
    return MiaModel(net, theta=0.03)


@pytest.fixture(scope="module")
def index(net, model):
    decay = DistanceDecay(alpha=0.03)
    return MiaDaIndex(
        net, decay, MiaDaConfig(theta=0.03, n_anchors=40, tau=100), model=model
    )


class TestConfig:
    def test_bad_anchor_count(self):
        with pytest.raises(QueryError):
            MiaDaConfig(n_anchors=0)

    def test_bad_strategy(self):
        with pytest.raises(QueryError):
            MiaDaConfig(anchor_strategy="magic")

    def test_bad_tau(self):
        with pytest.raises(QueryError, match="tau"):
            MiaDaConfig(tau=0)
        with pytest.raises(QueryError, match="tau"):
            MiaDaConfig(tau=-5)

    def test_bad_n_heavy(self):
        """Regression: n_heavy=0 used to surface as a cryptic argpartition
        'kth out of bounds' error inside MiaDaIndex.__init__."""
        with pytest.raises(QueryError, match="n_heavy"):
            MiaDaConfig(n_heavy=0)
        with pytest.raises(QueryError, match="n_heavy"):
            MiaDaConfig(n_heavy=-3)

    def test_none_n_heavy_allowed(self):
        assert MiaDaConfig(n_heavy=None).n_heavy is None

    def test_no_n_workers_field(self):
        """The MIIA build has one serial path; no worker knob remains."""
        with pytest.raises(TypeError, match="n_workers"):
            MiaDaConfig(n_workers=2)


class TestQueryBasics:
    def test_returns_k_seeds(self, index):
        res = index.query((50.0, 50.0), 5)
        assert res.k == 5
        assert res.method == "MIA-DA"
        assert res.estimate > 0
        assert res.evaluations is not None

    def test_daim_query_object(self, index):
        res = index.query(DaimQuery((50.0, 50.0), 3))
        assert res.k == 3

    def test_missing_k_rejected(self, index):
        with pytest.raises(QueryError):
            index.query((0.0, 0.0))

    def test_bad_k_rejected(self, index):
        with pytest.raises(QueryError):
            index.query((0.0, 0.0), 0)
        with pytest.raises(QueryError):
            index.query((0.0, 0.0), 10_000)
        with pytest.raises(QueryError, match="integer"):
            index.query((0.0, 0.0), 2.5)


class TestEquivalenceWithPmia:
    """MIA-DA == PMIA on seeds and objective, across queries and k."""

    @pytest.mark.parametrize("qx,qy,k", [
        (50.0, 50.0, 5),
        (10.0, 90.0, 10),
        (95.0, 5.0, 3),
        (150.0, 150.0, 5),   # outside the data extent
    ])
    def test_same_seeds_and_spread(self, net, model, index, qx, qy, k):
        decay = index.decay
        res = index.query((qx, qy), k)
        w = decay.weights(net.coords, (qx, qy))
        pm_seeds, pm_spread = PmiaDa(net, model=model).select(w, k)
        assert res.seeds == pm_seeds
        assert res.estimate == pytest.approx(pm_spread, rel=1e-9)

    def test_pruning_reduces_evaluations(self, net, index):
        """The priority search must evaluate far fewer than n·k nodes."""
        res = index.query((50.0, 50.0), 10)
        assert res.evaluations < net.n  # PMIA touches all n up front

    def test_estimate_matches_model_recomputation(self, net, model, index):
        res = index.query((30.0, 70.0), 4)
        from repro.mia.arborescence import build_miia
        from repro.mia.influence import activation_probabilities

        w = index.decay.weights(net.coords, (30.0, 70.0))
        expected = sum(
            activation_probabilities(t, set(res.seeds))[0] * w[t.root]
            for t in (build_miia(net, v, model.theta) for v in range(net.n))
            if any(s in t for s in res.seeds)
        )
        assert res.estimate == pytest.approx(expected, rel=1e-9)


class TestQueryMany:
    def test_batch_matches_single(self, index):
        locs = [(20.0, 20.0), (80.0, 30.0)]
        batch = index.query_trajectory(locs, 4)
        assert len(batch) == 2
        for res, q in zip(batch, locs):
            assert res.seeds == index.query(q, 4).seeds


class TestBoundsIntegration:
    def test_node_bounds_valid(self, net, model, index):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = tuple(rng.uniform(0, 100, 2))
            w = index.decay.weights(net.coords, q)
            truth = model.singleton_influences(w)
            lower, upper = index.node_bounds(q)
            assert np.all(truth <= upper + 1e-9)
            assert np.all(truth >= lower - 1e-9)

    def test_spread_monotone_in_k(self, index):
        estimates = [index.query((50.0, 50.0), k).estimate for k in (1, 5, 10)]
        assert estimates[0] < estimates[1] < estimates[2]

    def test_closer_queries_spread_more(self, net, index):
        """A query at the data centroid beats one far outside (Figure 7)."""
        centroid = tuple(net.coords.mean(axis=0))
        far = (500.0, 500.0)
        close_est = index.query(centroid, 5).estimate
        far_est = index.query(far, 5).estimate
        assert close_est > far_est

    def test_node_bounds_valid_far_outside_box(self, net, model, index):
        """lower <= exact <= upper must hold (and stay finite) for query
        points far outside the bounding box — the overflow regression of
        AnchorBounds.bounds seen through the index."""
        for q in [(1e4, 1e4), (-1e5, 3e5), (1e8, -1e8)]:
            w = index.decay.weights(net.coords, q)
            truth = model.singleton_influences(w)
            lower, upper = index.node_bounds(q)
            assert np.all(np.isfinite(lower)), q
            assert np.all(np.isfinite(upper)), q
            assert np.all(truth <= upper + 1e-9), q
            assert np.all(truth >= lower - 1e-9), q

    def test_far_query_still_answers(self, index):
        res = index.query((1e7, 1e7), 3)
        assert res.k == 3
        assert np.isfinite(res.estimate)


class TestBuildTracing:
    CFG = MiaDaConfig(theta=0.03, n_anchors=16, tau=64, seed=2)

    def test_build_spans_nest_under_build(self, net):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            MiaDaIndex(net, DistanceDecay(alpha=0.03), self.CFG)
        spans = {s["name"]: s for s in tracer.finished_spans}
        build = spans["mia.build"]
        for phase in ("mia.build_trees", "mia.anchor_bounds",
                      "mia.region_bounds"):
            assert spans[phase]["parent_id"] == build["span_id"]
        attributes = spans["mia.build_trees"]["attributes"]
        assert attributes["n"] == net.n
        assert attributes["rounds"] >= 1
        assert 0 <= attributes["tie_roots"] < net.n

    def test_tracing_does_not_change_the_index(self, net):
        from repro.obs.trace import Tracer, use_tracer

        decay = DistanceDecay(alpha=0.03)
        plain = MiaDaIndex(net, decay, self.CFG)
        with use_tracer(Tracer()):
            traced = MiaDaIndex(net, decay, self.CFG)
        for a, b in zip(plain.model.flat_trees(), traced.model.flat_trees()):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(
            plain.anchor_bounds.influence, traced.anchor_bounds.influence
        )


class TestElapsedExcludesSetup:
    """Regression: ``SeedResult.elapsed`` is documented as *selection
    only*, but the MIA path used to start its timer before the per-query
    bound setup (node weights + anchor/region bounds)."""

    def test_elapsed_excludes_bound_setup(self, index, monkeypatch):
        delay = 0.25
        real_bounds = index.node_bounds

        def slow_bounds(q):
            time.sleep(delay)
            return real_bounds(q)

        monkeypatch.setattr(index, "node_bounds", slow_bounds)
        result, diag = index.query((50.0, 50.0), 3, return_diagnostics=True)
        assert result.elapsed < delay, (
            "elapsed must not include bound-setup time "
            f"(got {result.elapsed:.3f}s with a {delay}s setup stall)"
        )
        assert diag.setup_seconds >= delay

    def test_diagnostics_shape(self, index):
        result, diag = index.query((50.0, 50.0), 3, return_diagnostics=True)
        assert diag.evaluations == result.evaluations
        assert diag.heap_pops >= diag.evaluations
        assert diag.setup_seconds >= 0.0
        plain = index.query((50.0, 50.0), 3)
        assert plain.seeds == result.seeds


class TestBudgetedSearch:
    def test_stops_once_the_budget_is_spent(self, net, index):
        """Costs in [1, 1.2) and a budget of 3.6 afford exactly three
        nodes; the search stops there instead of popping every node."""
        costs = np.random.default_rng(4).uniform(1.0, 1.2, size=net.n)
        result, diag = index.query_budgeted(
            (50.0, 50.0), 3.6, costs, return_diagnostics=True
        )
        assert len(result.seeds) == 3
        assert diag.heap_pops < net.n

    def test_bad_costs_rejected(self, net, index):
        with pytest.raises(QueryError, match="shape"):
            index.query_budgeted((50.0, 50.0), 3.0, np.ones(net.n - 1))
        with pytest.raises(QueryError, match="positive"):
            index.query_budgeted((50.0, 50.0), 3.0, np.zeros(net.n))
        with pytest.raises(QueryError, match="numeric"):
            index.query_budgeted((50.0, 50.0), 3.0, ["a"] * net.n)
