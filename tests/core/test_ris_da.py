"""Tests for repro.core.ris_da (index construction and online queries)."""

import numpy as np
import pytest

from repro.core.multi_location import multi_location_query, multi_location_weights
from repro.core.query import DaimQuery
from repro.core.ris_da import QueryDiagnostics, RisDaConfig, RisDaIndex, _Plan
from repro.diffusion.spread import monte_carlo_weighted_spread
from repro.exceptions import QueryError, SamplingError
from repro.geo.weights import DistanceDecay
from repro.ris.coverage import weighted_budgeted_cover, weighted_greedy_cover
from repro.ris.lower_bound import lb_est
from repro.ris.sample_size import lemma8_lower_bound, required_sample_size


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

    def test_pivot_estimates_monotone_in_k(self, index, uncapped_index):
        """Greedy prefixes: the estimate curve is non-decreasing in k.
        Only pivots Lemma 8 may transfer from have a curve; a pivot the
        cap cut short keeps a NaN row."""
        for built in (index, uncapped_index):
            rows = built.pivot_estimates[built.lemma8_ok]
            assert np.all(np.diff(rows, axis=1) >= -1e-9)
            assert np.isnan(built.pivot_estimates[~built.lemma8_ok]).all()
        assert not index.lemma8_ok.any() and uncapped_index.lemma8_ok.all()

    def test_lower_bounds_below_estimates(self, index, uncapped_index):
        """LB-EST bounds a quantity the greedy estimate approximates from
        below; allow estimator noise but catch gross inversions.  Cut
        pivots have no estimate to compare with."""
        for built in (index, uncapped_index):
            assert np.isnan(built.pivot_estimates[~built.lemma8_ok]).all()
        ok = uncapped_index.pivot_lower_bounds <= (
            uncapped_index.pivot_estimates * 1.5 + 1.0
        )
        assert ok.mean() > 0.9

    def test_pivot_greedy_runs_only_where_lemma8_reads(
        self, index, uncapped_index, mixed_index
    ):
        """Algorithm 4's greedy feeds only Lemma 8, so the build runs it
        only for pivots whose prefix reached its Lemma 7 size: their rows
        equal the greedy over ``[0, l_p)`` prefix by prefix, every other
        row is NaN, and the build's mark is the loader's rule."""
        assert not index.lemma8_ok.any() and uncapped_index.lemma8_ok.all()
        assert 0 < mixed_index.lemma8_ok.sum() < len(mixed_index.pivots)
        for built in (index, uncapped_index, mixed_index):
            assert np.array_equal(built.lemma8_ok, built._lemma8_pivots())
            curves = _greedy_curves(built)
            for pi, ok in enumerate(built.lemma8_ok):
                row = built.pivot_estimates[pi]
                if ok:
                    assert row.tolist() == curves[pi].tolist()
                else:
                    assert np.isnan(row).all()

    def test_corpus_sized_for_worst_cell(self, index):
        assert len(index.corpus) >= min(
            index.index_samples_required, index.config.max_index_samples
        )


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

    @pytest.mark.usefixtures("lemma7_sizing")
    def test_diagnostics(self, index):
        res, diag = index.query((50.0, 50.0), 5, return_diagnostics=True)
        assert isinstance(diag, QueryDiagnostics)
        assert 0 <= diag.pivot_index < 16
        assert diag.pivot_distance >= 0
        assert diag.lower_bound > 0
        assert diag.samples_used == res.samples_used
        assert diag.samples_required >= diag.samples_used

    @pytest.mark.usefixtures("lemma7_sizing")
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

    @pytest.mark.usefixtures("lemma7_sizing")
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

    @pytest.mark.usefixtures("lemma7_sizing")
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
        batch = index.query_trajectory(locs, 3)
        assert len(batch) == 2
        for res, q in zip(batch, locs):
            assert res.seeds == index.query(q, 3).seeds

    def test_query_many_diagnostics(self, index):
        locs = [(15.0, 15.0), (70.0, 40.0), (33.0, 90.0)]
        batch = index.query_trajectory(locs, 3, return_diagnostics=True)
        assert len(batch) == 3
        for (res, diag), q in zip(batch, locs):
            single_res, single_diag = index.query(
                q, 3, return_diagnostics=True
            )
            assert isinstance(diag, QueryDiagnostics)
            assert res.seeds == single_res.seeds
            assert diag == single_diag

    @pytest.mark.usefixtures("lemma7_sizing")
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


@pytest.fixture(scope="module", params=["euclidean", "manhattan"])
def metric_index(request, net):
    decay = DistanceDecay(alpha=0.02, metric=request.param)
    cfg = RisDaConfig(
        k_max=8, n_pivots=8, epsilon_pivot=0.4, max_index_samples=10_000,
        seed=5,
    )
    return RisDaIndex(net, decay, cfg)


def _per_sample_reference(index, locations, k, l, mask=None, costs=None,
                          budget=0.0):
    """The cover over weights evaluated once per *sample*, as the online
    body did before it moved the Eq. 9 weights to node space."""
    roots = index.corpus.roots[:l]
    weights = multi_location_weights(
        index.decay, index.network.coords[roots], locations
    )
    if mask is not None:
        weights = weights * mask[roots]
    if costs is None:
        return weighted_greedy_cover(
            index.corpus, weights, k, prefix=l, compute_bound=False,
        )
    return weighted_budgeted_cover(
        index.corpus, weights, costs, budget, prefix=l,
    )


def _assert_matches_reference(res, ref):
    assert res.seeds == ref.seeds
    # The reference estimate is Eq. 9 over its own covered gains.
    assert res.estimate == ref.estimate
    assert res.samples_used == ref.samples_used


class TestNodeSpaceWeights:
    """Node-space weights ``w_node[roots]`` are the per-sample weights
    ``w(coords[roots])`` float for float, so every plan kind answers
    exactly what the per-sample formula answers."""

    Q = (42.0, 58.0)

    def test_point(self, metric_index):
        res, diag = metric_index.query(self.Q, 5, return_diagnostics=True)
        ref = _per_sample_reference(
            metric_index, [self.Q], 5, diag.samples_used
        )
        _assert_matches_reference(res, ref)

    def test_genuine_mask(self, metric_index, net):
        mask = np.random.default_rng(3).uniform(0.0, 2.0, net.n)
        mask[::4] = 0.0
        res, diag = metric_index.query_masked(
            self.Q, 5, mask, return_diagnostics=True
        )
        ref = _per_sample_reference(
            metric_index, [self.Q], 5, diag.samples_used, mask=mask
        )
        _assert_matches_reference(res, ref)
        # Sized by LB-EST at the masked weights: certified iff it fits.
        assert diag.guarantee_met == (
            diag.samples_used >= diag.samples_required
        )

    def test_budgeted(self, metric_index, net):
        costs = np.random.default_rng(4).uniform(0.5, 2.0, net.n)
        res, diag = metric_index.query_budgeted(
            self.Q, 6.0, costs, return_diagnostics=True
        )
        ref = _per_sample_reference(
            metric_index, [self.Q], None, diag.samples_used,
            costs=costs, budget=6.0,
        )
        _assert_matches_reference(res, ref)

    def test_trajectory(self, metric_index):
        waypoints = [(10.0, 10.0), (50.0, 50.0), (90.0, 30.0)]
        answers = metric_index.query_trajectory(
            waypoints, 4, return_diagnostics=True
        )
        for wp, (res, diag) in zip(waypoints, answers):
            ref = _per_sample_reference(
                metric_index, [wp], 4, diag.samples_used
            )
            _assert_matches_reference(res, ref)

    def test_multi_location(self, metric_index):
        locs = ((20.0, 30.0), (70.0, 60.0), (45.0, 85.0))
        plan = _Plan(locs, 5, method="RIS-DA-multi")
        [(res, diag)] = metric_index._answer([plan], return_diagnostics=True)
        ref = _per_sample_reference(metric_index, locs, 5, diag.samples_used)
        _assert_matches_reference(res, ref)
        public = multi_location_query(metric_index, locs, 5)
        assert public.seeds == res.seeds
        assert public.estimate == res.estimate


def _lemma8_bound(index, loc, k, estimates=None):
    """The nearest pivot's Lemma 8 transfer, as the online body takes it
    (from ``estimates``, the index's own pivot table by default)."""
    cfg, n = index.config, index.network.n
    dp, _ = cfg.resolved_deltas(n)
    pi, dist = index._pivot_tree.nearest(loc)
    table = index.pivot_estimates if estimates is None else estimates
    return lemma8_lower_bound(
        float(table[pi, k - 1]), dist, index.decay.alpha,
        cfg.epsilon_pivot, dp, n, k,
    )


def _greedy_curves(index):
    """Every pivot's Algorithm 4 curve, cut pivots included: the k_max
    greedy over the pivot's capped prefix ``[0, l_p)`` of the corpus,
    read prefix by prefix (the build only grows the corpus, so its first
    ``l_p`` slots are the ones the pivot phase saw)."""
    n = index.network.n
    cap = index.config.max_index_samples
    curves = np.empty_like(index.pivot_lower_bounds)
    for pi, p in enumerate(index.pivots):
        weights = index.decay.weights(
            index.network.coords, (float(p[0]), float(p[1]))
        )
        l_p = min(index._pivot_sample_size(index.pivot_lower_bounds[pi]), cap)
        cover = weighted_greedy_cover(
            index.corpus, weights[index.corpus.roots[:l_p]], index.k_max,
            prefix=l_p, compute_bound=False,
        )
        curves[pi] = [cover.estimate_for_prefix(k, n)
                      for k in range(1, index.k_max + 1)]
    return curves


@pytest.fixture(scope="module")
def uncapped_index(net):
    """Every pivot's Algorithm 4 prefix fits the cap, so Lemma 8 applies."""
    return RisDaIndex(net, DistanceDecay(alpha=0.02), RisDaConfig(
        k_max=6, n_pivots=8, epsilon_pivot=0.3,
        max_index_samples=400_000, seed=9,
    ))


@pytest.fixture(scope="module")
def mixed_index(net):
    """``uncapped_index``'s build under a cap that cuts 3 of 8 pivots."""
    return RisDaIndex(net, DistanceDecay(alpha=0.02), RisDaConfig(
        k_max=6, n_pivots=8, epsilon_pivot=0.3,
        max_index_samples=70_000, seed=9,
    ))


@pytest.mark.usefixtures("lemma7_sizing")
class TestSizingRule:
    """Every plan is sized by ``L = max(Lemma 8, LB-EST(w_node, k))``,
    where Lemma 8 transfers only from pivots whose Algorithm 4 prefix
    reached its Lemma 7 size; masked plans, updated indexes and pivots
    the cap cut short are sized by LB-EST alone.  The certified early
    stop is switched off (``lemma7_sizing``): the rule is what its
    fallback and every index below ``2 * CERTIFY_SAMPLES`` samples run."""

    Q = (42.0, 58.0)

    def test_capped_pivots_do_not_transfer(self, index, net):
        """The fixture's cap cuts every pivot's prefix, so a point query
        is sized by LB-EST even where the transfer would be larger.  The
        build keeps no curve for a cut pivot; the test runs its greedy."""
        assert index.truncated and not index.lemma8_ok.any()
        curves = _greedy_curves(index)
        larger = 0
        for q in (self.Q, tuple(index.pivots[0]), (2.0, 97.0), (50.0, 50.0)):
            _, diag = index.query(q, 5, return_diagnostics=True)
            w = index.decay.weights(net.coords, q)
            assert diag.lower_bound == lb_est(net, w, 5, index.decay.w_max)
            larger += _lemma8_bound(index, q, 5, curves) > diag.lower_bound
            assert diag.guarantee_met == (
                diag.samples_used >= diag.samples_required
            )
        assert larger

    def test_point_takes_the_better_bound(self, uncapped_index, net):
        index = uncapped_index
        assert not index.truncated and index.lemma8_ok.all()
        transfers = 0
        qs = [tuple(p) for p in index.pivots[:4]] + [self.Q, (50.0, 50.0)]
        for q in qs:
            _, diag = index.query(q, 2, return_diagnostics=True)
            w = index.decay.weights(net.coords, q)
            lemma8 = _lemma8_bound(index, q, 2)
            expected = max(lemma8, lb_est(net, w, 2, index.decay.w_max))
            assert diag.lower_bound == expected
            assert diag.guarantee_met
            transfers += expected == lemma8
        # Both bounds decide some query, so both paths stay exercised.
        assert 0 < transfers < len(qs)

    def test_multi_location_takes_the_best_transfer(self, uncapped_index, net):
        index = uncapped_index
        locs = (tuple(index.pivots[0]), (70.0, 60.0))
        [(_, diag)] = index._answer([_Plan(locs, 2)], return_diagnostics=True)
        w = multi_location_weights(index.decay, net.coords, locs)
        expected = max(
            max(_lemma8_bound(index, q, 2) for q in locs),
            lb_est(net, w, 2, index.decay.w_max),
        )
        assert diag.lower_bound == expected

    def test_capped_multi_location_is_sized_by_lb_est(self, index, net):
        locs = ((20.0, 30.0), (70.0, 60.0))
        [(_, diag)] = index._answer([_Plan(locs, 4)], return_diagnostics=True)
        w = multi_location_weights(index.decay, net.coords, locs)
        assert diag.lower_bound == lb_est(net, w, 4, index.decay.w_max)

    def test_mask_is_sized_by_masked_lb_est_alone(self, index, net):
        mask = np.zeros(net.n)
        mask[::3] = 1.0
        _, diag = index.query_masked(self.Q, 5, mask, return_diagnostics=True)
        w = index.decay.weights(net.coords, self.Q) * mask
        assert diag.lower_bound == lb_est(net, w, 5, index.decay.w_max)

    def test_all_zero_mask_answers_uncertified_from_whole_corpus(
        self, index, net
    ):
        res, diag = index.query_masked(
            self.Q, 3, np.zeros(net.n), return_diagnostics=True
        )
        assert diag.lower_bound == 0.0
        assert diag.samples_required is None
        assert diag.samples_used == len(index.corpus) == res.samples_used
        assert not diag.guarantee_met
        assert res.estimate == 0.0

    def test_non_uniform_budget_never_certifies(self, index, net):
        costs = np.random.default_rng(4).uniform(0.5, 2.0, net.n)
        for q in (self.Q, (10.0, 10.0), (80.0, 35.0)):
            _, diag = index.query_budgeted(
                q, 6.0, costs, return_diagnostics=True
            )
            assert not diag.guarantee_met

    def test_uniform_budget_certifies_as_top_k(self, index, net):
        """Equal costs with floor(budget / c) <= k_max is the top-k
        greedy, and carries the point query's certificate."""
        costs = np.full(net.n, 0.5)
        res, diag = index.query_budgeted(
            self.Q, 2.5, costs, return_diagnostics=True
        )
        ref, ref_diag = index.query(self.Q, 5, return_diagnostics=True)
        assert res.seeds == ref.seeds
        assert diag == ref_diag
        # A budget buying more than k_max seeds is capped at k_max and
        # is no longer the top-floor(budget / c) greedy.
        _, capped = index.query_budgeted(
            self.Q, 0.5 * (index.k_max + 1), costs, return_diagnostics=True
        )
        assert not capped.guarantee_met


class TestStalePivotBounds:
    def test_updated_index_sizes_by_lb_est_on_current_graph(self, net):
        decay = DistanceDecay(alpha=0.02)
        idx = RisDaIndex(net, decay, RisDaConfig(
            k_max=6, n_pivots=8, epsilon_pivot=0.4,
            max_index_samples=6_000, seed=9,
        ))
        q, k = (42.0, 58.0), 4
        edges, probs = net.edge_array()
        idx.update(edges=edges, probabilities=probs / 2.0)
        assert idx.generation == 1
        _, diag = idx.query(q, k, return_diagnostics=True)
        w = decay.weights(idx.network.coords, q)
        assert diag.lower_bound == lb_est(idx.network, w, k, decay.w_max)
        assert diag.guarantee_met == (
            diag.samples_used >= diag.samples_required
        )
