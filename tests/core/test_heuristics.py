"""Tests for repro.core.heuristics (the cheap baselines)."""

import numpy as np
import pytest

from repro.core.heuristics import (
    degree_discount,
    heuristic_ladder,
    ladder_cost_estimates,
    ladder_rung_for,
    single_discount,
    top_degree,
    top_weight,
    top_weighted_degree,
)
from repro.core.querykind import LADDER_RUNGS
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay


class TestValidation:
    @pytest.mark.parametrize("fn_needs_q", [True, False])
    def test_bad_k(self, example_net, fn_needs_q):
        with pytest.raises(QueryError):
            if fn_needs_q:
                top_weight(example_net, (0, 0), 0)
            else:
                top_degree(example_net, 99)


class TestTopDegree:
    def test_picks_highest_out_degree(self, example_net):
        res = top_degree(example_net, 1)
        deg = np.asarray(example_net.out_degree())
        assert deg[res.seeds[0]] == deg.max()

    def test_ranked_descending(self, small_net):
        res = top_degree(small_net, 5)
        deg = np.asarray(small_net.out_degree())
        vals = deg[res.seeds]
        assert all(vals[i] >= vals[i + 1] for i in range(4))

    def test_method_name(self, example_net):
        assert top_degree(example_net, 2).method == "TopDegree"


class TestTopWeight:
    def test_picks_closest_nodes(self, small_net):
        q = tuple(small_net.coords[17])
        res = top_weight(small_net, q, 3)
        assert 17 in res.seeds

    def test_ordering_by_distance(self, small_net):
        q = (10.0, 10.0)
        res = top_weight(small_net, q, 5)
        d = np.hypot(
            small_net.coords[res.seeds, 0] - 10.0,
            small_net.coords[res.seeds, 1] - 10.0,
        )
        assert all(d[i] <= d[i + 1] + 1e-9 for i in range(4))


class TestTopWeightedDegree:
    def test_matches_manual_ranking(self, small_net):
        decay = DistanceDecay(alpha=0.05)
        q = (20.0, 20.0)
        res = top_weighted_degree(small_net, q, 4, decay)
        score = decay.weights(small_net.coords, q) * np.asarray(
            small_net.out_degree(), dtype=float
        )
        top = set(np.argsort(score)[-4:].tolist())
        assert set(res.seeds) == top


class TestDegreeDiscount:
    def test_selects_k_distinct(self, small_net):
        res = degree_discount(small_net, (20.0, 20.0), 6)
        assert len(set(res.seeds)) == 6

    def test_discount_avoids_clustered_seeds(self):
        """A hub and its satellite should not both be picked when an
        independent hub of equal strength exists."""
        import numpy as np
        from repro.network.graph import GeoSocialNetwork

        # hub A (0) -> 1..4; node 1 -> same neighbours 2..4 (redundant);
        # hub B (5) -> 6..9 (independent).
        coords = np.zeros((10, 2))
        edges = (
            [(0, i) for i in (1, 2, 3, 4)]
            + [(1, i) for i in (2, 3, 4)]
            + [(5, i) for i in (6, 7, 8, 9)]
        )
        net = GeoSocialNetwork.from_edges(edges, coords, [0.5] * len(edges))
        res = degree_discount(net, (0.0, 0.0), 2, DistanceDecay(alpha=0.0))
        assert set(res.seeds) == {0, 5}

    def test_estimate_uses_discounted_scores(self):
        """Regression: the estimate summed *undiscounted* base scores,
        overstating the heuristic's own objective whenever a pick had
        been discounted by an earlier seed."""
        import numpy as np
        from repro.network.graph import GeoSocialNetwork

        # 0 -> 1 -> 2: picking 0 discounts 1, so the k=2 estimate must be
        # strictly below the undiscounted score sum.
        coords = np.zeros((3, 2))
        net = GeoSocialNetwork.from_edges(
            [(0, 1), (1, 2)], coords, [0.5, 0.5]
        )
        decay = DistanceDecay(alpha=0.0)
        res = degree_discount(net, (0.0, 0.0), 2, decay)
        # Base scores: node 0 = 1 + 0.5, node 1 = 1 + 0.5, node 2 = 1.
        # Picks: 0 first, then 1 at its discounted value 1.5 - 0.5 = 1.0.
        assert res.seeds[0] == 0
        assert res.estimate == pytest.approx(1.5 + 1.0)

    def test_per_pick_gain_non_increasing(self, medium_net):
        """Discounts only ever lower scores, so the marginal estimate of
        each successive pick must be non-increasing."""
        decay = DistanceDecay(alpha=0.02)
        q = (50.0, 50.0)
        estimates = [
            degree_discount(medium_net, q, k, decay).estimate
            for k in range(1, 9)
        ]
        gains = np.diff([0.0] + estimates)
        assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gains, gains[1:]))

    def test_quality_beats_top_weight_on_average(self, medium_net):
        """Degree discount should out-spread the pure proximity pick."""
        from repro.diffusion.spread import monte_carlo_weighted_spread

        decay = DistanceDecay(alpha=0.02)
        q = tuple(medium_net.bounding_box().center)
        w = decay.weights(medium_net.coords, q)
        dd = degree_discount(medium_net, q, 10, decay)
        tw = top_weight(medium_net, q, 10, decay)
        s_dd = monte_carlo_weighted_spread(
            medium_net, dd.seeds, node_weights=w, rounds=400, seed=1
        ).value
        s_tw = monte_carlo_weighted_spread(
            medium_net, tw.seeds, node_weights=w, rounds=400, seed=1
        ).value
        assert s_dd > s_tw


class TestSingleDiscount:
    def test_first_pick_is_top_weighted_degree(self, small_net):
        decay = DistanceDecay(alpha=0.02)
        q = (50.0, 50.0)
        sd = single_discount(small_net, q, 1, decay)
        twd = top_weighted_degree(small_net, q, 1, decay)
        assert sd.seeds == list(twd.seeds)

    def test_discount_applied_on_line_graph(self):
        """On 0 -> 1 -> 2 with flat weights, picking node 1 knocks one
        ``w`` unit off node 0 (its only out-edge now targets a seed)."""
        from repro.network.graph import GeoSocialNetwork

        coords = np.zeros((3, 2))
        net = GeoSocialNetwork.from_edges([(0, 1), (1, 2)], coords, [0.5, 0.5])
        decay = DistanceDecay(alpha=0.0)  # all weights 1.0
        res = single_discount(net, (0.0, 0.0), 3, decay)
        # Base scores w*outdeg = [1, 1, 0].  Whichever of {0, 1} goes
        # first, if 1 is picked before 0 then 0's score drops 1 -> 0, so
        # node 2 (score 0) ties it; either way the estimate is the sum of
        # scores *at pick time*, which the discount must keep below the
        # undiscounted total of 2.0 + 0.0 when 1 precedes 0.
        assert set(res.seeds) == {0, 1, 2}
        assert res.method == "SingleDiscount"
        if res.seeds.index(1) < res.seeds.index(0):
            assert res.estimate <= 1.0 + 0.0 + 1.0

    def test_seeds_distinct_and_estimate_positive(self, medium_net):
        decay = DistanceDecay(alpha=0.02)
        res = single_discount(medium_net, (50.0, 50.0), 10, decay)
        assert len(set(res.seeds)) == 10
        assert res.estimate > 0

    def test_bad_k(self, example_net):
        with pytest.raises(QueryError):
            single_discount(example_net, (0, 0), 0)


class TestHeuristicLadder:
    def test_no_budget_takes_top_rung(self, small_net):
        assert ladder_rung_for(small_net, 5, None) == LADDER_RUNGS[0]
        result, rung = heuristic_ladder(small_net, (50.0, 50.0), 5)
        assert rung == "degree-discount"
        assert result.method == "DegreeDiscount"

    def test_zero_budget_takes_cheapest_rung(self, small_net):
        assert ladder_rung_for(small_net, 5, 0.0) == LADDER_RUNGS[-1]
        result, rung = heuristic_ladder(
            small_net, (50.0, 50.0), 5, budget_s=0.0
        )
        assert rung == "high-degree"
        assert result.method == "TopWeightedDegree"

    def test_generous_budget_takes_top_rung(self, small_net):
        result, rung = heuristic_ladder(
            small_net, (50.0, 50.0), 5, budget_s=10.0
        )
        assert rung == "degree-discount"

    def test_explicit_level_pins_rung(self, small_net):
        for rung, method in zip(
            LADDER_RUNGS, ("DegreeDiscount", "SingleDiscount",
                           "TopWeightedDegree")
        ):
            result, got = heuristic_ladder(
                small_net, (50.0, 50.0), 3, level=rung
            )
            assert got == rung
            assert result.method == method

    def test_bad_level_rejected(self, small_net):
        with pytest.raises(QueryError):
            heuristic_ladder(small_net, (0, 0), 3, level="psychic")

    def test_cost_estimates_ordered_by_accuracy(self, medium_net):
        """The cost model must preserve the ladder's point: each cheaper
        rung is predicted cheaper, so a shrinking budget walks down."""
        est = ladder_cost_estimates(medium_net, 10)
        assert est["degree-discount"] > est["single-discount"]
        assert est["single-discount"] >= est["high-degree"]

    def test_top_k_selection_is_priced(self, medium_net):
        """``high-degree`` pays an argpartition and argsort that the
        discount rungs' single pick at ``k=1`` does not: measured dearer
        than single-discount there, and now predicted so."""
        est = ladder_cost_estimates(medium_net, 1)
        assert est["high-degree"] > est["single-discount"]
        assert est["degree-discount"] > est["high-degree"]

    def test_budget_between_rungs_picks_middle(self, medium_net):
        est = ladder_cost_estimates(medium_net, 10)
        budget = (est["single-discount"] + est["degree-discount"]) / 2
        assert ladder_rung_for(medium_net, 10, budget) == "single-discount"


# ----------------------------------------------------------------------
# Parity with the per-node Python loops the array passes replaced.
# ----------------------------------------------------------------------


def _loop_degree_discount(network, w, k):
    """Frozen copy of the per-node loop degree discount: (seeds, estimate)."""
    score = w.copy()
    for u in range(network.n):
        nbrs = network.out_neighbors(u)
        probs = network.out_probabilities(u)
        if len(nbrs):
            score[u] += float(np.dot(probs, w[nbrs]))
    chosen = []
    active = np.zeros(network.n, dtype=bool)
    working = score.copy()
    estimate = 0.0
    for _ in range(k):
        u = int(np.argmax(working))
        chosen.append(u)
        active[u] = True
        estimate += float(working[u])
        working[u] = -np.inf
        nbrs = network.out_neighbors(u)
        probs = network.out_probabilities(u)
        for v, p in zip(nbrs, probs):
            v = int(v)
            if not active[v]:
                working[v] -= float(p) * float(w[v])
    return chosen, estimate


def _loop_single_discount(network, w, k):
    """Frozen copy of the per-neighbour loop single discount."""
    deg = np.asarray(network.out_degree(), dtype=float)
    chosen = []
    active = np.zeros(network.n, dtype=bool)
    working = w * deg
    estimate = 0.0
    for _ in range(k):
        u = int(np.argmax(working))
        chosen.append(u)
        active[u] = True
        estimate += float(working[u])
        working[u] = -np.inf
        for v in network.in_neighbors(u):
            v = int(v)
            if not active[v]:
                working[v] -= float(w[v])
    return chosen, estimate


def _random_graph(seed, dyadic=False):
    """A random graph with sinks, isolated nodes and p = 1 edges.

    The upper third of the ids has no out-edges (sinks) and a few of
    those no in-edges either (isolated).  ``dyadic`` draws every edge
    probability from multiples of 1/8, so with unit weights every sum
    the heuristics form is exact.
    """
    from repro.network.graph import GeoSocialNetwork

    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    n_src = max(2, 2 * n // 3)
    isolated = set(range(n - 2, n))
    pairs = set()
    for _ in range(int(rng.integers(n, 4 * n))):
        u = int(rng.integers(0, n_src))
        v = int(rng.integers(0, n))
        if u != v and v not in isolated and u not in isolated:
            pairs.add((u, v))
    edges = sorted(pairs)
    if dyadic:
        probs = rng.integers(1, 9, size=len(edges)) / 8.0
    else:
        probs = rng.uniform(0.0, 1.0, size=len(edges))
        probs[rng.random(len(edges)) < 0.2] = 1.0
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    return GeoSocialNetwork.from_edges(edges, coords, probs, n=n)


class TestArrayPassParity:
    """Seeds, estimates and ties against the frozen per-node loops."""

    @pytest.mark.parametrize("seed", range(30))
    def test_degree_discount_matches_loop(self, seed):
        net = _random_graph(seed)
        assert (np.diff(net.out_offsets) == 0).any()
        decay = DistanceDecay(alpha=0.03)
        q = (40.0, 60.0)
        w = decay.weights(net.coords, q)
        for k in sorted({1, 2, net.n // 2, net.n}):
            got = degree_discount(net, q, k, decay)
            seeds, estimate = _loop_degree_discount(net, w, k)
            assert got.seeds == seeds
            assert got.estimate == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_degree_discount_bit_equal_when_exact(self, seed):
        """Dyadic probabilities and unit weights make every sum exact,
        so the row-sum order cannot matter: bit for bit, ties included."""
        net = _random_graph(seed, dyadic=True)
        decay = DistanceDecay(alpha=0.0)
        q = (0.0, 0.0)
        w = decay.weights(net.coords, q)
        for k in range(1, net.n + 1):
            got = degree_discount(net, q, k, decay)
            assert (got.seeds, got.estimate) == _loop_degree_discount(net, w, k)

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("dyadic", [False, True])
    def test_single_discount_bit_equal(self, seed, dyadic):
        net = _random_graph(seed, dyadic=dyadic)
        decay = DistanceDecay(alpha=0.0 if dyadic else 0.03)
        q = (40.0, 60.0)
        w = decay.weights(net.coords, q)
        for k in range(1, net.n + 1):
            got = single_discount(net, q, k, decay)
            assert (got.seeds, got.estimate) == _loop_single_discount(net, w, k)

    def test_medium_net_matches_loop(self, medium_net):
        decay = DistanceDecay(alpha=0.02)
        for q in [(50.0, 50.0), (120.0, 30.0), (190.0, 190.0)]:
            w = decay.weights(medium_net.coords, q)
            for k in (1, 10, 30):
                got = degree_discount(medium_net, q, k, decay)
                seeds, estimate = _loop_degree_discount(medium_net, w, k)
                assert got.seeds == seeds
                assert got.estimate == pytest.approx(estimate, rel=1e-12)
                got = single_discount(medium_net, q, k, decay)
                assert (got.seeds, got.estimate) == _loop_single_discount(
                    medium_net, w, k
                )

    def test_edgeless_graph(self):
        from repro.network.graph import GeoSocialNetwork

        net = GeoSocialNetwork.from_edges([], np.zeros((4, 2)), [], n=4)
        decay = DistanceDecay(alpha=0.0)
        w = decay.weights(net.coords, (0.0, 0.0))
        got = degree_discount(net, (0.0, 0.0), 4, decay)
        assert (got.seeds, got.estimate) == _loop_degree_discount(net, w, 4)
        got = single_discount(net, (0.0, 0.0), 4, decay)
        assert (got.seeds, got.estimate) == _loop_single_discount(net, w, 4)
