"""Tests for repro.core.keyword (the influential-cover-set extension)."""

from typing import Mapping

import numpy as np
import pytest

from repro.core.keyword import keyword_cover_query
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.mia.pmia import MiaGreedyState, MiaModel, PmiaDa
from repro.network.graph import GeoSocialNetwork


@pytest.fixture(scope="module")
def setup():
    from repro.network.generators import GeoSocialConfig, generate_geo_social_network

    net = generate_geo_social_network(
        GeoSocialConfig(n=120, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=81,
    )
    model = MiaModel(net, theta=0.05)
    decay = DistanceDecay(alpha=0.02)
    # Deterministic keyword assignment: node u gets keyword "kw<u mod 6>".
    keywords = {u: {f"kw{u % 6}"} for u in range(net.n)}
    return net, model, decay, keywords


class TestCoverage:
    def test_required_keywords_covered(self, setup):
        net, model, decay, keywords = setup
        res = keyword_cover_query(
            model, decay, (50.0, 50.0), 5, {"kw0", "kw3"}, keywords
        )
        covered = set()
        for s in res.seeds:
            covered |= keywords[s]
        assert {"kw0", "kw3"} <= covered
        assert res.k == 5
        assert res.method == "MIA-DA-keyword"

    def test_no_constraint_matches_plain_greedy(self, setup):
        net, model, decay, keywords = setup
        res = keyword_cover_query(model, decay, (50.0, 50.0), 4, set(), keywords)
        w = decay.weights(net.coords, (50.0, 50.0))
        plain, _ = PmiaDa(net, model=model).select(w, 4)
        assert res.seeds == plain

    def test_estimate_matches_objective(self, setup):
        net, model, decay, keywords = setup
        res = keyword_cover_query(
            model, decay, (30.0, 70.0), 4, {"kw1"}, keywords
        )
        # Recompute the MIA objective of the returned set, on trees built
        # independently of the model.
        from repro.mia.arborescence import build_miia
        from repro.mia.influence import activation_probabilities

        w = decay.weights(net.coords, (30.0, 70.0))
        expected = sum(
            activation_probabilities(t, set(res.seeds))[0] * w[t.root]
            for t in (build_miia(net, v, model.theta) for v in range(net.n))
            if any(s in t for s in res.seeds)
        )
        assert res.estimate == pytest.approx(expected, rel=1e-9)

    def test_constraint_costs_influence(self, setup):
        """Forcing rare keywords can only lower the unconstrained optimum."""
        net, model, decay, keywords = setup
        q = (50.0, 50.0)
        constrained = keyword_cover_query(
            model, decay, q, 4, {"kw0", "kw1", "kw2", "kw5"}, keywords
        )
        free = keyword_cover_query(model, decay, q, 4, set(), keywords)
        assert constrained.estimate <= free.estimate + 1e-9


class TestValidation:
    def test_impossible_keyword_rejected(self, setup):
        net, model, decay, keywords = setup
        with pytest.raises(QueryError, match="no node"):
            keyword_cover_query(
                model, decay, (0.0, 0.0), 3, {"unicorn"}, keywords
            )

    def test_budget_too_small_rejected(self, setup):
        net, model, decay, keywords = setup
        # 6 distinct keywords, each node holds exactly one: k=2 cannot
        # cover 3 distinct keywords... it can cover at most 2.
        with pytest.raises(QueryError):
            keyword_cover_query(
                model, decay, (0.0, 0.0), 2,
                {"kw0", "kw1", "kw2"}, keywords,
            )

    def test_bad_k(self, setup):
        net, model, decay, keywords = setup
        with pytest.raises(QueryError):
            keyword_cover_query(model, decay, (0.0, 0.0), 0, set(), keywords)

    def test_sequence_keywords_accepted(self, setup):
        net, model, decay, _ = setup
        seq = [{f"kw{u % 3}"} for u in range(net.n)]
        res = keyword_cover_query(model, decay, (10.0, 10.0), 3, {"kw2"}, seq)
        assert any("kw2" in seq[s] for s in res.seeds)


def _loop_cover(model, decay, q, k, required_keywords, node_keywords):
    """Frozen copy of the per-node cover loop the array pick replaced:
    ``(seeds, estimate)``, or the ``QueryError`` message."""
    n = model.n
    required = set(required_keywords)

    def keywords_of(u):
        if isinstance(node_keywords, Mapping):
            return node_keywords.get(u, frozenset())
        return node_keywords[u]

    available = set()
    for u in range(n):
        available |= set(keywords_of(u)) & required
    if required - available:
        return "no cover"
    state = MiaGreedyState(model, decay.weights(model.network.coords, q))
    seeds, uncovered, total = [], set(required), 0.0
    while len(seeds) < k:
        if uncovered:
            best_u, best_key = -1, (-1, -np.inf)
            for u in range(n):
                if u in seeds:
                    continue
                newly = len(set(keywords_of(u)) & uncovered)
                if newly == 0:
                    continue
                key = (newly, float(state.gain[u]))
                if key > best_key:
                    best_key = key
                    best_u = u
            if best_u < 0:
                return "budget"
            u = best_u
        else:
            u = state.best_candidate()
        uncovered -= set(keywords_of(u))
        total += state.add_seed(u)
        seeds.append(u)
    if uncovered:
        return "budget"
    return seeds, total


class TestLoopParity:
    """The array pick equals the per-node loop it replaced, seed for seed."""

    @pytest.fixture(scope="class")
    def tied(self):
        """Coordinates on a 3x3 grid and many sink nodes: leaf gains are
        node weights, so whole groups of candidates tie exactly."""
        rng = np.random.default_rng(12)
        n = 90
        coords = rng.integers(0, 3, size=(n, 2)).astype(float) * 10.0
        edges = sorted({
            (int(u), int(v)) for u, v in rng.integers(0, n // 3, size=(60, 2))
            if u != v
        })
        net = GeoSocialNetwork.from_edges(
            edges, coords, rng.choice([0.2, 0.5, 1.0], size=len(edges))
        )
        return MiaModel(net, theta=0.05)

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_frozen_loop(self, setup, tied, trial):
        rng = np.random.default_rng(trial)
        model = tied if trial % 2 else setup[1]
        n = model.n
        vocab = [f"kw{i}" for i in range(int(rng.integers(1, 8)))]
        per_node = [
            set(rng.choice(vocab, size=int(rng.integers(0, min(3, len(vocab)) + 1)),
                           replace=False))
            for _ in range(n)
        ]
        if trial % 3 == 0:
            keywords = per_node  # sequence input
        else:
            keywords = {u: words for u, words in enumerate(per_node) if words}
        required = set(
            rng.choice(vocab, size=int(rng.integers(0, len(vocab) + 1)),
                       replace=False)
        )
        if trial % 4 == 1:
            required.add("rare")
            keywords[int(rng.integers(n))] = {"rare"}
        decay = DistanceDecay(alpha=0.02)
        q = tuple(rng.uniform(0.0, 100.0, size=2))
        k = int(rng.integers(1, 8))
        if model is tied:
            weights = decay.weights(model.network.coords, q)
            gains = MiaGreedyState(model, weights).gain
            assert len(np.unique(gains)) < n // 2  # ties are exercised
        want = _loop_cover(model, decay, q, k, required, keywords)
        try:
            res = keyword_cover_query(model, decay, q, k, required, keywords)
        except QueryError as exc:
            assert isinstance(want, str), exc
            assert want in ("no cover" if "no node" in str(exc) else "budget")
            return
        assert (res.seeds, res.estimate) == want
