"""Tests for linear-threshold RIS: LT RR sets, LT lower bound, LT index.

LT is a triggering model, so the RIS machinery (Eq. 6/9, Lemmas 5-7)
carries over verbatim once the RR sampler draws LT live-edge instances.
These tests pin the distributional correctness against exact LT
enumeration and exercise the LT-mode RIS-DA index end to end.
"""

import numpy as np
import pytest

from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.diffusion.lt import (
    exact_lt_activation_probabilities,
    lt_spread,
    simulate_lt,
)
from repro.exceptions import GraphError, QueryError
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.network.probability import assign_weighted_cascade
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler
from repro.ris.coverage import estimate_spread
from repro.ris.lower_bound import lb_est_lt


@pytest.fixture
def lt_net() -> GeoSocialNetwork:
    """A small LT-valid graph (in-weights sum to <= 1 per node)."""
    coords = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [2.0, 1.0]]
    )
    edges = [(0, 1), (3, 1), (1, 2), (3, 2), (1, 4), (2, 4)]
    probs = [0.4, 0.3, 0.5, 0.2, 0.3, 0.5]
    return GeoSocialNetwork.from_edges(edges, coords, probs)


class TestExactLtEnumeration:
    def test_chain_hand_computed(self):
        coords = np.zeros((3, 2))
        net = GeoSocialNetwork.from_edges(
            [(0, 1), (1, 2)], coords, [0.5, 0.4]
        )
        ap = exact_lt_activation_probabilities(net, [0])
        assert ap.tolist() == pytest.approx([1.0, 0.5, 0.2])

    def test_matches_lt_simulation(self, lt_net):
        exact = exact_lt_activation_probabilities(lt_net, [0, 3])
        rounds = 20000
        counts = np.zeros(lt_net.n)
        rng = np.random.default_rng(0)
        for _ in range(rounds):
            counts += simulate_lt(lt_net, [0, 3], rng)
        assert np.allclose(counts / rounds, exact, atol=0.02)

    def test_enumeration_cap(self):
        rng = np.random.default_rng(1)
        n = 40
        coords = rng.random((n, 2))
        edges = [(i, (i + j) % n) for i in range(n) for j in (1, 2, 3)]
        net = assign_weighted_cascade(
            GeoSocialNetwork.from_edges(edges, coords)
        )
        with pytest.raises(GraphError, match="enumeration exceeds"):
            exact_lt_activation_probabilities(net, [0])


class TestLtRRSets:
    def test_bad_diffusion_name(self, lt_net):
        with pytest.raises(GraphError):
            CoupledRRSampler(lt_net, diffusion="sir")

    def test_overweight_graph_rejected(self):
        coords = np.zeros((3, 2))
        net = GeoSocialNetwork.from_edges(
            [(0, 2), (1, 2)], coords, [0.8, 0.8]
        )
        with pytest.raises(GraphError, match="in-weights"):
            CoupledRRSampler(net, diffusion="lt")

    def test_membership_rate_matches_exact_lt(self, lt_net):
        """P(u in RR_lt(v)) must equal the exact LT activation I({u}, v)
        (many keys, filtered by root: a slot's root is a function of its
        key)."""
        root = 4
        sampler = CoupledRRSampler(lt_net, seed=3, diffusion="lt")
        roots, flat, offsets = sampler._traverse(np.arange(150_000))
        sets = [
            flat[offsets[i]: offsets[i + 1]]
            for i in np.flatnonzero(roots == root)
        ]
        counts = np.zeros(lt_net.n)
        for members in sets:
            counts[members] += 1
        rates = counts / len(sets)
        for u in range(lt_net.n):
            exact = exact_lt_activation_probabilities(lt_net, [u])[root]
            assert rates[u] == pytest.approx(exact, abs=0.012), u

    def test_rr_set_is_path_sized(self, lt_net):
        """LT RR sets are reverse paths: size <= number of nodes, and the
        expected size is small."""
        sampler = CoupledRRSampler(lt_net, seed=4, diffusion="lt")
        sizes = [len(sampler.sample()[1]) for _ in range(2000)]
        assert max(sizes) <= lt_net.n
        assert np.mean(sizes) < 3.0

    def test_estimator_unbiased_under_lt(self, lt_net):
        decay = DistanceDecay(alpha=0.3)
        q = (2.0, 0.5)
        w = decay.weights(lt_net.coords, q)
        corpus = RRCorpus(CoupledRRSampler(lt_net, seed=5, diffusion="lt"))
        corpus.ensure(60000)
        sample_w = w[corpus.roots]
        for seeds in ([0], [0, 3], [1]):
            est = estimate_spread(corpus, seeds, sample_w)
            exact = float(
                np.dot(exact_lt_activation_probabilities(lt_net, seeds), w)
            )
            assert est == pytest.approx(exact, rel=0.08), seeds


class TestLtLowerBound:
    def test_sound_on_exact_graphs(self, lt_net):
        from itertools import combinations

        decay = DistanceDecay(alpha=0.2)
        rng = np.random.default_rng(6)
        for _ in range(5):
            q = tuple(rng.uniform(0, 2, 2))
            w = decay.weights(lt_net.coords, q)
            for k in (1, 2):
                bound = lb_est_lt(lt_net, w, k)
                opt = max(
                    float(
                        np.dot(
                            exact_lt_activation_probabilities(lt_net, list(s)),
                            w,
                        )
                    )
                    for s in combinations(range(lt_net.n), k)
                )
                assert bound <= opt + 1e-9, (q, k)

    def test_validation(self, lt_net):
        with pytest.raises(QueryError):
            lb_est_lt(lt_net, np.ones(2), 1)
        with pytest.raises(QueryError):
            lb_est_lt(lt_net, np.ones(lt_net.n), 0)


class TestLtRisDaIndex:
    @pytest.fixture(scope="class")
    def net(self):
        from repro.network.generators import (
            GeoSocialConfig,
            generate_geo_social_network,
        )

        return generate_geo_social_network(
            GeoSocialConfig(n=200, avg_out_degree=4.0, extent=100.0,
                            city_std=8.0),
            seed=95,
        )

    @pytest.fixture(scope="class")
    def index(self, net):
        cfg = RisDaConfig(
            k_max=6, n_pivots=8, epsilon_pivot=0.4,
            max_index_samples=20_000, diffusion="lt", seed=6,
        )
        return RisDaIndex(net, DistanceDecay(alpha=0.02), cfg)

    def test_bad_diffusion_config(self):
        with pytest.raises(QueryError):
            RisDaConfig(diffusion="sir")

    def test_query_returns_seeds(self, index):
        res = index.query((50.0, 50.0), 5)
        assert res.k == 5
        assert res.samples_used > 0

    def test_estimate_close_to_lt_simulation(self, net, index):
        q = (50.0, 50.0)
        res = index.query(q, 5)
        w = index.decay.weights(net.coords, q)
        mc = lt_spread(net, res.seeds, rounds=1500, node_weights=w, seed=7)
        assert res.estimate == pytest.approx(mc, rel=0.3)

    def test_lt_and_ic_corpora_differ_structurally(self, net):
        """LT RR sets are reverse paths (no branching), IC RR sets trees.

        Note: under weighted cascade LT sets are *not* smaller — the walk
        continues with probability exactly 1 at every node with in-edges
        (the in-probabilities sum to 1) — so the comparison is structural,
        not size-based.
        """
        lt = RRCorpus(CoupledRRSampler(net, seed=8, diffusion="lt"))
        lt.ensure(2000)
        for i in range(0, 2000, 97):
            members = lt.members(i)
            assert len(members) <= net.n
            assert len(set(members.tolist())) == len(members)
