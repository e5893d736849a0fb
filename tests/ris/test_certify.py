"""Tests for repro.ris.certify (a-posteriori seed-set certification)."""

import numpy as np
import pytest

from repro.diffusion.possible_world import exact_weighted_spread
from repro.exceptions import QueryError, SamplingError
from repro.geo.weights import DistanceDecay
from repro.ris.certify import (
    Certificate,
    certify_seed_set,
    mean_lower_bound,
    mean_upper_bound,
)


class TestConcentrationBounds:
    def test_lcb_below_ucb(self):
        for x, b in [(10.0, 100), (500.0, 1000), (0.0, 50)]:
            a = np.log(200.0)
            assert mean_lower_bound(x, b, a) <= mean_upper_bound(x, b, a)

    def test_lcb_below_empirical_mean(self):
        assert mean_lower_bound(50.0, 100, 5.0) <= 0.5

    def test_ucb_above_empirical_mean(self):
        assert mean_upper_bound(50.0, 100, 5.0) >= 0.5

    def test_bounds_tighten_with_samples(self):
        a = 5.0
        gap_small = mean_upper_bound(10.0, 100, a) - mean_lower_bound(10.0, 100, a)
        gap_large = mean_upper_bound(100.0, 1000, a) - mean_lower_bound(100.0, 1000, a)
        assert gap_large < gap_small

    def test_coverage_of_true_mean(self):
        """Empirical check: bounds hold far more often than 1 - delta."""
        rng = np.random.default_rng(0)
        mu, b, delta = 0.3, 400, 0.1
        a = np.log(1.0 / delta)
        violations = 0
        trials = 400
        for _ in range(trials):
            x = float(rng.binomial(b, mu))
            if not (mean_lower_bound(x, b, a) <= mu <= mean_upper_bound(x, b, a)):
                violations += 1
        assert violations / trials <= delta

    def test_validation(self):
        with pytest.raises(SamplingError):
            mean_lower_bound(1.0, 0, 1.0)
        with pytest.raises(SamplingError):
            mean_upper_bound(-1.0, 10, 1.0)


class TestCertifySeedSet:
    def test_validation(self, example_net):
        with pytest.raises(QueryError):
            certify_seed_set(example_net, (0, 0), [])
        with pytest.raises(QueryError):
            certify_seed_set(example_net, (0, 0), [0, 1], k=1)
        with pytest.raises(SamplingError):
            certify_seed_set(example_net, (0, 0), [0], delta=2.0)

    @pytest.mark.parametrize("seeds", [[-1], [0, 5], [0.5], ["a"]])
    def test_seed_ids_must_be_node_ids(self, example_net, seeds):
        with pytest.raises(QueryError):
            certify_seed_set(example_net, (0, 0), seeds, n_samples=100)

    def test_certificate_is_sound_on_exact_graph(self, example_net):
        """LCB <= true spread and UCB >= true optimum (checked exactly)."""
        from itertools import combinations

        decay = DistanceDecay(alpha=0.2)
        q = (2.0, 0.0)
        w = decay.weights(example_net.coords, q)
        seeds = [2, 0]
        cert = certify_seed_set(
            example_net, q, seeds, decay, n_samples=30_000, seed=1
        )
        truth = exact_weighted_spread(example_net, seeds, w)
        opt = max(
            exact_weighted_spread(example_net, list(s), w)
            for s in combinations(range(example_net.n), 2)
        )
        assert cert.spread_lcb <= truth + 1e-9
        assert cert.opt_ucb >= opt - 1e-9
        assert 0.0 <= cert.ratio <= 1.0

    def test_good_seeds_certify_high(self, example_net):
        """The actual optimum should certify well above 1 - 1/e."""
        from itertools import combinations

        decay = DistanceDecay(alpha=0.2)
        q = (2.0, 0.0)
        w = decay.weights(example_net.coords, q)
        best = max(
            combinations(range(example_net.n), 2),
            key=lambda s: exact_weighted_spread(example_net, list(s), w),
        )
        cert = certify_seed_set(
            example_net, q, list(best), decay, n_samples=50_000, seed=2
        )
        assert cert.ratio > 0.75

    def test_bad_seeds_certify_low(self, example_net):
        """A weak seed set must not receive a strong certificate."""
        decay = DistanceDecay(alpha=0.2)
        q = (2.0, 0.0)
        # Node 4 is a sink far down the cascade: weak seed.
        cert_bad = certify_seed_set(
            example_net, q, [4], decay, n_samples=50_000, seed=3
        )
        cert_good = certify_seed_set(
            example_net, q, [2], decay, n_samples=50_000, seed=3
        )
        assert cert_bad.ratio < cert_good.ratio

    def test_certify_index_output(self, small_net):
        """End-to-end: certify a RIS-DA answer on a real graph."""
        from repro.core.ris_da import RisDaConfig, RisDaIndex

        decay = DistanceDecay(alpha=0.05)
        index = RisDaIndex(
            small_net, decay,
            RisDaConfig(k_max=5, n_pivots=6, epsilon_pivot=0.4,
                        max_index_samples=8_000, seed=4),
        )
        q = (50.0, 50.0)
        res = index.query(q, 5)
        cert = certify_seed_set(
            small_net, q, res.seeds, decay, n_samples=20_000, seed=5
        )
        assert isinstance(cert, Certificate)
        # The greedy answer must certify at least the theoretical floor
        # minus estimator slack.
        assert cert.ratio > 0.45
