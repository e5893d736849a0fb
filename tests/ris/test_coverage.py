"""Tests for repro.ris.coverage (Algorithm 2 and the Eq. 9 estimator)."""

import numpy as np
import pytest

from repro.diffusion.possible_world import exact_weighted_spread
from repro.exceptions import QueryError, SamplingError
from repro.geo.weights import DistanceDecay
from repro.ris.corpus import RRCorpus
from repro.ris.coverage import (
    covered_sample_mask,
    estimate_spread,
    weighted_greedy_cover,
)
from repro.ris.coupled import CoupledRRSampler


@pytest.fixture
def corpus(example_net) -> RRCorpus:
    c = RRCorpus(CoupledRRSampler(example_net, seed=0))
    c.ensure(4000)
    return c


class TestValidation:
    def test_zero_samples_rejected(self, example_net):
        empty = RRCorpus(CoupledRRSampler(example_net, seed=0))
        with pytest.raises(SamplingError):
            weighted_greedy_cover(empty, np.ones(0), 1)

    def test_prefix_too_long_rejected(self, corpus):
        with pytest.raises(SamplingError):
            weighted_greedy_cover(corpus, np.ones(5000), 1, prefix=5000)

    def test_bad_k_rejected(self, corpus):
        with pytest.raises(QueryError):
            weighted_greedy_cover(corpus, np.ones(len(corpus)), 0)
        with pytest.raises(QueryError):
            weighted_greedy_cover(corpus, np.ones(len(corpus)), 99)

    def test_short_weights_rejected(self, corpus):
        with pytest.raises(SamplingError):
            weighted_greedy_cover(corpus, np.ones(3), 1)


class TestGreedy:
    def test_selects_k_distinct(self, corpus):
        res = weighted_greedy_cover(corpus, np.ones(len(corpus)), 3)
        assert len(res.seeds) == 3
        assert len(set(res.seeds)) == 3

    def test_gains_non_increasing(self, corpus):
        res = weighted_greedy_cover(corpus, np.ones(len(corpus)), 5)
        gains = res.gains
        assert all(gains[i] >= gains[i + 1] - 1e-9 for i in range(4))

    def test_estimate_is_sum_of_gains(self, corpus, example_net):
        res = weighted_greedy_cover(corpus, np.ones(len(corpus)), 3)
        expected = example_net.n * res.gains.sum() / res.samples_used
        assert res.estimate == pytest.approx(expected)

    def test_estimate_for_prefix_nested(self, corpus, example_net):
        res = weighted_greedy_cover(corpus, np.ones(len(corpus)), 4)
        prev = 0.0
        for j in range(5):
            cur = res.estimate_for_prefix(j, example_net.n)
            assert cur >= prev - 1e-9
            prev = cur
        assert res.estimate_for_prefix(4, example_net.n) == pytest.approx(
            res.estimate
        )

    def test_prefix_uses_fewer_samples(self, corpus):
        res = weighted_greedy_cover(corpus, np.ones(len(corpus)), 2, prefix=100)
        assert res.samples_used == 100

    def test_first_seed_maximises_weighted_coverage(self, corpus):
        """Exhaustive check of the first greedy pick."""
        rng = np.random.default_rng(1)
        weights = rng.random(len(corpus))
        res = weighted_greedy_cover(corpus, weights, 1)
        flat, offsets = corpus.flat()
        n = corpus.n_nodes
        scores = np.zeros(n)
        for i in range(len(corpus)):
            scores[flat[offsets[i] : offsets[i + 1]]] += weights[i]
        assert scores[res.seeds[0]] == pytest.approx(scores.max())


class TestExhaustedPrefix:
    """Regression: full coverage before k seeds must not go negative.

    Residual scores after covering everything are 0 only up to float
    drift (repeated decrements can leave ~-1e-17), so the greedy used to
    select nodes with negative gain and make ``estimate_for_prefix``
    non-monotone in k.  Now it stops once ``max(score) <= 0``.
    """

    @pytest.fixture
    def covered_corpus(self, example_net):
        """Every sample contains node 0, so one seed covers the corpus."""
        sampler = CoupledRRSampler(example_net, seed=0)
        roots = np.array([0, 1, 2, 3, 4, 0], dtype=np.int64)
        members = [[0], [0, 1], [0, 2], [0, 3], [0, 4], [0, 1, 2]]
        flat = np.concatenate([np.asarray(m, dtype=np.int64) for m in members])
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([len(m) for m in members], out=offsets[1:])
        return RRCorpus.from_arrays(sampler, roots, flat, offsets)

    def test_stops_early_with_no_negative_gains(self, covered_corpus):
        # Drift-prone irrational-ish weights exercise the float residue.
        weights = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 0.13])
        res = weighted_greedy_cover(covered_corpus, weights, k=3)
        assert res.seeds == [0]
        assert np.all(res.gains >= 0.0)
        assert res.gains[0] == pytest.approx(weights.sum())
        assert np.all(res.gains[1:] == 0.0)

    def test_estimate_for_prefix_non_decreasing(self, covered_corpus):
        weights = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 0.13])
        res = weighted_greedy_cover(covered_corpus, weights, k=3)
        n = covered_corpus.n_nodes
        estimates = [res.estimate_for_prefix(j, n) for j in range(4)]
        assert all(
            estimates[j] <= estimates[j + 1] + 1e-12 for j in range(3)
        )
        # Past the early stop the curve is exactly flat at the estimate.
        assert estimates[1] == estimates[2] == estimates[3]
        assert estimates[3] == pytest.approx(res.estimate)

    def test_prefix_beyond_gains_rejected(self, covered_corpus):
        res = weighted_greedy_cover(covered_corpus, np.ones(6), k=2)
        with pytest.raises(QueryError):
            res.estimate_for_prefix(3, covered_corpus.n_nodes)

    def test_zero_weight_tail_stops_selection(self, covered_corpus):
        """Samples with zero weight contribute no score at all."""
        weights = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        res = weighted_greedy_cover(covered_corpus, weights, k=4)
        assert res.seeds == [0]
        assert res.estimate == pytest.approx(
            covered_corpus.n_nodes * 1.0 / 6
        )


class TestUnbiasedness:
    """Lemma 3: Eq. 9 is an unbiased estimator of I_q(S)."""

    def test_estimator_matches_exact_spread(self, example_net):
        decay = DistanceDecay(alpha=0.3)
        q = (2.0, 0.0)
        node_w = decay.weights(example_net.coords, q)
        corpus = RRCorpus(CoupledRRSampler(example_net, seed=3))
        corpus.ensure(60000)
        sample_w = node_w[corpus.roots]
        for seeds in ([2], [0, 3], [1, 4]):
            est = estimate_spread(corpus, seeds, sample_w)
            exact = exact_weighted_spread(example_net, seeds, node_w)
            assert est == pytest.approx(exact, rel=0.06), seeds

    def test_uniform_weights_reduce_to_classic_ris(self, example_net):
        corpus = RRCorpus(CoupledRRSampler(example_net, seed=4))
        corpus.ensure(40000)
        est = estimate_spread(corpus, [2], np.ones(len(corpus)))
        from repro.diffusion.possible_world import exact_spread

        assert est == pytest.approx(exact_spread(example_net, [2]), rel=0.05)

    def test_estimate_spread_validation(self, corpus):
        with pytest.raises(SamplingError):
            estimate_spread(corpus, [0], np.ones(2), prefix=10)
        with pytest.raises(SamplingError):
            estimate_spread(corpus, [0], np.ones(len(corpus)), prefix=0)


class TestCoveredSampleMaskRange:
    """A start slot masks ``[start, prefix)``: the full mask's slice."""

    @pytest.mark.parametrize("start,stop", [(0, 4000), (2000, 2500),
                                            (1, 2), (3999, 4000)])
    def test_is_a_slice_of_the_full_mask(self, corpus, start, stop):
        full = covered_sample_mask(corpus, [0, 3])
        part = covered_sample_mask(corpus, [0, 3], stop, start=start)
        assert np.array_equal(part, full[start:stop])
        per_sample = [
            bool({0, 3} & set(corpus.members(i).tolist()))
            for i in range(start, stop)
        ]
        assert part.tolist() == per_sample

    @pytest.mark.parametrize("start,stop", [(-1, 10), (10, 10), (5, 4001)])
    def test_bad_range_rejected(self, corpus, start, stop):
        with pytest.raises(SamplingError):
            covered_sample_mask(corpus, [0], stop, start=start)


class TestSeedIdValidation:
    """Seed ids enter as node ids: numpy would read -1 as node n - 1 and
    fail on n with a raw IndexError; both, and non-integers, are typed
    errors."""

    BAD = [[-1], [0, 5], [5], [0.5], [1.0], ["a"], [True], [[0, 1]], 3]

    @pytest.mark.parametrize("seeds", BAD)
    def test_covered_sample_mask(self, corpus, seeds):
        with pytest.raises(QueryError):
            covered_sample_mask(corpus, seeds)

    @pytest.mark.parametrize("seeds", BAD)
    def test_estimate_spread(self, corpus, seeds):
        with pytest.raises(QueryError):
            estimate_spread(corpus, seeds, np.ones(len(corpus)))

    def test_valid_ids_of_any_integer_kind(self, corpus):
        want = covered_sample_mask(corpus, [0, 4])
        for seeds in ([0, 4], np.array([0, 4], dtype=np.uint8),
                      (np.int32(0), 4), {0, 4}):
            assert np.array_equal(covered_sample_mask(corpus, seeds), want)
        assert not covered_sample_mask(corpus, []).any()


def _full_prefix_cover(corpus, weights, k, l):
    """The greedy cover with the score built from *every* prefix entry,
    zero-weight samples included, and the k-th pick's decrement kept."""
    flat, offsets = corpus.flat()
    end = int(offsets[l])
    entry_weight = weights[corpus.entry_samples()[:end]]
    score = np.bincount(flat[:end], weights=entry_weight,
                        minlength=corpus.n_nodes)
    inv_samples, inv_offsets = corpus.inverted()
    covered = weights[:l] == 0.0
    gains = np.zeros(k)
    seeds = []
    covered_weight = 0.0
    for it in range(k):
        u = int(np.argmax(score))
        gain = float(score[u])
        if gain <= 1e-12 * covered_weight:
            break
        seeds.append(u)
        gains[it] = gain
        covered_weight += gain
        mine = inv_samples[inv_offsets[u]:inv_offsets[u + 1]]
        mine = mine[mine < l]
        newly = mine[~covered[mine]]
        covered[newly] = True
        pos = np.concatenate(
            [np.arange(offsets[i], offsets[i + 1]) for i in newly]
            or [np.empty(0, dtype=np.int64)]
        )
        score -= np.bincount(flat[pos], weights=entry_weight[pos],
                             minlength=len(score))
        score[u] = -np.inf
    return seeds, gains, covered_weight


class TestZeroWeightScoreBuild:
    """Zero-weight samples are left out of the score build, and the
    decrement after the last pick is skipped: both must be bit-exact."""

    @pytest.mark.parametrize("seed", range(6))
    def test_gains_equal_full_prefix_build(self, small_net, seed):
        rng = np.random.default_rng(seed)
        c = RRCorpus(CoupledRRSampler(small_net, seed=seed))
        c.ensure(3000)
        l = int(rng.integers(1000, 3001))
        weights = DistanceDecay(alpha=0.03).weights(
            small_net.coords, (40.0, 60.0)
        )[c.roots]
        weights[rng.random(len(weights)) < 0.9] = 0.0
        assert (weights[:l] == 0.0).mean() > 0.85
        for k in (1, 5, 12):
            want_seeds, want_gains, covered = _full_prefix_cover(
                c, weights, k, l
            )
            for bound in (False, True):
                got = weighted_greedy_cover(
                    c, weights, k, prefix=l, compute_bound=bound
                )
                assert got.seeds == want_seeds
                assert got.gains.tobytes() == want_gains.tobytes()
                assert got.estimate == small_net.n * covered / l
