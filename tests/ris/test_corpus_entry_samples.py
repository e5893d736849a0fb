"""The cached entry -> sample-id array of :class:`RRCorpus`.

``entry_samples()`` lines up with :meth:`RRCorpus.flat` and feeds the
per-entry weights of every greedy cover, so a stale copy after a corpus
mutation would silently weight members by the wrong samples' roots.
Each mutation must rebuild it, and a served answer after an index update
must equal a cover over a freshly restored copy of the updated corpus.
"""

import numpy as np
import pytest

from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler
from repro.ris.coverage import weighted_greedy_cover
from repro.stream.delta import GraphDelta


def _expected(corpus):
    _, offsets = corpus.flat()
    return np.repeat(np.arange(len(corpus)), np.diff(offsets))


def _assert_rebuilt(corpus, stale):
    fresh = corpus.entry_samples()
    assert fresh is not stale
    assert fresh.dtype == np.int64
    assert np.array_equal(fresh, _expected(corpus))


@pytest.fixture
def corpus(small_net):
    c = RRCorpus(CoupledRRSampler(small_net, seed=4))
    c.ensure(200)
    return c


@pytest.fixture
def keyed(small_net):
    c = RRCorpus(CoupledRRSampler(small_net, seed=9))
    c.ensure(200)
    return c


class TestEntrySamples:
    def test_matches_repeat_layout(self, corpus):
        assert np.array_equal(corpus.entry_samples(), _expected(corpus))
        assert len(corpus.entry_samples()) == corpus.total_entries()

    def test_cached(self, corpus):
        assert corpus.entry_samples() is corpus.entry_samples()

    def test_empty_corpus(self, small_net):
        c = RRCorpus(CoupledRRSampler(small_net, seed=0))
        assert c.entry_samples().shape == (0,)

    def test_inverted_reuses_it(self, corpus):
        flat, _ = corpus.flat()
        inv_samples, _ = corpus.inverted()
        order = np.argsort(flat, kind="stable")
        assert inv_samples.dtype == np.int64
        assert np.array_equal(inv_samples, corpus.entry_samples()[order])


class TestRebuiltAfterMutation:
    def test_ensure(self, corpus):
        stale = corpus.entry_samples()
        corpus.ensure(260)
        _assert_rebuilt(corpus, stale)

    def test_regenerate(self, keyed):
        stale = keyed.entry_samples()
        keyed.regenerate([0, 7, 150])
        _assert_rebuilt(keyed, stale)

    def test_from_arrays(self, corpus, small_net):
        flat, offsets = corpus.flat()
        restored = RRCorpus.from_arrays(
            CoupledRRSampler(small_net, seed=4), corpus.roots, flat, offsets
        )
        assert np.array_equal(restored.entry_samples(), _expected(corpus))
        stale = restored.entry_samples()
        restored.ensure(len(restored) + 40)
        _assert_rebuilt(restored, stale)


@pytest.mark.parametrize("diffusion", ["ic", "lt"])
def test_update_serves_from_rebuilt_cache(small_net, diffusion):
    """Both diffusion models refresh by regeneration and must answer
    from the updated corpus."""
    decay = DistanceDecay(alpha=0.02)
    cfg = RisDaConfig(
        k_max=5, n_pivots=4, epsilon_pivot=0.4, max_index_samples=4000,
        seed=3, diffusion=diffusion,
    )
    index = RisDaIndex(small_net, decay, cfg)
    q = (50.0, 50.0)
    res0 = index.query(q, 5)
    stale = index.corpus.entry_samples()
    # Drop the in-edges of the seeds' nodes (removal keeps LT in-weights
    # at most 1) so every sample through them changes.
    seeds = set(res0.seeds)
    removed = [(u, v) for u, v, _ in small_net.iter_edges() if v in seeds]
    stats = index.update(delta=GraphDelta.make(removed=removed))
    assert stats.samples_retired > 0
    _assert_rebuilt(index.corpus, stale)

    res = index.query(q, 5)
    flat, offsets = index.corpus.flat()
    fresh = RRCorpus.from_arrays(
        CoupledRRSampler(index.network, seed=0), index.corpus.roots, flat, offsets
    )
    weights = decay.weights(index.network.coords, q)[fresh.roots]
    cover = weighted_greedy_cover(
        fresh, weights, 5, prefix=res.samples_used, compute_bound=False,
    )
    assert res.seeds == cover.seeds
    assert res.estimate == cover.estimate
