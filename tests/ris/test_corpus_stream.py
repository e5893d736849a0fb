"""Streaming-maintenance behaviour of :class:`RRCorpus`.

Covers the dirty-sample query (``samples_touching``), sampler
replacement, and — the regression this file exists for — that growth
after :meth:`RRCorpus.from_arrays` invalidates *all three* caches
together.  A corpus restored from persistence seeds its flat/roots caches
with the supplied arrays; if ``append_flat`` missed one of them, queries
after a streaming top-up would silently read a stale pool.
"""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler


@pytest.fixture
def corpus(small_net) -> RRCorpus:
    c = RRCorpus(CoupledRRSampler(small_net, seed=4))
    c.ensure(200)
    return c


def restored_copy(corpus, net, seed=4):
    """Round-trip the corpus through its flat form, as persistence does."""
    flat, offsets = corpus.flat()
    return RRCorpus.from_arrays(
        CoupledRRSampler(net, seed=seed), corpus.roots.copy(),
        flat.copy(), offsets.copy(),
    )


class TestCacheInvalidationAfterRestore:
    """Regression: growth after ``from_arrays`` must drop every cache."""

    def test_flat_reflects_growth(self, corpus, small_net):
        c = restored_copy(corpus, small_net)
        flat_before, offsets_before = c.flat()
        c.ensure(len(c) + 50)
        flat_after, offsets_after = c.flat()
        assert len(offsets_after) == len(c) + 1
        assert offsets_after[-1] == len(flat_after)
        # The restored prefix is preserved verbatim.
        assert np.array_equal(flat_after[: len(flat_before)], flat_before)
        assert np.array_equal(
            offsets_after[: len(offsets_before)], offsets_before
        )

    def test_roots_reflect_growth(self, corpus, small_net):
        c = restored_copy(corpus, small_net)
        roots_before = c.roots.copy()
        c.ensure(len(c) + 50)
        assert len(c.roots) == len(c)
        assert np.array_equal(c.roots[: len(roots_before)], roots_before)

    def test_inverted_reflects_growth(self, corpus, small_net):
        c = restored_copy(corpus, small_net)
        c.inverted()  # populate the cache over the restored arrays
        before = len(c)
        c.ensure(before + 50)
        inv_samples, inv_offsets = c.inverted()
        assert inv_offsets[-1] == c.total_entries()
        assert inv_samples.max() == len(c) - 1
        # Every member entry of every new sample is routed in the index.
        for i in range(before, len(c)):
            for u in c.members(i):
                window = inv_samples[inv_offsets[u]: inv_offsets[u + 1]]
                assert i in window

    def test_restored_flat_is_zero_copy(self, corpus, small_net):
        flat, offsets = corpus.flat()
        c = RRCorpus.from_arrays(
            CoupledRRSampler(small_net, seed=4), corpus.roots, flat, offsets
        )
        flat2, offsets2 = c.flat()
        assert np.shares_memory(flat2, flat)
        assert np.shares_memory(offsets2, offsets)


class TestSamplesTouching:
    def test_matches_bruteforce(self, corpus):
        nodes = np.array([3, 17, 50])
        got = corpus.samples_touching(nodes)
        want = [
            i for i in range(len(corpus))
            if np.intersect1d(corpus.members(i), nodes).size
        ]
        assert got.tolist() == want

    def test_empty_touch_set(self, corpus):
        assert corpus.samples_touching([]).size == 0

    def test_out_of_range_rejected(self, corpus):
        with pytest.raises(SamplingError, match="node ids"):
            corpus.samples_touching([corpus.n_nodes])


class TestReplaceSampler:
    def test_swaps_future_growth(self, corpus, small_net):
        replacement = CoupledRRSampler(small_net, seed=99)
        corpus.replace_sampler(replacement)
        assert corpus.sampler is replacement

    def test_node_universe_checked(self, corpus, example_net):
        with pytest.raises(SamplingError, match="covers"):
            corpus.replace_sampler(CoupledRRSampler(example_net, seed=0))
