"""Tests for repro.ris.corpus."""

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler


@pytest.fixture
def corpus(example_net) -> RRCorpus:
    return RRCorpus(CoupledRRSampler(example_net, seed=0))


class TestEnsure:
    def test_grows_to_count(self, corpus):
        assert corpus.ensure(10) == 10
        assert len(corpus) == 10

    def test_no_shrink(self, corpus):
        corpus.ensure(10)
        assert corpus.ensure(5) == 10
        assert len(corpus) == 10

    def test_incremental_growth_appends(self, corpus):
        corpus.ensure(5)
        first_roots = corpus.roots.tolist()
        corpus.ensure(12)
        assert corpus.roots[:5].tolist() == first_roots

    def test_negative_rejected(self, corpus):
        with pytest.raises(SamplingError):
            corpus.ensure(-1)

    def test_prefix_stability_equals_fresh_sampler(self, example_net):
        """Growing in steps produces the same stream as growing at once."""
        a = RRCorpus(CoupledRRSampler(example_net, seed=9))
        a.ensure(4)
        a.ensure(20)
        b = RRCorpus(CoupledRRSampler(example_net, seed=9))
        b.ensure(20)
        assert a.roots.tolist() == b.roots.tolist()
        for i in range(20):
            assert np.array_equal(a.members(i), b.members(i))

    def test_growth_matches_sample_batch(self, example_net):
        """Growth appends the sampler's batch unchanged, keys included."""
        keys, roots, flat, offsets = CoupledRRSampler(
            example_net, seed=17
        ).sample_batch(50)
        corpus = RRCorpus(CoupledRRSampler(example_net, seed=17))
        corpus.ensure(20)
        corpus.ensure(50)
        assert corpus.keys.tolist() == keys.tolist()
        assert corpus.roots.tolist() == roots.tolist()
        for got, want in zip(corpus.flat(), (flat, offsets)):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_append_flat_validation(self, example_net):
        corpus = RRCorpus(CoupledRRSampler(example_net, seed=0))
        with pytest.raises(SamplingError):
            corpus.append_flat(
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )


class TestFromArraysValidation:
    """``from_arrays`` refuses arrays outside the CSR layout, by reading."""

    @pytest.fixture
    def arrays(self, example_net):
        corpus = RRCorpus(CoupledRRSampler(example_net, seed=2))
        corpus.ensure(12)
        flat, offsets = corpus.flat()
        return corpus.sampler, corpus.roots.copy(), flat.copy(), offsets.copy()

    @pytest.mark.parametrize("field, edit, match", [
        ("flat", lambda a: a.astype(np.float64), "integers"),
        ("roots", lambda a: a.astype(bool), "integers"),
        ("offsets", lambda a: a + 1, "inconsistent"),
        ("offsets", lambda a: np.concatenate(([0, 2, 1], a[3:])),
         "non-decreasing"),
        ("flat", lambda a: np.where(np.arange(len(a)) == 0, 5, a), "members"),
        ("flat", lambda a: np.where(np.arange(len(a)) == 0, -1, a), "members"),
        ("roots", lambda a: np.where(np.arange(len(a)) == 3, 5, a), "roots"),
        ("roots", lambda a: a.reshape(3, 4), "one-dimensional"),
        ("flat", lambda a: np.sort(a)[::-1].copy(), "sorted and distinct"),
    ])
    def test_bad_arrays_rejected(self, arrays, field, edit, match):
        sampler, roots, flat, offsets = arrays
        parts = {"roots": roots, "flat": flat, "offsets": offsets}
        parts[field] = edit(parts[field])
        with pytest.raises(SamplingError, match=match):
            RRCorpus.from_arrays(sampler, **parts)

    def test_valid_arrays_wrapped_read_only(self, arrays):
        sampler, roots, flat, offsets = arrays
        for arr in (roots, flat, offsets):
            arr.flags.writeable = False
        corpus = RRCorpus.from_arrays(sampler, roots, flat, offsets)
        assert corpus.roots is roots
        assert corpus.flat()[0] is flat and corpus.flat()[1] is offsets
        assert corpus.inverted()[1][-1] == len(flat)


class TestFlat:
    def test_flat_matches_members(self, corpus):
        corpus.ensure(15)
        flat, offsets = corpus.flat()
        for i in range(15):
            assert np.array_equal(
                flat[offsets[i] : offsets[i + 1]], corpus.members(i)
            )

    def test_cache_invalidated_on_growth(self, corpus):
        corpus.ensure(5)
        flat1, _ = corpus.flat()
        corpus.ensure(10)
        flat2, offsets2 = corpus.flat()
        assert len(flat2) >= len(flat1)
        assert len(offsets2) == 11

    def test_empty_corpus_flat(self, corpus):
        flat, offsets = corpus.flat()
        assert len(flat) == 0
        assert offsets.tolist() == [0]


class TestInverted:
    @pytest.mark.parametrize("n", [50, 70_000])  # 16-bit sort keys or not
    def test_matches_per_node_scan(self, n):
        from repro.network.graph import GeoSocialNetwork

        rng = np.random.default_rng(n)
        net = GeoSocialNetwork(n, np.empty((0, 2)), None, np.zeros((n, 2)))
        hot = rng.choice(n, size=40, replace=False)
        members = [np.unique(rng.choice(hot, size=rng.integers(1, 6)))
                   for _ in range(300)]
        offsets = np.concatenate([[0], np.cumsum([len(m) for m in members])])
        corpus = RRCorpus.from_arrays(
            CoupledRRSampler(net, seed=0), [int(m[0]) for m in members],
            np.concatenate(members), offsets,
        )
        inv_samples, inv_offsets = corpus.inverted()
        assert inv_offsets.shape == (n + 1,)
        for u in range(n) if n < 1000 else np.append(hot, [0, n - 1]):
            want = [i for i, m in enumerate(members) if u in m]
            got = inv_samples[inv_offsets[u]: inv_offsets[u + 1]]
            assert got.tolist() == want


class TestStats:
    def test_average_size(self, corpus):
        corpus.ensure(30)
        avg = corpus.average_size()
        flat, _ = corpus.flat()
        assert avg == pytest.approx(len(flat) / 30)

    def test_average_size_empty(self, corpus):
        assert corpus.average_size() == 0.0

    def test_total_entries_prefix(self, corpus):
        corpus.ensure(10)
        assert corpus.total_entries(3) == sum(
            len(corpus.members(i)) for i in range(3)
        )
        assert corpus.total_entries() == sum(
            len(corpus.members(i)) for i in range(10)
        )

    def test_n_nodes(self, corpus, example_net):
        assert corpus.n_nodes == example_net.n
