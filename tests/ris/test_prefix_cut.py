"""Prefix cuts of the inverted index and the slot mask built on them.

:meth:`RRCorpus.prefix_cut` gives, per node, the end of its inverted
slice restricted to a slot prefix; the greedy cover slices candidates
with it and :func:`covered_sample_mask` gathers the seeds' samples of a
slot range between two cuts.  These tests pin both against per-node
binary searches and per-sample loops, check that no kept cut outlives
a corpus mutation, and that the memo stays within its cap.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.network.graph import GeoSocialNetwork
from repro.ris.corpus import PREFIX_CUT_MEMO, RRCorpus
from repro.ris.coupled import CoupledRRSampler
from repro.ris.coverage import covered_sample_mask
from repro.ris.reference import reference_covered_sample_mask

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def _sampler(n_nodes: int) -> CoupledRRSampler:
    """A sampler over a path graph of ``n_nodes`` nodes (at least 2)."""
    n_nodes = max(n_nodes, 2)
    coords = np.column_stack([np.arange(n_nodes, dtype=float), np.zeros(n_nodes)])
    edges = [(i, i + 1) for i in range(n_nodes - 1)]
    network = GeoSocialNetwork.from_edges(edges, coords, [0.5] * len(edges))
    return CoupledRRSampler(network, seed=0)


def _corpus(n_nodes: int, sets: list[list[int]]) -> RRCorpus:
    """A corpus of the given member sets (empty sets allowed)."""
    members = [np.unique(np.asarray(s, dtype=np.int64)) for s in sets]
    offsets = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum([len(m) for m in members], out=offsets[1:])
    flat = np.concatenate(members) if members else np.empty(0, np.int64)
    roots = np.array([s[0] if len(s) else 0 for s in sets], dtype=np.int64)
    return RRCorpus.from_arrays(_sampler(n_nodes), roots, flat, offsets)


def _searchsorted_cut(corpus: RRCorpus, l: int) -> np.ndarray:
    """Per node, the end of its inverted slice below slot ``l``."""
    inv_samples, inv_offsets = corpus.inverted()
    return np.array([
        inv_offsets[u] + np.searchsorted(
            inv_samples[inv_offsets[u]:inv_offsets[u + 1]], l
        )
        for u in range(corpus.n_nodes)
    ], dtype=np.int64)


def _mask_by_loop(corpus, seeds, prefix, start):
    seeds = set(int(s) for s in seeds)
    return np.array([
        bool(seeds & set(corpus.members(i).tolist()))
        for i in range(start, prefix)
    ], dtype=bool)


@pytest.fixture
def grown(small_net) -> RRCorpus:
    corpus = RRCorpus(CoupledRRSampler(small_net, seed=4))
    corpus.ensure(300)
    return corpus


class TestPrefixCut:
    def test_matches_per_node_searchsorted(self, grown):
        for l in [0, 1, 2, 57, 150, 299, 300]:
            # Twice: the computed cut, then the kept one.
            for _ in range(2):
                assert np.array_equal(
                    grown.prefix_cut(l), _searchsorted_cut(grown, l)
                )

    def test_out_of_range_rejected(self, grown):
        for l in (-1, len(grown) + 1):
            with pytest.raises(SamplingError):
                grown.prefix_cut(l)

    def test_memo_never_exceeds_its_cap(self, grown):
        for l in range(1, 101):
            assert np.array_equal(
                grown.prefix_cut(l), _searchsorted_cut(grown, l)
            )
            assert len(grown._prefix_cuts) <= PREFIX_CUT_MEMO
        # First come, first kept: the earliest prefixes stay.
        assert sorted(grown._prefix_cuts) == list(
            range(1, PREFIX_CUT_MEMO + 1)
        )

    def test_kept_cuts_deep_copy_with_the_corpus(self, grown):
        grown.prefix_cut(50)
        twin = copy.deepcopy(grown)
        assert np.array_equal(twin.prefix_cut(50), grown.prefix_cut(50))

    def _warm(self, corpus, ls):
        for l in ls:
            corpus.prefix_cut(l)
        assert corpus._prefix_cuts

    def test_no_cut_survives_ensure(self, grown):
        ls = [10, 100, 250]
        self._warm(grown, ls)
        grown.ensure(400)
        for l in ls:
            assert np.array_equal(
                grown.prefix_cut(l), _searchsorted_cut(grown, l)
            )

    def test_no_cut_survives_append_flat(self, grown):
        ls = [10, 100, 250]
        self._warm(grown, ls)
        roots = np.array([0, 1], dtype=np.int64)
        flat = np.array([0, 3, 5, 1, 2], dtype=np.int64)
        offsets = np.array([0, 3, 5], dtype=np.int64)
        grown.append_flat(
            roots, flat, offsets,
            keys=np.array([grown.next_key(), grown.next_key() + 1]),
        )
        for l in ls:
            assert np.array_equal(
                grown.prefix_cut(l), _searchsorted_cut(grown, l)
            )

    def test_no_cut_survives_regenerate(self, grown, small_net):
        ls = [10, 100, 250]
        self._warm(grown, ls)
        edges, probs = small_net.edge_array()
        # A denser graph: regenerated slots reach other node sets.
        denser = GeoSocialNetwork.from_edges(
            [tuple(e) for e in edges], small_net.coords,
            np.minimum(1.0, probs * 4.0),
        )
        before = grown.flat()[0].copy()
        grown.replace_sampler(CoupledRRSampler(denser, seed=4))
        grown.regenerate(np.arange(len(grown)))
        assert not np.array_equal(grown.flat()[0], before)
        for l in ls:
            assert np.array_equal(
                grown.prefix_cut(l), _searchsorted_cut(grown, l)
            )


def _full_count_cut(corpus: RRCorpus, l: int) -> np.ndarray:
    """The cut of prefix ``l`` counted over the whole prefix."""
    flat, offsets = corpus.flat()
    _, inv_offsets = corpus.inverted()
    return inv_offsets[:-1] + np.bincount(
        flat[: offsets[l]], minlength=corpus.n_nodes
    )


class TestCutsCountUpFromAKeptCut:
    """A prefix the corpus does not keep is counted from the largest
    kept cut below it; the counts are the full-prefix ones exactly."""

    def _sweep(self, corpus, rng):
        kept = sorted(corpus._prefix_cuts)
        assert len(kept) == PREFIX_CUT_MEMO
        n = len(corpus)
        ls = {0, 1, n - 1, n}
        ls.update(l + d for l in kept for d in (-1, 0, 1))
        ls.update(rng.integers(0, n + 1, size=40).tolist())
        for l in sorted(ls):
            got = corpus.prefix_cut(l)
            assert got.dtype == np.int64
            assert np.array_equal(got, _full_count_cut(corpus, l)), l
        # The sweep added no cut: the memo was full.
        assert sorted(corpus._prefix_cuts) == kept

    def test_sweep_before_and_after_update(self, small_net):
        from repro.core.ris_da import RisDaConfig, RisDaIndex
        from repro.geo.weights import DistanceDecay
        from repro.stream.delta import GraphDelta

        index = RisDaIndex(small_net, DistanceDecay(alpha=0.02), RisDaConfig(
            k_max=5, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=12_000, seed=3,
        ))
        rng = np.random.default_rng(33)
        corpus = index.corpus
        # Fill the memo past warm()'s certify boundaries.
        for l in (7, 2_000, 5_000, 9_000, len(corpus) - 3):
            corpus.prefix_cut(l)
        self._sweep(corpus, rng)
        edges, probs = small_net.edge_array()
        pick = rng.choice(len(edges), size=6, replace=False)
        stats = index.update(delta=GraphDelta.make(
            edges=edges[pick], probabilities=probs[pick] * 0.5,
        ))
        assert stats.samples_retired > 0
        corpus = index.corpus
        for l in (7, 2_000, 5_000, 9_000, len(corpus) - 3):
            corpus.prefix_cut(l)
        self._sweep(corpus, rng)


class TestCoveredSampleMask:
    def test_matches_loop_and_reduceat_oracle(self, grown):
        rng = np.random.default_rng(5)
        for _ in range(20):
            start = int(rng.integers(0, len(grown)))
            prefix = int(rng.integers(start + 1, len(grown) + 1))
            seeds = rng.integers(0, grown.n_nodes, size=int(rng.integers(0, 6)))
            got = covered_sample_mask(grown, seeds, prefix, start=start)
            assert np.array_equal(got, _mask_by_loop(grown, seeds, prefix, start))
            assert np.array_equal(
                got, reference_covered_sample_mask(grown, seeds, prefix, start)
            )


def _check_mask(n_nodes, sets, seeds, start, prefix, warm):
    corpus = _corpus(n_nodes, sets)
    for l in warm:
        corpus.prefix_cut(min(l, len(corpus)))
    got = covered_sample_mask(corpus, seeds, prefix, start=start)
    assert got.dtype == bool and got.shape == (prefix - start,)
    assert np.array_equal(got, _mask_by_loop(corpus, seeds, prefix, start))
    for l in range(len(corpus) + 1):
        assert np.array_equal(corpus.prefix_cut(l), _searchsorted_cut(corpus, l))


if HAVE_HYPOTHESIS:

    @st.composite
    def _cases(draw):
        n_nodes = draw(st.integers(1, 9))
        sets = draw(st.lists(
            st.lists(st.integers(0, n_nodes - 1), max_size=5),
            min_size=1, max_size=25,
        ))
        start = draw(st.integers(0, len(sets) - 1))
        prefix = draw(st.integers(start + 1, len(sets)))
        # Repeated seeds allowed: a seed listed twice hits the same slots.
        seeds = draw(st.lists(st.integers(0, n_nodes - 1), max_size=6))
        warm = draw(st.lists(st.integers(0, len(sets)), max_size=4))
        return n_nodes, sets, seeds, start, prefix, warm

    @settings(max_examples=200, deadline=None)
    @given(_cases())
    def test_mask_matches_per_sample_loop(case):
        _check_mask(*case)

else:  # pragma: no cover - exercised only without hypothesis

    def test_mask_matches_per_sample_loop():
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_nodes = int(rng.integers(1, 10))
            sets = [
                list(rng.integers(0, n_nodes, size=int(rng.integers(0, 6))))
                for _ in range(int(rng.integers(1, 26)))
            ]
            start = int(rng.integers(0, len(sets)))
            prefix = int(rng.integers(start + 1, len(sets) + 1))
            seeds = list(rng.integers(0, n_nodes, size=int(rng.integers(0, 7))))
            warm = list(rng.integers(0, len(sets) + 1, size=3))
            _check_mask(n_nodes, sets, seeds, start, prefix, warm)
