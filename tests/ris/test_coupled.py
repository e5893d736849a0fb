"""The counter-based (coupled) RR sampler and keyed-corpus plumbing.

The contracts that make coupled streaming regeneration sound:

* a slot is a pure function of ``(seed, key, graph)`` — same inputs,
  bit-identical RR set, regardless of draw order or sampler instance;
* slots with distinct keys are independent draws from the RR-set law
  (the pool needs no conditioning and no shuffle);
* re-running a slot on an updated graph changes its set **iff** a
  changed edge's own coin flips liveness — everything else replays
  bit-for-bit (common random numbers, keyed by edge endpoints);
* under LT the walk draws one node-keyed coin per step, batched the
  same way, and matches a per-slot scalar walk for any key order.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.exceptions import GraphError, SamplingError
from repro.network.graph import GeoSocialNetwork
from repro.ris import coupled
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler, quantize_probability
from repro.stream.delta import GraphDelta, apply_delta

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


@pytest.fixture
def sampler(small_net):
    return CoupledRRSampler(small_net, seed=11)


class TestPurity:
    def test_regenerate_is_pure(self, small_net):
        a = CoupledRRSampler(small_net, seed=11)
        b = CoupledRRSampler(small_net, seed=11)
        for key in (0, 1, 17, 4096):
            ra, ma = a.regenerate(key)
            rb, mb = b.regenerate(key)
            assert ra == rb
            assert np.array_equal(ma, mb)

    def test_sample_matches_regenerate(self, sampler):
        root, members = sampler.sample()
        r2, m2 = sampler.regenerate(0)
        assert root == r2
        assert np.array_equal(members, m2)
        assert sampler.draw_count == 1

    def test_batch_matches_slotwise_regeneration(self, sampler):
        keys, roots, flat, offsets = sampler.sample_batch(50)
        assert keys.tolist() == list(range(50))
        for i, key in enumerate(keys):
            root, members = sampler.regenerate(int(key))
            assert roots[i] == root
            assert np.array_equal(flat[offsets[i]: offsets[i + 1]], members)

    def test_different_seeds_differ(self, small_net):
        a = CoupledRRSampler(small_net, seed=1)
        b = CoupledRRSampler(small_net, seed=2)
        same = sum(
            a.regenerate(k)[0] == b.regenerate(k)[0] for k in range(50)
        )
        assert same < 50

    def test_members_sorted_and_contain_root(self, sampler):
        for key in range(20):
            root, members = sampler.regenerate(key)
            assert root in members
            assert np.array_equal(members, np.sort(members))


class TestDistribution:
    def test_roots_roughly_uniform(self, small_net):
        sampler = CoupledRRSampler(small_net, seed=3)
        _, roots, _, _ = sampler.sample_batch(4000)
        counts = np.bincount(roots, minlength=small_net.n)
        expected = 4000 / small_net.n
        # Loose 6-sigma-ish band per node; a broken hash would
        # concentrate mass and blow straight through it.
        assert counts.max() < expected + 6 * np.sqrt(expected) + 1
        assert counts.min() >= 0

    def test_set_sizes_match_sequential_sampler(self, small_net):
        """Hashed coins sample the same RR-set law as stream RNG coins."""
        coupled = CoupledRRSampler(small_net, seed=5)
        _, _, flat_c, _ = coupled.sample_batch(3000)
        sizes_s = _stream_rr_sizes(small_net, 3000, seed=5)
        mean_c = len(flat_c) / 3000
        mean_s = sizes_s.mean()
        assert mean_c == pytest.approx(mean_s, rel=0.1)


def _stream_rr_sizes(net, count, seed):
    """Sizes of ``count`` IC RR sets drawn sequentially: a uniform root,
    then a reverse breadth-first search flipping one stream-RNG coin per
    examined in-edge."""
    rng = np.random.default_rng(seed)
    sizes = np.empty(count, dtype=np.int64)
    for i in range(count):
        root = int(rng.integers(net.n))
        seen = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            lo, hi = net.in_offsets[v], net.in_offsets[v + 1]
            live = rng.random(hi - lo) < net.in_probs[lo:hi]
            for u in net.in_sources[lo:hi][live].tolist():
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        sizes[i] = len(seen)
    return sizes


class TestCoupling:
    @pytest.fixture
    def upsert(self, small_net):
        # A fresh edge into node 60 with a mid-sized probability, so
        # both flipped and unflipped candidate slots exist.
        delta = GraphDelta.make(edges=[(0, 60)], probabilities=[0.5])
        return apply_delta(small_net, delta).network

    def test_only_coin_flipped_slots_change(self, small_net, upsert):
        before = CoupledRRSampler(small_net, seed=7)
        after = CoupledRRSampler(upsert, seed=7)
        changed, flipped = [], []
        for key in range(400):
            _, ma = before.regenerate(key)
            _, mb = after.regenerate(key)
            changed.append(not np.array_equal(ma, mb))
            touches = 60 in ma
            live = (
                after.edge_coin_bits([key], 0, 60)[0]
                < quantize_probability(0.5)
            )
            flipped.append(touches and live)
        # Changing requires touching the head with a live new coin; the
        # converse holds unless source 0 was already in the set.
        for key, (c, f) in enumerate(zip(changed, flipped)):
            if c:
                assert f
        assert any(changed)
        assert any(not c for c in changed)

    def test_edge_coin_bits_validates_endpoints(self, sampler, small_net):
        with pytest.raises(GraphError, match="endpoints"):
            sampler.edge_coin_bits([0], 0, small_net.n)

    def test_edge_coin_rate_matches_probability(self, sampler):
        bits = sampler.edge_coin_bits(np.arange(20000), 3, 4)
        rate = float(np.mean(bits < quantize_probability(0.3)))
        assert rate == pytest.approx(0.3, abs=0.02)


def _oracle(sampler, keys):
    """The per-slot algorithm: a scalar walk one slot at a time, a
    reverse DFS over every live in-edge (IC) or one step per coin (LT)."""
    keys = np.asarray(keys, dtype=np.int64)
    if sampler.diffusion == "lt":
        return _lt_walks(sampler, keys)
    return _ic_walks(sampler, keys)


def _slot_and_root(sampler, key):
    slot = coupled._mix64(sampler._seed64 ^ (np.uint64(key) * coupled._GOLDEN))
    n = np.uint64(sampler.network.n)
    return slot, int(coupled._mix64(slot ^ coupled._ROOT_SALT) % n)


def _flat(roots, parts):
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in parts], out=offsets[1:])
    flat = np.asarray([u for p in parts for u in p], dtype=np.int64)
    return np.asarray(roots, dtype=np.int64), flat, offsets


def _ic_walks(sampler, keys):
    net = sampler.network
    roots, parts = [], []
    with np.errstate(over="ignore"):
        for key in keys:
            slot, root = _slot_and_root(sampler, key)
            roots.append(root)
            visited = {root}
            stack = [root]
            while stack:
                x = stack.pop()
                for e in range(int(net.in_offsets[x]), int(net.in_offsets[x + 1])):
                    coin = coupled._mix64(slot ^ sampler._edge_mix[e]) >> np.uint64(11)
                    u = int(net.in_sources[e])
                    if coin < sampler._thresholds[e] and u not in visited:
                        visited.add(u)
                        stack.append(u)
            parts.append(sorted(visited))
    return _flat(roots, parts)


def _lt_walks(sampler, keys):
    net = sampler.network
    roots, parts = [], []
    with np.errstate(over="ignore"):
        for key in keys:
            slot, x = _slot_and_root(sampler, key)
            roots.append(x)
            visited = {x}
            while True:
                coin = coupled._mix64(slot ^ sampler._node_mix[x]) >> np.uint64(11)
                lo, hi = int(net.in_offsets[x]), int(net.in_offsets[x + 1])
                running = np.uint64(0)
                chosen = None
                for j in range(lo, hi):
                    running += sampler._thresholds[j]
                    if coin < running:
                        chosen = int(net.in_sources[j])
                        break
                if chosen is None or chosen in visited:
                    break
                visited.add(chosen)
                x = chosen
            parts.append(sorted(visited))
    return _flat(roots, parts)


def _assert_batches_equal(got, want):
    for name, a, b in zip(("roots", "flat", "offsets"), got, want):
        assert a.dtype == np.int64, name
        assert np.array_equal(a, b), name


def _random_net(graph_seed: int, diffusion: str = "ic") -> GeoSocialNetwork:
    """A small random graph mixing p=0, p=1 and fractional edges.

    Node 0 never receives an edge, so every graph has a zero in-degree
    node; tiny or sparse draws add more.  Under LT each node's in-weights
    are scaled down to sum to at most 1.
    """
    rng = np.random.default_rng(graph_seed)
    n = int(rng.integers(1, 14))
    density = float(rng.uniform(0.0, 0.5))
    edges = [
        (u, v) for u in range(n) for v in range(1, n)
        if u != v and rng.random() < density
    ]
    probs = rng.uniform(0.0, 1.0, size=len(edges))
    probs[rng.random(len(edges)) < 0.3] = 1.0
    probs[rng.random(len(edges)) < 0.1] = 0.0
    if diffusion == "lt" and edges:
        heads = np.asarray([v for _, v in edges])
        probs /= np.maximum(np.bincount(heads, weights=probs), 1.0)[heads]
    return GeoSocialNetwork.from_edges(
        edges, rng.uniform(0.0, 10.0, size=(n, 2)), probs
    )


class TestBatchedTraversal:
    """The batched level-by-level traversal vs the per-slot algorithm."""

    if HAVE_HYPOTHESIS:

        @settings(max_examples=120, deadline=None)
        @given(
            graph_seed=st.integers(0, 2**32 - 1),
            seed=st.integers(-(2**63), 2**64 - 1),
            keys=st.lists(st.integers(0, 2**62), max_size=40),
            chunk=st.sampled_from([1, 3, 7, coupled._CHUNK_SLOTS]),
            diffusion=st.sampled_from(["ic", "lt"]),
        )
        @example(graph_seed=0, seed=0, keys=[], chunk=3, diffusion="ic")
        @example(graph_seed=1, seed=5, keys=[17], chunk=3, diffusion="ic")
        @example(graph_seed=2, seed=5, keys=[900, 4, 4, 31, 4, 0], chunk=3,
                 diffusion="ic")
        @example(graph_seed=2, seed=5, keys=[900, 4, 4, 31, 4, 0], chunk=3,
                 diffusion="lt")
        def test_matches_per_slot_oracle(
            self, graph_seed, seed, keys, chunk, diffusion
        ):
            sampler = CoupledRRSampler(
                _random_net(graph_seed, diffusion), seed=seed,
                diffusion=diffusion,
            )
            with mock.patch.object(coupled, "_CHUNK_SLOTS", chunk):
                got = sampler._traverse(np.asarray(keys, dtype=np.int64))
            _assert_batches_equal(got, _oracle(sampler, keys))

    def test_range_spanning_several_chunks(self, small_net):
        keys = np.arange(50, 50 + 2 * coupled._CHUNK_SLOTS + 37)
        shuffled = np.random.default_rng(2).permutation(keys)
        for diffusion in ("ic", "lt"):
            sampler = CoupledRRSampler(small_net, seed=21, diffusion=diffusion)
            _assert_batches_equal(
                sampler._traverse(keys), _oracle(sampler, keys)
            )
            _assert_batches_equal(
                sampler._traverse(shuffled), _oracle(sampler, shuffled)
            )

    def test_sample_batch_and_regenerate_use_it(self, small_net):
        sampler = CoupledRRSampler(small_net, seed=4)
        sampler.draw_count = 300
        keys, *batch = sampler.sample_batch(2 * coupled._CHUNK_SLOTS + 5)
        _assert_batches_equal(batch, _oracle(sampler, keys))
        root, members = sampler.regenerate(12345)
        want_roots, want_flat, _ = _oracle(sampler, [12345])
        assert root == want_roots[0]
        assert np.array_equal(members, want_flat)

    def test_corpus_regenerate_is_one_batched_traversal(self, small_net):
        corpus = RRCorpus(CoupledRRSampler(small_net, seed=9))
        corpus.ensure(400)
        before = [corpus.members(i).copy() for i in range(len(corpus))]
        with mock.patch.object(
            CoupledRRSampler, "_traverse", autospec=True,
            side_effect=CoupledRRSampler._traverse,
        ) as spy:
            assert corpus.regenerate([399, 3, 3, 250, 0]) == 4
        assert spy.call_count == 1
        assert spy.call_args.args[1].tolist() == [0, 3, 250, 399]
        for i in range(len(corpus)):
            assert np.array_equal(corpus.members(i), before[i])


class TestValidation:
    def test_non_integer_seed_rejected(self, small_net):
        with pytest.raises(GraphError, match="integer seed"):
            CoupledRRSampler(small_net, seed=np.random.default_rng(0))

    def test_lt_overweight_graph_rejected(self):
        net = GeoSocialNetwork.from_edges(
            [(0, 2), (1, 2)], np.zeros((3, 2)), [0.8, 0.8]
        )
        with pytest.raises(GraphError, match="in-weights"):
            CoupledRRSampler(net, seed=1, diffusion="lt")
        CoupledRRSampler(net, seed=1)  # IC has no such limit

    def test_bad_diffusion_rejected(self, small_net):
        with pytest.raises(GraphError, match="diffusion"):
            CoupledRRSampler(small_net, seed=1, diffusion="sir")

    def test_negative_key_rejected(self, sampler):
        with pytest.raises(GraphError, match="non-negative"):
            sampler.regenerate(-1)

    def test_negative_key_in_batch_rejected(self, sampler):
        with pytest.raises(GraphError, match="non-negative"):
            sampler._traverse(np.asarray([4, -3, 9]))

    def test_negative_count_rejected(self, sampler):
        with pytest.raises(GraphError, match="non-negative"):
            sampler.sample_batch(-1)

    def test_empty_batch(self, sampler):
        keys, roots, flat, offsets = sampler.sample_batch(0)
        for arr in (keys, roots, flat):
            assert arr.dtype == np.int64 and arr.shape == (0,)
        assert offsets.tolist() == [0]
        assert sampler.draw_count == 0

    def test_empty_network_rejected(self):
        # GeoSocialNetwork itself refuses n=0, so stand one in.
        empty = SimpleNamespace(
            n=0, in_offsets=np.zeros(1, dtype=np.int64),
            in_sources=np.empty(0, dtype=np.int64), in_probs=np.empty(0),
        )
        sampler = CoupledRRSampler(empty, seed=1)
        with pytest.raises(GraphError, match="empty network"):
            sampler.sample_batch(2)
        with pytest.raises(GraphError, match="empty network"):
            sampler.regenerate(0)
        assert sampler.sample_batch(0)[3].tolist() == [0]


def _keyless(corpus):
    """``corpus`` restored without keys, as from a file saved before slot
    keys existed."""
    flat, offsets = corpus.flat()
    return RRCorpus.from_arrays(corpus.sampler, corpus.roots, flat, offsets)


class TestKeyedCorpus:
    @pytest.fixture
    def corpus(self, small_net):
        corpus = RRCorpus(CoupledRRSampler(small_net, seed=9))
        corpus.ensure(300)
        return corpus

    def test_ensure_records_keys(self, corpus):
        assert corpus.keyed
        assert corpus.keys.tolist() == list(range(300))
        assert corpus.next_key() == 300

    def test_growth_continues_key_sequence(self, corpus):
        corpus.ensure(350)
        assert corpus.keys.tolist() == list(range(350))

    def test_keyless_corpus_has_no_keys(self, corpus):
        corpus = _keyless(corpus)
        corpus.ensure(len(corpus) + 10)
        assert not corpus.keyed
        assert corpus.keys is None
        assert corpus.next_key() == 0

    def test_regenerate_identity_on_unchanged_graph(self, corpus):
        flat0, off0 = (a.copy() for a in corpus.flat())
        corpus.regenerate(np.arange(len(corpus)))
        flat1, off1 = corpus.flat()
        assert np.array_equal(flat0, flat1)
        assert np.array_equal(off0, off1)

    def test_regenerate_validates(self, corpus):
        with pytest.raises(SamplingError, match="sample ids"):
            corpus.regenerate([len(corpus)])
        keyless = _keyless(corpus)
        with pytest.raises(SamplingError, match="keyed corpus"):
            keyless.regenerate([0])

    def test_regenerate_empty_is_noop(self, corpus):
        assert corpus.regenerate([]) == 0

    def test_append_flat_key_contract(self, corpus):
        with pytest.raises(SamplingError, match="keyed corpora"):
            corpus.append_flat(
                np.asarray([0]), np.asarray([0]), np.asarray([0, 1])
            )
        keyless = _keyless(corpus)
        with pytest.raises(SamplingError, match="keyless"):
            keyless.append_flat(
                np.asarray([0]), np.asarray([0]), np.asarray([0, 1]),
                keys=np.asarray([7]),
            )
        with pytest.raises(SamplingError, match="batch keys"):
            corpus.append_flat(
                np.asarray([0]), np.asarray([0]), np.asarray([0, 1]),
                keys=np.asarray([7, 8]),
            )

    def test_from_arrays_key_round_trip(self, corpus):
        flat, offsets = corpus.flat()
        restored = RRCorpus.from_arrays(
            corpus.sampler, corpus.roots, flat, offsets, keys=corpus.keys
        )
        assert restored.keyed
        assert restored.keys.tolist() == corpus.keys.tolist()
        restored.ensure(len(corpus) + 10)
        assert restored.next_key() == len(corpus) + 10

    def test_from_arrays_key_shape_validated(self, corpus):
        flat, offsets = corpus.flat()
        with pytest.raises(SamplingError, match="keys"):
            RRCorpus.from_arrays(
                corpus.sampler, corpus.roots, flat, offsets,
                keys=corpus.keys[:-1],
            )

    def test_from_arrays_rejects_duplicate_keys(self, corpus):
        flat, offsets = corpus.flat()
        keys = corpus.keys.copy()
        keys[7] = keys[3]
        with pytest.raises(SamplingError, match="distinct"):
            RRCorpus.from_arrays(
                corpus.sampler, corpus.roots, flat, offsets, keys=keys
            )

    def test_from_arrays_rejects_negative_keys(self, corpus):
        flat, offsets = corpus.flat()
        keys = corpus.keys.copy()
        keys[0] = -5
        with pytest.raises(SamplingError, match="non-negative"):
            RRCorpus.from_arrays(
                corpus.sampler, corpus.roots, flat, offsets, keys=keys
            )


def _slotwise(before, after, keys, redrawn):
    """The corpus arrays assembled one slot at a time: redrawn slots from
    ``after.regenerate(key)``, the rest from ``before``."""
    roots, sets = [], []
    for i, key in enumerate(keys):
        root, members = (after if i in redrawn else before).regenerate(int(key))
        roots.append(root)
        sets.append(members)
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(m) for m in sets], out=offsets[1:])
    return np.asarray(roots), np.concatenate(sets), offsets, sets


class TestRegenerateSplice:
    """``regenerate`` splices re-drawn sets into fresh CSR arrays that
    equal a slot-by-slot assembly, derived caches included."""

    N_SLOTS = 150

    @pytest.fixture(scope="class")
    def graphs(self, small_net):
        # p=1 edges into busy heads, so re-drawn sets grow.
        heads = np.argsort(np.diff(small_net.in_offsets))[-6:]
        edges = [(int(u), int(h)) for h in heads for u in (0, 1, 2) if u != h]
        delta = GraphDelta.make(edges=edges, probabilities=[1.0] * len(edges))
        return small_net, apply_delta(small_net, delta).network

    def _check(self, graphs, ids):
        before_net, after_net = graphs
        before = CoupledRRSampler(before_net, seed=3)
        after = CoupledRRSampler(after_net, seed=3)
        corpus = RRCorpus(before)
        corpus.ensure(self.N_SLOTS)
        corpus.inverted()  # populated caches must be dropped
        corpus.replace_sampler(after)
        assert corpus.regenerate(ids) == len(set(ids))
        roots, flat, offsets, sets = _slotwise(
            before, after, corpus.keys, set(ids)
        )
        got_flat, got_offsets = corpus.flat()
        assert np.array_equal(corpus.roots, roots)
        assert np.array_equal(got_flat, flat)
        assert np.array_equal(got_offsets, offsets)
        assert np.array_equal(
            corpus.entry_samples(),
            np.repeat(np.arange(len(sets)), [len(m) for m in sets]),
        )
        inv_samples, inv_offsets = corpus.inverted()
        for u in range(corpus.n_nodes):
            want = [i for i, m in enumerate(sets) if u in m]
            got = inv_samples[inv_offsets[u]: inv_offsets[u + 1]]
            assert got.tolist() == want
        return [len(corpus.members(i)) for i in ids]

    def test_first_last_and_growing_slots(self, graphs):
        before = RRCorpus(CoupledRRSampler(graphs[0], seed=3))
        before.ensure(self.N_SLOTS)
        ids = [0, self.N_SLOTS - 1, *range(10, 60, 3)]
        sizes = self._check(graphs, ids)
        assert any(
            size != len(before.members(i)) for i, size in zip(ids, sizes)
        )

    if HAVE_HYPOTHESIS:

        @settings(max_examples=40, deadline=None)
        @given(ids=st.lists(st.integers(0, N_SLOTS - 1), max_size=60))
        @example(ids=[0])
        @example(ids=[N_SLOTS - 1])
        @example(ids=list(range(N_SLOTS)))
        def test_random_subsets(self, graphs, ids):
            self._check(graphs, ids)
