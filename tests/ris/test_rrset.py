"""RR-set sampling correctness of the RR sampler (CoupledRRSampler).

The sampler-level contracts through the public drawing API (``sample``
and ``sample_batch``), and the defining law of an RR set checked
against exact possible-world enumeration.
"""

import numpy as np
import pytest

from repro.diffusion.possible_world import exact_activation_probabilities
from repro.exceptions import GraphError
from repro.ris.coupled import CoupledRRSampler


class TestRRSampler:
    def test_sample_contains_root(self, example_net):
        sampler = CoupledRRSampler(example_net, seed=0)
        for _ in range(50):
            root, members = sampler.sample()
            assert root in members

    def test_members_sorted_unique(self, example_net):
        sampler = CoupledRRSampler(example_net, seed=1)
        for _ in range(50):
            _, members = sampler.sample()
            assert members.tolist() == sorted(set(members.tolist()))

    def test_sample_many(self, example_net):
        sampler = CoupledRRSampler(example_net, seed=3)
        keys, roots, flat, offsets = sampler.sample_batch(10)
        assert len(keys) == len(roots) == 10
        assert len(offsets) == 11
        assert offsets[-1] == len(flat)
        assert np.all(np.diff(offsets) >= 1)
        assert sampler.draw_count == 10

    def test_negative_count_rejected(self, example_net):
        sampler = CoupledRRSampler(example_net, seed=0)
        with pytest.raises(GraphError):
            sampler.sample_batch(-1)
        assert sampler.draw_count == 0

    def test_deterministic_given_seed(self, example_net):
        _, a_roots, a_flat, a_off = CoupledRRSampler(
            example_net, seed=5
        ).sample_batch(20)
        b = CoupledRRSampler(example_net, seed=5)
        b_roots, b_members = zip(*(b.sample() for _ in range(20)))
        assert np.array_equal(a_roots, b_roots)
        for i, mb in enumerate(b_members):
            assert np.array_equal(a_flat[a_off[i]: a_off[i + 1]], mb)


class TestSamplingDistribution:
    """The defining property: P(u in RR(v)) == P(u activates v) == I({u}, v)."""

    def test_membership_rate_matches_exact_activation(self, example_net):
        # A slot's root is a function of its key, so draw many slots and
        # keep those rooted at ``root``.
        net = example_net
        root = 4
        _, roots, flat, offsets = CoupledRRSampler(net, seed=7).sample_batch(
            150_000
        )
        owner = np.repeat(np.arange(len(roots)), np.diff(offsets))
        counts = np.bincount(flat[roots[owner] == root], minlength=net.n)
        rates = counts / np.count_nonzero(roots == root)
        for u in range(net.n):
            exact = exact_activation_probabilities(net, [u])[root]
            assert rates[u] == pytest.approx(exact, abs=0.015), u

    def test_random_root_is_uniform(self, example_net):
        sampler = CoupledRRSampler(example_net, seed=13)
        _, roots, _, _ = sampler.sample_batch(10000)
        freq = np.bincount(roots, minlength=example_net.n) / len(roots)
        assert np.allclose(freq, 1.0 / example_net.n, atol=0.02)
