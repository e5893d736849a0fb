"""Tests for repro.network.probability."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.network.graph import GeoSocialNetwork
from repro.network.probability import (
    assign_constant,
    assign_trivalency,
    assign_weighted_cascade,
    is_weighted_cascade,
)


def star_in() -> GeoSocialNetwork:
    """Nodes 0..3 all point at node 4 (indegree 4), plus 0 -> 1."""
    coords = np.zeros((5, 2))
    edges = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 1)]
    return GeoSocialNetwork.from_edges(edges, coords)


class TestWeightedCascade:
    def test_probability_is_one_over_indegree(self):
        net = assign_weighted_cascade(star_in())
        probs4 = net.in_probabilities(4)
        assert np.allclose(probs4, 0.25)
        probs1 = net.in_probabilities(1)
        assert np.allclose(probs1, 1.0)

    def test_is_weighted_cascade_detects(self):
        net = assign_weighted_cascade(star_in())
        assert is_weighted_cascade(net)

    def test_is_weighted_cascade_rejects_constant(self):
        net = assign_constant(star_in(), 0.3)
        assert not is_weighted_cascade(net)

    def test_edgeless_graph_is_trivially_wc(self):
        net = GeoSocialNetwork(2, np.empty((0, 2)), None, np.zeros((2, 2)))
        assert is_weighted_cascade(net)


class TestTrivalency:
    def test_values_from_levels(self):
        net = assign_trivalency(star_in(), seed=0)
        assert set(np.unique(net.out_probs)).issubset({0.1, 0.01, 0.001})

    def test_custom_levels(self):
        net = assign_trivalency(star_in(), levels=[0.5], seed=0)
        assert np.all(net.out_probs == 0.5)

    def test_empty_levels_rejected(self):
        with pytest.raises(GraphError):
            assign_trivalency(star_in(), levels=[])

    def test_out_of_range_levels_rejected(self):
        with pytest.raises(GraphError):
            assign_trivalency(star_in(), levels=[2.0])

    def test_deterministic_with_seed(self):
        a = assign_trivalency(star_in(), seed=7).out_probs
        b = assign_trivalency(star_in(), seed=7).out_probs
        assert np.array_equal(a, b)


class TestConstant:
    def test_assign(self):
        net = assign_constant(star_in(), 0.42)
        assert np.all(net.out_probs == 0.42)

    def test_range_enforced(self):
        with pytest.raises(GraphError):
            assign_constant(star_in(), -0.1)
        with pytest.raises(GraphError):
            assign_constant(star_in(), 1.1)
