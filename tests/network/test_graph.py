"""Tests for repro.network.graph (the CSR GeoSocialNetwork)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.network.graph import GeoSocialNetwork


def tiny() -> GeoSocialNetwork:
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    return GeoSocialNetwork.from_edges(
        [(0, 1), (1, 2), (0, 2)], coords, [0.5, 0.25, 0.75]
    )


class TestValidation:
    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialNetwork(0, np.empty((0, 2)), None, np.empty((0, 2)))

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialNetwork(2, np.array([[0, 1, 2]]), None, np.zeros((2, 2)))

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialNetwork(2, np.array([[0, 5]]), None, np.zeros((2, 2)))

    def test_self_loops_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            GeoSocialNetwork(2, np.array([[1, 1]]), None, np.zeros((2, 2)))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            GeoSocialNetwork(
                2, np.array([[0, 1], [0, 1]]), None, np.zeros((2, 2))
            )

    def test_bad_coords_shape_rejected(self):
        with pytest.raises(GraphError):
            GeoSocialNetwork(3, np.array([[0, 1]]), None, np.zeros((2, 2)))

    def test_nonfinite_coords_rejected(self):
        coords = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(GraphError):
            GeoSocialNetwork(2, np.array([[0, 1]]), None, coords)

    def test_probability_range_enforced(self):
        with pytest.raises(GraphError):
            GeoSocialNetwork(
                2, np.array([[0, 1]]), np.array([1.5]), np.zeros((2, 2))
            )

    def test_nan_probability_rejected(self):
        with pytest.raises(GraphError, match=r"\[0, 1\]"):
            GeoSocialNetwork(
                2, np.array([[0, 1]]), np.array([np.nan]), np.zeros((2, 2))
            )

    def test_probability_shape_enforced(self):
        with pytest.raises(GraphError):
            GeoSocialNetwork(
                2, np.array([[0, 1]]), np.array([0.5, 0.5]), np.zeros((2, 2))
            )

    def test_edgeless_graph_allowed(self):
        net = GeoSocialNetwork(3, np.empty((0, 2)), None, np.zeros((3, 2)))
        assert net.m == 0
        assert net.out_neighbors(0).size == 0


class TestAdjacency:
    def test_out_neighbors(self):
        net = tiny()
        assert sorted(net.out_neighbors(0).tolist()) == [1, 2]
        assert net.out_neighbors(1).tolist() == [2]
        assert net.out_neighbors(2).tolist() == []

    def test_out_probabilities_aligned(self):
        net = tiny()
        nbrs = net.out_neighbors(0)
        probs = net.out_probabilities(0)
        mapping = dict(zip(nbrs.tolist(), probs.tolist()))
        assert mapping == {1: 0.5, 2: 0.75}

    def test_in_neighbors(self):
        net = tiny()
        assert sorted(net.in_neighbors(2).tolist()) == [0, 1]
        assert net.in_neighbors(0).tolist() == []

    def test_in_probabilities_aligned(self):
        net = tiny()
        nbrs = net.in_neighbors(2)
        probs = net.in_probabilities(2)
        mapping = dict(zip(nbrs.tolist(), probs.tolist()))
        assert mapping == {0: 0.75, 1: 0.25}

    def test_degrees(self):
        net = tiny()
        assert net.out_degree(0) == 2
        assert net.in_degree(2) == 2
        assert np.asarray(net.out_degree()).tolist() == [2, 1, 0]
        assert np.asarray(net.in_degree()).tolist() == [0, 1, 2]

    def test_edge_array_roundtrip(self):
        net = tiny()
        edges, probs = net.edge_array()
        rebuilt = GeoSocialNetwork(net.n, edges, probs, net.coords.copy())
        assert rebuilt.m == net.m
        for v in range(net.n):
            assert np.array_equal(
                rebuilt.out_neighbors(v), net.out_neighbors(v)
            )
            assert np.array_equal(
                rebuilt.out_probabilities(v), net.out_probabilities(v)
            )

    def test_iter_edges(self):
        net = tiny()
        got = set(net.iter_edges())
        assert got == {(0, 1, 0.5), (0, 2, 0.75), (1, 2, 0.25)}


class TestImmutability:
    def test_arrays_read_only(self):
        net = tiny()
        with pytest.raises(ValueError):
            net.coords[0, 0] = 99.0
        with pytest.raises(ValueError):
            net.out_probs[0] = 0.1

    def test_with_probabilities_returns_new(self):
        net = tiny()
        edges, _ = net.edge_array()
        net2 = net.with_probabilities(np.full(net.m, 0.9))
        assert net.out_probabilities(0)[0] != 0.9
        assert np.all(net2.out_probs == 0.9)


class TestMisc:
    def test_bounding_box(self):
        box = tiny().bounding_box()
        assert (box.xmin, box.xmax) == (0.0, 2.0)

    def test_bounding_box_cached(self):
        net = tiny()
        assert net.bounding_box() is net.bounding_box()

    def test_bounding_box_padded_not_cached(self):
        net = tiny()
        padded = net.bounding_box(pad=1.0)
        assert padded.xmin == -1.0

    def test_repr(self):
        assert repr(tiny()) == "GeoSocialNetwork(n=3, m=3)"
