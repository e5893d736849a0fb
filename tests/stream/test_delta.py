"""Tests for repro.stream.delta (change batches and their application)."""

import json

import numpy as np
import pytest

from repro.exceptions import DataFormatError, GraphError, ReproError
from repro.stream.delta import GraphDelta, apply_delta

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    #: Any JSON value, and delta rows built from them: a known or junk
    #: ``op`` with each field absent, a small plausible id, or junk.
    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )
    _FIELD = st.integers(-2, 12) | _JSON
    _ROW = _JSON | st.fixed_dictionaries(
        {"op": st.sampled_from(["edge", "drop_edge", "checkin"]) | _JSON},
        optional={
            name: _FIELD for name in ("u", "v", "p", "node", "x", "y")
        },
    )


class TestGraphDeltaMake:
    def test_empty(self):
        d = GraphDelta.make()
        assert d.is_empty
        assert d.edges.shape == (0, 2)
        assert d.checkin_coords.shape == (0, 2)

    def test_upserts_require_probabilities(self):
        with pytest.raises(GraphError, match="require probabilities"):
            GraphDelta.make(edges=[(0, 1)])

    def test_probability_shape_checked(self):
        with pytest.raises(GraphError, match="shape"):
            GraphDelta.make(edges=[(0, 1)], probabilities=[0.1, 0.2])

    def test_probability_range_checked(self):
        with pytest.raises(GraphError, match=r"\[0, 1\]"):
            GraphDelta.make(edges=[(0, 1)], probabilities=[1.5])

    def test_nan_probability_rejected(self):
        with pytest.raises(GraphError, match=r"\[0, 1\]"):
            GraphDelta.make(edges=[(0, 1)], probabilities=[float("nan")])

    def test_self_loops_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            GraphDelta.make(edges=[(3, 3)], probabilities=[0.1])

    def test_nonfinite_checkin_rejected(self):
        with pytest.raises(GraphError, match="finite"):
            GraphDelta.make(checkins=[(0, float("nan"), 1.0)])

    def test_checkin_rows(self):
        d = GraphDelta.make(checkins=[(2, 1.5, -3.0), (0, 0.0, 0.0)])
        assert d.checkin_nodes.tolist() == [2, 0]
        assert d.checkin_coords.tolist() == [[1.5, -3.0], [0.0, 0.0]]


class TestFromEvents:
    def test_all_ops(self):
        d = GraphDelta.from_events([
            {"op": "edge", "u": 0, "v": 1, "p": 0.3},
            {"op": "drop_edge", "u": 1, "v": 2},
            {"op": "checkin", "node": 0, "x": 5.0, "y": 6.0},
        ])
        assert d.edges.tolist() == [[0, 1]]
        assert d.probabilities.tolist() == [0.3]
        assert d.removed.tolist() == [[1, 2]]
        assert d.checkin_nodes.tolist() == [0]

    def test_unknown_op_rejected(self):
        with pytest.raises(DataFormatError, match="unknown op"):
            GraphDelta.from_events([{"op": "rename_node", "u": 0}])

    def test_malformed_event_rejected(self):
        with pytest.raises(DataFormatError, match="malformed"):
            GraphDelta.from_events([{"op": "edge", "u": 0}])  # missing v, p

    def test_nan_probability_rejected(self):
        with pytest.raises(GraphError, match=r"\[0, 1\]"):
            GraphDelta.from_events(
                [{"op": "edge", "u": 0, "v": 1, "p": float("nan")}]
            )


    @pytest.mark.parametrize("row", [
        {"op": "edge", "u": float("inf"), "v": 1, "p": 0.3},
        {"op": "edge", "u": 1e300, "v": 1, "p": 0.3},
        {"op": "drop_edge", "u": 0, "v": 2**63},
        {"op": "edge", "u": True, "v": 2, "p": 0.3},
        {"op": "checkin", "node": 2.9, "x": 1.0, "y": 1.0},
        {"op": "edge", "u": 0, "v": 1, "p": 10**400},
        {"op": "edge", "u": 0, "v": 1, "p": True},
        {"op": "edge", "u": 0, "v": 1, "p": "0.5"},
        {"op": "edge", "u": 0, "v": 1, "p": None},
        {"op": "checkin", "node": 1, "x": "12", "y": 1.0},
        {"op": "checkin", "node": 1, "x": 1.0, "y": None},
        {"op": "checkin", "node": 1, "x": False, "y": 1.0},
        [1, 2],
        "edge",
        None,
    ])
    def test_hostile_rows_rejected(self, row):
        """Regression: these rows raised OverflowError or AttributeError,
        silently named another node (``2.9`` -> 2, ``true`` -> 1), or
        coerced a non-number (``true`` -> p 1.0, ``"12"`` -> x 12.0)."""
        with pytest.raises(DataFormatError):
            GraphDelta.from_events([row])

    if HAVE_HYPOTHESIS:

        # apply_delta never mutates its input, so sharing the fixture
        # across examples is safe.
        @settings(
            max_examples=300, deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(rows=st.lists(_ROW, max_size=4))
        def test_arbitrary_json_rows_fail_typed(self, example_net, rows):
            """Whatever JSON arrives as rows, decoding it and applying the
            result raise nothing but a ReproError."""
            rows = json.loads(json.dumps(rows))  # exactly what the wire holds
            try:
                apply_delta(example_net, GraphDelta.from_events(rows))
            except ReproError:
                pass

        @settings(max_examples=200, deadline=None)
        @given(
            field=st.sampled_from(["p", "x", "y"]),
            value=st.booleans() | st.text() | st.none(),
        )
        def test_non_numbers_refused_in_number_fields(self, field, value):
            """``p``, ``x`` and ``y`` take JSON numbers only: a bool, a
            string or a null is a DataFormatError, never coerced."""
            if field == "p":
                row = {"op": "edge", "u": 0, "v": 1, "p": 0.5}
            else:
                row = {"op": "checkin", "node": 1, "x": 1.0, "y": 2.0}
            row[field] = value
            with pytest.raises(DataFormatError, match="JSON number"):
                GraphDelta.from_events(json.loads(json.dumps([row])))


class TestApplyDelta:
    def test_upsert_new_edge(self, example_net):
        d = GraphDelta.make(edges=[(4, 2)], probabilities=[0.25])
        res = apply_delta(example_net, d)
        assert res.network.m == example_net.m + 1
        edges, probs = res.network.edge_array()
        keys = {(int(u), int(v)): p for (u, v), p in zip(edges, probs)}
        assert keys[(4, 2)] == pytest.approx(0.25)
        assert res.dirty_nodes.tolist() == [2, 4]
        assert len(res.moved_nodes) == 0

    def test_reweight_existing_edge(self, example_net):
        d = GraphDelta.make(edges=[(0, 1)], probabilities=[0.9])
        res = apply_delta(example_net, d)
        assert res.network.m == example_net.m
        edges, probs = res.network.edge_array()
        keys = {(int(u), int(v)): p for (u, v), p in zip(edges, probs)}
        assert keys[(0, 1)] == pytest.approx(0.9)

    def test_remove_edge(self, example_net):
        d = GraphDelta.make(removed=[(0, 1)])
        res = apply_delta(example_net, d)
        assert res.network.m == example_net.m - 1
        edges, _ = res.network.edge_array()
        assert [0, 1] not in edges.tolist()
        assert res.dirty_nodes.tolist() == [0, 1]

    def test_remove_missing_edge_raises(self, example_net):
        d = GraphDelta.make(removed=[(4, 0)])
        with pytest.raises(GraphError, match="non-existent"):
            apply_delta(example_net, d)

    def test_last_wins_upsert_then_remove(self, example_net):
        d = GraphDelta.from_events([
            {"op": "edge", "u": 0, "v": 1, "p": 0.9},
            {"op": "drop_edge", "u": 0, "v": 1},
        ])
        res = apply_delta(example_net, d)
        edges, _ = res.network.edge_array()
        assert [0, 1] not in edges.tolist()

    def test_last_wins_duplicate_upserts(self, example_net):
        d = GraphDelta.from_events([
            {"op": "edge", "u": 4, "v": 2, "p": 0.1},
            {"op": "edge", "u": 4, "v": 2, "p": 0.7},
        ])
        res = apply_delta(example_net, d)
        edges, probs = res.network.edge_array()
        keys = {(int(u), int(v)): p for (u, v), p in zip(edges, probs)}
        assert keys[(4, 2)] == pytest.approx(0.7)

    def test_checkin_moves_coords_only(self, example_net):
        d = GraphDelta.make(checkins=[(3, 9.0, 9.0)])
        res = apply_delta(example_net, d)
        assert res.network.m == example_net.m
        assert res.network.coords[3].tolist() == [9.0, 9.0]
        assert len(res.dirty_nodes) == 0
        assert res.moved_nodes.tolist() == [3]

    def test_out_of_range_endpoint_rejected(self, example_net):
        d = GraphDelta.make(edges=[(0, 99)], probabilities=[0.1])
        with pytest.raises(GraphError, match="endpoints"):
            apply_delta(example_net, d)

    def test_out_of_range_checkin_rejected(self, example_net):
        d = GraphDelta.make(checkins=[(99, 0.0, 0.0)])
        with pytest.raises(GraphError, match="check-in nodes"):
            apply_delta(example_net, d)

    def test_original_network_untouched(self, example_net):
        before_edges, before_probs = example_net.edge_array()
        before_coords = example_net.coords.copy()
        d = GraphDelta.make(
            edges=[(4, 2)], probabilities=[0.5], checkins=[(0, 7.0, 7.0)]
        )
        apply_delta(example_net, d)
        after_edges, after_probs = example_net.edge_array()
        assert np.array_equal(before_edges, after_edges)
        assert np.array_equal(before_probs, after_probs)
        assert np.array_equal(before_coords, example_net.coords)

    def test_empty_delta_preserves_graph(self, example_net):
        res = apply_delta(example_net, GraphDelta.make())
        assert res.network.m == example_net.m
        assert len(res.dirty_nodes) == 0
        assert len(res.moved_nodes) == 0
