"""Strict decoding of JSONL query rows and HTTP parameter maps.

:func:`repro.core.querykind.query_from_json` is the one decoder behind
``serve-batch`` and ``serve-http``'s ``/query``.  A row either decodes
into a query object or fails with a :class:`~repro.exceptions.ReproError`
subclass; nothing is coerced into a different query (``int(2.9)``
reading as ``k=2``, ``"123"`` iterated into targets ``(1, 2, 3)``).
"""

import math

import numpy as np
import pytest

from repro.core.query import DaimQuery
from repro.core.querykind import (
    BudgetedQuery,
    HeuristicQuery,
    TargetedQuery,
    TrajectoryQuery,
    query_from_json,
)
from repro.exceptions import QueryError, ReproError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

POINT = {"x": 50, "y": 50, "k": 3}
TARGETED = {"kind": "targeted", "x": 50, "y": 50, "k": 3, "targets": [0, 2]}
TRAJECTORY = {"kind": "trajectory", "waypoints": [[10, 10], [50, 50]], "k": 3}
BUDGETED = {"kind": "budgeted", "x": 50, "y": 50, "budget": 4.0,
            "costs": [[1, 2.0]], "cost": 1.0}
HEURISTIC = {"kind": "heuristic", "x": 50, "y": 50, "k": 3,
             "level": "degree-discount", "budget_ms": 5.0}


def _with(base: dict, **fields) -> dict:
    return {**base, **fields}


@pytest.mark.parametrize("row", [
    pytest.param(_with(POINT, k=2.9), id="fractional-k"),
    pytest.param(_with(POINT, k=2.0), id="float-k"),
    pytest.param(_with(POINT, k=True), id="bool-k"),
    pytest.param(_with(POINT, k="2.9"), id="fractional-k-string"),
    pytest.param(_with(POINT, k="3 seeds"), id="non-decimal-k-string"),
    pytest.param(_with(POINT, k=None), id="null-k"),
    pytest.param(_with(POINT, k=2**70), id="k-beyond-int64"),
    pytest.param(_with(POINT, x=True), id="bool-x"),
    pytest.param(_with(POINT, x=[1]), id="list-x"),
    pytest.param(_with(POINT, y={"v": 1}), id="object-y"),
    pytest.param(_with(POINT, x=10**400), id="x-overflows-float"),
    pytest.param(_with(TARGETED, targets=[1.5, True]), id="non-int-targets"),
    pytest.param(_with(TARGETED, targets=[True]), id="bool-target"),
    pytest.param(_with(TARGETED, targets="123"), id="string-targets"),
    pytest.param(_with(TARGETED, targets=7), id="scalar-targets"),
    pytest.param(_with(TARGETED, targets={"0": 1}), id="object-targets"),
    pytest.param(_with(TARGETED, targets=[[0]]), id="nested-targets"),
    pytest.param(_with(TRAJECTORY, waypoints="12"), id="string-waypoints"),
    pytest.param(_with(TRAJECTORY, waypoints=["12", "34"]),
                 id="string-waypoint-pairs"),
    pytest.param(_with(TRAJECTORY, waypoints=[[1, 2, 3]]),
                 id="waypoint-triple"),
    pytest.param(_with(TRAJECTORY, waypoints=[[True, 2]]),
                 id="bool-waypoint-coord"),
    pytest.param(_with(BUDGETED, costs="1:2"), id="string-costs"),
    pytest.param(_with(BUDGETED, costs=["12"]), id="string-cost-pair"),
    pytest.param(_with(BUDGETED, costs=[[1.5, 2.0]]),
                 id="fractional-cost-node"),
    pytest.param(_with(BUDGETED, costs={"x": 2.0}), id="non-int-cost-key"),
    pytest.param(_with(BUDGETED, costs=[[1, "cheap"]]), id="word-cost"),
    pytest.param(_with(BUDGETED, budget=True), id="bool-budget"),
    pytest.param(_with(BUDGETED, cost=None), id="null-default-cost"),
    pytest.param(_with(HEURISTIC, budget_ms="nan"), id="nan-budget-ms"),
    pytest.param(_with(HEURISTIC, budget_ms="inf"), id="inf-budget-ms"),
    pytest.param(_with(HEURISTIC, budget_ms=[5]), id="list-budget-ms"),
    pytest.param(_with(POINT, x="nan"), id="nan-x"),
    pytest.param(_with(TRAJECTORY, waypoints=[[1, "inf"]]),
                 id="infinite-waypoint"),
    pytest.param(_with(BUDGETED, costs=[[1, 1e400]]), id="infinite-cost"),
    pytest.param([50, 50], id="row-not-an-object"),
    pytest.param("x=50", id="row-a-string"),
])
def test_malformed_rows_raise_query_error(row):
    with pytest.raises(QueryError):
        query_from_json(row, 5)


@pytest.mark.parametrize("row,expected", [
    # HTTP parameters arrive as strings; decimal integers and numeric
    # strings decode to the same query as their JSON-typed spelling.
    ({"x": "50", "y": "50.5", "k": "3"}, DaimQuery((50.0, 50.5), 3)),
    ({"x": 1, "y": 2}, DaimQuery((1.0, 2.0), 5)),
    (_with(TARGETED, targets=["4", "0", 2, "+2"]),
     TargetedQuery((50.0, 50.0), 3, (0, 2, 4))),
    (_with(TRAJECTORY, waypoints=[["10", "10"], [50, "50"]], k="2"),
     TrajectoryQuery(((10.0, 10.0), (50.0, 50.0)), 2)),
    (_with(BUDGETED, costs={"1": "2.5"}, budget="4"),
     BudgetedQuery((50.0, 50.0), 4.0, ((1, 2.5),), 1.0)),
    (_with(HEURISTIC, budget_ms="0"),
     HeuristicQuery((50.0, 50.0), 3, "degree-discount", 0.0)),
])
def test_well_formed_rows_decode(row, expected):
    assert query_from_json(row, 5) == expected


if HAVE_HYPOTHESIS:
    _json = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(), children, max_size=4),
        max_leaves=8,
    )
    #: Each base row with every field it reads, ``kind`` included.
    _FIELDS = [
        (base, name)
        for base in (POINT, TARGETED, TRAJECTORY, BUDGETED, HEURISTIC)
        for name in sorted({"kind", *base})
    ]

    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize(
        "base,field_name", _FIELDS,
        ids=[f"{b.get('kind', 'point')}-{f}" for b, f in _FIELDS],
    )
    @given(value=_json)
    def test_arbitrary_json_field_decodes_or_raises_repro_error(
        base, field_name, value
    ):
        row = _with(base, **{field_name: value})
        try:
            query = query_from_json(row, 5)
        except ReproError:
            return
        assert isinstance(query, (DaimQuery, TrajectoryQuery, TargetedQuery,
                                  BudgetedQuery, HeuristicQuery))
        if isinstance(query, HeuristicQuery) and query.budget_ms is not None:
            assert math.isfinite(query.budget_ms)
        if isinstance(query, (DaimQuery, TargetedQuery, BudgetedQuery,
                              HeuristicQuery)):
            assert all(math.isfinite(c) for c in query.location)


@pytest.mark.parametrize("make", [
    lambda loc: DaimQuery(loc, 3),
    lambda loc: TrajectoryQuery((loc, (1, 2), loc), 3),
    lambda loc: TargetedQuery(loc, 3, (0,)),
    lambda loc: BudgetedQuery(loc, 4.0),
    lambda loc: HeuristicQuery(loc, 3),
], ids=["point", "trajectory", "targeted", "budgeted", "heuristic"])
def test_every_kind_normalises_its_locations(make):
    # The serving engine keys its result cache through
    # UniformGrid.cell_of_normalised, which trusts every location of a
    # query object to be a validated tuple of two Python floats.
    query = make(np.array([10, 20]))
    if isinstance(query, TrajectoryQuery):
        locations = query.waypoints
    else:
        locations = (query.location,)
    for location in locations:
        assert type(location) is tuple
        assert all(type(c) is float for c in location)
    assert locations[0] == (10.0, 20.0)
    for bad in ((math.nan, 1.0), (1.0, math.inf), (1.0, 2.0, 3.0)):
        with pytest.raises(ReproError):
            make(bad)
