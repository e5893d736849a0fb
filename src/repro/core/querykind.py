"""First-class query kinds for the DAIM serving stack.

The seed repo answered exactly one query shape — point ``q``, budget
``k`` (:class:`repro.core.query.DaimQuery`).  The Eq. 9 machinery
generalizes cleanly to richer geo-social workloads, and this module is
the shared vocabulary for them:

* :class:`TrajectoryQuery` — a sequence of locations answered
  incrementally; each waypoint reuses the result cache's grid
  quantization, and the RIS backend answers every waypoint in one call;
* :class:`TargetedQuery` — bichromatic influence maximization over a
  specified target-node subset, realised as a per-node 0/1 weight mask
  pushed into the flat coverage kernels and the MIA anchor bounds;
* :class:`BudgetedQuery` — heterogeneous per-node seeding costs with a
  total budget, answered by cost-aware (gain/cost ratio) greedy;
* :class:`HeuristicQuery` — an explicit request for a heuristic-ladder
  answer (degree-discount → single-discount → high-degree), tagged in
  results exactly like an overload fallback and never scored as an
  Eq. 9 estimate.

Plain :class:`~repro.core.query.DaimQuery` remains the ``"point"`` kind
and its serving path is untouched (bit-identical results, caches still
hit).  :func:`query_from_json` is the one place the JSONL batch format
and the HTTP sidecar's query parameters are parsed, so the two fronts
cannot drift; :func:`cache_extra` is the kind-discriminating component
of the result-cache key (see ``serve/cache.py``).
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.query import DaimQuery
from repro.exceptions import QueryError
from repro.geo.point import Point, as_point

#: Every query kind the serving stack understands, in JSONL ``kind`` order.
QUERY_KINDS = ("point", "trajectory", "targeted", "budgeted", "heuristic")

#: Rungs of the heuristic ladder, cheapest last (see ``core/heuristics.py``).
LADDER_RUNGS = ("degree-discount", "single-discount", "high-degree")


_INT64 = np.iinfo(np.int64)
#: At most 19 digits: int64's width, far short of int()'s digit limit.
_DECIMAL_INT = re.compile(r"[+-]?[0-9]{1,19}")


def _as_int(value: object, what: str) -> int:
    """An integer field: an int64-range int, or a decimal-integer string.

    Strings are accepted because HTTP parameters arrive as strings.
    Booleans and floats are refused rather than coerced — ``int(2.9)``
    would silently read as 2 and ``int(True)`` as 1.
    """
    if isinstance(value, str) and _DECIMAL_INT.fullmatch(value):
        value = int(value)
    if (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and _INT64.min <= value <= _INT64.max
    ):
        return int(value)
    raise QueryError(f"{what} must be an int64 integer, got {value!r}")


def _as_float(value: object, what: str) -> float:
    """A real field: a finite number or numeric string; not a boolean."""
    if not isinstance(value, bool):
        try:
            number = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise QueryError(f"{what} must be a finite number, got {value!r}")


def _as_k(k: object) -> int:
    k = _as_int(k, "k")
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    return k


@dataclass(frozen=True)
class TrajectoryQuery:
    """A sequence of promoted locations, each with the same seed budget.

    Answered waypoint by waypoint: the result is one seed set per
    waypoint, and ``ServedResult.result`` carries the final waypoint's
    (the "current position" of the trajectory).  A one-waypoint
    trajectory is exactly a point query.
    """

    waypoints: Tuple[Point, ...]
    k: int

    def __post_init__(self) -> None:
        pts = tuple(as_point(p) for p in self.waypoints)
        if not pts:
            raise QueryError("trajectory needs at least one waypoint")
        object.__setattr__(self, "waypoints", pts)
        object.__setattr__(self, "k", _as_k(self.k))


@dataclass(frozen=True)
class TargetedQuery:
    """Maximize influence over a specified target-node subset.

    ``targets`` is the bichromatic target set: only influence landing on
    these nodes counts.  Internally it becomes a 0/1 node mask multiplied
    into the distance-decay weights; an all-nodes target set degenerates
    to the standard query bit-identically (multiplying by 1.0 is exact).
    """

    location: Point
    k: int
    targets: Tuple[int, ...]
    #: :func:`targets_fingerprint` of ``targets``, computed once here for
    #: the result-cache key and the served row.
    targets_fp: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))
        object.__setattr__(self, "k", _as_k(self.k))
        ids = sorted({_as_int(t, "target node id") for t in self.targets})
        if not ids:
            raise QueryError("targeted query needs at least one target node")
        if ids[0] < 0:
            raise QueryError(f"target node ids must be >= 0, got {ids[0]}")
        object.__setattr__(self, "targets", tuple(ids))
        object.__setattr__(self, "targets_fp", targets_fingerprint(ids))


@dataclass(frozen=True)
class BudgetedQuery:
    """Seed selection under heterogeneous per-node costs and a budget.

    ``costs`` holds sparse per-node overrides as ``(node, cost)`` pairs;
    every other node costs ``default_cost``.  With uniform costs ``c``
    and budget ``k * c`` this degenerates to the top-``k`` greedy.
    """

    location: Point
    budget: float
    costs: Tuple[Tuple[int, float], ...] = ()
    default_cost: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))
        budget = _as_float(self.budget, "budget")
        if not budget > 0:
            raise QueryError(f"budget must be positive, got {budget}")
        object.__setattr__(self, "budget", budget)
        default = _as_float(self.default_cost, "default_cost")
        if not default > 0:
            raise QueryError(f"default_cost must be positive, got {default}")
        object.__setattr__(self, "default_cost", default)
        overrides = []
        seen = set()
        for node, cost in self.costs:
            node = _as_int(node, "cost override node")
            cost = _as_float(cost, "node cost")
            if node < 0:
                raise QueryError(f"cost override node must be >= 0, got {node}")
            if node in seen:
                raise QueryError(f"duplicate cost override for node {node}")
            if not cost > 0:
                raise QueryError(f"node costs must be positive, got {cost}")
            seen.add(node)
            overrides.append((node, cost))
        overrides.sort()
        object.__setattr__(self, "costs", tuple(overrides))


@dataclass(frozen=True)
class HeuristicQuery:
    """An explicit request for a heuristic-ladder answer.

    ``level`` pins a rung (one of :data:`LADDER_RUNGS`); otherwise the
    rung is chosen from ``budget_ms`` (the latency the caller will
    tolerate) via the ladder's cost model, defaulting to the most
    accurate rung when neither is given.  The response is tagged like a
    fallback (``fallback_reason="requested"``) and its score is the
    heuristic's own objective, never an Eq. 9 estimate.
    """

    location: Point
    k: int
    level: Optional[str] = None
    budget_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))
        object.__setattr__(self, "k", _as_k(self.k))
        if self.level is not None and self.level not in LADDER_RUNGS:
            raise QueryError(
                f"heuristic level must be one of {LADDER_RUNGS}, got {self.level!r}"
            )
        if self.budget_ms is not None:
            budget_ms = _as_float(self.budget_ms, "budget_ms")
            if budget_ms < 0:
                raise QueryError(f"budget_ms must be >= 0, got {budget_ms}")
            object.__setattr__(self, "budget_ms", budget_ms)


#: Any query object the serving stack accepts.
AnyQuery = Union[
    DaimQuery, TrajectoryQuery, TargetedQuery, BudgetedQuery, HeuristicQuery
]

_KIND_BY_TYPE = {
    DaimQuery: "point",
    TrajectoryQuery: "trajectory",
    TargetedQuery: "targeted",
    BudgetedQuery: "budgeted",
    HeuristicQuery: "heuristic",
}


def kind_of(query: AnyQuery) -> str:
    """The JSONL ``kind`` tag of a query object (``DaimQuery`` → ``point``)."""
    try:
        return _KIND_BY_TYPE[type(query)]
    except KeyError:
        raise QueryError(f"not a known query kind: {type(query).__name__}")


def normalize_query(query: object, k: Optional[int] = None) -> AnyQuery:
    """Coerce serving input into a query object.

    Existing kind objects pass through unchanged (``k`` is ignored, as
    the legacy ``QueryEngine.query(q, k=...)`` path always did for
    ``DaimQuery``); a bare location plus ``k`` becomes a point query.
    """
    if type(query) in _KIND_BY_TYPE:
        return query  # type: ignore[return-value]
    if k is None:
        raise QueryError("k is required when the query is a bare location")
    return DaimQuery(location=as_point(query), k=k)


def route_location(query: AnyQuery) -> Point:
    """The location that places a query on the grid / shard ring.

    Trajectories route by their *first* waypoint's cell: the shard that
    owns where the trajectory starts serves the whole sequence.
    """
    if isinstance(query, TrajectoryQuery):
        return query.waypoints[0]
    return query.location


def fallback_location(query: AnyQuery) -> Point:
    """Where an overload fallback should aim its heuristic answer.

    For trajectories that is the *last* waypoint — the one whose answer
    ``ServedResult.result`` carries.
    """
    if isinstance(query, TrajectoryQuery):
        return query.waypoints[-1]
    return query.location


def fallback_k(query: AnyQuery, n_nodes: int) -> int:
    """The seed-count budget a heuristic fallback should honour."""
    if isinstance(query, BudgetedQuery):
        min_cost = query.default_cost
        if query.costs:
            min_cost = min(min_cost, min(c for _, c in query.costs))
        return max(1, min(n_nodes, int(query.budget // min_cost)))
    return min(n_nodes, query.k)


def target_mask(query: TargetedQuery, n_nodes: int) -> np.ndarray:
    """The 0/1 node-weight mask realising a targeted query."""
    ids = np.asarray(query.targets, dtype=np.int64)
    if ids[-1] >= n_nodes:
        raise QueryError(
            f"target node {int(ids[-1])} out of range for {n_nodes} nodes"
        )
    mask = np.zeros(n_nodes, dtype=float)
    mask[ids] = 1.0
    return mask


def cost_array(query: BudgetedQuery, n_nodes: int) -> np.ndarray:
    """The dense per-node cost vector realising a budgeted query."""
    costs = np.full(n_nodes, query.default_cost, dtype=float)
    for node, cost in query.costs:
        if node >= n_nodes:
            raise QueryError(
                f"cost override node {node} out of range for {n_nodes} nodes"
            )
        costs[node] = cost
    return costs


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def targets_fingerprint(targets: Sequence[int]) -> str:
    """A short stable digest of a target set (for cache keys and rows)."""
    return _digest(np.asarray(sorted(targets), dtype=np.int64).tobytes())


def costs_fingerprint(query: BudgetedQuery) -> str:
    """A short stable digest of a budgeted query's cost structure."""
    parts = [repr(query.default_cost).encode()]
    for node, cost in query.costs:
        parts.append(f"{node}:{repr(cost)}".encode())
    return _digest(b"|".join(parts))


def cache_extra(query: AnyQuery) -> Optional[tuple]:
    """The kind-discriminating tail of the result-cache key.

    Returns ``None`` for kinds that must never be cached (heuristic
    answers, like fallbacks, are always recomputed).  Trajectory
    waypoints are cached as ``point`` entries on purpose: a waypoint's
    answer *is* the point answer for that location, so trajectories warm
    the point cache and vice versa.  Targeted and budgeted entries carry
    a mask/cost fingerprint so two kinds (or two parameterisations of
    one kind) hashing to the same ``(fingerprint, cell, k)`` can no
    longer collide.
    """
    if isinstance(query, DaimQuery):
        return ("point", query.k)
    if isinstance(query, TargetedQuery):
        return ("targeted", query.k, query.targets_fp)
    if isinstance(query, BudgetedQuery):
        return ("budgeted", query.budget, costs_fingerprint(query))
    return None


def _require(obj: Mapping, field_name: str, kind: str) -> object:
    if field_name not in obj or obj[field_name] is None:
        raise QueryError(f"{kind} query needs a {field_name!r} field")
    return obj[field_name]


def _point_of(obj: Mapping, kind: str) -> Point:
    return (_as_float(_require(obj, "x", kind), "x"),
            _as_float(_require(obj, "y", kind), "y"))


def _list_of(raw: object, what: str, pairs: bool = False) -> list:
    """A list field (never a bare string); with ``pairs``, of 2-lists."""
    if not isinstance(raw, (list, tuple)) or (pairs and not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in raw
    )):
        shape = "[a, b] pairs" if pairs else "a list"
        raise QueryError(f"{what} must be {shape}, got {raw!r}")
    return list(raw)


def query_from_json(obj: Mapping, default_k: int) -> AnyQuery:
    """Parse one JSONL row / HTTP parameter map into a query object.

    The ``kind`` field defaults to ``"point"`` so every pre-existing
    batch file keeps working unchanged.  Numbers may arrive as strings
    (HTTP query parameters); integer fields (``k``, target ids, cost
    override nodes) take only integers or decimal-integer strings, and
    list fields refuse a bare string; every number must be finite.
    Every malformed row raises :class:`~repro.exceptions.QueryError`.
    """
    if not isinstance(obj, Mapping):
        raise QueryError(f"a query must be a JSON object, got {obj!r}")
    kind = str(obj.get("kind", "point"))
    k = obj.get("k", default_k)
    if kind == "point":
        return DaimQuery(location=_point_of(obj, kind), k=_as_k(k))
    if kind == "trajectory":
        raw = _list_of(_require(obj, "waypoints", kind),
                       "trajectory waypoints", pairs=True)
        waypoints = tuple(
            (_as_float(x, "waypoint x"), _as_float(y, "waypoint y"))
            for x, y in raw
        )
        return TrajectoryQuery(waypoints=waypoints, k=k)
    if kind == "targeted":
        targets = _list_of(_require(obj, "targets", kind), "targets")
        return TargetedQuery(
            location=_point_of(obj, kind), k=k, targets=tuple(targets)
        )
    if kind == "budgeted":
        raw_costs = obj.get("costs", ())
        if isinstance(raw_costs, Mapping):
            pairs = tuple(raw_costs.items())
        else:
            pairs = tuple(
                tuple(p) for p in _list_of(raw_costs, "budgeted costs", pairs=True)
            )
        return BudgetedQuery(
            location=_point_of(obj, kind),
            budget=_require(obj, "budget", kind),
            costs=pairs,
            default_cost=obj.get("cost", 1.0),
        )
    if kind == "heuristic":
        level = obj.get("level")
        return HeuristicQuery(
            location=_point_of(obj, kind),
            k=k,
            level=str(level) if level is not None else None,
            budget_ms=obj.get("budget_ms"),
        )
    raise QueryError(f"unknown query kind {kind!r} (expected one of {QUERY_KINDS})")


def query_to_row(query: AnyQuery) -> dict:
    """The echo fields a served output row carries for this query.

    Every kind includes ``kind`` plus ``x``/``y`` (the routing location)
    so simple row consumers keep working; kind-specific parameters ride
    along.
    """
    x, y = route_location(query)
    row: dict = {"kind": kind_of(query), "x": x, "y": y}
    if isinstance(query, TrajectoryQuery):
        row["waypoints"] = [[wx, wy] for wx, wy in query.waypoints]
        row["k"] = query.k
    elif isinstance(query, TargetedQuery):
        row["k"] = query.k
        row["targets"] = len(query.targets)
        row["targets_fp"] = query.targets_fp
    elif isinstance(query, BudgetedQuery):
        row["budget"] = query.budget
        row["cost"] = query.default_cost
    elif isinstance(query, HeuristicQuery):
        row["k"] = query.k
        if query.level is not None:
            row["level"] = query.level
    else:
        row["k"] = query.k
    return row
