"""Graph deltas: validated change batches and their application.

A :class:`GraphDelta` carries three kinds of change against a
:class:`~repro.network.graph.GeoSocialNetwork`:

* **edge upserts** — ``(u, v, p)`` rows that insert the edge if absent
  or replace its activation probability if present;
* **edge removals** — ``(u, v)`` rows deleting an existing edge;
* **check-ins** — ``(node, x, y)`` rows moving a user's representative
  location.

:func:`apply_delta` folds a delta into a *new* network (the network type
is immutable by design — indexes hold references to its arrays) and
reports the **dirty nodes**: every endpoint of an inserted, re-weighted,
or removed edge.  The dirty set is what makes incremental index
maintenance sound:

* an RR sample is invalidated only if its reverse-reach set contains a
  dirty node — any sample avoiding all dirty nodes would have traversed
  exactly the same in-edge coin flips on the new graph;
* a MIIA arborescence rooted at ``v`` is invalidated only if a dirty
  node appears in it — maximum-influence paths avoiding all changed
  edges' endpoints are unchanged (subpaths of MIPs are MIPs).

Check-in moves deliberately do **not** dirty nodes: topology and edge
probabilities are untouched, so RR samples and arborescences stay valid;
only the distance-decay weighting (applied at query time for RIS, and
recomputed in the anchor/region bounds for MIA) sees new coordinates.
Moved nodes are reported separately so update paths can refresh
geometry-dependent structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import DataFormatError, GraphError
from repro.network.graph import GeoSocialNetwork


_INT64 = np.iinfo(np.int64)


def _node_id(value) -> int:
    """A wire-format node id: a JSON integer in int64 range.

    Booleans and floats are refused rather than coerced — ``int(2.9)``
    would silently name node 2 and ``int(True)`` node 1.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or not _INT64.min <= value <= _INT64.max
    ):
        raise ValueError(f"node id must be an int64 integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """A wire-format real: a JSON number, integer or float.

    Booleans, strings and nulls are refused rather than coerced —
    ``float(True)`` would read as probability 1.0 and ``float("12")`` as
    the coordinate 12.0.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a JSON number, got {value!r}")
    return float(value)


def _as_edge_array(edges, what: str) -> np.ndarray:
    arr = np.asarray(edges if edges is not None else [], dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    arr = np.atleast_2d(arr)
    if arr.shape[1] != 2:
        raise GraphError(f"{what} must have shape (k, 2), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class GraphDelta:
    """One validated batch of graph changes.

    Within a batch, later rows win: an edge upserted twice takes the last
    probability, and an edge both upserted and removed ends up in
    whichever state its **last** event requests.  ``from_events`` builds a
    delta from JSONL-style dicts (the ``update`` CLI's wire format).
    """

    edges: np.ndarray           #: (k, 2) int64 — upserted edges
    probabilities: np.ndarray   #: (k,) float — probability per upsert
    removed: np.ndarray         #: (r, 2) int64 — removed edges
    checkin_nodes: np.ndarray   #: (c,) int64 — moved users
    checkin_coords: np.ndarray  #: (c, 2) float — their new locations

    @classmethod
    def make(
        cls,
        edges=None,
        probabilities=None,
        removed=None,
        checkins: Optional[Iterable[Tuple[int, float, float]]] = None,
    ) -> "GraphDelta":
        """Build and validate a delta from loose inputs.

        ``checkins`` is an iterable of ``(node, x, y)``; duplicate moves
        of one node keep the last.
        """
        edge_arr = _as_edge_array(edges, "delta edges")
        if probabilities is None:
            probs = np.zeros(len(edge_arr), dtype=float)
            if len(edge_arr):
                raise GraphError("edge upserts require probabilities")
        else:
            probs = np.asarray(probabilities, dtype=float).reshape(-1)
        if probs.shape != (len(edge_arr),):
            raise GraphError(
                f"probabilities must have shape ({len(edge_arr)},), "
                f"got {probs.shape}"
            )
        if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails too
            raise GraphError("edge probabilities must lie in [0, 1]")
        if len(edge_arr) and np.any(edge_arr[:, 0] == edge_arr[:, 1]):
            raise GraphError("self-loops are not allowed")
        removed_arr = _as_edge_array(removed, "removed edges")
        rows = list(checkins or [])
        nodes = np.asarray([r[0] for r in rows], dtype=np.int64)
        coords = np.asarray(
            [(r[1], r[2]) for r in rows], dtype=float
        ).reshape(len(rows), 2)
        if len(coords) and not np.all(np.isfinite(coords)):
            raise GraphError("check-in coordinates must be finite")
        return cls(edge_arr, probs, removed_arr, nodes, coords)

    @classmethod
    def from_events(cls, events: Iterable[Mapping]) -> "GraphDelta":
        """Parse JSONL-style event dicts into one delta.

        Supported events (the ``update`` CLI's wire format)::

            {"op": "edge", "u": 3, "v": 7, "p": 0.2}
            {"op": "drop_edge", "u": 3, "v": 7}
            {"op": "checkin", "node": 5, "x": 12.5, "y": -3.0}

        Any other row, a node id that is not an int64 integer, or a
        ``p``/``x``/``y`` that is not a JSON number (``true``, ``"12"``,
        ``null``) raises :class:`~repro.exceptions.DataFormatError`.
        """
        edges, probs, removed, checkins = [], [], [], []
        for i, ev in enumerate(events):
            if not isinstance(ev, Mapping):
                raise DataFormatError(
                    f"event {i}: expected a JSON object, got {ev!r}"
                )
            op = ev.get("op")
            try:
                if op == "edge":
                    edges.append((_node_id(ev["u"]), _node_id(ev["v"])))
                    probs.append(_number(ev["p"]))
                elif op == "drop_edge":
                    removed.append((_node_id(ev["u"]), _node_id(ev["v"])))
                elif op == "checkin":
                    checkins.append((
                        _node_id(ev["node"]), _number(ev["x"]), _number(ev["y"])
                    ))
                else:
                    raise DataFormatError(
                        f"event {i}: unknown op {op!r} "
                        "(expected edge | drop_edge | checkin)"
                    )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataFormatError(
                    f"event {i}: malformed {ev!r} ({exc})"
                ) from exc
        return cls.make(
            edges=edges, probabilities=probs, removed=removed,
            checkins=checkins,
        )

    @property
    def is_empty(self) -> bool:
        return (
            len(self.edges) == 0
            and len(self.removed) == 0
            and len(self.checkin_nodes) == 0
        )

    def __repr__(self) -> str:
        return (
            f"GraphDelta(upserts={len(self.edges)}, "
            f"removed={len(self.removed)}, moves={len(self.checkin_nodes)})"
        )


@dataclass(frozen=True)
class UpdateStats:
    """What one ``index.update()`` call did (staleness accounting).

    Serving layers feed these into the staleness gauges; the CLI prints
    them.  ``samples_retired`` / ``samples_added`` are RIS-specific and
    ``trees_rebuilt`` is MIA-specific — the other family reports zero.
    """

    generation: int       #: index generation after the update
    dirty_nodes: int      #: endpoints of changed edges
    dirty_fraction: float  #: dirty_nodes / n
    moved_nodes: int      #: users whose coordinates moved
    samples_retired: int  #: RR samples dropped (RIS)
    samples_added: int    #: RR samples drawn to restore guarantees (RIS)
    trees_rebuilt: int    #: arborescences rebuilt (MIA)
    seconds: float        #: wall-clock cost of the update
    updated_unix: float   #: wall-clock time the update finished

    def as_dict(self) -> dict:
        return {
            "generation": self.generation,
            "dirty_nodes": self.dirty_nodes,
            "dirty_fraction": self.dirty_fraction,
            "moved_nodes": self.moved_nodes,
            "samples_retired": self.samples_retired,
            "samples_added": self.samples_added,
            "trees_rebuilt": self.trees_rebuilt,
            "seconds": self.seconds,
            "updated_unix": self.updated_unix,
        }


@dataclass(frozen=True)
class DeltaResult:
    """The outcome of :func:`apply_delta`."""

    network: GeoSocialNetwork  #: the new (immutable) network
    dirty_nodes: np.ndarray    #: sorted unique endpoints of changed edges
    moved_nodes: np.ndarray    #: sorted unique nodes whose coords moved


def apply_delta(
    network: GeoSocialNetwork, delta: GraphDelta
) -> DeltaResult:
    """Apply ``delta`` to ``network``, returning the new network + dirty set.

    Edge changes are resolved last-wins within the batch (see
    :class:`GraphDelta`); removing an edge that does not exist raises
    :class:`~repro.exceptions.GraphError` (silently ignoring it would
    mask an out-of-sync stream).  Node ids must already exist — streaming
    node *arrival* is out of scope (it would resize every per-node array
    in both index families).
    """
    n = network.n
    for arr, what in (
        (delta.edges, "edge upsert"),
        (delta.removed, "edge removal"),
    ):
        if len(arr) and (arr.min() < 0 or arr.max() >= n):
            raise GraphError(
                f"{what} endpoints must be in [0, {n}), got range "
                f"[{arr.min()}, {arr.max()}]"
            )
    if len(delta.checkin_nodes) and (
        delta.checkin_nodes.min() < 0 or delta.checkin_nodes.max() >= n
    ):
        raise GraphError(
            f"check-in nodes must be in [0, {n}), got range "
            f"[{delta.checkin_nodes.min()}, {delta.checkin_nodes.max()}]"
        )

    old_edges, old_probs = network.edge_array()
    old_keys = old_edges[:, 0] * np.int64(n) + old_edges[:, 1]

    # Last-wins resolution across upserts and removals: walk the batch
    # in order, keyed by (u, v).  Batches are human-scale (a stream
    # window), so a dict is simpler and fast enough.
    final: dict = {}  # key -> prob (float) for upsert, None for removal
    for (u, v), p in zip(delta.edges, delta.probabilities):
        final[int(u) * n + int(v)] = float(p)
    for u, v in delta.removed:
        key = int(u) * n + int(v)
        final[key] = None

    touched_keys = np.fromiter(final.keys(), dtype=np.int64,
                               count=len(final))
    existing = set(map(int, old_keys))
    for key, prob in final.items():
        if prob is None and key not in existing:
            raise GraphError(
                f"cannot remove non-existent edge "
                f"<{key // n}, {key % n}>"
            )

    if len(final):
        keep = ~np.isin(old_keys, touched_keys)
        kept_edges = old_edges[keep]
        kept_probs = old_probs[keep]
        upsert_keys = [k for k, p in final.items() if p is not None]
        add_edges = np.array(
            [(k // n, k % n) for k in upsert_keys], dtype=np.int64
        ).reshape(len(upsert_keys), 2)
        add_probs = np.array(
            [final[k] for k in upsert_keys], dtype=float
        )
        new_edges = np.concatenate([kept_edges, add_edges])
        new_probs = np.concatenate([kept_probs, add_probs])
        dirty = np.unique(
            np.concatenate([touched_keys // n, touched_keys % n])
        )
    else:
        new_edges, new_probs = old_edges, old_probs
        dirty = np.empty(0, dtype=np.int64)

    if len(delta.checkin_nodes):
        coords = network.coords.copy()
        coords[delta.checkin_nodes] = delta.checkin_coords
        moved = np.unique(delta.checkin_nodes)
    else:
        coords = network.coords.copy()
        moved = np.empty(0, dtype=np.int64)

    new_network = GeoSocialNetwork(n, new_edges, new_probs, coords)
    return DeltaResult(network=new_network, dirty_nodes=dirty,
                       moved_nodes=moved)
