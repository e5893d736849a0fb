"""The immutable CSR geo-social network.

The whole library operates on one graph type: a directed graph in compressed
sparse row form with

* per-node 2-D coordinates (the user's location / representative check-in);
* per-edge independent activation probabilities (IC model);
* both forward (out-edges) and reverse (in-edges) adjacency, because forward
  Monte-Carlo simulation walks out-edges while RR-set sampling walks
  in-edges.

The CSR layout keeps the hot loops (frontier expansion, reverse BFS) inside
numpy slicing instead of Python dict lookups, which is what makes RIS
sampling feasible in pure Python at the scales used here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.geo.point import BoundingBox


class GeoSocialNetwork:
    """A directed geo-social network ``G = (V, E)`` in CSR form.

    Nodes are the integers ``0 .. n-1``.  Construction validates and sorts
    the edge set; the object is immutable afterwards (all arrays are set
    read-only), so indexes built over a network can safely keep references.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        ``(m, 2)`` int array of directed edges ``<u, v>``.
    probabilities:
        ``(m,)`` float array, ``probabilities[i]`` is ``Pr(edges[i])``.
        May be ``None``; assign later via :meth:`with_probabilities` or the
        helpers in :mod:`repro.network.probability`.
    coords:
        ``(n, 2)`` float array of node locations.
    """

    __slots__ = (
        "n",
        "m",
        "coords",
        "out_offsets",
        "out_sources",
        "out_targets",
        "out_probs",
        "in_offsets",
        "in_sources",
        "in_probs",
        "_box",
    )

    def __init__(
        self,
        n: int,
        edges: np.ndarray,
        probabilities: np.ndarray | None,
        coords: np.ndarray,
    ):
        if n <= 0:
            raise GraphError(f"network must have at least one node, got n={n}")
        edges = np.atleast_2d(np.asarray(edges, dtype=np.int64))
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
        m = len(edges)
        if m and (edges.min() < 0 or edges.max() >= n):
            raise GraphError(
                f"edge endpoints must be in [0, {n}), got range "
                f"[{edges.min()}, {edges.max()}]"
            )
        if m and np.any(edges[:, 0] == edges[:, 1]):
            raise GraphError("self-loops are not allowed")

        coords = np.asarray(coords, dtype=float)
        if coords.shape != (n, 2):
            raise GraphError(f"coords must have shape ({n}, 2), got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise GraphError("coords must be finite")

        if probabilities is None:
            probs = np.zeros(m, dtype=float)
        else:
            probs = np.asarray(probabilities, dtype=float)
            if probs.shape != (m,):
                raise GraphError(
                    f"probabilities must have shape ({m},), got {probs.shape}"
                )
            if not np.all((probs >= 0.0) & (probs <= 1.0)):  # NaN fails too
                raise GraphError("edge probabilities must lie in [0, 1]")

        # Reject duplicate edges — they would double-count influence.
        if m:
            keys = edges[:, 0] * np.int64(n) + edges[:, 1]
            if len(np.unique(keys)) != m:
                raise GraphError("duplicate edges are not allowed")

        self.n = int(n)
        self.m = int(m)
        self.coords = coords

        # Forward CSR, sorted by source.
        order = np.lexsort((edges[:, 1], edges[:, 0])) if m else np.empty(0, np.int64)
        fe = edges[order]
        fp = probs[order]
        self.out_offsets = np.zeros(n + 1, dtype=np.int64)
        if m:
            np.add.at(self.out_offsets, fe[:, 0] + 1, 1)
        np.cumsum(self.out_offsets, out=self.out_offsets)
        self.out_sources = fe[:, 0].copy() if m else np.empty(0, np.int64)
        self.out_targets = fe[:, 1].copy() if m else np.empty(0, np.int64)
        self.out_probs = fp.copy() if m else np.empty(0, float)

        # Reverse CSR, sorted by target.
        order_r = np.lexsort((edges[:, 0], edges[:, 1])) if m else np.empty(0, np.int64)
        re = edges[order_r]
        rp = probs[order_r]
        self.in_offsets = np.zeros(n + 1, dtype=np.int64)
        if m:
            np.add.at(self.in_offsets, re[:, 1] + 1, 1)
        np.cumsum(self.in_offsets, out=self.in_offsets)
        self.in_sources = re[:, 0].copy() if m else np.empty(0, np.int64)
        self.in_probs = rp.copy() if m else np.empty(0, float)

        self._box: BoundingBox | None = None
        for arr in (
            self.coords,
            self.out_offsets,
            self.out_sources,
            self.out_targets,
            self.out_probs,
            self.in_offsets,
            self.in_sources,
            self.in_probs,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]] | np.ndarray,
        coords: np.ndarray | Sequence[Tuple[float, float]],
        probabilities: np.ndarray | Sequence[float] | None = None,
        n: int | None = None,
    ) -> "GeoSocialNetwork":
        """Build from an edge iterable; ``n`` defaults to ``len(coords)``."""
        coords = np.asarray(coords, dtype=float)
        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                              dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if n is None:
            n = len(coords)
        probs = None if probabilities is None else np.asarray(probabilities, dtype=float)
        return cls(n, edge_arr, probs, coords)

    def with_probabilities(self, probabilities: np.ndarray) -> "GeoSocialNetwork":
        """A copy of this network with new edge probabilities.

        ``probabilities`` must be aligned with :meth:`edge_array` order.
        """
        edges, _ = self.edge_array()
        return GeoSocialNetwork(self.n, edges, probabilities, self.coords.copy())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def out_neighbors(self, u: int) -> np.ndarray:
        """Targets of ``u``'s out-edges (read-only slice)."""
        return self.out_targets[self.out_offsets[u] : self.out_offsets[u + 1]]

    def out_probabilities(self, u: int) -> np.ndarray:
        """Probabilities aligned with :meth:`out_neighbors`."""
        return self.out_probs[self.out_offsets[u] : self.out_offsets[u + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of ``v``'s in-edges (read-only slice)."""
        return self.in_sources[self.in_offsets[v] : self.in_offsets[v + 1]]

    def in_probabilities(self, v: int) -> np.ndarray:
        """Probabilities aligned with :meth:`in_neighbors`."""
        return self.in_probs[self.in_offsets[v] : self.in_offsets[v + 1]]

    def out_degree(self, u: int | None = None) -> np.ndarray | int:
        """Out-degree of ``u``, or the full out-degree vector if ``u`` is None."""
        if u is None:
            return np.diff(self.out_offsets)
        return int(self.out_offsets[u + 1] - self.out_offsets[u])

    def in_degree(self, v: int | None = None) -> np.ndarray | int:
        """In-degree of ``v``, or the full in-degree vector if ``v`` is None."""
        if v is None:
            return np.diff(self.in_offsets)
        return int(self.in_offsets[v + 1] - self.in_offsets[v])

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(edges, probabilities)`` in forward-CSR order."""
        return (
            np.column_stack([self.out_sources, self.out_targets]),
            self.out_probs.copy(),
        )

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(u, v, Pr(u, v))`` for every edge."""
        for u in range(self.n):
            lo, hi = self.out_offsets[u], self.out_offsets[u + 1]
            for j in range(lo, hi):
                yield u, int(self.out_targets[j]), float(self.out_probs[j])

    def bounding_box(self, pad: float = 0.0) -> BoundingBox:
        """The bounding box of all node locations (cached when pad == 0)."""
        if pad == 0.0:
            if self._box is None:
                self._box = BoundingBox.of_points(self.coords)
            return self._box
        return BoundingBox.of_points(self.coords, pad=pad)

    def __repr__(self) -> str:
        return f"GeoSocialNetwork(n={self.n}, m={self.m})"
