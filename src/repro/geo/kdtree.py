"""A static 2-D k-d tree for nearest-neighbour queries.

Both indexes need "find the closest pre-sampled location to the query":
MIA-DA picks the closest *anchor*, RIS-DA picks the closest *pivot*
(Section 4.3.2).  At these sizes (tens of anchors, a few pivots) a
vectorised scan beats a Python-level tree walk (13 against 67 us at 60
points); the walk over the tree (median splits, array-based nodes — no
Python object per node) only settles exact distance ties, so every
answer is the walk's.  The tree is built once and immutable afterwards,
which fits the offline-index / online-query split of the paper.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.exceptions import GeometryError
from repro.geo.point import PointLike, as_point


class KDTree:
    """Immutable 2-D k-d tree over an ``(n, 2)`` coordinate array.

    Queries return *indices into the original array*, so callers can keep
    satellite data (pivot metadata, anchor influence tables) in parallel
    arrays.
    """

    __slots__ = (
        "_points",
        "_xs",
        "_ys",
        "_index",
        "_left",
        "_right",
        "_axis",
        "_root",
        "_size",
        "_next_slot",
    )

    _LEAF = -1

    def __init__(self, points: np.ndarray):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise GeometryError("cannot build a k-d tree over an empty point set")
        if pts.shape[1] != 2:
            raise GeometryError(f"expected (n, 2) points, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise GeometryError("k-d tree points must be finite")
        self._points = pts
        self._xs = np.ascontiguousarray(pts[:, 0])
        self._ys = np.ascontiguousarray(pts[:, 1])
        n = len(pts)
        self._size = n
        # Node storage: each node is identified by its position in these
        # arrays; _index[i] is the point stored at node i.
        self._index = np.empty(n, dtype=np.int64)
        self._left = np.full(n, self._LEAF, dtype=np.int64)
        self._right = np.full(n, self._LEAF, dtype=np.int64)
        self._axis = np.zeros(n, dtype=np.int8)
        self._next_slot = 0
        order = np.arange(n, dtype=np.int64)
        self._root = self._build(order, depth=0)
        del self._next_slot  # construction-only scratch

    def __len__(self) -> int:
        return self._size

    @property
    def points(self) -> np.ndarray:
        return self._points

    def _build(self, order: np.ndarray, depth: int) -> int:
        if order.size == 0:
            return self._LEAF
        axis = depth % 2
        coords = self._points[order, axis]
        mid = order.size // 2
        part = np.argpartition(coords, mid)
        order = order[part]
        node = self._next_slot
        self._next_slot += 1
        self._index[node] = order[mid]
        self._axis[node] = axis
        self._left[node] = self._build(order[:mid], depth + 1)
        self._right[node] = self._build(order[mid + 1 :], depth + 1)
        return node

    def _d2(self, qx, qy) -> np.ndarray:
        """Squared distances to ``(qx, qy)`` in the walk's own float ops."""
        dx = self._xs - qx
        dy = self._ys - qy
        return dx * dx + dy * dy

    def nearest(self, q: PointLike) -> Tuple[int, float]:
        """Index of the nearest stored point to ``q`` and its distance:
        one ``argmin``, and the walk's answer on an exact tie."""
        qx, qy = as_point(q)
        d2 = self._d2(qx, qy)
        i = int(d2.argmin())
        if (d2 == d2[i]).sum() > 1:
            return self._walk(qx, qy)
        return i, math.sqrt(d2[i])

    def _walk(self, qx: float, qy: float) -> Tuple[int, float]:
        """The tree search: the first strictly nearest point it visits."""
        best_idx = -1
        best_d2 = math.inf
        # Iterative search with an explicit stack of (node, dist2-to-split).
        stack: list[int] = [self._root]
        pts = self._points
        while stack:
            node = stack.pop()
            if node == self._LEAF:
                continue
            i = int(self._index[node])
            dx = pts[i, 0] - qx
            dy = pts[i, 1] - qy
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best_d2 = d2
                best_idx = i
            axis = int(self._axis[node])
            delta = (qx - pts[i, 0]) if axis == 0 else (qy - pts[i, 1])
            near = self._left[node] if delta <= 0 else self._right[node]
            far = self._right[node] if delta <= 0 else self._left[node]
            # Visit the near side first; only cross the split if the slab
            # could still contain a closer point.
            if far != self._LEAF and delta * delta < best_d2:
                stack.append(int(far))
            if near != self._LEAF:
                stack.append(int(near))
        return best_idx, math.sqrt(best_d2)

    def nearest_many(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`nearest` over an ``(m, 2)`` query array: one ``(m, n)``
        distance pass and a row-wise ``argmin``, the walk on tied rows."""
        qs = np.atleast_2d(np.asarray(queries, dtype=float))
        if qs.shape[1] != 2 or not np.isfinite(qs).all():
            raise GeometryError(
                f"expected finite (m, 2) queries, got shape {qs.shape}"
            )
        d2 = self._d2(qs[:, :1], qs[:, 1:])
        idx = d2.argmin(axis=1)
        best = d2[np.arange(len(qs)), idx]
        dist = np.sqrt(best)
        for row in np.flatnonzero((d2 == best[:, None]).sum(axis=1) > 1):
            idx[row], dist[row] = self._walk(qs[row, 0], qs[row, 1])
        return idx, dist

    def within_radius(self, q: PointLike, radius: float) -> np.ndarray:
        """Indices of all stored points within ``radius`` of ``q``, ascending."""
        if radius < 0:
            raise GeometryError(f"radius must be non-negative, got {radius}")
        return np.flatnonzero(self._d2(*as_point(q)) <= radius * radius)
