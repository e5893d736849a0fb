"""Uniform grid spatial index.

MIA-DA's *region-based estimation* (the ``tau`` parameter in Section 5.1)
partitions the space around influential nodes into regions and stores the
influence mass per region; at query time the weight of every node in a region
is bounded via the min/max distance from the query to the region rectangle.
A uniform grid is the natural region structure: cells are axis-aligned
rectangles with O(1) point-to-cell assignment and closed-form min/max
distances.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

from repro.exceptions import GeometryError
from repro.geo.point import BoundingBox, Point, PointLike, as_point


class UniformGrid:
    """A ``rows x cols`` grid over a bounding box.

    Cells are indexed by a flat integer ``cell = row * cols + col``.
    """

    __slots__ = ("box", "rows", "cols", "_cw", "_ch", "_x0", "_y0",
                 "_x_edges", "_y_edges")

    def __init__(self, box: BoundingBox, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise GeometryError(f"grid must have positive shape, got {rows}x{cols}")
        if box.width <= 0 or box.height <= 0:
            # Zero-extent boxes (all points identical) get a tiny pad so that
            # cell sizes stay positive.
            box = box.expanded(max(box.diagonal, 1.0) * 1e-9 + 1e-9)
        self.box = box
        self.rows = rows
        self.cols = cols
        self._cw = box.width / cols
        self._ch = box.height / rows
        self._x0 = box.xmin
        self._y0 = box.ymin
        # (lo, hi) cell edges per column and per row, for distance_bounds.
        x_lo = box.xmin + np.arange(cols) * self._cw
        y_lo = box.ymin + np.arange(rows) * self._ch
        self._x_edges = (x_lo, x_lo + self._cw)
        self._y_edges = (y_lo, y_lo + self._ch)

    @classmethod
    def with_cell_budget(cls, box: BoundingBox, n_cells: int) -> "UniformGrid":
        """A roughly square grid with about ``n_cells`` cells.

        This mirrors the paper's ``tau`` parameter: ``tau = 200`` means each
        heavy node's influenced area is split into ~200 regions.
        """
        if n_cells <= 0:
            raise GeometryError(f"cell budget must be positive, got {n_cells}")
        aspect = box.width / box.height if box.height > 0 else 1.0
        cols = max(1, int(round(math.sqrt(n_cells * max(aspect, 1e-9)))))
        rows = max(1, int(round(n_cells / cols)))
        return cls(box, rows, cols)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cell_of(self, p: PointLike) -> int:
        """Flat cell id containing ``p`` (clamped to the grid extent)."""
        return self.cell_of_normalised(as_point(p))

    def cell_of_normalised(self, p: Point) -> int:
        """:meth:`cell_of` for a point ``as_point`` already returned.

        Skips re-validating the point: the serving engine keys every
        query by a location its query kind normalised on construction.
        """
        x, y = p
        cols, rows = self.cols, self.rows
        col = int((x - self._x0) / self._cw)
        row = int((y - self._y0) / self._ch)
        # Clamped by comparison, not min()/max(): this runs on every
        # served query.
        if col < 0:
            col = 0
        elif col >= cols:
            col = cols - 1
        if row < 0:
            row = 0
        elif row >= rows:
            row = rows - 1
        return row * cols + col

    def cells_of(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of` over an ``(n, 2)`` array."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        col = ((coords[:, 0] - self.box.xmin) / self._cw).astype(np.int64)
        row = ((coords[:, 1] - self.box.ymin) / self._ch).astype(np.int64)
        np.clip(col, 0, self.cols - 1, out=col)
        np.clip(row, 0, self.rows - 1, out=row)
        return row * self.cols + col

    def cell_box(self, cell: int) -> BoundingBox:
        """The rectangle of a flat cell id."""
        if not 0 <= cell < self.n_cells:
            raise GeometryError(f"cell {cell} out of range [0, {self.n_cells})")
        row, col = divmod(cell, self.cols)
        return BoundingBox(
            xmin=self.box.xmin + col * self._cw,
            ymin=self.box.ymin + row * self._ch,
            xmax=self.box.xmin + (col + 1) * self._cw,
            ymax=self.box.ymin + (row + 1) * self._ch,
        )

    def cell_centers(self) -> np.ndarray:
        """``(n_cells, 2)`` array of cell centres, in flat-id order."""
        cols = np.arange(self.cols)
        rows = np.arange(self.rows)
        cx = self.box.xmin + (cols + 0.5) * self._cw
        cy = self.box.ymin + (rows + 0.5) * self._ch
        gx, gy = np.meshgrid(cx, cy)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def distance_bounds(self, q: PointLike) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cell (min, max) Euclidean distance from ``q``; shape (n_cells,).

        Fully vectorized; this runs once per node-bound evaluation in MIA-DA
        so it must be cheap.
        """
        qx, qy = as_point(q)
        x_lo, x_hi = self._x_edges
        y_lo, y_hi = self._y_edges

        dx_min = np.maximum(np.maximum(x_lo - qx, qx - x_hi), 0.0)
        dy_min = np.maximum(np.maximum(y_lo - qy, qy - y_hi), 0.0)
        dx_max = np.maximum(np.abs(qx - x_lo), np.abs(qx - x_hi))
        dy_max = np.maximum(np.abs(qy - y_lo), np.abs(qy - y_hi))

        # Cell (row, col) is flat id row * cols + col: columns vary fastest.
        d_min = np.hypot(dx_min[None, :], dy_min[:, None]).ravel()
        d_max = np.hypot(dx_max[None, :], dy_max[:, None]).ravel()
        return d_min, d_max

    def iter_cells(self) -> Iterator[Tuple[int, BoundingBox]]:
        """Iterate ``(cell_id, rectangle)`` over all cells."""
        for cell in range(self.n_cells):
            yield cell, self.cell_box(cell)
