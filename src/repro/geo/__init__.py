"""Computational-geometry and spatial-indexing substrate.

This package provides everything spatial that the DAIM algorithms need:

* :mod:`repro.geo.point` — points, bounding boxes, distance metrics;
* :mod:`repro.geo.weights` — the exponential distance-decay weight function
  ``w(v, q) = c * exp(-alpha * d(v, q))`` and its Lipschitz-style bounds;
* :mod:`repro.geo.convex` — convex polygons and half-plane clipping;
* :mod:`repro.geo.voronoi` — bounded Voronoi cells over a pivot set and the
  furthest-point-in-cell computation used by RIS-DA index sizing;
* :mod:`repro.geo.kdtree` — a static k-d tree for nearest-pivot lookup;
* :mod:`repro.geo.grid` — a uniform grid index used for region-based bounds;
* :mod:`repro.geo.sampling` — uniform pivot/anchor placement and
  density-matched anchors.
"""

from repro.geo.convex import ConvexPolygon, HalfPlane
from repro.geo.grid import UniformGrid
from repro.geo.kdtree import KDTree
from repro.geo.point import (
    BoundingBox,
    Point,
    euclidean,
    manhattan,
    pairwise_distances,
    resolve_metric,
)
from repro.geo.sampling import sample_density_pivots, sample_uniform_points
from repro.geo.voronoi import VoronoiCell, VoronoiDiagram
from repro.geo.weights import DistanceDecay

__all__ = [
    "BoundingBox",
    "ConvexPolygon",
    "DistanceDecay",
    "HalfPlane",
    "KDTree",
    "Point",
    "UniformGrid",
    "VoronoiCell",
    "VoronoiDiagram",
    "euclidean",
    "manhattan",
    "pairwise_distances",
    "resolve_metric",
    "sample_density_pivots",
    "sample_uniform_points",
]
