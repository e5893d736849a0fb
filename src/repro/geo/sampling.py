"""Spatial point-sampling strategies for pivots and anchors.

Both indexes pre-sample query locations offline:

* MIA-DA samples *anchor points* (paper: ``|L| = 300``) at which node
  influences are pre-computed;
* RIS-DA samples *pivots* (paper: 2000) at which the DAIM problem is solved
  to seed the lower-bound machinery.

The paper samples locations "randomly from the entire space"; RIS-DA
always does (uniform).  MIA-DA can also place its anchors by
density-matched sampling (anchors where users actually are), its
``anchor_strategy="density"``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GeometryError
from repro.geo.point import BoundingBox
from repro.rng import RandomLike, as_generator


def sample_uniform_points(
    box: BoundingBox, n: int, seed: RandomLike = None
) -> np.ndarray:
    """``n`` points uniformly at random in ``box``; shape ``(n, 2)``."""
    if n <= 0:
        raise GeometryError(f"sample count must be positive, got {n}")
    rng = as_generator(seed)
    xs = rng.uniform(box.xmin, box.xmax, size=n)
    ys = rng.uniform(box.ymin, box.ymax, size=n)
    return np.column_stack([xs, ys])


def sample_density_pivots(
    coords: np.ndarray,
    n: int,
    seed: RandomLike = None,
    jitter: float = 0.0,
) -> np.ndarray:
    """``n`` pivots drawn from the empirical node-location distribution.

    Each pivot is a (possibly jittered) copy of a random node location, so
    pivots concentrate where users concentrate — queries near dense areas
    then find a very close pivot.

    Parameters
    ----------
    coords:
        ``(m, 2)`` node locations.
    jitter:
        Standard deviation of Gaussian noise added to each pivot; 0 reuses
        exact node locations.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.size == 0:
        raise GeometryError("cannot sample pivots from an empty location set")
    if n <= 0:
        raise GeometryError(f"sample count must be positive, got {n}")
    rng = as_generator(seed)
    idx = rng.integers(0, len(coords), size=n)
    pts = coords[idx].copy()
    if jitter > 0:
        pts += rng.normal(0.0, jitter, size=pts.shape)
    return pts
