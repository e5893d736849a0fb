"""Query workload generators for the evaluation.

The paper's query workload: "query locations are randomly selected from
the entire space" (Section 5.1), plus Figure 7's partitioning of queries
into quintiles by the average user-to-query distance.  Serving
throughput is measured by ``perfbench/`` (the ``serve_hotspot`` and
``update_stream`` workloads), not here.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import QueryError
from repro.geo.point import Point
from repro.geo.sampling import sample_uniform_points
from repro.network.graph import GeoSocialNetwork
from repro.rng import RandomLike, as_generator


def random_queries(
    network: GeoSocialNetwork, count: int, seed: RandomLike = None
) -> List[Point]:
    """``count`` query locations uniform over the network's bounding box."""
    pts = sample_uniform_points(network.bounding_box(), count, seed)
    return [(float(x), float(y)) for x, y in pts]


def average_user_distance(network: GeoSocialNetwork, q: Point) -> float:
    """Mean Euclidean distance from all users to ``q`` (Figure 7's axis)."""
    d = np.hypot(network.coords[:, 0] - q[0], network.coords[:, 1] - q[1])
    return float(d.mean())


def distance_partitioned_queries(
    network: GeoSocialNetwork,
    per_bucket: int,
    n_buckets: int = 5,
    candidates: int = 500,
    seed: RandomLike = None,
) -> List[List[Point]]:
    """Queries grouped into ``n_buckets`` quantiles of average user distance.

    Reproduces Figure 7's workload: bucket 0 holds the queries closest to
    the user mass ("0-20"), the last bucket the farthest ("80-100").
    """
    if per_bucket <= 0 or n_buckets <= 0:
        raise QueryError("per_bucket and n_buckets must be positive")
    rng = as_generator(seed)
    pool = random_queries(network, max(candidates, per_bucket * n_buckets), rng)
    scored = sorted(pool, key=lambda q: average_user_distance(network, q))
    chunk = len(scored) // n_buckets
    buckets: List[List[Point]] = []
    for b in range(n_buckets):
        segment = scored[b * chunk : (b + 1) * chunk]
        if len(segment) < per_bucket:
            raise QueryError(
                f"bucket {b} has only {len(segment)} candidates; "
                f"raise the candidate pool"
            )
        idx = rng.choice(len(segment), size=per_bucket, replace=False)
        buckets.append([segment[int(i)] for i in idx])
    return buckets
