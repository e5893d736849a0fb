"""Query workload generators and throughput probes for the evaluation.

The paper's query workload: "query locations are randomly selected from
the entire space" (Section 5.1), plus Figure 7's partitioning of queries
into quintiles by the average user-to-query distance.  In addition,
:func:`serve_throughput` measures cold-cache vs warm-cache queries/sec
through the serving engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ServeThroughput:
    """One phase (cold or warm) of the query-serving workload."""

    phase: str
    queries: int
    seconds: float
    queries_per_second: float
    cache_hits: int
    cache_misses: int
    fallbacks: int
    speedup: float

    def as_row(self) -> dict[str, object]:
        return {
            "phase": self.phase,
            "queries": self.queries,
            "sec": round(self.seconds, 4),
            "q/s": int(self.queries_per_second),
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "fallbacks": self.fallbacks,
            "speedup": round(self.speedup, 2),
        }


def serve_throughput(engine, queries, k: int, rounds: int = 2):
    """Cold-cache vs warm-cache serving throughput.

    Serves the same batch ``rounds`` times through ``engine`` (a
    :class:`repro.serve.QueryEngine`).  Round 0 runs against an empty
    result cache ("cold"); later rounds replay the identical workload
    and should be answered mostly from the cache ("warm").  Each row
    reports the per-round hit/miss deltas and the speedup over the cold
    round.
    """
    if rounds < 2:
        raise QueryError(f"need at least 2 rounds (cold + warm), got {rounds}")
    if not queries:
        raise QueryError("queries must not be empty")
    rows: List[ServeThroughput] = []
    hits = engine.metrics.counter("result_cache.hits")
    misses = engine.metrics.counter("result_cache.misses")
    fallbacks = engine.metrics.counter("fallbacks")
    cold_seconds: float | None = None
    for r in range(rounds):
        h0, m0, f0 = hits.value, misses.value, fallbacks.value
        start = time.perf_counter()
        engine.serve_batch(queries, k=k)
        elapsed = time.perf_counter() - start
        if cold_seconds is None:
            cold_seconds = elapsed
        rows.append(
            ServeThroughput(
                phase="cold" if r == 0 else f"warm{r}",
                queries=len(queries),
                seconds=elapsed,
                queries_per_second=len(queries) / elapsed if elapsed > 0 else 0.0,
                cache_hits=hits.value - h0,
                cache_misses=misses.value - m0,
                fallbacks=fallbacks.value - f0,
                speedup=cold_seconds / elapsed if elapsed > 0 else 0.0,
            )
        )
    return rows

