"""Synthetic geo-social network generators.

The paper evaluates on Brightkite, Gowalla, Twitter and Foursquare — real
check-in datasets we cannot ship.  These generators reproduce the two
structural properties the DAIM algorithms are sensitive to:

1. **Social topology** — heavy-tailed in/out degree distributions with local
   clustering, produced by a directed preferential-attachment process with a
   random-rewiring fraction;
2. **Spatial distribution** — user locations clustered around a handful of
   population centres ("cities", a Gaussian mixture) over a uniform rural
   background, mimicking check-in geography; friends are biased to be
   spatially close (the well-documented distance effect in geo-social
   networks), controlled by ``geo_attachment``.

Everything is seeded and deterministic given the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.network.graph import GeoSocialNetwork
from repro.network.probability import assign_weighted_cascade
from repro.rng import RandomLike, as_generator


@dataclass(frozen=True)
class GeoSocialConfig:
    """Parameters of the synthetic geo-social generator.

    Parameters
    ----------
    n:
        Number of users.
    avg_out_degree:
        Target average out-degree (the paper's datasets range ~7–11).
    n_cities:
        Number of Gaussian population centres.
    city_std:
        Standard deviation of each city's Gaussian, in space units.
    background_fraction:
        Fraction of users placed uniformly over the whole space instead of
        in a city (rural users / missing check-ins randomised over space,
        exactly what the paper does for users without check-ins).
    geo_attachment:
        In [0, 1]; probability that an edge endpoint is chosen among
        spatially nearby users rather than by preferential attachment.
    extent:
        Width/height of the square space.  The default of 300 puts the
        paper's alpha range [0.001, 0.01] in the same *decay regime* as the
        original experiments (``alpha * diameter`` of roughly 0.4–4, i.e.
        weights spanning one to two orders of magnitude across the space —
        the paper's coordinates are in degrees, where 0.01/unit decays
        mildly over a continent-sized extent).
    """

    n: int = 2000
    avg_out_degree: float = 8.0
    n_cities: int = 5
    city_std: float = 15.0
    background_fraction: float = 0.15
    geo_attachment: float = 0.3
    extent: float = 300.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GraphError(f"need at least 2 nodes, got {self.n}")
        if self.avg_out_degree <= 0:
            raise GraphError("avg_out_degree must be positive")
        if not 0 <= self.background_fraction <= 1:
            raise GraphError("background_fraction must be in [0, 1]")
        if not 0 <= self.geo_attachment <= 1:
            raise GraphError("geo_attachment must be in [0, 1]")
        if self.n_cities < 1:
            raise GraphError("need at least one city")
        if self.extent <= 0 or self.city_std <= 0:
            raise GraphError("extent and city_std must be positive")


def gaussian_cities(
    config: GeoSocialConfig, seed: RandomLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample user locations from the Gaussian-mixture city model.

    Returns ``(coords, city_centers)`` where ``coords`` is ``(n, 2)`` and
    ``city_centers`` is ``(n_cities, 2)``.  City sizes follow a Zipf-like
    split (the biggest city holds the most users), matching real check-in
    data where one metro area dominates.
    """
    rng = as_generator(seed)
    ext = config.extent
    # Keep city centres away from the border so their mass stays in-box.
    margin = min(3.0 * config.city_std, ext / 4.0)
    centers = np.column_stack(
        [
            rng.uniform(margin, ext - margin, size=config.n_cities),
            rng.uniform(margin, ext - margin, size=config.n_cities),
        ]
    )
    # Zipf-ish city weights: city i gets weight 1/(i+1).
    weights = 1.0 / np.arange(1, config.n_cities + 1, dtype=float)
    weights /= weights.sum()

    n_bg = int(round(config.n * config.background_fraction))
    n_city = config.n - n_bg
    assignment = rng.choice(config.n_cities, size=n_city, p=weights)
    city_pts = centers[assignment] + rng.normal(0.0, config.city_std, size=(n_city, 2))
    bg_pts = rng.uniform(0.0, ext, size=(n_bg, 2))
    coords = np.vstack([city_pts, bg_pts])
    np.clip(coords, 0.0, ext, out=coords)
    # Shuffle so node id carries no spatial information.
    rng.shuffle(coords)
    return coords, centers


def generate_geo_social_network(
    config: GeoSocialConfig, seed: RandomLike = None
) -> GeoSocialNetwork:
    """Generate a synthetic geo-social network with WC edge probabilities.

    Topology: each new node u (processed in a random arrival order) creates
    ``~avg_out_degree`` out-edges; each endpoint is chosen by spatial
    proximity with probability ``geo_attachment`` and by (in-degree)
    preferential attachment otherwise.  Reciprocal edges are added with
    probability 0.5, matching the high reciprocity of friendship networks.
    """
    rng = as_generator(seed)
    coords, _ = gaussian_cities(config, rng)
    n = config.n

    # Spatial candidate pool: for proximity choices we pre-sort each node's
    # k nearest spatial neighbours using a coarse grid bucketing.
    neighbors = _spatial_neighbor_lists(coords, k=25, extent=config.extent)

    target_m = int(round(config.avg_out_degree * n))
    indeg = [1] * n  # +1 smoothing so early nodes are reachable
    edge_set: set[Tuple[int, int]] = set()
    edges: List[Tuple[int, int]] = []

    arrival = rng.permutation(n)
    # Preferential picks draw from in-degree prefix sums over arrival order
    # (the arrived pool is a prefix of it); ``slot`` maps a node to its
    # position there.  The top-up below rebinds both to node order.
    degrees = _Fenwick(indeg)
    slot = np.empty(n, dtype=np.int64)
    slot[arrival] = np.arange(n)
    slot = slot.tolist()
    # Every node attempts the same expected number of out-edges.
    per_node = max(1, int(round(config.avg_out_degree / 1.5)))
    attempts = 0
    max_attempts = target_m * 20

    def try_add(u: int, v: int) -> None:
        if u == v:
            return
        if (u, v) in edge_set:
            return
        edge_set.add((u, v))
        edges.append((u, v))
        indeg[v] += 1
        degrees.add(slot[v], 1)

    # Preferential attachment over a growing prefix of the arrival order.
    for pos, u in enumerate(arrival):
        u = int(u)
        pool = max(pos, 1)
        for _ in range(per_node):
            if len(edges) >= target_m or attempts > max_attempts:
                break
            attempts += 1
            if rng.random() < config.geo_attachment:
                cands = neighbors[u]
                v = int(cands[rng.integers(0, len(cands))])
            else:
                # Degree-proportional choice within the already-arrived pool.
                v = int(arrival[_weighted_pick(degrees, pool, rng)])
            try_add(u, v)
            if rng.random() < 0.5:
                try_add(v, u)

    # Top up with random geo/preferential edges if we undershot the target.
    degrees, slot = _Fenwick(indeg), list(range(n))
    while len(edges) < target_m and attempts <= max_attempts:
        attempts += 1
        u = int(rng.integers(0, n))
        if rng.random() < config.geo_attachment:
            cands = neighbors[u]
            v = int(cands[rng.integers(0, len(cands))])
        else:
            v = _weighted_pick(degrees, n, rng)
        try_add(u, v)

    if not edges:
        raise GraphError("generator produced no edges; check the configuration")
    network = GeoSocialNetwork.from_edges(np.asarray(edges, dtype=np.int64), coords)
    return assign_weighted_cascade(network)


class _Fenwick:
    """Prefix sums of integer weights (a Fenwick tree), each update and
    query in O(log n) Python steps.  Python ints keep every sum exact."""

    def __init__(self, weights: List[int]):
        size = len(weights)
        tree = [0, *weights]
        for i in range(1, size + 1):
            j = i + (i & -i)
            if j <= size:
                tree[j] += tree[i]
        self._tree = tree
        self._top = 1 << (size.bit_length() - 1) if size else 0

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` to weight ``i``."""
        tree = self._tree
        size = len(tree)
        i += 1
        while i < size:
            tree[i] += delta
            i += i & -i

    def prefix(self, m: int) -> int:
        """The sum of the first ``m`` weights."""
        tree = self._tree
        total = 0
        while m:
            total += tree[m]
            m &= m - 1
        return total

    def count_upto(self, m: int, r: float) -> int:
        """How many of the first ``m`` running sums are ``<= r``: what
        ``np.searchsorted(cumsum(weights[:m]), r, "right")`` returns.
        Int-float comparisons are exact, so no sum is rounded."""
        tree = self._tree
        pos = acc = 0
        step = self._top
        while step:
            nxt = pos + step
            if nxt <= m and acc + tree[nxt] <= r:
                pos = nxt
                acc += tree[nxt]
            step >>= 1
        return pos


def _weighted_pick(weights: _Fenwick, m: int, rng: np.random.Generator) -> int:
    """An index in ``[0, m)`` drawn proportionally to the first ``m``
    weights, from a single ``rng.random()`` draw."""
    r = rng.random() * float(weights.prefix(m))
    return min(weights.count_upto(m, r), m - 1)


def _spatial_neighbor_lists(
    coords: np.ndarray, k: int, extent: float
) -> List[np.ndarray]:
    """Approximate k-nearest spatial neighbours per node via grid buckets.

    Exact kNN is unnecessary: the generator only needs "some nearby users".
    Nodes are bucketed on a coarse grid; each node's candidate list is its
    bucket plus the 8 surrounding buckets, trimmed to the ``k`` closest.
    """
    n = len(coords)
    cells = max(1, int(np.sqrt(n / 8)))
    size = extent / cells
    bucket_of = (
        np.clip((coords[:, 1] // size).astype(np.int64), 0, cells - 1) * cells
        + np.clip((coords[:, 0] // size).astype(np.int64), 0, cells - 1)
    ).tolist()
    buckets: dict[int, list[int]] = {}
    for i, b in enumerate(bucket_of):
        buckets.setdefault(b, []).append(i)

    # Each occupied bucket's 3x3 candidates, gathered once for its nodes.
    around: dict[int, np.ndarray] = {}
    for b in buckets:
        row, col = divmod(b, cells)
        cand: list[int] = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                rr, cc = row + dr, col + dc
                if 0 <= rr < cells and 0 <= cc < cells:
                    cand.extend(buckets.get(rr * cells + cc, ()))
        around[b] = np.asarray(cand, dtype=np.int64)

    xs, ys = coords[:, 0], coords[:, 1]
    out: List[np.ndarray] = []
    for i, b in enumerate(bucket_of):
        arr = around[b]
        arr = arr[arr != i]
        if not len(arr):
            arr = np.asarray([(i + 1) % n], dtype=np.int64)
        if len(arr) > k:
            d = np.hypot(xs[arr] - xs[i], ys[arr] - ys[i])
            arr = arr[np.argpartition(d, k)[:k]]
        out.append(arr)
    return out
