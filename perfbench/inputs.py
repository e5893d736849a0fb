"""Seeded input generation for the benchmark workloads.

Everything a workload sends to the program is generated here, from the
workload seed, before any timing starts: query locations and kinds,
target masks and cost vectors, and graph deltas.  The same seed always
gives the same inputs; the program only ever sees these values.

Kind shares are exact per block of requests (a shuffled block holds
each kind's quota), so runs with different seeds differ in *which*
locations they query but not in how much of each kind they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.query import DaimQuery
from repro.core.querykind import HeuristicQuery, TargetedQuery, TrajectoryQuery
from repro.stream.delta import GraphDelta

#: Workload ids salt the seed, so two workloads never share a stream.
WORKLOAD_SALT = {"query_mix": 1, "serve_hotspot": 2, "update_stream": 3}

#: Fixed quality probes: point queries (k=10) on a 4 x 4 grid of the
#: bounding box, the same for every seed.  ``spread_mean`` is measured on
#: their answers, so it tracks seed quality rather than which random
#: locations a seed happened to draw.
PROBE_GRID = 4
PROBE_K = 10

#: query_mix kind quotas per block of 100 requests (paper §5.1 mix).
QUERY_MIX_QUOTAS = (
    ("point10", 45), ("point30", 15), ("masked", 12), ("budgeted", 8),
    ("trajectory", 10), ("multi", 5), ("mia", 5),
)
#: serve_hotspot kind quotas per block of 100 requests.
HOTSPOT_QUOTAS = (
    ("point", 75), ("trajectory", 10), ("targeted", 8), ("heuristic", 7),
)

N_HOTSPOTS = 48
HOTSPOT_SHARE = 0.7
HOTSPOT_JITTER = 0.5
ZIPF_EXPONENT = 1.0
#: Hot spot positions come from this fixed stream, not the workload seed.
HOTSPOT_SEED = 48_001

#: Delta shape, as in benchmarks/test_stream_update.py: 6 new or changed
#: edges with p ~ U(0.02, 0.15) and 3 moved check-ins.
DELTA_EDGES = 6
DELTA_MOVES = 3
DELTA_P = (0.02, 0.15)
DELTA_MOVE_SIGMA = 2.0

#: Banks of reusable masks / cost vectors / audiences: each request picks
#: one, so memory stays flat however many requests a run pre-generates.
BANK = 64


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_SALT[workload]])


def _box(network) -> Tuple[float, float, float, float]:
    box = network.bounding_box()
    return box.xmin, box.ymin, box.xmax, box.ymax


def _uniform(rng, box, count: int) -> np.ndarray:
    xmin, ymin, xmax, ymax = box
    return np.column_stack([
        rng.uniform(xmin, xmax, count), rng.uniform(ymin, ymax, count),
    ])


def _clip(points: np.ndarray, box) -> np.ndarray:
    xmin, ymin, xmax, ymax = box
    return np.column_stack([
        np.clip(points[:, 0], xmin, xmax), np.clip(points[:, 1], ymin, ymax),
    ])


def _kinds(rng, quotas, count: int) -> List[str]:
    block = [name for name, share in quotas for _ in range(share)]
    out: List[str] = []
    while len(out) < count:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:count]


def probe_locations(network, grid: int = PROBE_GRID
                    ) -> List[Tuple[float, float]]:
    """Interior points of a ``grid`` x ``grid`` lattice over the box."""
    xmin, ymin, xmax, ymax = _box(network)
    xs = np.linspace(xmin, xmax, grid + 2)[1:-1]
    ys = np.linspace(ymin, ymax, grid + 2)[1:-1]
    return [(float(x), float(y)) for y in ys for x in xs]


def _with_probes(requests: list, probes: Sequence, every: int) -> list:
    """Insert probe requests at positions 0, every, 2*every, ..."""
    out: list = []
    it = iter(requests)
    for i, probe in enumerate(probes):
        if i:
            out.extend(next(it) for _ in range(every - 1))
        out.append(probe)
    out.extend(it)
    return out


@dataclass(frozen=True)
class Request:
    """One generated request: a kind tag plus its ready-made arguments."""

    kind: str
    args: tuple


def query_mix_inputs(network, seed: int, count: int,
                     probe_every: int) -> List[Request]:
    rng = rng_for("query_mix", seed)
    box = _box(network)
    n = network.n
    masks = []
    for _ in range(BANK):
        mask = np.zeros(n, dtype=float)
        mask[rng.choice(n, size=max(1, n // 4), replace=False)] = 1.0
        masks.append(mask)
    costs = [rng.uniform(0.5, 2.0, size=n) for _ in range(BANK)]
    locs = _uniform(rng, box, count)
    extra = _uniform(rng, box, 3 * count).reshape(count, 3, 2)
    steps = rng.normal(0.0, 0.08 * (box[2] - box[0]), size=(count, 3, 2))
    picks = rng.integers(0, BANK, size=count)
    out = []
    for i, kind in enumerate(_kinds(rng, QUERY_MIX_QUOTAS, count)):
        loc = (float(locs[i, 0]), float(locs[i, 1]))
        if kind == "point10":
            out.append(Request(kind, (loc, 10)))
        elif kind == "point30":
            out.append(Request(kind, (loc, 30)))
        elif kind == "masked":
            out.append(Request(kind, (loc, 10, masks[picks[i]])))
        elif kind == "budgeted":
            out.append(Request(kind, (loc, 10.0, costs[picks[i]])))
        elif kind == "trajectory":
            path = _clip(np.cumsum(np.vstack([locs[i], steps[i]]), axis=0),
                         box)
            out.append(Request(kind, ([tuple(p) for p in path.tolist()], 10)))
        elif kind == "multi":
            stores = [loc] + [tuple(p) for p in extra[i, :2].tolist()]
            out.append(Request(kind, (stores, 10)))
        else:
            out.append(Request("mia", (loc, 10)))
    probes = [Request("probe", (p, PROBE_K)) for p in probe_locations(network)]
    return _with_probes(out, probes, probe_every)


def _hotspots(network) -> Tuple[np.ndarray, np.ndarray]:
    box = _box(network)
    xmin, ymin, xmax, ymax = box
    inset = 0.05 * (xmax - xmin), 0.05 * (ymax - ymin)
    rng = np.random.default_rng(HOTSPOT_SEED)
    spots = _uniform(rng, (xmin + inset[0], ymin + inset[1],
                           xmax - inset[0], ymax - inset[1]), N_HOTSPOTS)
    weights = 1.0 / np.arange(1, N_HOTSPOTS + 1) ** ZIPF_EXPONENT
    return spots, weights / weights.sum()


def hotspot_locations(network, rng, count: int) -> np.ndarray:
    """70% Zipf-ranked hot spots with small jitter, 30% uniform."""
    box = _box(network)
    spots, probs = _hotspots(network)
    hot = rng.random(count) < HOTSPOT_SHARE
    which = rng.choice(N_HOTSPOTS, size=count, p=probs)
    jitter = rng.normal(0.0, HOTSPOT_JITTER, size=(count, 2))
    locs = _uniform(rng, box, count)
    locs[hot] = spots[which[hot]] + jitter[hot]
    return _clip(locs, box)


def _point(p) -> Tuple[float, float]:
    return (float(p[0]), float(p[1]))


def hotspot_inputs(network, seed: int, count: int,
                   probe_every: int) -> list:
    """Query objects for ``serve_hotspot`` (all kinds share one stream)."""
    rng = rng_for("serve_hotspot", seed)
    n = network.n
    audiences = [tuple(int(t) for t in rng.choice(n, size=min(50, n),
                                                  replace=False))
                 for _ in range(BANK)]
    locs = hotspot_locations(network, rng, count)
    wps = hotspot_locations(network, rng, 2 * count).reshape(count, 2, 2)
    picks = rng.integers(0, BANK, size=count)
    out: list = []
    for i, kind in enumerate(_kinds(rng, HOTSPOT_QUOTAS, count)):
        loc = _point(locs[i])
        if kind == "point":
            out.append(DaimQuery(loc, 10))
        elif kind == "trajectory":
            out.append(TrajectoryQuery(
                (loc, _point(wps[i, 0]), _point(wps[i, 1])), 10))
        elif kind == "targeted":
            out.append(TargetedQuery(loc, 10, audiences[picks[i]]))
        else:
            out.append(HeuristicQuery(loc, 10))
    probes = [DaimQuery(p, PROBE_K) for p in probe_locations(network)]
    return _with_probes(out, probes, probe_every)


def update_stream_inputs(network, seed: int, reads: int, updates: int,
                         probe_every: int):
    """``(point reads, deltas)`` for ``update_stream``."""
    rng = rng_for("update_stream", seed)
    box = _box(network)
    n = network.n
    reads_out = [DaimQuery(_point(p), 10)
                 for p in hotspot_locations(network, rng, reads)]
    probes = [DaimQuery(p, PROBE_K) for p in probe_locations(network)]
    # Edge heads walk seeded permutations of all nodes, so every run
    # rewrites (nearly) the same set of in-edge rows.  Half the edges of a
    # delta change an existing in-edge of their head, half add a new one:
    # the graph's total edge weight then stays about level, so the cost of
    # an update does not drift as the stream goes on.
    heads = np.concatenate([rng.permutation(n) for _ in range(
        -(-updates * DELTA_EDGES // n))])
    offsets, sources = network.in_offsets, network.in_sources
    deltas = []
    for i in range(updates):
        edges = []
        for j, v in enumerate(heads[i * DELTA_EDGES:(i + 1) * DELTA_EDGES]):
            v = int(v)
            current = sources[offsets[v]:offsets[v + 1]]
            if j % 2 == 0 and len(current):
                u = int(current[rng.integers(0, len(current))])
            else:
                u = int(rng.integers(0, n - 1))
                u += u >= v
            edges.append((u, v))
        probs = rng.uniform(*DELTA_P, size=DELTA_EDGES)
        moved = rng.choice(n, size=DELTA_MOVES, replace=False)
        shifted = _clip(network.coords[moved]
                        + rng.normal(0.0, DELTA_MOVE_SIGMA, (DELTA_MOVES, 2)),
                        box)
        deltas.append(GraphDelta.make(
            edges=edges, probabilities=probs,
            checkins=[(int(m), float(x), float(y))
                      for m, (x, y) in zip(moved, shifted)],
        ))
    return _with_probes(reads_out, probes, probe_every), deltas
