"""Every ``MIIA(v)`` tree at once: one batched max-product relaxation.

:func:`build_miia_forest` builds the trees of many roots together and
returns exactly the arrays that per-root
:func:`~repro.mia.arborescence.miia_arrays` calls would, bit for bit.
Entries are ``(root, node)`` pairs, keyed by the code ``root * n + node``
and kept sorted by it.

* **Edge cost.** ``-math.log(p)``, evaluated once per distinct edge
  probability.  ``dist + cost`` equals the reference's
  ``dist - math.log(p)`` exactly; ``np.log`` could differ by an ulp.
* **Distances.** Rounds of relaxation: each round gathers the in-edges of
  every entry whose distance fell in the previous round, keeps the
  candidates within ``-log(theta) + 1e-12`` (the reference's prune), the
  least per code, and of those the strict improvements.  Each node's
  in-edges are sorted by cost, so an entry gathers only the prefix of
  them its distance can afford.  Floating-point
  addition of a non-negative cost never lowers a distance, so the fixed
  point is the one the reference's Dijkstra settles on.
* **Hops.** A final pass over all entries finds, per entry, the
  *candidates*: tree nodes whose distance plus the edge cost equals the
  entry's distance exactly.  Dijkstra pops every candidate of positive
  cost before the entry, so with no zero-cost candidate the hop is the
  lowest-id one (the heap breaks equal distances by hop id); a lone
  zero-cost candidate is the hop too.  Any other mix depends on the heap's
  pop order among equal distances, and that root is built by the
  reference instead (a handful of roots on the dataset graphs).
* **Assembly.** ``math.exp(-dist)`` per entry, depths by pointer jumping,
  one ``lexsort`` by ``(root, depth, -prob, node)`` and the reference's
  edge-probability ratio, all as array operations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.exceptions import GraphError
from repro.mia.arborescence import miia_arrays
from repro.network.graph import GeoSocialNetwork
from repro.ris.coverage import _gather_runs


class ForestBuild(NamedTuple):
    """Trees of several roots as flat columns, grouped by root in root
    order; within a tree, the reference's local order.  ``parents`` holds
    local indices (-1 at each root)."""

    owner: np.ndarray       #: root of each entry, ascending
    members: np.ndarray
    parents: np.ndarray
    edge_probs: np.ndarray
    path_probs: np.ndarray
    rounds: int             #: relaxation rounds until no distance fell
    tie_roots: int          #: roots built one at a time (hop ties)


def merge_trees(*blocks) -> tuple:
    """``(owner, members, parents, edge_probs, path_probs)`` blocks, each
    grouped by owner, spliced into one block grouped by owner.

    The sort is stable and no owner sits in two blocks, so every tree
    keeps its entries in order.
    """
    owner = np.concatenate([block[0] for block in blocks])
    order = np.argsort(owner, kind="stable")
    return tuple(
        np.concatenate(column)[order] for column in zip(*blocks)
    )


class _InEdges(NamedTuple):
    """The reverse CSR with each node's in-edges sorted by cost, so the
    edges an entry can afford are a prefix of its node's run."""

    offsets: np.ndarray   #: (n + 1,) the network's in_offsets
    sources: np.ndarray   #: in-neighbour per edge
    costs: np.ndarray     #: ``-math.log(p)`` per edge
    levels: np.ndarray    #: the distinct costs, ascending
    keys: np.ndarray      #: node * (levels + 1) + cost level, ascending

    @classmethod
    def of(cls, net: GeoSocialNetwork) -> "_InEdges":
        levels, level = np.unique(net.in_probs, return_inverse=True)
        # -log is decreasing: the highest probability is the cheapest.
        level = len(levels) - 1 - level
        levels = np.array([-math.log(p) if p > 0.0 else math.inf
                           for p in levels[::-1].tolist()])
        deg = np.diff(net.in_offsets)
        keys = np.arange(net.n).repeat(deg) * (len(levels) + 1) + level
        order = np.argsort(keys, kind="stable")
        return cls(net.in_offsets, net.in_sources[order],
                   levels[level[order]], levels, keys[order])

    def expand(self, codes: np.ndarray, dist: np.ndarray, limit: float):
        """The in-edges of every entry that stay within ``limit`` and do
        not lead back to the root: ``(entry, code, dist)`` per edge,
        ``entry`` indexing ``codes``, ``code`` the in-neighbour's and
        ``dist`` the entry's distance plus the edge cost."""
        n = len(self.offsets) - 1
        root, node = np.divmod(codes, n)
        # Each entry's affordable levels, with a margin far above any
        # rounding error; the exact test below drops the excess.
        afford = np.searchsorted(self.levels, limit - dist + 1e-9, "right")
        ends = np.searchsorted(self.keys, node * (len(self.levels) + 1) + afford)
        counts = ends - self.offsets[node]
        edges = _gather_runs(ends, counts)
        entry = np.arange(len(codes)).repeat(counts)
        reach = dist[entry]
        reach += self.costs[edges]
        source = self.sources[edges]
        keep = np.flatnonzero((reach <= limit) & (source != root[entry]))
        entry = entry[keep]
        return entry, root[entry] * n + source[keep], reach[keep]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``keys`` starts."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _find(codes: np.ndarray, keys: np.ndarray):
    """``(pos, found)``: where ``keys`` sit in the sorted ``codes``."""
    pos = np.searchsorted(codes, keys)
    np.minimum(pos, len(codes) - 1, out=pos)
    return pos, codes[pos] == keys


def build_miia_forest(
    network: GeoSocialNetwork, theta: float, roots: np.ndarray | None = None
) -> ForestBuild:
    """``MIIA(v)`` for every ``v`` in ``roots`` (default: every node).

    ``roots`` must be sorted and distinct.  The arrays equal the per-root
    :func:`~repro.mia.arborescence.miia_arrays` output concatenated in
    root order, bit for bit.
    """
    if not 0.0 < theta <= 1.0:
        raise GraphError(f"theta must be in (0, 1], got {theta}")
    n = network.n
    roots = (np.arange(n, dtype=np.int64) if roots is None
             else np.asarray(roots, dtype=np.int64))
    in_edges = _InEdges.of(network)
    limit = -math.log(theta) + 1e-12

    # Distances: relax until no entry's distance falls.
    codes = roots * n + roots
    dist = np.zeros(len(codes))
    front, front_dist = codes, dist
    rounds = 0
    while len(front):
        rounds += 1
        _, cand, cand_dist = in_edges.expand(front, front_dist, limit)
        # The least distance per code.
        order = np.lexsort((cand_dist, cand))
        first = order[_run_starts(cand[order])]
        cand, cand_dist = cand[first], cand_dist[first]
        pos, known = _find(codes, cand)
        better = ~known
        better[known] = cand_dist[known] < dist[pos[known]]
        front, front_dist = cand[better], cand_dist[better]
        pos, known = pos[better], known[better]
        dist[pos[known]] = front_dist[known]
        fresh = ~known
        if np.any(fresh):
            at = np.searchsorted(codes, front[fresh])
            codes = np.insert(codes, at, front[fresh])
            dist = np.insert(dist, at, front_dist[fresh])

    # Hops: each entry's candidates, from one pass over all entries.  With
    # no zero-cost candidate, or a lone one, the hop is the lowest-id
    # candidate; a tree with any other mix is a tie root.
    tree, node = np.divmod(codes, n)
    is_root = tree == node
    entry, code, reach = in_edges.expand(codes, dist, limit)
    pos, known = _find(codes, code)
    hit = known & (reach == dist[pos])
    target, entry = pos[hit], entry[hit]
    size = len(codes)
    n_zero = np.bincount(target[reach[hit] == dist[entry]], minlength=size)
    n_cand = np.bincount(target, minlength=size)
    tied = np.unique(tree[(n_zero > 0) & (n_cand > 1)])
    order = np.lexsort((node[entry], target))
    first = order[_run_starts(target[order])]
    hop = np.zeros(size, dtype=np.int64)  # roots have none
    hop[target[first]] = node[entry[first]]

    if len(tied):
        mine = ~np.isin(tree, tied)
        codes, dist, tree, node, is_root, hop = (
            a[mine] for a in (codes, dist, tree, node, is_root, hop)
        )
        size = len(codes)
    # Global parent entry (each root its own), and depth by pointer jumping.
    up = np.arange(size)
    up[~is_root] = np.searchsorted(codes, tree[~is_root] * n + hop[~is_root])
    depth = (~is_root).astype(np.int64)
    jump = up
    while True:
        nxt = jump[jump]
        if np.array_equal(nxt, jump):
            break
        depth += depth[jump]
        jump = nxt

    # Assembly in the reference's order: (root, depth, -prob, node).
    prob = np.fromiter(map(math.exp, (-dist).tolist()), float, size)
    # Entries are in (root, node) order and lexsort is stable, so equal
    # (root, depth, prob) keys keep ascending node order.
    order = np.lexsort((-prob, tree * (int(depth.max(initial=0)) + 1) + depth))
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    owner = tree[order]
    start = np.searchsorted(owner, owner)  # first entry of each tree
    path_probs = prob[order]
    root_sorted = is_root[order]
    up_sorted = rank[up[order]]
    parents = np.where(root_sorted, -1, up_sorted - start)
    local = np.arange(size) - start
    if np.any(~root_sorted & (parents >= local)):
        raise GraphError("non-topological arborescence order (internal error)")
    up_prob = path_probs[up_sorted]
    edge_probs = np.where(
        root_sorted, 1.0,
        np.minimum(path_probs / np.where(up_prob > 0, up_prob, 1.0), 1.0),
    )
    built = (owner, node[order], parents, edge_probs, path_probs)

    if len(tied):
        trees = [miia_arrays(network, int(v), theta) for v in tied]
        ties = (np.repeat(tied, [len(t[0]) for t in trees]),
                *(np.concatenate(column) for column in zip(*trees)))
        built = merge_trees(built, ties)
    return ForestBuild(*built, rounds=rounds, tie_roots=int(len(tied)))
