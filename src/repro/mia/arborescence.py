"""MIIA / MIOA arborescence structures (Definition 2).

``MIIA(v)`` assembles the maximum influence paths *into* ``v``; since
subpaths of MIPs are MIPs (with deterministic tie-breaking), the union of
paths forms a tree rooted at ``v`` whose edges point toward the root.
``MIOA(v)`` is the symmetric out-tree.

The tree is stored in arrays indexed by *local* position (0 is the root),
with nodes ordered root-first by decreasing path probability — i.e. a
topological order where every node appears after its tree-parent.  Walking
the array backward visits leaves before parents, which is the order the
activation-probability recursion (Eq. 5) needs.

:func:`miia_arrays` returns those bare arrays, all the model stores;
:class:`Arborescence` wraps them for the per-tree reference recursions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.mia.paths import PathMap, max_influence_paths_from, max_influence_paths_to
from repro.network.graph import GeoSocialNetwork


@dataclass(frozen=True)
class Arborescence:
    """A maximum-influence arborescence (in- or out-tree).

    Attributes
    ----------
    root:
        The global node id of the root ``v``.
    nodes:
        Global node ids, root-first topological order (``nodes[0] == root``).
    parent:
        ``parent[i]`` is the *local index* of node i's tree-parent — the
        next hop toward the root in an MIIA, or the previous hop from the
        root in an MIOA.  The root has parent ``-1``.
    edge_prob:
        ``edge_prob[i]`` is the probability of the tree edge between node i
        and its parent, *oriented in influence direction* (for MIIA:
        ``Pr(nodes[i], parent)``; for MIOA: ``Pr(parent, nodes[i])``).
        1.0 at the root.
    path_prob:
        ``path_prob[i] = Pr(MIP)`` between ``nodes[i]`` and the root.
    kind:
        ``"miia"`` or ``"mioa"``.
    """

    root: int
    nodes: np.ndarray
    parent: np.ndarray
    edge_prob: np.ndarray
    path_prob: np.ndarray
    kind: str
    local: Dict[int, int] = field(repr=False, default_factory=dict)
    children: List[np.ndarray] = field(repr=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in ("miia", "mioa"):
            raise GraphError(f"kind must be 'miia' or 'mioa', got {self.kind!r}")
        if len(self.nodes) == 0 or self.nodes[0] != self.root:
            raise GraphError("arborescence must start at its root")
        # Local id lookup and children lists are derived once here; the
        # children grouping buckets by parent via a stable argsort.
        object.__setattr__(
            self, "local", {int(g): i for i, g in enumerate(self.nodes)}
        )
        n = len(self.nodes)
        parent = np.asarray(self.parent, dtype=np.int64)
        child_ids = np.arange(1, n, dtype=np.int64)
        p = parent[1:]
        if np.any((p < 0) | (p >= child_ids)):
            raise GraphError(
                "parent indices must precede children (topological order)"
            )
        order = np.argsort(p, kind="stable")  # stable keeps children ascending
        counts = np.bincount(p, minlength=n) if n > 1 else np.zeros(n, np.int64)
        object.__setattr__(
            self,
            "children",
            np.split(child_ids[order], np.cumsum(counts)[:-1]),
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: int) -> bool:
        return int(node) in self.local

    def local_index(self, node: int) -> int:
        """Local position of a global node id (raises KeyError if absent)."""
        return self.local[int(node)]


#: One tree's ``(nodes, parent, edge_prob, path_prob)`` arrays.
TreeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _tree_arrays(root: int, paths: PathMap) -> TreeArrays:
    """Assemble one tree's arrays from a Dijkstra path map.

    ``paths[node] = (prob, hop)`` where ``hop`` is the neighbour through
    which the path reaches ``node`` in *traversal* direction — for an MIIA
    the traversal runs backward from the root, so the hop of ``u`` is u's
    tree-parent (next node toward ``v``); same for MIOA in the forward
    direction.
    """
    # Topological order: sort by hop depth (path length in edges), which
    # always places a node's parent before it — probability alone would
    # tie on probability-1 edges.  Depth is computed by walking hop chains
    # with memoisation.
    depth: Dict[int, int] = {root: 0}

    def node_depth(g: int) -> int:
        chain: List[int] = []
        while g not in depth:
            chain.append(g)
            g = int(paths[g][1])
        d = depth[g]
        for node in reversed(chain):
            d += 1
            depth[node] = d
        return depth[chain[0]] if chain else d

    for g in paths:
        node_depth(g)
    items = sorted(paths.items(), key=lambda kv: (depth[kv[0]], -kv[1][0], kv[0]))
    nodes = np.asarray([g for g, _ in items], dtype=np.int64)
    local = {int(g): i for i, g in enumerate(nodes)}
    n = len(nodes)
    parent = np.full(n, -1, dtype=np.int64)
    edge_prob = np.ones(n, dtype=float)
    path_prob = np.ones(n, dtype=float)
    for i, (g, (prob, hop)) in enumerate(items):
        path_prob[i] = prob
        if g == root:
            continue
        p = local[int(hop)]
        parent[i] = p
        # Edge probability along the influence direction: the ratio of the
        # two path probabilities (product structure of the path).
        pp = path_prob[p] if path_prob[p] > 0 else 1.0
        edge_prob[i] = min(prob / pp, 1.0)
    # Guard: a child sorted before its parent would break the recursion.
    for i in range(1, n):
        if parent[i] >= i:
            raise GraphError("non-topological arborescence order (internal error)")
    return nodes, parent, edge_prob, path_prob


def miia_arrays(network: GeoSocialNetwork, v: int, theta: float) -> TreeArrays:
    """``MIIA(v)`` as bare arrays: the form :class:`~repro.mia.pmia.MiaModel`
    stores, without an :class:`Arborescence` around them."""
    return _tree_arrays(int(v), max_influence_paths_to(network, v, theta))


def build_miia(network: GeoSocialNetwork, v: int, theta: float) -> Arborescence:
    """Build ``MIIA(v)``: every node that can influence ``v`` at >= theta."""
    return Arborescence(int(v), *miia_arrays(network, v, theta), kind="miia")


def build_mioa(network: GeoSocialNetwork, v: int, theta: float) -> Arborescence:
    """Build ``MIOA(v)``: every node ``v`` can influence at >= theta."""
    paths = max_influence_paths_from(network, v, theta)
    return Arborescence(int(v), *_tree_arrays(int(v), paths), kind="mioa")
