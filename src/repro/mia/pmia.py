"""The MIA influence model and the PMIA-DA baseline.

:class:`MiaModel` holds the static, query-independent structures — one
``MIIA(v)`` per node plus a flat membership index — built offline exactly as
the paper prescribes for PMIA ("we pre-compute the MIIA(v) and MIOA(v)
offline for each node, because there may be many queries raised").

:class:`MiaGreedyState` is the per-query mutable state implementing Chen et
al.'s incremental greedy: marginal gains for *all* candidates are maintained
under seed insertions via the linear (alpha) coefficients.  PMIA-DA runs it
to completion for every query; MIA-DA (in :mod:`repro.core.mia_da`) drives
the same state lazily through its pruning rules.

The distance-aware part is a per-query node-weight vector ``w``: the
marginal gain of ``u`` is ``sum_v alpha(v, u) * (1 - ap_v(u)) * w[v]``
(Section 3.1, Eq. 8 applied to marginals).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, QueryError
from repro.mia.arborescence import Arborescence, build_miia
from repro.mia.influence import activation_probabilities, linear_coefficients
from repro.network.graph import GeoSocialNetwork

#: Flat CSR layout of all arborescences, in root order: ``(members,
#: parents, edge_probs, path_probs, offsets)`` where tree ``v``'s arrays
#: live at ``[offsets[v]:offsets[v+1]]`` and ``parents`` holds *local*
#: indices within each tree (-1 at the root).  This is the on-disk format
#: of :func:`~repro.core.persistence.save_mia_index`.
FlatTrees = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class MiaModel:
    """Pre-built MIA structures for a network at a given ``theta``.

    Parameters
    ----------
    network:
        The geo-social network.
    theta:
        MIP pruning threshold (paper default 0.05): pairs whose best path
        has probability below ``theta`` do not influence each other.
    trees:
        Pre-built ``MIIA(v)`` arborescences, one per node in node order.
        ``None`` (the default) builds them here; :meth:`from_flat_trees`
        passes the trees it rebuilt from a saved index.
    """

    def __init__(
        self,
        network: GeoSocialNetwork,
        theta: float = 0.05,
        trees: List[Arborescence] | None = None,
    ):
        if not 0.0 < theta <= 1.0:
            raise GraphError(f"theta must be in (0, 1], got {theta}")
        self.network = network
        self.theta = float(theta)
        if trees is None:
            trees = [build_miia(network, v, theta) for v in range(network.n)]
        elif len(trees) != network.n or any(
            t.root != v for v, t in enumerate(trees)
        ):
            raise GraphError(
                "trees must hold exactly one MIIA per node, in node order"
            )
        self.trees: List[Arborescence] = trees
        # Flat membership index: entry j says node flat_member[j] belongs to
        # MIIA(flat_root[j]) with path probability flat_prob[j].  Grouped by
        # member via a CSR-like offsets array for fast "which roots does u
        # reach" lookups.
        members: list[int] = []
        roots: list[int] = []
        prob: list[float] = []
        for tree in self.trees:
            members.extend(int(g) for g in tree.nodes)
            roots.extend([tree.root] * len(tree))
            prob.extend(float(p) for p in tree.path_prob)
        member_arr = np.asarray(members, dtype=np.int64)
        root_arr = np.asarray(roots, dtype=np.int64)
        prob_arr = np.asarray(prob, dtype=float)
        order = np.argsort(member_arr, kind="stable")
        self._flat_member = member_arr[order]
        self._flat_root = root_arr[order]
        self._flat_prob = prob_arr[order]
        self._member_offsets = np.zeros(network.n + 1, dtype=np.int64)
        np.add.at(self._member_offsets, self._flat_member + 1, 1)
        np.cumsum(self._member_offsets, out=self._member_offsets)

    @classmethod
    def from_flat_trees(
        cls,
        network: GeoSocialNetwork,
        theta: float,
        flat: FlatTrees,
    ) -> "MiaModel":
        """Rebuild a model from the :data:`FlatTrees` CSR layout.

        The inverse of :meth:`flat_trees`; used by the persistence layer.
        Rebuilding is exact: the arborescences come back with identical
        arrays, so the resulting model is indistinguishable from a fresh
        build.
        """
        members, parents, edge_probs, path_probs, offsets = flat
        if len(offsets) != network.n + 1:
            raise GraphError(
                f"flat trees describe {len(offsets) - 1} roots for a "
                f"{network.n}-node network"
            )
        trees: List[Arborescence] = []
        for v in range(network.n):
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            trees.append(
                Arborescence(
                    root=v,
                    nodes=members[lo:hi],
                    parent=parents[lo:hi],
                    edge_prob=edge_probs[lo:hi],
                    path_prob=path_probs[lo:hi],
                    kind="miia",
                )
            )
        return cls(network, theta, trees=trees)

    def flat_trees(self) -> FlatTrees:
        """All arborescences as one :data:`FlatTrees` CSR block.

        Tree ``v`` occupies ``[offsets[v]:offsets[v+1]]`` of each array;
        concatenation order is node order, so two models over the same
        network agree byte-for-byte iff their trees do.
        """
        sizes = np.asarray([len(t) for t in self.trees], dtype=np.int64)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return (
            np.concatenate([t.nodes for t in self.trees]),
            np.concatenate([t.parent for t in self.trees]),
            np.concatenate([t.edge_prob for t in self.trees]),
            np.concatenate([t.path_prob for t in self.trees]),
            offsets,
        )

    @property
    def n(self) -> int:
        return self.network.n

    def reach_of(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(roots, path_probs)`` — nodes ``u`` influences under MIA.

        Equivalent to iterating ``MIOA(u)`` (membership symmetry of MIPs).
        """
        lo, hi = self._member_offsets[u], self._member_offsets[u + 1]
        return self._flat_root[lo:hi], self._flat_prob[lo:hi]

    def singleton_influences(self, weights: np.ndarray) -> np.ndarray:
        """``I_q^m({u})`` for every node at once (vectorized).

        For a singleton seed the MIA activation probability equals the MIP
        path probability, so the influence is a weighted segment sum over
        the flat membership index.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise QueryError(
                f"weights must have shape ({self.n},), got {weights.shape}"
            )
        out = np.zeros(self.n, dtype=float)
        np.add.at(out, self._flat_member, self._flat_prob * weights[self._flat_root])
        return out

    def unweighted_singleton_mass(self) -> np.ndarray:
        """``sum_v Pr(MIP(u, v))`` per node — the weight-free influence mass.

        MIA-DA uses this to cap upper bounds (no node's weight exceeds c).
        """
        out = np.zeros(self.n, dtype=float)
        np.add.at(out, self._flat_member, self._flat_prob)
        return out

    def tree_sizes(self) -> np.ndarray:
        return np.asarray([len(t) for t in self.trees], dtype=np.int64)


class MiaGreedyState:
    """Per-query incremental greedy state over a :class:`MiaModel`.

    Maintains, for the current seed set ``S``:

    * ``ap_v`` and ``alpha_v`` per arborescence (lazily refreshed);
    * the exact marginal gain ``gain[u] = I_q^m(u | S)`` for every node;
    * the current objective ``I_q^m(S)``.
    """

    def __init__(self, model: MiaModel, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (model.n,):
            raise QueryError(
                f"weights must have shape ({model.n},), got {weights.shape}"
            )
        self.model = model
        self.weights = weights
        self.seeds: list[int] = []
        self._seed_set: set[int] = set()
        # With S empty: ap == 0 everywhere, alpha == path_prob, so the
        # initial gains are the singleton influences.
        self.gain = model.singleton_influences(weights)
        self._root_ap = np.zeros(model.n, dtype=float)  # ap_v(root) per v
        self._ap: Dict[int, np.ndarray] = {}
        self._alpha: Dict[int, np.ndarray] = {}

    @property
    def spread(self) -> float:
        """Current MIA objective ``I_q^m(S) = sum_v ap_v(root) * w[v]``."""
        return float(np.dot(self._root_ap, self.weights))

    def marginal(self, u: int) -> float:
        """Exact marginal gain of adding ``u`` to the current seeds."""
        return float(self.gain[u])

    def best_candidate(self) -> int:
        """The node with the largest exact marginal gain."""
        return int(np.argmax(self.gain))

    def _tree_state(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (ap, alpha) for MIIA(v) under the current seed set."""
        if v not in self._ap:
            tree = self.model.trees[v]
            # Fresh state for the empty-seed baseline of this tree.
            ap = np.zeros(len(tree), dtype=float)
            alpha = tree.path_prob.copy()
            self._ap[v] = ap
            self._alpha[v] = alpha
        return self._ap[v], self._alpha[v]

    def add_seed(self, u: int) -> float:
        """Add ``u`` to the seed set; returns its (pre-add) marginal gain.

        Updates the marginal gains of every node sharing an arborescence
        with ``u`` via subtract-old / recompute / add-new passes.
        """
        u = int(u)
        if u in self._seed_set:
            raise QueryError(f"node {u} is already a seed")
        gained = float(self.gain[u])
        self._seed_set.add(u)
        self.seeds.append(u)

        roots, _ = self.model.reach_of(u)
        w = self.weights
        for v in roots:
            v = int(v)
            tree = self.model.trees[v]
            ap_old, alpha_old = self._tree_state(v)
            nodes = tree.nodes
            wv = float(w[v])
            if wv != 0.0:
                # Subtract this tree's old contribution from every member.
                self.gain[nodes] -= alpha_old * (1.0 - ap_old) * wv
            ap_new = activation_probabilities(tree, self._seed_set)
            alpha_new = linear_coefficients(tree, self._seed_set, ap_new)
            self._ap[v] = ap_new
            self._alpha[v] = alpha_new
            self._root_ap[v] = ap_new[0]
            if wv != 0.0:
                self.gain[nodes] += alpha_new * (1.0 - ap_new) * wv
        # Seeds never get re-selected.
        self.gain[u] = -np.inf
        for s in self.seeds:
            self.gain[s] = -np.inf
        return gained


class PmiaDa:
    """The PMIA baseline extended to DAIM (paper Section 5.1).

    Offline, all arborescences are pre-computed (the :class:`MiaModel`).
    Online, a query supplies node weights; the greedy runs with *full*
    marginal-gain maintenance — no pruning, no anchor index — which is
    exactly what MIA-DA's pruning is benchmarked against.
    """

    def __init__(self, network: GeoSocialNetwork, theta: float = 0.05,
                 model: MiaModel | None = None):
        self.network = network
        self.model = model if model is not None else MiaModel(network, theta)

    def select(self, weights: Sequence[float] | np.ndarray, k: int
               ) -> Tuple[list[int], float]:
        """Greedy seed selection; returns ``(seeds, I_q^m(S))``.

        ``weights`` is the per-node weight vector ``w(v, q)`` for the query.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if k > self.network.n:
            raise QueryError(f"k={k} exceeds node count {self.network.n}")
        state = MiaGreedyState(self.model, np.asarray(weights, dtype=float))
        for _ in range(k):
            state.add_seed(state.best_candidate())
        return list(state.seeds), state.spread
