"""The MIA influence model and the PMIA-DA baseline.

:class:`MiaModel` holds the static, query-independent structures — one
``MIIA(v)`` per node plus their flat-forest view — built offline exactly as
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

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, QueryError
from repro.mia.arborescence import Arborescence, build_miia
from repro.mia.forest import FlatForest, MiaForestState
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
        sizes = np.fromiter((len(t) for t in trees), dtype=np.int64,
                            count=len(trees))
        offsets = np.zeros(network.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self._flat: FlatTrees = (
            np.concatenate([t.nodes for t in trees]),
            np.concatenate([t.parent for t in trees]),
            np.concatenate([t.edge_prob for t in trees]),
            np.concatenate([t.path_prob for t in trees]),
            offsets,
        )
        #: The flat-forest view every per-query state reads.
        self.forest = FlatForest.from_flat(self._flat)

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
        network agree byte-for-byte iff their trees do.  The arrays are
        shared with the model: treat them as read-only.
        """
        return self._flat

    @property
    def n(self) -> int:
        return self.network.n

    def reach_of(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(roots, path_probs)`` — nodes ``u`` influences under MIA.

        Equivalent to iterating ``MIOA(u)`` (membership symmetry of MIPs).
        """
        return self.forest.reach(u)

    def singleton_influences(self, weights: np.ndarray) -> np.ndarray:
        """``I_q^m({u})`` for every node at once (vectorized).

        For a singleton seed the MIA activation probability equals the MIP
        path probability, so the influence is a weighted segment sum over
        the flat forest.  ``bincount`` adds each node's terms in entry
        (tree) order.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n,):
            raise QueryError(
                f"weights must have shape ({self.n},), got {weights.shape}"
            )
        f = self.forest
        return np.bincount(
            f.member, weights=f.path_prob * weights[f.tree], minlength=self.n
        )

    def unweighted_singleton_mass(self) -> np.ndarray:
        """``sum_v Pr(MIP(u, v))`` per node — the weight-free influence mass.

        MIA-DA uses this to cap upper bounds (no node's weight exceeds c).
        """
        f = self.forest
        return np.bincount(f.member, weights=f.path_prob, minlength=self.n)

    def tree_sizes(self) -> np.ndarray:
        return np.diff(self.forest.tree_offsets)


class MiaGreedyState:
    """Per-query incremental greedy state over a :class:`MiaModel`.

    Maintains, for the current seed set ``S``:

    * ``ap`` and ``alpha`` over the flat forest (a
      :class:`~repro.mia.forest.MiaForestState`);
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
        self._state = MiaForestState(model.forest, weights)
        # With S empty: ap == 0 everywhere, alpha == path_prob, so the
        # initial gains are the singleton influences.
        self.gain = model.singleton_influences(weights)
        self._root_ap = np.zeros(model.n, dtype=float)  # ap_v(root) per v

    @property
    def seeds(self) -> list[int]:
        return self._state.seeds

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

    def add_seed(self, u: int) -> float:
        """Add ``u`` to the seed set; returns its (pre-add) marginal gain.

        Every member of a tree containing ``u`` loses that tree's old
        contribution and gains its new one.  All of it is one scatter
        whose order, per node, is the per-tree order: trees ascending,
        each tree's subtraction before its addition.
        """
        u = int(u)
        gained = float(self.gain[u])
        f = self.model.forest
        roots, _ = f.reach(u)
        entries = f.tree_entries(roots)
        before = self._state.contributions(entries)
        self._state.add_seed(u)
        self._state.refresh()
        after = self._state.contributions(entries)
        trees = f.tree[entries]
        start = f.tree_offsets[trees]
        # Entry i of tree block [b, b + s) goes to 2b + (i - b) in the
        # scatter (its subtraction) and to 2b + s + (i - b) (its addition).
        sub = 2 * np.arange(len(entries)) - (entries - start)
        add = sub + (f.tree_offsets[trees + 1] - start)
        index = np.empty(2 * len(entries), dtype=np.int64)
        terms = np.empty(2 * len(entries), dtype=float)
        index[sub] = index[add] = f.member[entries]
        terms[sub] = -before
        terms[add] = after
        np.add.at(self.gain, index, terms)
        self._root_ap[roots] = self._state.ap[f.tree_offsets[roots]]
        # Seeds never get re-selected.
        self.gain[self.seeds] = -np.inf
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
