"""The MIA influence model and the PMIA-DA baseline.

:class:`MiaModel` holds the static, query-independent structures — one
``MIIA(v)`` per node, as flat CSR arrays with their flat-forest view —
built offline exactly as the paper prescribes for PMIA ("we pre-compute
the MIIA(v) and MIOA(v) offline for each node, because there may be many
queries raised").

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

from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, QueryError
from repro.mia.build import build_miia_forest, merge_trees
from repro.mia.forest import FlatForest, MiaForestState
from repro.network.graph import GeoSocialNetwork

#: Flat CSR layout of all arborescences, in root order: ``(members,
#: parents, edge_probs, path_probs, offsets)`` where tree ``v``'s arrays
#: live at ``[offsets[v]:offsets[v+1]]`` and ``parents`` holds *local*
#: indices within each tree (-1 at the root).  This is the on-disk format
#: of :func:`~repro.core.persistence.save_mia_index`.
FlatTrees = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _flat(owner: np.ndarray, columns, n: int) -> FlatTrees:
    """Columns grouped by ``owner`` (every root present) as one CSR block."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=offsets[1:])
    return (*columns, offsets)


def _column(name: str, values, dtype) -> np.ndarray:
    """``values`` as a 1-D ``dtype`` array, refusing another dtype kind.

    An input already of ``dtype`` comes back as-is (no copy), so memmap
    and shared-memory arrays stay zero-copy.
    """
    arr = np.asarray(values)
    kind = "integer" if np.dtype(dtype).kind == "i" else "float"
    if arr.dtype.kind not in ("iu" if kind == "integer" else "f") or arr.ndim != 1:
        raise GraphError(f"forest {name} must be a 1-D {kind} array, got "
                         f"{arr.dtype} of shape {arr.shape}")
    return arr.astype(dtype, copy=False)


def _checked(flat, n: int) -> FlatTrees:
    """``flat`` as :data:`FlatTrees` over ``n`` roots, or a GraphError.

    Reads the arrays only.  Every tree must hold at least its root,
    first; a member must be a node id, once per tree; a parent is -1
    exactly at the root, and elsewhere a local index below the entry's
    own, so every tree is acyclic and topologically ordered (the flat
    forest's depth pass relies on it to terminate); probabilities lie
    in ``(0, 1]``.
    """
    members, parents, edge_probs, path_probs, offsets = flat
    members = _column("members", members, np.int64)
    parents = _column("parents", parents, np.int64)
    offsets = _column("offsets", offsets, np.int64)
    edge_probs = _column("edge probabilities", edge_probs, float)
    path_probs = _column("path probabilities", path_probs, float)
    size = len(members)
    if len(offsets) != n + 1 or not (
        len(parents) == len(edge_probs) == len(path_probs) == size
    ):
        raise GraphError(
            f"flat trees for a {n}-node network need {n + 1} offsets and "
            f"equal columns; got {len(offsets)} offsets, {size} members, "
            f"{len(parents)} parents, {len(edge_probs)} edge and "
            f"{len(path_probs)} path probabilities"
        )
    if offsets[0] != 0 or offsets[-1] != size or np.any(offsets[1:] <= offsets[:-1]):
        raise GraphError(
            f"forest offsets must rise from 0 to {size}, every tree "
            "holding its root"
        )
    if size and (members.min() < 0 or members.max() >= n):
        raise GraphError(
            f"forest members must be node ids in [0, {n}), got range "
            f"[{members.min()}, {members.max()}]"
        )
    starts = offsets[:-1]
    if np.any(members[starts] != np.arange(n)):
        raise GraphError("each tree must start at its root")
    tree = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    if len(np.unique(tree * n + members)) != size:
        raise GraphError("a tree must not hold a member twice")
    local = np.arange(size) - offsets[tree]
    if np.any(np.where(local == 0, parents != -1,
                       (parents < 0) | (parents >= local))):
        raise GraphError(
            "forest parents must be -1 exactly at roots and an earlier "
            "local index elsewhere"
        )
    for name, probs in (("edge", edge_probs), ("path", path_probs)):
        if not np.all((probs > 0.0) & (probs <= 1.0)):
            raise GraphError(f"forest {name} probabilities must lie in (0, 1]")
    return members, parents, edge_probs, path_probs, offsets


class MiaModel:
    """Pre-built MIA structures for a network at a given ``theta``: the
    ``MIIA(v)`` trees as one :data:`FlatTrees` block and the
    :class:`~repro.mia.forest.FlatForest` over it, nothing else.

    Parameters
    ----------
    network:
        The geo-social network.
    theta:
        MIP pruning threshold (paper default 0.05): pairs whose best path
        has probability below ``theta`` do not influence each other.
    flat:
        The trees in the :data:`FlatTrees` layout, validated (a
        :class:`~repro.exceptions.GraphError` if malformed) and wrapped
        without copying.  ``None`` (the default) builds them here.
    """

    def __init__(
        self,
        network: GeoSocialNetwork,
        theta: float = 0.05,
        flat: FlatTrees | None = None,
    ):
        if not 0.0 < theta <= 1.0:
            raise GraphError(f"theta must be in (0, 1], got {theta}")
        self.network = network
        self.theta = float(theta)
        #: Relaxation rounds and roots built one at a time by the batched
        #: builder (both 0 for a model over saved arrays).
        self.build_rounds = self.tie_roots = 0
        if flat is None:
            built = build_miia_forest(network, self.theta)
            self.build_rounds, self.tie_roots = built.rounds, built.tie_roots
            flat = _flat(built.owner, built[1:5], network.n)
        else:
            flat = _checked(flat, network.n)
        self._flat: FlatTrees = flat
        #: The flat-forest view every per-query state reads.
        self.forest = FlatForest.from_flat(flat)

    @classmethod
    def from_flat_trees(
        cls,
        network: GeoSocialNetwork,
        theta: float,
        flat: FlatTrees,
    ) -> "MiaModel":
        """A model over saved :data:`FlatTrees` arrays (the persistence layer).

        The inverse of :meth:`flat_trees`: the arrays are validated and
        wrapped, not copied, so the model is indistinguishable from a
        fresh build and memmap'd or shared-memory arrays stay shared.
        """
        return cls(network, theta, flat)

    def rebuilt(self, network: GeoSocialNetwork, roots) -> "MiaModel":
        """A model over ``network`` with the trees of ``roots`` rebuilt and
        every other tree kept; its arrays equal a fresh build's whenever
        the kept trees are unchanged on ``network``."""
        roots = np.unique(np.asarray(roots, dtype=np.int64))
        built = build_miia_forest(network, self.theta, roots)
        tree = self.forest.tree
        kept = np.flatnonzero(~np.isin(tree, roots))
        owner, *columns = merge_trees(
            (tree[kept], *(column[kept] for column in self._flat[:4])),
            built[:5],
        )
        return MiaModel(network, self.theta, _flat(owner, columns, network.n))

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
