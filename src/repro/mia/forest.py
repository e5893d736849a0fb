"""All MIIA arborescences as one flat forest, and the per-query state on it.

:class:`FlatForest` is an array view of every tree at once, built from the
:data:`~repro.mia.pmia.FlatTrees` CSR layout.  One *entry* is one
(tree, member) pair.  Entries are numbered in tree order, and within a
tree in the tree's local (root-first, topological) order.  Per entry the
forest holds the member, the global parent entry, the edge and path
probabilities, the depth and the tree id.  Two CSR indexes group entries
by member (which trees a node sits in) and by parent entry (a node's
children).

:class:`MiaForestState` is the per-query greedy state every MIA method
shares: MIA-DA's priority search, the PMIA-DA full greedy
(:class:`~repro.mia.pmia.MiaGreedyState`) and the keyword-cover greedy.
The trees a new seed sits in get ``ap`` recomputed bottom-up and
``alpha`` top-down, one array step per depth level.  A marginal is one
gather over the node's entries.

The results are bit-identical to the per-tree recursions of
:mod:`repro.mia.influence`, which stay as the public reference: every
float is produced by the same operations in the same order.

* Child survival products accumulate with ``np.multiply.at`` into ones,
  children in ascending entry order.  That is the sequential order of
  ``np.prod`` over a tree's child list.
* The sibling product divides the parent's product by the child's own
  factor, and falls back to the sequential product of the other siblings
  when that factor is ``<= 1e-300``.
* A marginal sums its per-tree terms with a sequential ``cumsum``,
  in tree order, as the per-tree loop did.  ``np.sum`` sums pairwise and
  would differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import QueryError

#: A sibling factor at or below this is treated as zero: the sibling
#: product is then multiplied out instead of divided out.
_TINY = 1e-300


def _csr(keys: np.ndarray, values: np.ndarray, n_keys: int
         ) -> Tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys``: ``(grouped, offsets)``.

    The sort is stable, so each group keeps the input order of its values.
    """
    order = np.argsort(keys, kind="stable")
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=offsets[1:])
    return values[order], offsets


@dataclass(frozen=True, eq=False)
class FlatForest:
    """Every MIIA tree of a model as flat per-entry arrays.

    Tree ``v`` owns entries ``tree_offsets[v]:tree_offsets[v + 1]``; its
    first entry is its root.  Treat all arrays as read-only.
    """

    tree_offsets: np.ndarray   #: (n + 1,) entry range per tree
    member: np.ndarray         #: (E,) global node id of each entry
    edge_prob: np.ndarray      #: (E,) Pr(member, parent member)
    path_prob: np.ndarray      #: (E,) Pr(MIP(member, tree root))
    tree: np.ndarray           #: (E,) tree id (its root node)
    parent: np.ndarray         #: (E,) global parent entry, -1 at roots
    depth: np.ndarray          #: (E,) hops to the tree root (narrow uint)
    member_entries: np.ndarray  #: entries grouped by member, tree order
    member_offsets: np.ndarray  #: (n + 1,) CSR offsets of member_entries
    member_tree: np.ndarray     #: tree[member_entries]
    member_path_prob: np.ndarray  #: path_prob[member_entries]
    child_entries: np.ndarray   #: non-root entries grouped by parent
    child_offsets: np.ndarray   #: (E + 1,) CSR offsets of child_entries

    @classmethod
    def from_flat(cls, flat) -> "FlatForest":
        """Build the forest from a :data:`~repro.mia.pmia.FlatTrees` tuple."""
        members, parents, edge_probs, path_probs, offsets = flat
        offsets = np.asarray(offsets, dtype=np.int64)
        n = len(offsets) - 1
        n_entries = int(offsets[-1])
        members = np.asarray(members, dtype=np.int64)
        local_parent = np.asarray(parents, dtype=np.int64)
        tree = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        nonroot = np.flatnonzero(local_parent >= 0)
        parent = np.full(n_entries, -1, dtype=np.int64)
        parent[nonroot] = local_parent[nonroot] + offsets[tree[nonroot]]
        # Parents precede children, so each pass settles one more level;
        # the loop runs (tree height + 1) times.
        depth = np.zeros(n_entries, dtype=np.int64)
        while True:
            below = depth[parent[nonroot]] + 1
            if np.array_equal(below, depth[nonroot]):
                break
            depth[nonroot] = below
        # The narrowest dtype: a per-query pass sorts its entries by depth,
        # and numpy radix-sorts 8- and 16-bit keys.
        depth = depth.astype(np.min_scalar_type(int(depth.max(initial=0))))
        member_entries, member_offsets = _csr(
            members, np.arange(n_entries, dtype=np.int64), n
        )
        child_entries, child_offsets = _csr(
            parent[nonroot], nonroot, n_entries
        )
        path_probs = np.asarray(path_probs, dtype=float)
        return cls(
            tree_offsets=offsets,
            member=members,
            edge_prob=np.asarray(edge_probs, dtype=float),
            path_prob=path_probs,
            tree=tree,
            parent=parent,
            depth=depth,
            member_entries=member_entries,
            member_offsets=member_offsets,
            member_tree=tree[member_entries],
            member_path_prob=path_probs[member_entries],
            child_entries=child_entries,
            child_offsets=child_offsets,
        )

    @property
    def n_entries(self) -> int:
        return len(self.member)

    def entries_of(self, u: int) -> np.ndarray:
        """The entries of node ``u``, one per tree containing it, in tree order."""
        return self.member_entries[
            self.member_offsets[u]:self.member_offsets[u + 1]
        ]

    def reach(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(trees, path_probs)`` of node ``u``'s entries, in tree order."""
        lo, hi = self.member_offsets[u], self.member_offsets[u + 1]
        return self.member_tree[lo:hi], self.member_path_prob[lo:hi]

    def tree_entries(self, trees: np.ndarray) -> np.ndarray:
        """All entries of the given trees, tree by tree in the given order."""
        starts = self.tree_offsets[trees]
        sizes = self.tree_offsets[trees + 1] - starts
        block = np.cumsum(sizes) - sizes
        return np.repeat(starts - block, sizes) + np.arange(
            int(sizes.sum()), dtype=np.int64
        )


class MiaForestState:
    """Per-query MIA greedy state: ``ap`` and ``alpha`` for every entry.

    Trees no seed sits in keep the empty-seed closed form (``ap = 0``,
    ``alpha = path_prob``) and are never recomputed: a per-tree touched
    mask tells the reads which form to use, so creating a state costs
    nothing proportional to the forest.  ``ap`` and ``alpha`` hold valid
    values for touched trees only.

    :meth:`add_seed` only marks the seed's trees dirty.  The dirty trees
    are recomputed together, in one pass, by :meth:`refresh` — which
    :meth:`marginal` calls first when the node sits in a dirty tree.  A
    search that adds several seeds before it next asks for a marginal
    thus pays for one pass, not several.
    """

    def __init__(self, forest: FlatForest, weights: np.ndarray):
        n = len(forest.tree_offsets) - 1
        self.forest = forest
        self.weights = weights
        self.seeds: list[int] = []
        self._is_seed = np.zeros(n, dtype=bool)
        self._touched = np.zeros(n, dtype=bool)
        self._dirty = np.zeros(n, dtype=bool)
        self._pending: list[np.ndarray] = []
        self._ready: set[int] = set()  # nodes with every _coef entry valid
        size = forest.n_entries
        self.ap = np.empty(size, dtype=float)
        self.alpha = np.empty(size, dtype=float)
        # alpha * (1 - ap): written for whole trees by a refresh, and for
        # a node's entries in untouched trees on its first marginal.
        self._coef = np.empty(size, dtype=float)
        self._pos = np.empty(size, dtype=np.int64)  # entry -> pass position

    def contributions(self, entries: np.ndarray) -> np.ndarray:
        """``alpha * (1 - ap) * w[tree]`` per entry: its node's share of the
        marginal gain through that tree.  The trees must not be dirty."""
        trees = self.forest.tree[entries]
        coef = np.where(
            self._touched[trees], self._coef[entries],
            self.forest.path_prob[entries],
        )
        return coef * self.weights[trees]

    def marginal(self, u: int) -> float:
        """Exact ``I_q^m(u | S)`` at the current seed set."""
        f = self.forest
        u = int(u)
        lo, hi = f.member_offsets[u], f.member_offsets[u + 1]
        trees = f.member_tree[lo:hi]
        if not self.seeds:
            # No seeds yet: the marginal is the singleton influence.
            return float(np.dot(f.member_path_prob[lo:hi], self.weights[trees]))
        if self._pending and np.count_nonzero(self._dirty[trees]):
            self.refresh()
        entries = f.member_entries[lo:hi]
        if u not in self._ready:
            # From now on u's entries in untouched trees hold the closed
            # form too (a refresh overwrites whole trees), so its later
            # marginals are two gathers and a sum.
            self._coef[entries] = np.where(
                self._touched[trees], self._coef[entries],
                f.member_path_prob[lo:hi],
            )
            self._ready.add(u)
        terms = self._coef[entries]
        terms *= self.weights[trees]
        return float(terms.cumsum()[-1])

    def add_seed(self, u: int) -> None:
        """Add ``u`` to the seeds; every tree containing it turns dirty."""
        u = int(u)
        if self._is_seed[u]:
            raise QueryError(f"node {u} is already a seed")
        self._is_seed[u] = True
        self.seeds.append(u)
        trees, _ = self.forest.reach(u)
        self._dirty[trees] = True
        self._pending.append(trees)

    def refresh(self) -> None:
        """Recompute every dirty tree."""
        if not self._pending:
            return
        if len(self._pending) == 1:
            trees = self._pending[0]
        else:
            trees = np.unique(np.concatenate(self._pending))
        self._pending = []
        self._dirty[trees] = False
        self._touched[trees] = True
        self._recompute(self.forest.tree_entries(trees))

    def _recompute(self, entries: np.ndarray) -> None:
        """``ap`` (Eq. 5) bottom-up, then ``alpha`` top-down, over whole
        trees, one array step per depth level."""
        f = self.forest
        depth = f.depth[entries]
        # Depth-major order; a depth keeps ascending entry order, so each
        # parent's children are multiplied in the order np.prod takes them.
        batch = entries[np.argsort(depth, kind="stable")]
        bounds = [0, *np.cumsum(np.bincount(depth)).tolist()]
        levels = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self._pos[batch] = np.arange(len(batch))
        parent = self._pos[f.parent[batch]]  # unused (garbage) at roots
        seed = self._is_seed[f.member[batch]]
        edge = f.edge_prob[batch]
        size = len(batch)
        prod = np.ones(size)  # product of child survival factors
        survive = np.empty(size)
        ap = np.empty(size)
        alpha = np.empty(size)
        # Bottom-up: a level's children are final before it is read.
        for d in range(len(levels) - 1, -1, -1):
            lv = levels[d]
            a = np.subtract(1.0, prod[lv], out=ap[lv])
            np.putmask(a, seed[lv], 1.0)
            if d:
                s = np.multiply(a, edge[lv], out=survive[lv])
                np.subtract(1.0, s, out=s)
                np.multiply.at(prod, parent[lv], s)
        # Each child's sibling product: its parent's product with its own
        # factor divided out, or multiplied out afresh when that factor is
        # (near) zero.  It needs only survival factors, so all levels go
        # at once.
        top = bounds[1]
        up = parent[top:]
        s = survive[top:]
        ok = s > _TINY
        sibling = np.divide(prod[up], s, out=np.empty(len(s)), where=ok)
        if np.count_nonzero(ok) < len(ok):
            tiny = np.flatnonzero(~ok)
            sibling[tiny] = self._sibling_products(batch[top + tiny], survive)
        # Top-down: alpha(c) = alpha(p) * Pr(c, p) * sibling product, zero
        # below a seed parent (its ap is pinned at 1).  Below a zero alpha
        # the product is zero already: every factor is finite.
        seed_parent = seed[up]
        alpha[:top] = 1.0
        for lv in levels[1:]:
            at = slice(lv.start - top, lv.stop - top)
            a = np.multiply(alpha[parent[lv]], edge[lv], out=alpha[lv])
            a *= sibling[at]
            np.putmask(a, seed_parent[at], 0.0)
        self.ap[batch] = ap
        self.alpha[batch] = alpha
        self._coef[batch] = alpha * (1.0 - ap)

    def _sibling_products(
        self, children: np.ndarray, survive: np.ndarray
    ) -> list[float]:
        """Product of each child's siblings' survival factors, itself excluded,
        multiplied in ascending entry order.  ``survive`` is indexed by pass
        position.  Only children with a (near) zero factor come here, a
        handful per pass."""
        f = self.forest
        out = []
        for c in children.tolist():
            p = f.parent[c]
            kids = f.child_entries[f.child_offsets[p]:f.child_offsets[p + 1]]
            product = 1.0
            for kid, factor in zip(kids.tolist(),
                                   survive[self._pos[kids]].tolist()):
                if kid != c:
                    product *= factor
            out.append(product)
        return out
