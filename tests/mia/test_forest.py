"""Tests for repro.mia.forest: the flat forest and its per-query state.

The oracle is the per-tree recursion pair of :mod:`repro.mia.influence`
(``activation_probabilities`` / ``linear_coefficients``).  The forest
state must reproduce it bit for bit, not merely to a tolerance.
"""

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.mia.arborescence import Arborescence, build_miia
from repro.mia.forest import FlatForest, MiaForestState
from repro.mia.influence import activation_probabilities, linear_coefficients
from repro.mia.pmia import MiaModel

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def random_trees(rng, n, max_size=8):
    """One random MIIA-shaped tree per node over ``n`` nodes.

    Edge probabilities mix exact 1.0 (so a seed child zeroes its
    parent's survival product) with random values; parents always
    precede children.
    """
    trees = []
    for v in range(n):
        others = rng.permutation([u for u in range(n) if u != v])
        size = int(rng.integers(1, min(max_size, n) + 1))
        nodes = np.asarray([v, *others[: size - 1]], dtype=np.int64)
        parent = np.full(size, -1, dtype=np.int64)
        edge = np.ones(size)
        path = np.ones(size)
        for i in range(1, size):
            parent[i] = int(rng.integers(0, i))
            edge[i] = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))
            path[i] = path[parent[i]] * edge[i]
        trees.append(Arborescence(
            root=v, nodes=nodes, parent=parent, edge_prob=edge,
            path_prob=path, kind="miia",
        ))
    return trees


def flat_of(trees):
    sizes = [len(t) for t in trees]
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return (
        np.concatenate([t.nodes for t in trees]),
        np.concatenate([t.parent for t in trees]),
        np.concatenate([t.edge_prob for t in trees]),
        np.concatenate([t.path_prob for t in trees]),
        offsets,
    )


def oracle_marginal(trees, seeds, weights, u):
    """The per-tree sum of ``alpha * (1 - ap) * w``, in tree order."""
    if not seeds:
        roots = [t.root for t in trees if u in t]
        probs = [t.path_prob[t.local_index(u)] for t in trees if u in t]
        return float(np.dot(np.asarray(probs), weights[roots]))
    total = 0.0
    for t in trees:
        if u not in t or weights[t.root] == 0.0:
            continue
        ap = activation_probabilities(t, seeds)
        alpha = linear_coefficients(t, seeds, ap)
        i = t.local_index(u)
        total += float(alpha[i]) * (1.0 - float(ap[i])) * float(weights[t.root])
    return total


def check_against_oracle(trees, weights, seed_order, group=1):
    """Add seeds ``group`` at a time; after each group every marginal, and
    then (after an explicit refresh) every touched tree's ``ap`` and
    ``alpha``, must equal the oracle's bits."""
    forest = FlatForest.from_flat(flat_of(trees))
    state = MiaForestState(forest, weights)
    seeds = set()
    n = len(trees)
    for at in range(0, len(seed_order), group):
        for u in seed_order[at:at + group]:
            if u in seeds:
                with pytest.raises(QueryError, match="already a seed"):
                    state.add_seed(u)
                continue
            state.add_seed(u)
            seeds.add(u)
        for v in range(n):
            if v not in seeds:
                assert state.marginal(v) == oracle_marginal(
                    trees, seeds, weights, v
                ), v
        state.refresh()
        for t in trees:
            if not seeds & set(t.nodes.tolist()):
                continue
            lo, hi = forest.tree_offsets[t.root], forest.tree_offsets[t.root + 1]
            ap = activation_probabilities(t, seeds)
            alpha = linear_coefficients(t, seeds, ap)
            assert np.array_equal(state.ap[lo:hi], ap), t.root
            assert np.array_equal(state.alpha[lo:hi], alpha), t.root


class TestFlatForest:
    def test_layout(self):
        trees = random_trees(np.random.default_rng(3), 9)
        forest = FlatForest.from_flat(flat_of(trees))
        for t in trees:
            lo = forest.tree_offsets[t.root]
            entries = np.arange(lo, lo + len(t))
            assert np.array_equal(forest.member[entries], t.nodes)
            assert np.all(forest.tree[entries] == t.root)
            assert forest.parent[lo] == -1 and forest.depth[lo] == 0
            for i in range(1, len(t)):
                assert forest.parent[lo + i] == lo + t.parent[i]
                assert forest.depth[lo + i] == forest.depth[lo + t.parent[i]] + 1
                kids = forest.child_entries[
                    forest.child_offsets[lo + i]:forest.child_offsets[lo + i + 1]
                ]
                assert np.array_equal(kids, lo + t.children[i])
        for u in range(len(trees)):
            entries = forest.entries_of(u)
            assert np.all(forest.member[entries] == u)
            assert np.all(np.diff(forest.tree[entries]) > 0)
            assert sorted(forest.tree[entries].tolist()) == [
                t.root for t in trees if u in t
            ]

    def test_model_reaches_forest_on_every_path(self, small_net):
        """Fresh build and loader both expose the same forest."""
        fresh = MiaModel(small_net, 0.05)
        loaded = MiaModel.from_flat_trees(small_net, 0.05, fresh.flat_trees())
        for name in FlatForest.__dataclass_fields__:
            assert np.array_equal(
                getattr(fresh.forest, name), getattr(loaded.forest, name)
            ), name


class TestModelArraysUnchanged:
    """The vectorised model build equals the per-entry loops it replaced."""

    def test_flat_trees_are_the_per_tree_concatenation(self, small_net):
        model = MiaModel(small_net, 0.05)
        trees = [build_miia(small_net, v, 0.05) for v in range(small_net.n)]
        for got, want in zip(model.flat_trees(), flat_of(trees)):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype

    def test_singleton_sums_match_add_at_reference(self, small_net):
        """Singleton sums, and the anchor bounds built from them, equal the
        per-entry membership index and ``np.add.at`` they replaced."""
        from repro.core.bounds import AnchorBounds
        from repro.geo.weights import DistanceDecay

        model = MiaModel(small_net, 0.05)
        members, roots, probs = [], [], []
        for t in (build_miia(small_net, v, 0.05) for v in range(model.n)):
            members.extend(int(g) for g in t.nodes)
            roots.extend([t.root] * len(t))
            probs.extend(float(p) for p in t.path_prob)
        order = np.argsort(np.asarray(members), kind="stable")
        member = np.asarray(members)[order]
        root = np.asarray(roots)[order]
        prob = np.asarray(probs)[order]

        def reference(w):
            out = np.zeros(model.n)
            np.add.at(out, member, prob * w[root])
            return out

        w = np.random.default_rng(0).random(model.n)
        assert np.array_equal(model.singleton_influences(w), reference(w))
        mass = np.zeros(model.n)
        np.add.at(mass, member, prob)
        assert np.array_equal(model.unweighted_singleton_mass(), mass)
        decay = DistanceDecay(alpha=0.02)
        anchors = np.random.default_rng(1).uniform(0, 100, (12, 2))
        bounds = AnchorBounds(model, decay, anchors)
        want = np.vstack([
            reference(decay.weights(small_net.coords, (a[0], a[1])))
            for a in anchors
        ])
        assert np.array_equal(bounds.influence, want)
        assert np.array_equal(bounds.mass, mass)


class TestForestState:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_on_random_forests(self, seed):
        rng = np.random.default_rng(seed)
        trees = random_trees(rng, 10)
        weights = rng.random(10)
        weights[rng.random(10) < 0.3] = 0.0  # zero-weight roots
        check_against_oracle(
            trees, weights, rng.permutation(10)[:6].tolist(), group=1 + seed % 3
        )

    def test_seed_parent_blocks_children(self):
        # 0 <- 1 <- 2 <- 3: seeding 1 zeroes alpha below it in tree 0.
        nodes = np.arange(4)
        tree0 = Arborescence(
            root=0, nodes=nodes, parent=np.asarray([-1, 0, 1, 2]),
            edge_prob=np.asarray([1.0, 0.5, 1.0, 0.4]),
            path_prob=np.asarray([1.0, 0.5, 0.5, 0.2]), kind="miia",
        )
        trees = [tree0] + [
            Arborescence(root=v, nodes=np.asarray([v]), parent=np.asarray([-1]),
                         edge_prob=np.ones(1), path_prob=np.ones(1), kind="miia")
            for v in range(1, 4)
        ]
        forest = FlatForest.from_flat(flat_of(trees))
        state = MiaForestState(forest, np.ones(4))
        state.add_seed(1)
        state.refresh()
        assert state.alpha[2] == 0.0 and state.alpha[3] == 0.0
        assert np.array_equal(state.contributions(np.asarray([2, 3])), [0.0, 0.0])
        assert state.marginal(2) == state.marginal(3) == 1.0  # own trees only
        check_against_oracle(trees, np.ones(4), [1, 3, 1])

    def test_certain_edge_under_seed_child_uses_sibling_fallback(self):
        # Root 0 with children 1 (p=1) and 2 (p=0.5): seeding 1 makes its
        # survival factor exactly 0, so 2's sibling product is multiplied
        # out rather than divided out.
        tree0 = Arborescence(
            root=0, nodes=np.asarray([0, 1, 2]), parent=np.asarray([-1, 0, 0]),
            edge_prob=np.asarray([1.0, 1.0, 0.5]),
            path_prob=np.asarray([1.0, 1.0, 0.5]), kind="miia",
        )
        trees = [tree0] + [
            Arborescence(root=v, nodes=np.asarray([v]), parent=np.asarray([-1]),
                         edge_prob=np.ones(1), path_prob=np.ones(1), kind="miia")
            for v in (1, 2)
        ]
        forest = FlatForest.from_flat(flat_of(trees))
        state = MiaForestState(forest, np.ones(3))
        state.add_seed(2)
        state.refresh()
        assert state.alpha[1] == 0.5  # Pr(1, 0) * (1 - 1 * 0.5)
        check_against_oracle(trees, np.ones(3), [1, 2])

    def test_untouched_trees_read_the_closed_form(self):
        trees = random_trees(np.random.default_rng(1), 8)
        forest = FlatForest.from_flat(flat_of(trees))
        w = np.linspace(0.1, 1.0, 8)
        state = MiaForestState(forest, w)
        entries = forest.entries_of(3)
        assert np.array_equal(
            state.contributions(entries),
            forest.path_prob[entries] * (1.0 - 0.0) * w[forest.tree[entries]],
        )

    if HAVE_HYPOTHESIS:

        @settings(max_examples=60, deadline=None)
        @given(
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(2, 9),
            picks=st.lists(st.integers(0, 8), min_size=1, max_size=6),
            group=st.integers(1, 3),
        )
        def test_bit_identical_to_per_tree_oracle(self, seed, n, picks, group):
            """Random small forests, weights with zeros, repeated seeds,
            seeds added one or several at a time between refreshes."""
            rng = np.random.default_rng(seed)
            trees = random_trees(rng, n, max_size=6)
            weights = np.where(rng.random(n) < 0.25, 0.0, rng.random(n))
            check_against_oracle(trees, weights, [p % n for p in picks], group)
