"""Pinned parity: the flat-forest MIA state against the per-tree states it
replaced.

The per-tree states below are frozen copies of the MIA-DA lazy state and
the PMIA-DA greedy state as they were before the flat forest.  Every MIA
answer — MIA-DA seeds, estimates, evaluation and heap-pop counts, PMIA
and keyword gain vectors — must come out of the forest bit for bit equal.
The frozen states read their trees from :func:`build_miia`, run root by
root, not from the model under test.
"""

from typing import Dict, Set, Tuple

import numpy as np
import pytest

import repro.core.keyword as keyword_module
import repro.core.mia_da as mia_da_module
from repro.core.keyword import keyword_cover_query
from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.mia.arborescence import Arborescence, build_miia
from repro.mia.influence import activation_probabilities, linear_coefficients
from repro.mia.pmia import MiaGreedyState, MiaModel
from repro.network.datasets import load_dataset


class OracleTrees:
    """``MIIA(v)`` of a model's network and theta, built on first use."""

    def __init__(self, model: MiaModel):
        self.model = model
        self._trees: Dict[int, Arborescence] = {}

    def __getitem__(self, v: int) -> Arborescence:
        if v not in self._trees:
            self._trees[v] = build_miia(self.model.network, v, self.model.theta)
        return self._trees[v]


class FrozenLazyMiaState:
    """Per-query MIA greedy state with lazy per-root refresh (frozen)."""

    def __init__(self, model: MiaModel, weights: np.ndarray,
                 trees: OracleTrees | None = None):
        self.model = model
        self.trees = trees if trees is not None else OracleTrees(model)
        self.weights = weights
        self.seeds: list[int] = []
        self._seed_set: Set[int] = set()
        self._ap: Dict[int, np.ndarray] = {}
        self._alpha: Dict[int, np.ndarray] = {}
        self._dirty: Set[int] = set()
        self._touched_roots: Set[int] = set()

    def marginal(self, u: int) -> float:
        u = int(u)
        roots, probs = self.model.reach_of(u)
        if not self.seeds:
            return float(np.dot(probs, self.weights[roots]))
        total = 0.0
        for v in roots:
            v = int(v)
            wv = float(self.weights[v])
            if wv == 0.0:
                continue
            ap, alpha = self._tree_state(v)
            tree = self.trees[v]
            i = tree.local_index(u)
            total += float(alpha[i]) * (1.0 - float(ap[i])) * wv
        return total

    def add_seed(self, u: int) -> None:
        u = int(u)
        if u in self._seed_set:
            raise QueryError(f"node {u} is already a seed")
        self._seed_set.add(u)
        self.seeds.append(u)
        roots, _ = self.model.reach_of(u)
        for v in roots:
            v = int(v)
            self._dirty.add(v)
            self._touched_roots.add(v)

    def _tree_state(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        if v in self._ap and v not in self._dirty:
            return self._ap[v], self._alpha[v]
        tree = self.trees[v]
        if v not in self._touched_roots:
            ap = np.zeros(len(tree), dtype=float)
            alpha = tree.path_prob
        else:
            ap = activation_probabilities(tree, self._seed_set)
            alpha = linear_coefficients(tree, self._seed_set, ap)
        self._ap[v] = ap
        self._alpha[v] = alpha
        self._dirty.discard(v)
        return ap, alpha


class FrozenGreedyState:
    """PMIA-DA greedy state with the per-root update loop (frozen)."""

    def __init__(self, model: MiaModel, weights: np.ndarray,
                 trees: OracleTrees | None = None):
        self.model = model
        self.trees = trees if trees is not None else OracleTrees(model)
        self.weights = np.asarray(weights, dtype=float)
        self.seeds: list[int] = []
        self._seed_set: set[int] = set()
        self.gain = model.singleton_influences(self.weights)
        self._root_ap = np.zeros(model.n, dtype=float)
        self._ap: Dict[int, np.ndarray] = {}
        self._alpha: Dict[int, np.ndarray] = {}

    @property
    def spread(self) -> float:
        return float(np.dot(self._root_ap, self.weights))

    def best_candidate(self) -> int:
        return int(np.argmax(self.gain))

    def add_seed(self, u: int) -> float:
        u = int(u)
        gained = float(self.gain[u])
        self._seed_set.add(u)
        self.seeds.append(u)
        roots, _ = self.model.reach_of(u)
        for v in roots:
            v = int(v)
            tree = self.trees[v]
            if v not in self._ap:
                self._ap[v] = np.zeros(len(tree), dtype=float)
                self._alpha[v] = tree.path_prob.copy()
            ap_old, alpha_old = self._ap[v], self._alpha[v]
            wv = float(self.weights[v])
            if wv != 0.0:
                self.gain[tree.nodes] -= alpha_old * (1.0 - ap_old) * wv
            ap_new = activation_probabilities(tree, self._seed_set)
            alpha_new = linear_coefficients(tree, self._seed_set, ap_new)
            self._ap[v], self._alpha[v] = ap_new, alpha_new
            self._root_ap[v] = ap_new[0]
            if wv != 0.0:
                self.gain[tree.nodes] += alpha_new * (1.0 - ap_new) * wv
        self.gain[u] = -np.inf
        for s in self.seeds:
            self.gain[s] = -np.inf
        return gained


@pytest.fixture(scope="module")
def index():
    net = load_dataset("brightkite", scale=0.5)
    return MiaDaIndex(net, DistanceDecay(alpha=0.01), MiaDaConfig(n_anchors=100))


def _answers(index, frozen: bool):
    """Point, masked, budgeted and trajectory answers (230 queries)."""
    net = index.network
    rng = np.random.default_rng(2016)
    box = net.bounding_box()

    def loc():
        return (float(rng.uniform(box.xmin, box.xmax)),
                float(rng.uniform(box.ymin, box.ymax)))

    def row(kind, pair):
        res, diag = pair
        return (kind, list(res.seeds), res.estimate, res.evaluations,
                diag.heap_pops)

    with pytest.MonkeyPatch.context() as mp:
        if frozen:
            trees = OracleTrees(index.model)
            mp.setattr(
                mia_da_module, "MiaForestState",
                lambda forest, weights: FrozenLazyMiaState(
                    index.model, weights, trees),
            )
        out = []
        for _ in range(80):
            out.append(row("point", index.query(
                loc(), int(rng.integers(1, 31)), return_diagnostics=True)))
        for _ in range(50):
            mask = np.where(rng.random(net.n) < 0.25, rng.random(net.n), 0.0)
            out.append(row("masked", index.query_masked(
                loc(), int(rng.integers(1, 16)), mask,
                return_diagnostics=True)))
        for _ in range(40):
            costs = rng.uniform(0.5, 2.0, net.n)
            out.append(row("budgeted", index.query_budgeted(
                loc(), float(rng.uniform(2.0, 12.0)), costs,
                return_diagnostics=True)))
        for _ in range(20):
            waypoints = [loc() for _ in range(3)]
            for pair in index.query_trajectory(
                waypoints, int(rng.integers(1, 16)), return_diagnostics=True
            ):
                out.append(row("trajectory", pair))
    return out


@pytest.fixture(scope="module")
def answer_pairs(index):
    return _answers(index, frozen=False), _answers(index, frozen=True)


class TestMiaDaPinned:
    @pytest.mark.parametrize("kind", ["point", "masked", "budgeted", "trajectory"])
    def test_answers_equal_frozen_state(self, answer_pairs, kind):
        forest, frozen = answer_pairs
        got = [r for r in forest if r[0] == kind]
        want = [r for r in frozen if r[0] == kind]
        assert len(got) >= 40
        assert got == want  # seeds, estimate, evaluations, heap_pops

    def test_at_least_200_queries(self, answer_pairs):
        assert len(answer_pairs[0]) >= 200


class TestGainVectorsPinned:
    def test_pmia_gain_vectors_bit_identical(self, index):
        rng = np.random.default_rng(7)
        box = index.network.bounding_box()
        for _ in range(6):
            q = (rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
            w = index.decay.weights(index.network.coords, q)
            if rng.random() < 0.5:
                w = w * (rng.random(index.network.n) < 0.5)  # zero roots
            state = MiaGreedyState(index.model, w)
            frozen = FrozenGreedyState(index.model, w)
            for _ in range(30):
                u = frozen.best_candidate()
                assert state.best_candidate() == u
                assert state.add_seed(u) == frozen.add_seed(u)
                assert np.array_equal(state.gain, frozen.gain)
                assert state.spread == frozen.spread

    def test_keyword_answers_bit_identical(self, index, monkeypatch):
        n = index.network.n
        kw = [frozenset({"a"} if u % 7 == 0 else {"b"} if u % 11 == 3 else ())
              for u in range(n)]
        queries = [((30.0, 60.0), 6), ((80.0, 20.0), 10), ((50.0, 50.0), 3)]
        got = [keyword_cover_query(index.model, index.decay, q, k, {"a", "b"}, kw)
               for q, k in queries]
        monkeypatch.setattr(keyword_module, "MiaGreedyState", FrozenGreedyState)
        want = [keyword_cover_query(index.model, index.decay, q, k, {"a", "b"}, kw)
                for q, k in queries]
        for g, w in zip(got, want):
            assert g.seeds == w.seeds
            assert g.estimate == w.estimate
