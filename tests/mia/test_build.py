"""The batched MIIA builder against per-root Dijkstra trees, bit for bit."""

import numpy as np
import pytest

from repro.mia.arborescence import miia_arrays
from repro.mia.build import build_miia_forest
from repro.mia.pmia import MiaModel
from repro.network.graph import GeoSocialNetwork


def _reference(net: GeoSocialNetwork, theta: float, roots) -> tuple:
    """Per-root ``miia_arrays``, concatenated in root order, with owners."""
    trees = [miia_arrays(net, int(v), theta) for v in roots]
    owner = np.repeat(np.asarray(roots, dtype=np.int64),
                      [len(t[0]) for t in trees])
    return (owner, *(np.concatenate(column) for column in zip(*trees)))


def _assert_same(built, want) -> None:
    for got, expected in zip(built[:5], want):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def _net(n, edges, probs) -> GeoSocialNetwork:
    coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return GeoSocialNetwork.from_edges(edges, coords, probs)


@pytest.fixture
def certain_net() -> GeoSocialNetwork:
    """Probability-1 edges and equal-distance alternatives into node 0.

    ``3`` reaches ``0`` at cost zero through ``1`` and through ``2`` (a
    tie only the heap's pop order settles); ``4``'s lone candidate ``3``
    costs nothing; ``5`` reaches ``0`` through ``1`` and ``2`` at equal
    positive cost (the lower id wins).
    """
    edges = [(1, 0), (2, 0), (3, 1), (3, 2), (4, 3), (5, 1), (5, 2),
             (6, 5), (6, 4), (0, 6)]
    probs = [1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.25, 0.5]
    return _net(7, edges, probs)


class TestAgainstDijkstra:
    @pytest.mark.parametrize("theta", [0.01, 0.1, 0.3, 1.0])
    def test_probability_one_edges_and_ties(self, certain_net, theta):
        built = build_miia_forest(certain_net, theta)
        _assert_same(built, _reference(certain_net, theta, range(7)))

    def test_pop_order_ties_fall_back_per_root(self, certain_net):
        built = build_miia_forest(certain_net, 0.1)
        # Tree 0 holds the two-way zero-cost tie at node 3 and goes to the
        # per-root build; trees without such a tie do not.
        assert 1 <= built.tie_roots < certain_net.n
        assert built.rounds >= 1

    def test_path_exactly_at_theta_is_kept(self, line_net):
        # 0 -> 1 -> 2 at 0.5 each: Pr(MIP(0, 2)) is exactly 0.25.
        built = build_miia_forest(line_net, 0.25)
        _assert_same(built, _reference(line_net, 0.25, range(3)))
        tree_2 = built.members[built.owner == 2]
        assert tree_2.tolist() == [2, 1, 0]
        above = build_miia_forest(line_net, 0.2500001)
        assert above.members[above.owner == 2].tolist() == [2, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_with_many_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        pairs = rng.choice(n * n, size=110, replace=False)
        edges = np.column_stack(np.divmod(pairs, n))
        edges = edges[edges[:, 0] != edges[:, 1]]
        probs = rng.choice([1.0, 0.5, 0.25, 0.125, 1 / 3, 0.0], len(edges))
        net = _net(n, edges, probs)
        for theta in (0.02, 0.2, 0.5):
            built = build_miia_forest(net, theta)
            _assert_same(built, _reference(net, theta, range(n)))

    def test_subset_of_roots(self, small_net):
        roots = np.array([0, 5, 17, 63, 119])
        built = build_miia_forest(small_net, 0.05, roots)
        _assert_same(built, _reference(small_net, 0.05, roots))

    def test_dataset_graph(self, medium_net):
        built = build_miia_forest(medium_net, 0.02)
        _assert_same(built, _reference(medium_net, 0.02, range(medium_net.n)))


class TestModelBuild:
    def test_build_counters(self, small_net):
        model = MiaModel(small_net, 0.05)
        assert model.build_rounds >= 1
        assert 0 <= model.tie_roots < small_net.n
        loaded = MiaModel.from_flat_trees(small_net, 0.05, model.flat_trees())
        assert (loaded.build_rounds, loaded.tie_roots) == (0, 0)

    @pytest.mark.parametrize("roots", [[3, 40, 41, 119], []])
    def test_rebuilt_equals_fresh_build(self, small_net, roots):
        model = MiaModel(small_net, 0.05)
        rebuilt = model.rebuilt(small_net, roots)
        for got, want in zip(rebuilt.flat_trees(), model.flat_trees()):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_rebuilt_every_root_on_a_changed_graph(self, certain_net):
        _, probs = certain_net.edge_array()
        changed = certain_net.with_probabilities(np.where(probs == 1.0, 0.5, probs))
        model = MiaModel(certain_net, 0.1)
        rebuilt = model.rebuilt(changed, range(certain_net.n))
        for got, want in zip(rebuilt.flat_trees(),
                             MiaModel(changed, 0.1).flat_trees()):
            assert got.tobytes() == want.tobytes()
