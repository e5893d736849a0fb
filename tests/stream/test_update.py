"""Update-vs-rebuild parity for the streaming maintenance paths.

The contract under test: after an arbitrary ``update()`` sequence, the
index answers queries as if it had been rebuilt from scratch over the
final graph — bit-identically for MIA-DA (the construction is
deterministic), and within sampling tolerance for RIS-DA (the corpus is
a different but equally distributed sample pool).
"""

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import load_ris_index, save_ris_index
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.stream.delta import GraphDelta, apply_delta


def random_deltas(net, rng, rounds=3, upserts=4, moves=2):
    """A reproducible stream of delta batches against ``net``."""
    batches = []
    current = net
    for _ in range(rounds):
        edges, seen = [], set()
        while len(edges) < upserts:
            u, v = (int(z) for z in rng.integers(0, net.n, size=2))
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
        probs = rng.uniform(0.05, 0.3, size=len(edges))
        nodes = rng.choice(net.n, size=moves, replace=False)
        checkins = [
            (int(m), float(current.coords[m, 0] + rng.normal(0, 1.0)),
             float(current.coords[m, 1] + rng.normal(0, 1.0)))
            for m in nodes
        ]
        delta = GraphDelta.make(
            edges=edges, probabilities=probs, checkins=checkins
        )
        batches.append(delta)
        current = apply_delta(current, delta).network
    return batches, current


class TestRisUpdateParity:
    @pytest.fixture(scope="class")
    def setup(self, small_net):
        from repro.geo.weights import DistanceDecay

        decay = DistanceDecay(c=1.0, alpha=0.02)
        cfg = RisDaConfig(
            k_max=5, n_pivots=8, epsilon_pivot=0.4,
            max_index_samples=6000, seed=3,
        )
        rng = np.random.default_rng(99)
        batches, final = random_deltas(small_net, rng)
        index = RisDaIndex(small_net, decay, cfg)
        stats = [index.update(delta=d) for d in batches]
        rebuilt = RisDaIndex(final, decay, cfg)
        return index, rebuilt, final, stats

    def test_generation_counts_updates(self, setup):
        index, _, _, stats = setup
        assert index.generation == 3
        assert [s.generation for s in stats] == [1, 2, 3]

    def test_network_swapped_to_final_graph(self, setup):
        index, _, final, _ = setup
        assert index.network.m == final.m
        e1, p1 = index.network.edge_array()
        e2, p2 = final.edge_array()
        assert np.array_equal(e1, e2)
        assert np.array_equal(p1, p2)
        assert np.array_equal(index.network.coords, final.coords)

    def test_corpus_restored_to_required_size(self, setup):
        index, rebuilt, _, _ = setup
        assert len(index.corpus) >= min(
            index.index_samples_required, index.config.max_index_samples
        )

    def test_estimates_within_sampling_tolerance(self, setup, small_net):
        index, rebuilt, _, _ = setup
        box = small_net.bounding_box()
        rng = np.random.default_rng(5)
        rel_errors = []
        for _ in range(5):
            q = (rng.uniform(box.xmin, box.xmax),
                 rng.uniform(box.ymin, box.ymax))
            a = index.query(q, 4)
            b = rebuilt.query(q, 4)
            denom = max(abs(b.estimate), 1e-9)
            rel_errors.append(abs(a.estimate - b.estimate) / denom)
        # Individual queries are sampling-noisy; the batch-average
        # relative gap must stay small if the pool is unbiased.
        assert float(np.mean(rel_errors)) < 0.25

    def test_seed_quality_matches_rebuild(self, setup, small_net):
        """Updated-index seeds score comparably to rebuilt-index seeds.

        Seed identity can differ (ties under sampling noise), so compare
        what matters: both seed sets scored by the same method-independent
        Monte-Carlo oracle on the final graph.
        """
        from repro.diffusion import monte_carlo_weighted_spread
        from repro.geo.weights import DistanceDecay

        index, rebuilt, final, _ = setup
        decay = DistanceDecay(c=1.0, alpha=0.02)
        box = small_net.bounding_box()
        q = ((box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2)
        a = index.query(q, 4)
        b = rebuilt.query(q, 4)
        spread_a = monte_carlo_weighted_spread(
            final, a.seeds, decay=decay, query=q, rounds=400, seed=17
        )
        spread_b = monte_carlo_weighted_spread(
            final, b.seeds, decay=decay, query=q, rounds=400, seed=17
        )
        assert spread_a.value >= 0.85 * spread_b.value

    def test_update_stats_accounting(self, setup):
        _, _, _, stats = setup
        for s in stats:
            assert s.dirty_nodes > 0
            assert 0.0 < s.dirty_fraction <= 1.0
            assert s.samples_retired >= 0
            assert s.samples_added >= s.samples_retired
            assert s.trees_rebuilt == 0
            assert s.seconds >= 0.0
            assert s.moved_nodes == 2

    def test_update_does_delta_work_only(self, small_net, monkeypatch):
        """update() regenerates the flipped slots and nothing else.

        It must not re-run any build phase (pivot estimates, Voronoi
        sizing, LB-EST curves), and its regenerated-slot count is
        exactly the flip filter's output, a small share of the corpus.
        """
        import repro.core.ris_da as ris_da_mod
        from repro.geo.weights import DistanceDecay
        from repro.obs.trace import Tracer, use_tracer

        cfg = RisDaConfig(
            k_max=5, n_pivots=8, epsilon_pivot=0.4,
            max_index_samples=6000, seed=3,
        )
        index = RisDaIndex(small_net, DistanceDecay(c=1.0, alpha=0.02), cfg)
        (delta,), _ = random_deltas(
            small_net, np.random.default_rng(77), rounds=1, upserts=6,
            moves=3,
        )
        flipped = len(index._flipped_slots(delta))
        # The library opens no span around LB-EST (perfbench's
        # ris.lower_bound layer wraps the function), so count calls.
        lb_calls = []
        for name in ("lb_est", "lb_est_lt"):
            real = getattr(ris_da_mod, name)
            monkeypatch.setattr(
                ris_da_mod, name,
                lambda *a, _real=real, **kw: lb_calls.append(1)
                or _real(*a, **kw),
            )
        tracer = Tracer()
        with use_tracer(tracer):
            stats = index.update(delta=delta)
        opened = {s["name"] for s in tracer.finished_spans}
        assert not opened & {
            "ris.build", "ris.pivot_phase", "ris.voronoi_sizing",
        }, opened
        assert lb_calls == []
        assert stats.samples_retired == flipped
        assert 0 < flipped < len(index.corpus) / 5

    def test_generation_survives_persistence(self, setup, tmp_path):
        index, _, final, _ = setup
        path = tmp_path / "updated.npz"
        save_ris_index(index, path)
        loaded = load_ris_index(path, final)
        assert loaded.generation == index.generation

    def test_update_after_persistence_matches_in_memory(
        self, small_net, tmp_path
    ):
        """Coupled determinism survives a save/load round-trip.

        The stored slot keys plus the config seed reconstruct every
        slot's randomness, so updating a reloaded index must produce
        the exact corpus the original update produces.
        """
        from repro.geo.weights import DistanceDecay

        decay = DistanceDecay(c=1.0, alpha=0.02)
        cfg = RisDaConfig(
            k_max=3, n_pivots=4, epsilon_pivot=0.5,
            max_index_samples=1500, seed=8,
        )
        delta = GraphDelta.make(edges=[(2, 40)], probabilities=[0.4])
        original = RisDaIndex(small_net, decay, cfg)
        path = tmp_path / "ris.npz"
        save_ris_index(original, path)
        loaded = load_ris_index(path, small_net)
        assert loaded.corpus.keyed
        original.update(delta=delta)
        loaded.update(delta=delta)
        fa, oa = original.corpus.flat()
        fb, ob = loaded.corpus.flat()
        assert np.array_equal(fa, fb)
        assert np.array_equal(oa, ob)
        assert np.array_equal(original.corpus.keys, loaded.corpus.keys)

    @pytest.mark.parametrize("diffusion", ["ic", "lt"])
    def test_keyless_file_rekeyed_on_first_update(
        self, small_net, tmp_path, diffusion
    ):
        """A keyless file's first update re-keys the whole corpus: slot
        ``i`` becomes key ``i`` traversed on the new graph, and every
        slot counts as retired and added."""
        from repro.geo.weights import DistanceDecay
        from repro.ris.coupled import CoupledRRSampler

        decay = DistanceDecay(c=1.0, alpha=0.02)
        cfg = RisDaConfig(
            k_max=3, n_pivots=4, epsilon_pivot=0.5,
            max_index_samples=1500, seed=8, diffusion=diffusion,
        )
        path = tmp_path / "ris.npz"
        save_ris_index(RisDaIndex(small_net, decay, cfg), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "corpus_keys"}
        np.savez_compressed(path, **arrays)
        index = load_ris_index(path, small_net)
        assert not index.corpus.keyed
        prior = len(index.corpus)
        # A removal keeps LT in-weights at most 1.
        u, v, _ = next(iter(small_net.iter_edges()))
        stats = index.update(delta=GraphDelta.make(removed=[(u, v)]))
        corpus = index.corpus
        assert corpus.keyed
        assert corpus.keys.tolist() == list(range(len(corpus)))
        assert stats.samples_retired == prior
        assert stats.samples_added == len(corpus)
        fresh = CoupledRRSampler(index.network, seed=8, diffusion=diffusion)
        roots, flat, offsets = fresh._traverse(corpus.keys)
        got_flat, got_offsets = corpus.flat()
        assert np.array_equal(corpus.roots, roots)
        assert np.array_equal(got_flat, flat)
        assert np.array_equal(got_offsets, offsets)

    def test_lt_overweight_delta_rejected_before_mutation(self, small_net):
        """An upsert pushing a node's LT in-weights past 1 is a typed
        error, raised before the index changes."""
        from repro.exceptions import GraphError
        from repro.geo.weights import DistanceDecay

        cfg = RisDaConfig(
            k_max=3, n_pivots=4, epsilon_pivot=0.5,
            max_index_samples=1500, seed=8, diffusion="lt",
        )
        index = RisDaIndex(small_net, DistanceDecay(c=1.0, alpha=0.02), cfg)
        flat_before = index.corpus.flat()[0].copy()
        u, v, _ = next(iter(small_net.iter_edges()))
        source = next(w for w in range(small_net.n) if w not in (u, v))
        with pytest.raises(GraphError, match="in-weights"):
            index.update(
                delta=GraphDelta.make(edges=[(source, v)], probabilities=[1.0])
            )
        assert index.network is small_net
        assert index.generation == 0
        assert np.array_equal(index.corpus.flat()[0], flat_before)

    def test_update_is_deterministic(self, small_net):
        from repro.geo.weights import DistanceDecay

        decay = DistanceDecay(c=1.0, alpha=0.02)
        cfg = RisDaConfig(
            k_max=3, n_pivots=4, epsilon_pivot=0.5,
            max_index_samples=1500, seed=12,
        )
        delta = GraphDelta.make(
            edges=[(0, 50), (7, 99)], probabilities=[0.2, 0.15],
            checkins=[(3, 1.0, 2.0)],
        )
        runs = []
        for _ in range(2):
            idx = RisDaIndex(small_net, decay, cfg)
            idx.update(delta=delta)
            flat, offsets = idx.corpus.flat()
            runs.append((flat.copy(), offsets.copy(), idx.corpus.roots.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert np.array_equal(runs[0][2], runs[1][2])


def mixed_delta(net, rng, lt: bool = False) -> GraphDelta:
    """Upserts (new edges and re-weighted existing ones), removals of
    existing edges and moved check-ins, all against ``net``.

    With ``lt`` every upsert is capped at its head's free in-weight, so
    per-node in-weights stay at most 1 (removals are applied first).
    """
    edges, probs = net.edge_array()
    picked = rng.choice(len(edges), size=4, replace=False)
    removed = [tuple(int(z) for z in edges[i]) for i in picked[:2]]
    upserts = [tuple(int(z) for z in edges[i]) for i in picked[2:]]
    seen = {tuple(e) for e in edges.tolist()}
    while len(upserts) < 6:
        u, v = (int(z) for z in rng.integers(0, net.n, size=2))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            upserts.append((u, v))
    p_new = rng.uniform(0.02, 0.6, size=len(upserts))
    p_new[rng.random(len(upserts)) < 0.2] = 1.0
    if lt:
        weight = {tuple(e): float(p) for e, p in zip(edges.tolist(), probs)}
        for e in removed:
            weight.pop(e)
        free = np.ones(net.n)
        for (_, v), p in weight.items():
            free[v] -= p
        for i, (u, v) in enumerate(upserts):
            old = weight.pop((u, v), 0.0)
            p_new[i] = max(0.0, min(p_new[i], free[v] + old))
            free[v] += old - p_new[i]
    moved = rng.choice(net.n, size=3, replace=False)
    checkins = [
        (int(m), float(net.coords[m, 0] + rng.normal(0, 2.0)),
         float(net.coords[m, 1] + rng.normal(0, 2.0)))
        for m in moved
    ]
    return GraphDelta.make(
        edges=upserts, probabilities=p_new, removed=removed,
        checkins=checkins,
    )


class TestKeyedCorpusOracle:
    """A streamed keyed corpus is exactly a fresh traversal of its keys.

    ``update()`` regenerates only the slots whose replay may change and
    leaves every other slot as it was; coupling says that is the same
    corpus a fresh traversal of the stored keys over the final graph
    yields — bit for bit, not just within sampling tolerance.
    :class:`TestKeyedCorpusOracleLt` reruns it under LT.
    """

    diffusion = "ic"

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fresh_traversal(self, seed):
        from repro.geo.weights import DistanceDecay
        from repro.network.datasets import load_dataset
        from repro.ris.coupled import CoupledRRSampler

        net = load_dataset("brightkite", scale=0.1)
        cfg = RisDaConfig(
            k_max=5, n_pivots=4, epsilon_pivot=0.4,
            max_index_samples=4000, seed=seed, diffusion=self.diffusion,
        )
        index = RisDaIndex(net, DistanceDecay(c=1.0, alpha=0.02), cfg)
        assert index.corpus.keyed
        rng = np.random.default_rng(1000 + seed)
        regenerated = 0
        for _ in range(4):
            delta = mixed_delta(index.network, rng, lt=self.diffusion == "lt")
            stats = index.update(delta=delta)
            regenerated += stats.samples_retired
            corpus = index.corpus
            fresh = CoupledRRSampler(
                index.network, seed=seed, diffusion=self.diffusion
            )
            roots, flat, offsets = fresh._traverse(corpus.keys)
            got_flat, got_offsets = corpus.flat()
            assert np.array_equal(corpus.roots, roots)
            assert np.array_equal(got_flat, flat)
            assert np.array_equal(got_offsets, offsets)
        assert regenerated > 0


class TestKeyedCorpusOracleLt(TestKeyedCorpusOracle):
    diffusion = "lt"


class TestMiaUpdateParity:
    @pytest.fixture(scope="class")
    def setup(self, small_net):
        from repro.geo.weights import DistanceDecay

        decay = DistanceDecay(c=1.0, alpha=0.02)
        cfg = MiaDaConfig(theta=0.05, n_anchors=24, tau=50, seed=3)
        rng = np.random.default_rng(42)
        batches, final = random_deltas(small_net, rng)
        index = MiaDaIndex(small_net, decay, cfg)
        stats = [index.update(delta=d) for d in batches]
        rebuilt = MiaDaIndex(final, decay, cfg)
        return index, rebuilt, final, stats

    def test_bit_identical_queries(self, setup, small_net):
        index, rebuilt, _, _ = setup
        box = small_net.bounding_box()
        rng = np.random.default_rng(8)
        for _ in range(5):
            q = (rng.uniform(box.xmin, box.xmax),
                 rng.uniform(box.ymin, box.ymax))
            a = index.query(q, 4)
            b = rebuilt.query(q, 4)
            assert list(a.seeds) == list(b.seeds)
            assert a.estimate == b.estimate

    def test_forest_and_every_kind_match_rebuild(self, setup, small_net):
        """The updated model's flat forest equals the rebuild's, and so do
        point, masked and budgeted answers with their search counters."""
        from repro.mia.forest import FlatForest

        index, rebuilt, final, _ = setup
        for name in FlatForest.__dataclass_fields__:
            assert np.array_equal(
                getattr(index.model.forest, name),
                getattr(rebuilt.model.forest, name),
            ), name
        box = final.bounding_box()
        rng = np.random.default_rng(9)
        for _ in range(4):
            q = (rng.uniform(box.xmin, box.xmax),
                 rng.uniform(box.ymin, box.ymax))
            mask = rng.random(final.n)
            costs = rng.uniform(0.5, 2.0, final.n)
            for run in (
                lambda ix: ix.query(q, 5, return_diagnostics=True),
                lambda ix: ix.query_masked(q, 4, mask, return_diagnostics=True),
                lambda ix: ix.query_budgeted(q, 4.0, costs,
                                             return_diagnostics=True),
            ):
                (a, da), (b, db) = run(index), run(rebuilt)
                assert (a.seeds, a.estimate, a.evaluations, da.heap_pops) == (
                    b.seeds, b.estimate, b.evaluations, db.heap_pops
                )

    def test_flat_trees_match_rebuild(self, setup):
        """The spliced forest arrays are the rebuild's, dtype included."""
        index, rebuilt, _, _ = setup
        got, want = index.model.flat_trees(), rebuilt.model.flat_trees()
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_bit_identical_node_bounds(self, setup, small_net):
        index, rebuilt, _, _ = setup
        box = small_net.bounding_box()
        q = ((box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2)
        lo_a, up_a = index.node_bounds(q)
        lo_b, up_b = rebuilt.node_bounds(q)
        assert np.array_equal(lo_a, lo_b)
        assert np.array_equal(up_a, up_b)

    def test_trees_rebuilt_counted(self, setup):
        _, _, _, stats = setup
        assert all(s.trees_rebuilt > 0 for s in stats)
        assert all(s.samples_retired == 0 for s in stats)

    def test_generation_counts_updates(self, setup):
        index, _, _, stats = setup
        assert index.generation == 3
        assert [s.generation for s in stats] == [1, 2, 3]
