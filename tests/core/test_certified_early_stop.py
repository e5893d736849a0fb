"""The certified early stop of RIS-DA's online body.

Top-``k`` plans on an index of at least ``2 * CERTIFY_SAMPLES`` samples
run the greedy on slots ``[0, l)``, validate the seeds on the disjoint
slots ``[N/2, N/2 + l)`` and answer once the Chernoff ratio reaches
``1 - 1/e - epsilon``; otherwise they fall back to Lemma 7 with half of
``delta - delta_pivot``.  Budgeted plans and smaller indexes never enter
the schedule.
"""

import math

import numpy as np
import pytest

import repro.core.ris_da as ris_da
from repro.core.persistence import load_ris_index, save_ris_index
from repro.core.ris_da import (
    CERTIFY_SAMPLES,
    RisDaConfig,
    RisDaIndex,
    _Plan,
    certify_rounds,
)
from repro.core.multi_location import multi_location_weights
from repro.geo.kdtree import KDTree
from repro.geo.weights import DistanceDecay
from repro.ris.certify import mean_lower_bound, mean_upper_bound
from repro.ris.coverage import weighted_greedy_cover
from repro.ris.reference import reference_covered_sample_mask
from repro.ris.sample_size import GREEDY_FACTOR, required_sample_size
from repro.serve.engine import QueryEngine
from repro.serve.pool import ServePool
from repro.stream.delta import GraphDelta, apply_delta

DECAY = DistanceDecay(alpha=0.02)
LOCATIONS = [(42.0, 58.0), (10.0, 10.0), (50.0, 50.0), (90.0, 30.0)]


def _config(**kwargs):
    kwargs = {
        "k_max": 5, "n_pivots": 6, "epsilon_pivot": 0.4,
        "max_index_samples": 12_000, "seed": 3, **kwargs,
    }
    return RisDaConfig(**kwargs)


@pytest.fixture(scope="module")
def index(small_net):
    built = RisDaIndex(small_net, DECAY, _config())
    assert certify_rounds(len(built.corpus)) == (CERTIFY_SAMPLES,)
    return built


@pytest.fixture(scope="module")
def uncertifiable(small_net):
    """``epsilon = 0.05``: no round reaches ``1 - 1/e - 0.05``, whose
    Chernoff ratio the greedy's own ``1 - 1/e`` caps from above."""
    built = RisDaIndex(small_net, DECAY, _config(
        epsilon=0.05, max_index_samples=20_000,
    ))
    assert certify_rounds(len(built.corpus)) == (
        CERTIFY_SAMPLES, 2 * CERTIFY_SAMPLES,
    )
    return built


def _same(answers):
    """Answers without their wall clocks (diagnostics already skip them)."""
    return [(r.seeds, r.estimate, r.samples_used, d) for r, d in answers]


def _round_by_hand(index, w_node, w_cap, k, l):
    """``(cover, spread LCB, ratio)`` of round ``l``, per sample."""
    corpus, n = index.corpus, index.network.n
    roots, half = corpus.roots, len(corpus) // 2
    cover = weighted_greedy_cover(
        corpus, w_node[roots[:l]], k, prefix=l, compute_bound=False,
    )
    seeds = set(cover.seeds)
    covered = sum(
        float(w_node[roots[i]]) for i in range(half, half + l)
        if seeds & set(corpus.members(i).tolist())
    )
    dp, d = index.config.resolved_deltas(n)
    a = math.log(4 * len(certify_rounds(len(corpus))) / (d - dp))
    lcb = mean_lower_bound(covered / w_cap, l, a)
    ucb = mean_upper_bound(
        float(cover.gains.sum()) / GREEDY_FACTOR / w_cap, l, a
    )
    return cover, n * w_cap * lcb, lcb / ucb


class TestRounds:
    def test_doubling_while_the_prefix_fits_half_the_corpus(self):
        l0 = CERTIFY_SAMPLES
        assert certify_rounds(0) == ()
        assert certify_rounds(2 * l0 - 1) == ()
        assert certify_rounds(2 * l0) == (l0,)
        assert certify_rounds(4 * l0 - 1) == (l0,)
        assert certify_rounds(4 * l0) == (l0, 2 * l0)
        assert certify_rounds(9 * l0) == (l0, 2 * l0, 4 * l0)


class TestCertifiedAnswer:
    Q = LOCATIONS[0]

    def test_point_is_the_first_round_recomputed_by_hand(
        self, index, small_net
    ):
        res, diag = index.query(self.Q, 4, return_diagnostics=True)
        w = DECAY.weights(small_net.coords, self.Q)
        cover, lcb, ratio = _round_by_hand(
            index, w, DECAY.w_max, 4, CERTIFY_SAMPLES
        )
        assert res.seeds == cover.seeds
        assert res.estimate == cover.estimate
        assert diag.certified_ratio == pytest.approx(ratio, rel=1e-9)
        assert diag.certified_ratio >= GREEDY_FACTOR - index.config.epsilon
        assert diag.lower_bound == pytest.approx(lcb, rel=1e-9)
        assert diag.samples_used == diag.samples_required == CERTIFY_SAMPLES
        assert res.samples_used == CERTIFY_SAMPLES
        assert diag.pivot_index is None and diag.pivot_distance is None
        assert diag.guarantee_met

    def test_skips_lb_est_and_the_pivot_lookup(self, index, monkeypatch):
        expected = index.query(self.Q, 3)

        def boom(*args, **kwargs):
            raise AssertionError("sizing ran on the certified path")

        monkeypatch.setattr(ris_da, "lb_est", boom)
        monkeypatch.setattr(ris_da, "lemma8_lower_bound", boom)
        monkeypatch.setattr(KDTree, "nearest", boom)
        res, diag = index.query(self.Q, 3, return_diagnostics=True)
        assert diag.certified_ratio is not None
        assert res.seeds == expected.seeds

    def test_timings_book_validation_as_bound(self, index):
        _, diag = index.query(self.Q, 4, return_diagnostics=True)
        stages = diag.timings.as_dict()
        assert stages["sizing"] == 0.0
        assert stages["bound"] > 0.0
        assert stages["total"] >= sum(
            v for name, v in stages.items() if name != "total"
        )

    def test_masked_multi_location_and_trajectory_certify(
        self, index, small_net
    ):
        mask = np.zeros(small_net.n)
        mask[::2] = 1.5
        res, diag = index.query_masked(
            self.Q, 3, mask, return_diagnostics=True
        )
        w = DECAY.weights(small_net.coords, self.Q) * mask
        cover, _, ratio = _round_by_hand(
            index, w, DECAY.w_max * 1.5, 3, CERTIFY_SAMPLES
        )
        assert res.seeds == cover.seeds
        assert diag.certified_ratio == pytest.approx(ratio, rel=1e-9)

        locs = (LOCATIONS[1], LOCATIONS[3])
        [(res, diag)] = index._answer(
            [_Plan(locs, 3)], return_diagnostics=True
        )
        w = multi_location_weights(DECAY, small_net.coords, locs)
        cover, _, ratio = _round_by_hand(
            index, w, DECAY.w_max, 3, CERTIFY_SAMPLES
        )
        assert res.seeds == cover.seeds
        assert diag.certified_ratio == pytest.approx(ratio, rel=1e-9)

        answers = index.query_trajectory(LOCATIONS, 3, return_diagnostics=True)
        assert _same(answers) == _same(
            index.query(q, 3, return_diagnostics=True) for q in LOCATIONS
        )
        assert all(d.certified_ratio is not None for _, d in answers)

    def test_all_zero_mask_answers_uncertified_from_whole_corpus(
        self, index, small_net
    ):
        res, diag = index.query_masked(
            self.Q, 3, np.zeros(small_net.n), return_diagnostics=True
        )
        assert diag.certified_ratio is None
        assert diag.samples_used == len(index.corpus) == res.samples_used
        assert not diag.guarantee_met


class TestFallback:
    """No round certifies: Lemma 7 sizes with half of delta - delta_pivot."""

    Q = LOCATIONS[0]

    def test_sized_by_lemma7_on_half_the_budget(self, uncertifiable, small_net):
        index = uncertifiable
        cfg, n = index.config, small_net.n
        dp, d = cfg.resolved_deltas(n)
        for q in LOCATIONS:
            res, diag = index.query(q, 4, return_diagnostics=True)
            assert diag.certified_ratio is None
            w = DECAY.weights(small_net.coords, q)
            lb, pi, dist = index._lower_bound(_Plan((q,), 4), w, dp)
            assert (diag.lower_bound, diag.pivot_index,
                    diag.pivot_distance) == (lb, pi, dist)
            assert diag.samples_required == required_sample_size(
                n, 4, DECAY.w_max, cfg.epsilon, (d - dp) / 2, lb
            )
            assert diag.guarantee_met == (
                diag.samples_used >= diag.samples_required
            )
            ref = weighted_greedy_cover(
                index.corpus, w[index.corpus.roots[:diag.samples_used]], 4,
                prefix=diag.samples_used, compute_bound=False,
            )
            assert (res.seeds, res.estimate) == (ref.seeds, ref.estimate)

    def test_timings_cover_the_rounds_and_the_sizing(self, uncertifiable):
        _, diag = uncertifiable.query(self.Q, 4, return_diagnostics=True)
        stages = diag.timings.as_dict()
        assert stages["sizing"] > 0.0 and stages["bound"] > 0.0
        assert stages["total"] >= sum(
            v for name, v in stages.items() if name != "total"
        )


class TestUntouchedPlans:
    Q = LOCATIONS[0]

    def test_budgeted_keeps_the_full_delta(self, index, small_net):
        cfg, n = index.config, small_net.n
        dp, d = cfg.resolved_deltas(n)
        _, diag = index.query_budgeted(
            self.Q, 2.0, np.full(n, 0.5), return_diagnostics=True
        )
        assert diag.certified_ratio is None
        assert diag.samples_required == required_sample_size(
            n, 4, DECAY.w_max, cfg.epsilon, d - dp, diag.lower_bound
        )

    def test_small_index_answers_as_the_lemma7_path(
        self, small_net, monkeypatch
    ):
        small = RisDaIndex(small_net, DECAY, _config(max_index_samples=6_000))
        assert certify_rounds(len(small.corpus)) == ()
        before = [small.query(q, 4, return_diagnostics=True)
                  for q in LOCATIONS]
        monkeypatch.setattr(ris_da, "CERTIFY_SAMPLES", 1 << 40)
        after = [small.query(q, 4, return_diagnostics=True)
                 for q in LOCATIONS]
        assert _same(before) == _same(after)
        assert all(d.certified_ratio is None for _, d in before)

    def test_patching_the_first_round_between_queries_takes_effect(
        self, index, monkeypatch
    ):
        """The schedule is memoised per index, keyed by the module
        constant: a patch after the build (``lemma7_sizing``) and its
        undo both reach the next query."""
        first = index.query(self.Q, 4, return_diagnostics=True)
        certified = first[1]
        assert certified.samples_used == CERTIFY_SAMPLES
        assert certified.certified_ratio is not None
        monkeypatch.setattr(ris_da, "CERTIFY_SAMPLES", 1 << 40)
        _, lemma7 = index.query(self.Q, 4, return_diagnostics=True)
        assert lemma7.certified_ratio is None
        assert lemma7.pivot_index is not None
        # With no schedule, Lemma 7 sizes on the full delta - delta_pivot.
        cfg, n = index.config, index.network.n
        dp, d = cfg.resolved_deltas(n)
        assert lemma7.samples_required == required_sample_size(
            n, 4, DECAY.w_max, cfg.epsilon, d - dp, lemma7.lower_bound
        )
        monkeypatch.undo()
        again = index.query(self.Q, 4, return_diagnostics=True)
        assert _same([again]) == _same([first])


def _answers(index, k=4):
    return [index.query(q, k, return_diagnostics=True) for q in LOCATIONS]


class TestDeterminism:
    """One seed, one certified seed set: across persistence, pool worker
    counts and backings, and update vs rebuild."""

    @pytest.fixture(scope="class")
    def path(self, index, tmp_path_factory):
        path = tmp_path_factory.mktemp("certified") / "ris.npz"
        save_ris_index(index, path)
        return path

    def test_save_load(self, index, path, small_net):
        loaded = load_ris_index(path, small_net)
        answers = _answers(loaded)
        assert _same(answers) == _same(_answers(index))
        assert all(d.certified_ratio is not None for _, d in answers)

    @pytest.mark.parametrize(
        "workers,backing", [(1, "shm"), (2, "shm"), (2, "mmap")]
    )
    def test_pool_matches_in_process(
        self, index, path, small_net, workers, backing
    ):
        direct = _answers(index)
        with ServePool(
            path, small_net, n_workers=workers, backing=backing
        ) as pool:
            served = pool.serve_batch(LOCATIONS, k=4)
        engine = QueryEngine.from_path(path, small_net)
        for s, e, (res, diag) in zip(
            served, engine.serve_batch(LOCATIONS, k=4), direct
        ):
            assert s.result.seeds == e.result.seeds == res.seeds
            assert s.result.estimate == e.result.estimate == res.estimate
            assert (s.certified_ratio == e.certified_ratio
                    == diag.certified_ratio)
            assert s.certified_ratio is not None

    def test_update_matches_rebuild(self, small_net):
        rng = np.random.default_rng(8)
        edges, probs = small_net.edge_array()
        pick = rng.choice(len(edges), size=6, replace=False)
        delta = GraphDelta.make(
            edges=edges[pick], probabilities=probs[pick] * 0.5,
            checkins=[(3, 20.0, 20.0)],
        )
        updated = RisDaIndex(small_net, DECAY, _config())
        updated.update(delta=delta)
        final = apply_delta(small_net, delta).network
        rebuilt = RisDaIndex(final, DECAY, _config())
        assert len(updated.corpus) == len(rebuilt.corpus)
        answers = _answers(updated)
        assert _same(answers) == _same(_answers(rebuilt))
        assert all(d.certified_ratio is not None for _, d in answers)


def _certified(answers):
    """``(seeds, estimate, certified_ratio, lower_bound)`` per answer."""
    return [
        (r.seeds, r.estimate, d.certified_ratio, d.lower_bound)
        for r, d in answers
    ]


def _all_plans(index, n):
    """Answers of point, masked, multi-location and trajectory plans."""
    mask = np.zeros(n)
    mask[::3] = 1.0
    return [
        *(index.query(q, 4, return_diagnostics=True) for q in LOCATIONS),
        *(index.query_masked(q, 3, mask, return_diagnostics=True)
          for q in LOCATIONS[:2]),
        *index._answer(
            [_Plan((LOCATIONS[1], LOCATIONS[3]), 3)], return_diagnostics=True
        ),
        *index.query_trajectory(LOCATIONS, 2, return_diagnostics=True),
    ]


class TestValidationMatchesReduceatOracle:
    """Certified answers are bit-identical to validating with the slot
    mask reduced over every member entry of ``[N/2, N/2 + l)``."""

    @staticmethod
    def _oracle(monkeypatch, answer):
        with monkeypatch.context() as patched:
            patched.setattr(
                ris_da, "covered_sample_mask", reference_covered_sample_mask
            )
            return answer()

    def test_point_masked_multi_location_and_trajectory(
        self, index, small_net, monkeypatch
    ):
        got = _certified(_all_plans(index, small_net.n))
        want = _certified(self._oracle(
            monkeypatch, lambda: _all_plans(index, small_net.n)
        ))
        assert got == want
        assert all(ratio is not None for _, _, ratio, _ in got)

    def test_after_a_20_edge_update(self, small_net, monkeypatch):
        rng = np.random.default_rng(21)
        edges, probs = small_net.edge_array()
        pick = rng.choice(len(edges), size=20, replace=False)
        updated = RisDaIndex(small_net, DECAY, _config())
        updated.update(
            edges=edges[pick], probabilities=probs[pick] * 0.5
        )
        n = updated.network.n
        got = _certified(_all_plans(updated, n))
        want = _certified(self._oracle(
            monkeypatch, lambda: _all_plans(updated, n)
        ))
        assert got == want
        assert any(ratio is not None for _, _, ratio, _ in got)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backing", ["shm", "mmap"])
    def test_pool_workers_build_their_own_cuts(
        self, index, small_net, tmp_path, monkeypatch, workers, backing
    ):
        path = tmp_path / "ris.npz"
        save_ris_index(index, path)
        want = self._oracle(monkeypatch, lambda: _answers(index))
        with ServePool(
            path, small_net, n_workers=workers, backing=backing
        ) as pool:
            served = pool.serve_batch(LOCATIONS, k=4)
        got = [
            (s.result.seeds, s.result.estimate, s.certified_ratio)
            for s in served
        ]
        assert got == [
            (r.seeds, r.estimate, d.certified_ratio) for r, d in want
        ]
        assert all(ratio is not None for _, _, ratio in got)
