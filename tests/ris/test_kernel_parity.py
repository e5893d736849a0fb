"""Parity between the vectorized selection kernels and the pre-PR oracle.

The flat-array rewrite of :mod:`repro.ris.coverage` (bincount score
build, batched coverage decrement, opt-in bound) must select
exactly the seeds the historical kernel selected.  The historical kernel
lives on in :mod:`repro.ris.reference`; these tests pin

* **seed parity** (exact) and **gain parity** (tight tolerance: the
  batched decrement pre-sums weights where the old loop subtracted one
  at a time, so residuals differ by ~1 ulp per covered sample — the
  documented float-summation caveat);
* **estimate / bound parity** between old and new, for both the RIS-DA
  query shape (real RR corpus, distance-decay weights) and the
  pivot-phase shape (uniform-ish weights, nested-k curve);
* the **bound contract**: ``compute_bound=False`` leaves the trivial
  ``inf`` bound without changing the selection, and certification still
  receives a finite one;
* the **batched-decrement property**: on random corpora, every recorded
  gain equals the marginal covered weight recomputed independently via
  :func:`estimate_spread` — a covered sample can never keep contributing
  to a later score.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.ris.certify import certify_seed_set
from repro.ris.corpus import RRCorpus
from repro.ris.coverage import (
    covered_sample_mask,
    estimate_spread,
    weighted_greedy_cover,
)
from repro.ris.reference import (
    reference_estimate_spread,
    reference_greedy_cover,
)
from repro.ris.coupled import CoupledRRSampler

QUERIES = [(1.0, 0.5), (2.5, -0.5), (0.0, 0.0)]


@pytest.fixture(scope="module")
def corpus(small_net) -> RRCorpus:
    c = RRCorpus(CoupledRRSampler(small_net, seed=11))
    c.ensure(6000)
    return c


class TestQueryPathParity:
    """RIS-DA query shape: decay weights over the prefix roots."""

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_reference_parity(self, corpus, small_net, k):
        """Both serving (no bound) and certification (bound) selections
        pick the reference's seeds with its gains."""
        decay = DistanceDecay(alpha=0.05)
        for q in QUERIES:
            w = decay.weights(small_net.coords[corpus.roots], q)
            ref = reference_greedy_cover(corpus, w, k)
            bounded = weighted_greedy_cover(corpus, w, k, compute_bound=True)
            serving = weighted_greedy_cover(corpus, w, k, compute_bound=False)
            for new in (bounded, serving):
                assert new.seeds == ref.seeds
                np.testing.assert_allclose(new.gains, ref.gains, rtol=1e-9)
                assert new.estimate == pytest.approx(ref.estimate, rel=1e-9)
            assert bounded.optimal_coverage_upper == pytest.approx(
                ref.optimal_coverage_upper, rel=1e-9
            )

    @pytest.mark.parametrize("prefix", [50, 200])
    def test_tie_break_parity(self, corpus, small_net, prefix):
        """alpha = 0 (classical influence): every weight is 1, scores are
        exact integer counts, and nodes of equal coverage tie exactly —
        both kernels must break each tie toward the lowest node id."""
        w = DistanceDecay(alpha=0.0).weights(
            small_net.coords[corpus.roots], (0.0, 0.0)
        )
        ref = reference_greedy_cover(corpus, w, 12, prefix=prefix)
        for compute_bound in (True, False):
            new = weighted_greedy_cover(
                corpus, w, 12, prefix=prefix, compute_bound=compute_bound
            )
            assert new.seeds == ref.seeds
            assert np.array_equal(new.gains, ref.gains)

    @pytest.mark.parametrize("prefix", [50, 500, 4000])
    def test_prefix_parity(self, corpus, small_net, prefix):
        decay = DistanceDecay(alpha=0.02)
        w = decay.weights(small_net.coords[corpus.roots], (1.5, 0.0))
        ref = reference_greedy_cover(corpus, w, 6, prefix=prefix)
        new = weighted_greedy_cover(
            corpus, w, 6, prefix=prefix, compute_bound=True
        )
        assert new.seeds == ref.seeds
        np.testing.assert_allclose(new.gains, ref.gains, rtol=1e-9)
        assert new.samples_used == ref.samples_used == prefix

    def test_estimate_spread_parity(self, corpus, small_net):
        decay = DistanceDecay(alpha=0.05)
        w = decay.weights(small_net.coords[corpus.roots], (1.0, 1.0))
        seeds = weighted_greedy_cover(corpus, w, 5, compute_bound=False).seeds
        for prefix in (100, 2500, None):
            assert estimate_spread(
                corpus, seeds, w, prefix=prefix
            ) == pytest.approx(
                reference_estimate_spread(corpus, seeds, w, prefix=prefix),
                rel=1e-12,
            )


class TestBoundContract:
    def test_bound_modes(self, corpus, small_net):
        decay = DistanceDecay(alpha=0.05)
        w = decay.weights(small_net.coords[corpus.roots], (2.0, 0.0))
        full = weighted_greedy_cover(corpus, w, 6, compute_bound=True)
        off = weighted_greedy_cover(corpus, w, 6, compute_bound=False)
        # Off: trivial bound only; selection and gains identical.
        assert off.optimal_coverage_upper == float("inf")
        assert off.seeds == full.seeds
        assert np.array_equal(off.gains, full.gains)
        # The tracked bound dominates the greedy's own coverage.
        assert full.optimal_coverage_upper >= float(full.gains.sum()) - 1e-9

    def test_bad_bound_and_method_rejected(self, corpus):
        from repro.exceptions import QueryError

        for mode in ("sometimes", "final"):
            with pytest.raises(QueryError):
                weighted_greedy_cover(
                    corpus, np.ones(len(corpus)), 2, compute_bound=mode
                )
        # One selector: there is no method knob left to pick a kernel.
        with pytest.raises(TypeError):
            weighted_greedy_cover(
                corpus, np.ones(len(corpus)), 2, method="lazy"
            )

    def test_certification_still_gets_finite_bound(self, small_net):
        """certify.py opts back into the bound the serving path skips."""
        cert = certify_seed_set(
            small_net, (50.0, 50.0), [0, 3], n_samples=800, seed=5
        )
        assert 0.0 < cert.ratio <= 1.0
        assert np.isfinite(cert.opt_ucb)


class TestPivotPhaseParity:
    """Whole-index parity: the pivot phase uses the same kernels."""

    @pytest.fixture(scope="class")
    def ris_index(self, small_net):
        cfg = RisDaConfig(
            k_max=6, n_pivots=4, epsilon_pivot=0.45,
            max_index_samples=4000, seed=7,
        )
        return RisDaIndex(small_net, DistanceDecay(alpha=0.03), cfg)

    def test_query_matches_reference_kernel(self, ris_index):
        """index.query == the pre-PR kernel over the same prefix."""
        for q in [(25.0, 25.0), (70.0, 40.0)]:
            result, diag = ris_index.query(q, 4, return_diagnostics=True)
            w = ris_index.decay.weights(
                ris_index.network.coords[
                    ris_index.corpus.roots[: diag.samples_used]
                ],
                q,
            )
            ref = reference_greedy_cover(
                ris_index.corpus, w, 4, prefix=diag.samples_used
            )
            assert result.seeds == ref.seeds
            assert result.estimate == pytest.approx(ref.estimate, rel=1e-9)

    def test_pivot_curve_matches_reference_cover(self, ris_index):
        """The pivot phase's cover (the ``k_max`` greedy at a pivot, with
        no certification bound) matches the reference kernel's seeds and
        gains, and its nested-k curve is non-decreasing in k.  The cover
        runs over the final pool: this index's cap cuts every pivot, so
        the build keeps no curve of its own (see
        ``tests/core/test_ris_da.py`` for the rows it keeps)."""
        net = ris_index.network
        pi = 0
        assert not ris_index.lemma8_ok[pi]
        assert np.isnan(ris_index.pivot_estimates[pi]).all()
        p = ris_index.pivots[pi]
        weights = ris_index.decay.weights(
            net.coords, (float(p[0]), float(p[1]))
        )
        ref = reference_greedy_cover(
            ris_index.corpus, weights[ris_index.corpus.roots],
            ris_index.k_max,
        )
        new = weighted_greedy_cover(
            ris_index.corpus, weights[ris_index.corpus.roots],
            ris_index.k_max, compute_bound=False,
        )
        curve = [new.estimate_for_prefix(k, net.n)
                 for k in range(1, ris_index.k_max + 1)]
        assert np.all(np.diff(curve) >= -1e-9)
        assert new.seeds == ref.seeds
        np.testing.assert_allclose(new.gains, ref.gains, rtol=1e-9)


def _random_corpus(rng: np.random.Generator, n_nodes: int, n_samples: int):
    """Synthetic corpus of random member sets (each containing its root)."""
    coords = rng.uniform(0.0, 10.0, size=(n_nodes, 2))
    network = GeoSocialNetwork.from_edges([(0, 1)], coords, [0.5])
    sampler = CoupledRRSampler(network, seed=0)
    roots = rng.integers(0, n_nodes, size=n_samples)
    members = []
    offsets = [0]
    for r in roots:
        extra = rng.integers(0, n_nodes, size=int(rng.integers(0, 5)))
        member_set = np.unique(np.append(extra, r)).astype(np.int64)
        members.append(member_set)
        offsets.append(offsets[-1] + len(member_set))
    flat = np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    return RRCorpus.from_arrays(
        sampler, roots.astype(np.int64), flat,
        np.asarray(offsets, dtype=np.int64),
    )


class TestBatchedDecrementProperty:
    """A covered sample must never contribute to any later score."""

    @pytest.mark.parametrize("seed", range(40))
    def test_gains_equal_independent_marginals(self, seed):
        """gain[i] == marginal covered weight of seed i, recomputed
        independently from the seed prefix — double-subtraction or a
        missed decrement would break this on overlapping corpora."""
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(3, 14))
        n_samples = int(rng.integers(2, 40))
        k = int(rng.integers(1, n_nodes + 1))
        corpus = _random_corpus(rng, n_nodes, n_samples)
        weights = rng.uniform(0.0, 5.0, size=n_samples)
        cover = weighted_greedy_cover(corpus, weights, k, compute_bound=False)
        prev = 0.0
        for i in range(len(cover.seeds)):
            mask = covered_sample_mask(corpus, cover.seeds[: i + 1])
            covered_w = float(weights[mask].sum())
            assert cover.gains[i] == pytest.approx(
                covered_w - prev, abs=1e-9
            ), f"gain {i} inconsistent (rng seed {seed})"
            prev = covered_w
        # And the reference kernel agrees end to end, within the two
        # documented float-summation caveats (see coverage.py):
        # 1. exhaustion boundary — the old kernel stops only at
        #    gain <= 0, so ~1-ulp residual drift can hand it extra seeds
        #    with noise-level gains that the drift-tolerant stop rejects;
        # 2. exact ties — when two nodes cover mathematically equal
        #    residual weight, ~1-ulp drift decides which argmax sees
        #    first; either choice is the same greedy solution.
        # The gain *sequence* is caveat-free: it must match everywhere.
        ref = reference_greedy_cover(corpus, weights, k)
        shared = len(cover.seeds)
        assert shared <= len(ref.seeds)
        np.testing.assert_allclose(
            cover.gains[:shared], ref.gains[:shared], rtol=1e-9, atol=1e-12
        )
        for i in range(shared):
            if cover.seeds[i] != ref.seeds[i]:
                assert cover.gains[i] == pytest.approx(
                    ref.gains[i], rel=1e-9, abs=1e-12
                ), f"non-tie seed divergence at {i} (rng seed {seed})"
        drift_tail = float(np.abs(ref.gains[shared:]).sum())
        assert drift_tail <= 1e-9 * max(float(ref.gains.sum()), 1.0)
        assert cover.estimate == pytest.approx(
            estimate_spread(corpus, cover.seeds, weights), abs=1e-9
        )

    def test_overlapping_samples_not_double_subtracted(self):
        """Hand-built overlap: node 9 sits in every sample; picking it
        covers everything, so every other score must drop to ~0."""
        rng = np.random.default_rng(0)
        coords = rng.uniform(0.0, 10.0, size=(10, 2))
        network = GeoSocialNetwork.from_edges([(0, 1)], coords, [0.5])
        sampler = CoupledRRSampler(network, seed=0)
        members = [
            np.array(m, dtype=np.int64)
            for m in ([1, 9], [1, 2, 9], [2, 3, 9], [3, 9], [9],)
        ]
        roots = np.array([1, 2, 3, 3, 9], dtype=np.int64)
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        np.cumsum([len(m) for m in members], out=offsets[1:])
        corpus = RRCorpus.from_arrays(
            sampler, roots, np.concatenate(members), offsets
        )
        weights = np.array([0.3, 0.7, 1.1, 0.2, 0.5])
        cover = weighted_greedy_cover(corpus, weights, 3, compute_bound=False)
        assert cover.seeds == [9]
        assert cover.gains[0] == pytest.approx(weights.sum())
        assert np.all(cover.gains[1:] == 0.0)


class TestTimings:
    def test_selection_timings_populated(self, corpus):
        res = weighted_greedy_cover(
            corpus, np.ones(len(corpus)), 3, compute_bound=True
        )
        t = res.timings
        assert t is not None
        d = t.as_dict()
        assert set(d) == {"score_build", "selection", "bound", "total"}
        assert all(v >= 0.0 for v in d.values())
        assert t.total >= t.score_build + t.selection + t.bound - 1e-6
        # No bound requested -> no bound time booked.
        off = weighted_greedy_cover(
            corpus, np.ones(len(corpus)), 3, compute_bound=False
        )
        assert off.timings.bound == 0.0
