"""Interpreted kernel bodies vs the vectorized numpy kernels.

:mod:`repro.kernels.loops` is written in the numba nopython subset but
never imports numba, so interpreting a function there executes the exact
code the JIT compiles.  These tests pin the parity contracts *without*
numba installed — the only way to test the kernel logic on hosts where
the optional extra is absent, and a second line of defence on hosts
where it is present (the registry's warm-up re-checks the same
contracts against the compiled dispatchers):

* :func:`~repro.kernels.loops.score_build` is bit-identical to the
  ``np.bincount`` score build (same entry-order accumulation);
* the selection loops reproduce
  :func:`repro.ris.coverage.weighted_greedy_cover` seed-for-seed with
  bit-identical gains (same batched-decrement float semantics, same
  argmax tie-breaks), including masked (targeted) weights;
* the budgeted loops reproduce
  :func:`repro.ris.coverage.weighted_budgeted_cover` including the
  cost accounting;
* :func:`~repro.kernels.loops.coupled_batch` replays
  :class:`repro.ris.coupled.CoupledRRSampler`'s coin domain exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.weights import DistanceDecay
from repro.kernels.registry import _Interpreted
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler
from repro.ris.coverage import (
    _DRIFT_RTOL,
    weighted_budgeted_cover,
    weighted_greedy_cover,
)

QUERIES = [(1.0, 0.5), (40.0, 60.0), (0.0, 0.0)]


@pytest.fixture(scope="module")
def interp():
    return _Interpreted()


@pytest.fixture(scope="module")
def corpus(small_net) -> RRCorpus:
    c = RRCorpus(CoupledRRSampler(small_net, seed=13))
    c.ensure(3000)
    return c


def _weight_sets(corpus, small_net):
    """Decay weights per query, plus a masked (targeted) variant."""
    decay = DistanceDecay(alpha=0.04)
    coords = small_net.coords[corpus.roots]
    out = [decay.weights(coords, q) for q in QUERIES]
    # Targeted query shape: roots outside the target set carry weight 0.
    masked = out[0].copy()
    masked[corpus.roots % 3 != 0] = 0.0
    out.append(masked)
    return out


def _interp_inputs(corpus, weights):
    flat, offsets = corpus.flat()
    inv_samples, inv_offsets = corpus.inverted()
    l = len(corpus)
    n = corpus.n_nodes
    w = np.ascontiguousarray(weights, dtype=np.float64)
    return flat, offsets, inv_samples, inv_offsets, w, l, n


class TestScoreBuild:
    def test_bit_identical_to_bincount(self, interp, corpus, small_net):
        for w in _weight_sets(corpus, small_net):
            flat, offsets, _, _, w64, l, n = _interp_inputs(corpus, w)
            entry_weight = np.repeat(w64[:l], np.diff(offsets[: l + 1]))
            expected = np.bincount(
                flat[: offsets[l]], weights=entry_weight, minlength=n
            )
            got = interp.score_build(flat, offsets, w64, l, n)
            assert np.array_equal(got, expected)


class TestSelectParity:
    @pytest.mark.parametrize("k", [1, 4, 10])
    @pytest.mark.parametrize("loop", ["greedy_select"])
    def test_matches_numpy_kernel(self, interp, corpus, small_net, k, loop):
        for w in _weight_sets(corpus, small_net):
            flat, offsets, inv_s, inv_o, w64, l, n = _interp_inputs(corpus, w)
            ref = weighted_greedy_cover(corpus, w, k, compute_bound=False)
            score = interp.score_build(flat, offsets, w64, l, n)
            seeds, gains, n_sel, covered = getattr(interp, loop)(
                flat, offsets, inv_s, inv_o, w64, score, l, k, _DRIFT_RTOL
            )
            assert list(seeds[:n_sel]) == ref.seeds
            assert np.array_equal(gains, ref.gains)
            assert covered == pytest.approx(float(ref.gains.sum()), rel=1e-12)

    def test_early_stop_on_exhausted_prefix(self, interp, corpus):
        """k above what the prefix supports: trailing gains stay 0."""
        w = np.zeros(len(corpus))
        w[:2] = 1.0  # only two samples carry weight
        flat, offsets, inv_s, inv_o, w64, l, n = _interp_inputs(corpus, w)
        score = interp.score_build(flat, offsets, w64, l, n)
        seeds, gains, n_sel, _ = interp.greedy_select(
            flat, offsets, inv_s, inv_o, w64, score, l, 8, _DRIFT_RTOL
        )
        ref = weighted_greedy_cover(corpus, w, 8, compute_bound=False)
        assert list(seeds[:n_sel]) == ref.seeds
        assert n_sel < 8
        assert np.all(gains[n_sel:] == 0.0)


class TestBudgetedParity:
    @pytest.mark.parametrize("loop", ["budgeted_eager_select"])
    def test_matches_numpy_kernel(self, interp, corpus, small_net, loop):
        rng = np.random.default_rng(5)
        costs = rng.uniform(0.5, 3.0, size=corpus.n_nodes)
        for w in _weight_sets(corpus, small_net):
            flat, offsets, inv_s, inv_o, w64, l, n = _interp_inputs(corpus, w)
            ref = weighted_budgeted_cover(corpus, w, costs, 8.0)
            score = interp.score_build(flat, offsets, w64, l, n)
            seeds, gains, n_sel, covered, spent = getattr(interp, loop)(
                flat, offsets, inv_s, inv_o, w64, score,
                np.ascontiguousarray(costs), 8.0, l, _DRIFT_RTOL,
            )
            assert list(seeds[:n_sel]) == ref.seeds
            assert np.array_equal(gains[:n_sel], ref.gains)
            assert spent == pytest.approx(ref.cost_spent, rel=1e-12)
            assert spent <= 8.0


class TestCoupledBatchParity:
    def test_replays_numpy_traversal(self, interp, small_net):
        sampler = CoupledRRSampler(small_net, seed=42)
        keys, roots, flat, offsets = sampler.sample_batch(400)
        with np.errstate(over="ignore"):
            i_roots, i_flat, i_offsets = interp.coupled_batch(
                sampler._seed64, keys, small_net.in_offsets,
                small_net.in_sources, sampler._edge_mix,
                sampler._thresholds, small_net.n,
            )
        assert np.array_equal(i_roots, roots)
        assert np.array_equal(i_flat, flat)
        assert np.array_equal(i_offsets, offsets)

    def test_single_slot_matches_regenerate(self, interp, small_net):
        sampler = CoupledRRSampler(small_net, seed=3)
        for key in (0, 17, 999):
            root, members = sampler.regenerate(key)
            with np.errstate(over="ignore"):
                roots, flat, _ = interp.coupled_batch(
                    sampler._seed64, np.asarray([key], dtype=np.int64),
                    small_net.in_offsets, small_net.in_sources,
                    sampler._edge_mix, sampler._thresholds, small_net.n,
                )
            assert int(roots[0]) == root
            assert np.array_equal(flat, members)
