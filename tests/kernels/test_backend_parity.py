"""Compiled (numba) backend vs numpy and the reference oracle.

Only runs where the optional numba extra is installed *and* the kernels
compile and pass the registry's warm-up self-check; everywhere else the
whole module skips.  The contract under test is the ISSUE's parity
pin: ``backend="numba"`` must be seed-for-seed identical to numpy (and
therefore to :mod:`repro.ris.reference`) with bit-identical gains, and
the coupled sampler must produce bit-identical batches — the compiled
traversal hashes the same coin domain, it is not merely "statistically
equivalent".
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("numba")

from repro.kernels import resolve_backend  # noqa: E402

if resolve_backend() != "numba":  # installed but broken / miscompiling host
    pytest.skip("numba present but unusable", allow_module_level=True)

import repro.core.ris_da as ris_da  # noqa: E402
from repro.core.ris_da import RisDaConfig, RisDaIndex  # noqa: E402
from repro.geo.weights import DistanceDecay  # noqa: E402
from repro.ris.corpus import RRCorpus  # noqa: E402
from repro.ris.coupled import CoupledRRSampler  # noqa: E402
from repro.ris.coverage import (  # noqa: E402
    weighted_budgeted_cover,
    weighted_greedy_cover,
)
from repro.ris.reference import reference_greedy_cover  # noqa: E402

QUERIES = [(1.0, 0.5), (40.0, 60.0), (0.0, 0.0)]


@pytest.fixture(scope="module")
def corpus(small_net) -> RRCorpus:
    c = RRCorpus(CoupledRRSampler(small_net, seed=13))
    c.ensure(3000)
    return c


def _weight_sets(corpus, small_net):
    decay = DistanceDecay(alpha=0.04)
    coords = small_net.coords[corpus.roots]
    out = [decay.weights(coords, q) for q in QUERIES]
    masked = out[0].copy()
    masked[corpus.roots % 3 != 0] = 0.0  # targeted-query weight shape
    out.append(masked)
    return out


class TestGreedyCoverParity:
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_seeds_and_gains(self, corpus, small_net, k):
        for w in _weight_sets(corpus, small_net):
            ref = reference_greedy_cover(corpus, w, k)
            numpy_res = weighted_greedy_cover(
                corpus, w, k, compute_bound=False
            )
            numba_res = weighted_greedy_cover(
                corpus, w, k, compute_bound=False, backend="numba"
            )
            assert numba_res.seeds == numpy_res.seeds == ref.seeds
            # numpy is the oracle: the compiled loops replicate its float
            # semantics exactly, not approximately.
            assert np.array_equal(numba_res.gains, numpy_res.gains)
            assert numba_res.estimate == numpy_res.estimate
            assert numba_res.samples_used == numpy_res.samples_used

    def test_prefix_queries(self, corpus, small_net):
        w = _weight_sets(corpus, small_net)[0]
        for prefix in (50, 500, 2500):
            a = weighted_greedy_cover(
                corpus, w, 5, prefix=prefix, compute_bound=False
            )
            b = weighted_greedy_cover(
                corpus, w, 5, prefix=prefix, compute_bound=False,
                backend="numba",
            )
            assert b.seeds == a.seeds
            assert np.array_equal(b.gains, a.gains)

    def test_timings_populated(self, corpus, small_net):
        w = _weight_sets(corpus, small_net)[0]
        res = weighted_greedy_cover(
            corpus, w, 4, compute_bound=False, backend="numba"
        )
        d = res.timings.as_dict()
        assert set(d) == {"score_build", "selection", "bound", "total"}
        assert d["bound"] == 0.0  # compiled path never computes the bound
        assert all(v >= 0.0 for v in d.values())

    def test_bound_requests_stay_numpy(self, corpus, small_net):
        """Certification asks for the bound; the compiled path must not
        silently drop it — backend dispatch only covers bound-free calls."""
        w = _weight_sets(corpus, small_net)[0]
        res = weighted_greedy_cover(
            corpus, w, 4, compute_bound=True, backend="numba"
        )
        assert np.isfinite(res.optimal_coverage_upper)


class TestBudgetedParity:
    def test_seeds_gains_costs(self, corpus, small_net):
        rng = np.random.default_rng(5)
        costs = rng.uniform(0.5, 3.0, size=corpus.n_nodes)
        for w in _weight_sets(corpus, small_net):
            a = weighted_budgeted_cover(corpus, w, costs, 8.0)
            b = weighted_budgeted_cover(
                corpus, w, costs, 8.0, backend="numba"
            )
            assert b.seeds == a.seeds
            assert np.array_equal(b.gains, a.gains)
            assert b.cost_spent == a.cost_spent
            assert b.estimate == a.estimate


class TestCoupledParity:
    def test_batches_bit_identical(self, small_net):
        a = CoupledRRSampler(small_net, seed=42, kernel_backend="numpy")
        b = CoupledRRSampler(small_net, seed=42, kernel_backend="numba")
        for name, x, y in zip(
            ("keys", "roots", "flat", "offsets"),
            a.sample_batch(500), b.sample_batch(500),
        ):
            assert np.array_equal(x, y), f"{name} diverged across backends"

    def test_regenerate_bit_identical(self, small_net):
        a = CoupledRRSampler(small_net, seed=3, kernel_backend="numpy")
        b = CoupledRRSampler(small_net, seed=3, kernel_backend="numba")
        for key in (0, 17, 999):
            ra, ma = a.regenerate(key)
            rb, mb = b.regenerate(key)
            assert ra == rb
            assert np.array_equal(ma, mb)


class TestIndexLevelParity:
    """Whole-index agreement: build + query on each backend.

    The host picks the backend, so each leg pins the index's resolver
    to one backend, as a host with or without numba would resolve it.
    """

    def _index(self, small_net, monkeypatch, backend):
        monkeypatch.setattr(ris_da, "resolve_backend", lambda: backend)
        cfg = RisDaConfig(
            k_max=6, n_pivots=4, epsilon_pivot=0.45,
            max_index_samples=3000, seed=7,
        )
        return RisDaIndex(small_net, DistanceDecay(alpha=0.03), cfg)

    def test_queries_and_estimates_agree(self, small_net, monkeypatch):
        numpy_idx = self._index(small_net, monkeypatch, "numpy")
        numba_idx = self._index(small_net, monkeypatch, "numba")
        assert numpy_idx.kernel_backend == "numpy"
        assert numba_idx.kernel_backend == "numba"
        np.testing.assert_array_equal(
            numpy_idx.pivot_estimates, numba_idx.pivot_estimates
        )
        for q in [(20.0, 30.0), (80.0, 60.0)]:
            a, da = numpy_idx.query(q, 4, return_diagnostics=True)
            b, db = numba_idx.query(q, 4, return_diagnostics=True)
            assert b.seeds == a.seeds
            assert b.estimate == a.estimate
            assert db.samples_used == da.samples_used
