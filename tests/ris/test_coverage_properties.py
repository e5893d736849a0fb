"""Property-based tests for the weighted greedy cover (Algorithm 2).

PR 1 fixed a drift bug where float decrements could leave residual scores
slightly negative and the greedy would select negative-gain seeds, making
the spread estimate non-monotone in k.  These properties lock that in
over randomly generated corpora:

* every recorded gain is non-negative;
* the prefix estimate curve is non-decreasing in the prefix length;
* every selected seed actually covers something (it is a member of at
  least one sample in the prefix), and seeds are distinct;
* the greedy's estimate equals Eq. 9 recomputed for its seed set.

The cost-aware budgeted cover gets the analogous treatment:

* the spent cost never exceeds the budget, gains are positive, seeds
  distinct;
* the kernel agrees with the naive reference;
* coverage is monotone in the budget (a larger budget never covers less
  — provable for ratio greedy by a first-divergence argument);
* on tiny instances coverage never beats the exhaustive optimum, and
  with an unconstrained budget it covers every coverable sample;

and masked sample weights (the targeted-query path) stay consistent with
Eq. 9 recomputed over the same masked weights, gain by gain.

Uses ``hypothesis`` when available and a seeded-random loop otherwise, so
the suite runs in stripped-down environments too.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.network.graph import GeoSocialNetwork
from repro.ris.corpus import RRCorpus
from repro.ris.coverage import (
    estimate_spread,
    weighted_budgeted_cover,
    weighted_greedy_cover,
)
from repro.ris.reference import reference_budgeted_cover
from repro.ris.coupled import CoupledRRSampler

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def _make_corpus(rng: np.random.Generator, n_nodes: int, n_samples: int):
    """A synthetic corpus of random member sets (each containing its root)."""
    coords = rng.uniform(0.0, 10.0, size=(n_nodes, 2))
    network = GeoSocialNetwork.from_edges([(0, 1)], coords, [0.5])
    sampler = CoupledRRSampler(network, seed=0)
    roots = rng.integers(0, n_nodes, size=n_samples)
    members = []
    offsets = [0]
    for r in roots:
        extra = rng.integers(0, n_nodes, size=int(rng.integers(0, 4)))
        member_set = np.unique(np.append(extra, r)).astype(np.int64)
        members.append(member_set)
        offsets.append(offsets[-1] + len(member_set))
    flat = (
        np.concatenate(members) if members else np.empty(0, dtype=np.int64)
    )
    return RRCorpus.from_arrays(
        sampler, roots.astype(np.int64), flat,
        np.asarray(offsets, dtype=np.int64),
    )


def _check_properties(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 12))
    n_samples = int(rng.integers(1, 30))
    k = int(rng.integers(1, n_nodes + 1))
    corpus = _make_corpus(rng, n_nodes, n_samples)
    weights = rng.uniform(0.0, 5.0, size=n_samples)
    # Occasionally zero out weights entirely to hit the early-stop path.
    if rng.random() < 0.15:
        weights[:] = 0.0

    cover = weighted_greedy_cover(corpus, weights, k)

    # Gains are non-negative, everywhere (the PR 1 drift fix).
    assert np.all(cover.gains >= 0.0), f"negative gain at seed {seed}"

    # The prefix-estimate curve is non-decreasing in the prefix length.
    curve = [
        cover.estimate_for_prefix(j, n_nodes) for j in range(0, k + 1)
    ]
    assert all(
        b >= a - 1e-12 for a, b in zip(curve, curve[1:])
    ), f"estimate decreased along the prefix curve at seed {seed}"
    assert curve[-1] == pytest.approx(cover.estimate)

    # Seeds are distinct and each covers at least one prefix sample.
    assert len(set(cover.seeds)) == len(cover.seeds)
    flat, offsets = corpus.flat()
    prefix_members = set(int(u) for u in flat[: offsets[len(corpus)]])
    for s in cover.seeds:
        assert s in prefix_members, (
            f"seed {s} covers no sample (rng seed {seed})"
        )

    # The internal estimate equals Eq. 9 recomputed from the seed set.
    assert cover.estimate == pytest.approx(
        estimate_spread(corpus, cover.seeds, weights), abs=1e-9
    )


def _coverage_of(corpus, weights, seeds, l) -> float:
    """Total covered sample weight of a seed set over the prefix."""
    if not len(seeds):
        return 0.0
    return estimate_spread(corpus, list(seeds), weights) * l / corpus.n_nodes


def _check_budgeted_properties(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 12))
    n_samples = int(rng.integers(1, 30))
    corpus = _make_corpus(rng, n_nodes, n_samples)
    weights = rng.uniform(0.0, 5.0, size=n_samples)
    costs = rng.uniform(0.2, 3.0, size=n_nodes)
    budget = float(rng.uniform(costs.min(), costs.sum() * 1.2))

    cover = weighted_budgeted_cover(corpus, weights, costs, budget)

    # The budget is a hard cap, and it is what the kernel reports spent.
    spent = float(costs[cover.seeds].sum()) if cover.seeds else 0.0
    assert spent <= budget + 1e-12, f"budget exceeded at seed {seed}"
    assert cover.cost_spent == pytest.approx(spent, abs=1e-12)

    # Gains are positive, seeds distinct, estimate consistent with Eq. 9.
    assert np.all(cover.gains > 0.0)
    assert len(set(cover.seeds)) == len(cover.seeds)
    assert cover.estimate == pytest.approx(
        estimate_spread(corpus, cover.seeds, weights), abs=1e-9
    )

    # The naive reference agrees.
    ref = reference_budgeted_cover(corpus, weights, costs, budget)
    assert list(ref.seeds) == list(cover.seeds), f"reference != kernel ({seed})"

    # Monotone in budget: shrinking the budget never covers more.
    l = len(corpus)
    smaller = weighted_budgeted_cover(
        corpus, weights, costs, budget * float(rng.uniform(0.2, 0.9)),
    )
    assert (
        _coverage_of(corpus, weights, smaller.seeds, l)
        <= _coverage_of(corpus, weights, cover.seeds, l) + 1e-9
    ), f"coverage not monotone in budget at seed {seed}"

    # Tiny instances: never beat the exhaustive optimum; an unconstrained
    # budget covers everything coverable.
    if n_nodes <= 8:
        nodes = range(n_nodes)
        opt = 0.0
        for r in range(n_nodes + 1):
            for subset in itertools.combinations(nodes, r):
                if subset and float(costs[list(subset)].sum()) > budget:
                    continue
                opt = max(opt, _coverage_of(corpus, weights, subset, l))
        got = _coverage_of(corpus, weights, cover.seeds, l)
        assert got <= opt + 1e-9, f"greedy beat the optimum?! (seed {seed})"
    unconstrained = weighted_budgeted_cover(
        corpus, weights, costs, float(costs.sum()) + 1.0
    )
    assert _coverage_of(corpus, weights, unconstrained.seeds, l) == (
        pytest.approx(float(weights[:l].sum()), abs=1e-9)
    ), f"unconstrained budget left samples uncovered at seed {seed}"


def _check_masked_properties(seed: int) -> None:
    """Masked weights (targeted queries) stay Eq. 9-consistent gain by
    gain: each greedy gain is exactly the marginal of the masked
    estimator."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(2, 12))
    n_samples = int(rng.integers(1, 30))
    k = int(rng.integers(1, n_nodes + 1))
    corpus = _make_corpus(rng, n_nodes, n_samples)
    weights = rng.uniform(0.0, 5.0, size=n_samples)
    mask = (rng.random(n_nodes) < 0.6).astype(float)
    roots = corpus.roots[: len(corpus)]
    masked = weights * mask[roots]

    cover = weighted_greedy_cover(corpus, masked, k)
    l = len(corpus)
    n = corpus.n_nodes
    running = 0.0
    for j, gain in enumerate(cover.gains[: len(cover.seeds)], start=1):
        running += gain
        marginal = estimate_spread(corpus, cover.seeds[:j], masked)
        assert marginal == pytest.approx(n * running / l, abs=1e-9), (
            f"masked gain {j} inconsistent with Eq. 9 at seed {seed}"
        )
    # Nodes outside the root mask can still be seeds (they cover other
    # roots' samples), but coverage only counts masked roots' weight.
    assert cover.estimate <= (
        estimate_spread(corpus, list(range(n_nodes)), weights) + 1e-9
    )


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_greedy_cover_properties(seed):
        _check_properties(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_budgeted_cover_properties(seed):
        _check_budgeted_properties(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_masked_cover_properties(seed):
        _check_masked_properties(seed)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", range(60))
    def test_greedy_cover_properties(seed):
        _check_properties(seed)

    @pytest.mark.parametrize("seed", range(60))
    def test_budgeted_cover_properties(seed):
        _check_budgeted_properties(seed)

    @pytest.mark.parametrize("seed", range(60))
    def test_masked_cover_properties(seed):
        _check_masked_properties(seed)
