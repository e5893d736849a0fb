"""Pre-vectorization kernels, kept as the parity oracle.

These are the Algorithm 2 kernels exactly as they shipped before the
flat-array rewrite of :mod:`repro.ris.coverage`: ``np.add.at`` for the
score build, a per-sample Python loop for the coverage decrement, a
``np.partition`` submodular bound recomputed every iteration, and a
per-sample Python loop in the spread estimator — plus the slot mask as
a reduction over every member entry of its range, as it was before
the prefix-cut rewrite of
:func:`repro.ris.coverage.covered_sample_mask`, and the Algorithm 3
lower bounds (LB-EST, IC and LT) as the per-node dict loops they were
before the CSR rewrite of :mod:`repro.ris.lower_bound`.  They are
deliberately *not* exported through ``repro.ris`` — production code must
use :func:`repro.ris.coverage.weighted_greedy_cover` and
:func:`repro.ris.lower_bound.lb_est` — but they stay in the tree for the
**parity tests**: ``tests/ris/test_kernel_parity.py`` proves the
vectorized kernels select the same seeds with the same gains, and
``tests/ris/test_lower_bound_parity.py`` that the CSR-vectorized LB-EST
bounds of :mod:`repro.ris.lower_bound` match the per-node dict loops
below to rounding.  Speed is gated by perfbench's ``query_mix`` workload
against the parent commit, not against this baseline.

Float caveat: the reference decrements a node's score once per newly
covered sample (``((s - w1) - w2)``), while the batched kernel subtracts
the pre-summed total (``s - (w1 + w2)``).  The two differ by at most one
rounding step per covered sample, which is why parity tests compare gains
with a tight tolerance instead of bit equality.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.exceptions import QueryError, SamplingError
from repro.network.graph import GeoSocialNetwork
from repro.ris.corpus import RRCorpus
from repro.ris.coverage import CoverageResult


def reference_greedy_cover(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    k: int,
    prefix: int | None = None,
) -> CoverageResult:
    """The pre-PR eager greedy: per-iteration bound, per-sample decrements."""
    l = len(corpus) if prefix is None else int(prefix)
    if l <= 0:
        raise SamplingError("cannot run coverage over zero samples")
    if l > len(corpus):
        raise SamplingError(f"prefix {l} exceeds corpus size {len(corpus)}")
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    n = corpus.n_nodes
    if k > n:
        raise QueryError(f"k={k} exceeds node count {n}")
    weights = np.asarray(sample_weights, dtype=float)
    if len(weights) < l:
        raise SamplingError(
            f"need at least {l} sample weights, got {len(weights)}"
        )

    flat, offsets = corpus.flat()
    end = int(offsets[l])
    flat_prefix = flat[:end]
    entry_weight = np.repeat(weights[:l], np.diff(offsets[: l + 1]))

    score = np.zeros(n, dtype=float)
    np.add.at(score, flat_prefix, entry_weight)

    inv_samples, inv_offsets = corpus.inverted()

    covered = np.zeros(l, dtype=bool)
    seeds: List[int] = []
    gains = np.zeros(k, dtype=float)
    covered_weight = 0.0
    opt_upper = float("inf")
    for it in range(k):
        if k < n:
            part = np.partition(score, n - k)[n - k:]
            topk = float(part[part > 0].sum())
        else:
            topk = float(score[score > 0].sum())
        opt_upper = min(opt_upper, covered_weight + topk)
        u = int(np.argmax(score))
        gain = float(score[u])
        if gain <= 0.0:
            break
        seeds.append(u)
        gains[it] = gain
        covered_weight += gain
        u_samples = inv_samples[inv_offsets[u] : inv_offsets[u + 1]]
        cut = int(np.searchsorted(u_samples, l))
        for i in u_samples[:cut]:
            i = int(i)
            if covered[i]:
                continue
            covered[i] = True
            members = flat[offsets[i] : offsets[i + 1]]
            score[members] -= weights[i]
        score[u] = -np.inf
    estimate = n * covered_weight / l
    if k < n:
        part = np.partition(score, n - k)[n - k:]
        topk = float(part[part > 0].sum())
    else:
        topk = float(score[score > 0].sum())
    opt_upper = min(opt_upper, covered_weight + topk)
    return CoverageResult(
        seeds=seeds,
        gains=gains,
        estimate=estimate,
        samples_used=l,
        optimal_coverage_upper=opt_upper,
    )


def reference_budgeted_cover(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    costs: np.ndarray,
    budget: float,
    prefix: int | None = None,
) -> CoverageResult:
    """Naive cost-aware ratio greedy: full rescan, per-sample decrements.

    The oracle for :func:`repro.ris.coverage.weighted_budgeted_cover`:
    every iteration scans all nodes for the best ``gain / cost`` ratio
    among those still affordable, and decrements covered samples one at
    a time.  Returns a :class:`CoverageResult` (``samples_used`` etc.);
    the spent cost is recoverable as ``costs[seeds].sum()``.

    Shares the production kernel's relative drift stop: once everything
    worth covering is covered, residual scores are float dust (one
    rounding step per decrement) and picking them would make the seed
    list diverge from the vectorized kernel on noise.
    """
    drift_rtol = 1e-12  # matches coverage._DRIFT_RTOL
    l = len(corpus) if prefix is None else int(prefix)
    if l <= 0:
        raise SamplingError("cannot run coverage over zero samples")
    if l > len(corpus):
        raise SamplingError(f"prefix {l} exceeds corpus size {len(corpus)}")
    if not budget > 0:
        raise QueryError(f"budget must be positive, got {budget}")
    n = corpus.n_nodes
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise QueryError(f"costs must have shape ({n},), got {costs.shape}")
    if not np.all(costs > 0):
        raise QueryError("all node costs must be positive")
    weights = np.asarray(sample_weights, dtype=float)
    if len(weights) < l:
        raise SamplingError(f"need at least {l} sample weights, got {len(weights)}")

    flat, offsets = corpus.flat()
    end = int(offsets[l])
    flat_prefix = flat[:end]
    entry_weight = np.repeat(weights[:l], np.diff(offsets[: l + 1]))
    score = np.zeros(n, dtype=float)
    np.add.at(score, flat_prefix, entry_weight)

    covered = np.zeros(l, dtype=bool)
    selected = np.zeros(n, dtype=bool)
    seeds: List[int] = []
    gains: List[float] = []
    covered_weight = 0.0
    remaining = float(budget)
    while True:
        best_u, best_ratio = -1, -np.inf
        for u in range(n):
            if selected[u] or costs[u] > remaining:
                continue
            ratio = float(score[u]) / float(costs[u])
            if ratio > best_ratio:
                best_u, best_ratio = u, ratio
        if best_u < 0:
            break
        gain = float(score[best_u])
        if gain <= drift_rtol * covered_weight:
            break
        u = best_u
        seeds.append(u)
        gains.append(gain)
        covered_weight += gain
        remaining -= float(costs[u])
        selected[u] = True
        for i in range(l):
            if covered[i]:
                continue
            members = flat[offsets[i] : offsets[i + 1]]
            if u in members:
                covered[i] = True
                score[members] -= weights[i]
        score[u] = -np.inf
    return CoverageResult(
        seeds=seeds,
        gains=np.asarray(gains, dtype=float),
        estimate=n * covered_weight / l,
        samples_used=l,
    )


def reference_estimate_spread(
    corpus: RRCorpus,
    seeds: np.ndarray | List[int],
    sample_weights: np.ndarray,
    prefix: int | None = None,
) -> float:
    """The pre-PR Eq. 9 estimator: a Python loop over every sample."""
    l = len(corpus) if prefix is None else int(prefix)
    if l <= 0 or l > len(corpus):
        raise SamplingError(f"invalid prefix {l} for corpus of {len(corpus)}")
    weights = np.asarray(sample_weights, dtype=float)
    if len(weights) < l:
        raise SamplingError(f"need at least {l} sample weights, got {len(weights)}")
    seed_mask = np.zeros(corpus.n_nodes, dtype=bool)
    seed_mask[np.asarray(list(seeds), dtype=np.int64)] = True
    flat, offsets = corpus.flat()
    covered_weight = 0.0
    for i in range(l):
        members = flat[offsets[i] : offsets[i + 1]]
        if bool(seed_mask[members].any()):
            covered_weight += float(weights[i])
    return corpus.n_nodes * covered_weight / l


def reference_covered_sample_mask(
    corpus: RRCorpus,
    seeds: np.ndarray | List[int],
    prefix: int | None = None,
    start: int = 0,
) -> np.ndarray:
    """The pre-prefix-cut slot mask: a reduction over every range entry.

    One flat gather (``seed_mask[flat]``) over the member entries of the
    slots ``[start, prefix)``, segment-reduced with
    ``np.logical_or.reduceat`` over the CSR offsets.  The oracle of
    :func:`repro.ris.coverage.covered_sample_mask`, which reads the
    seeds' inverted lists instead.
    """
    l = len(corpus) if prefix is None else int(prefix)
    if not 0 <= start < l <= len(corpus):
        raise SamplingError(
            f"invalid slot range [{start}, {l}) for corpus of {len(corpus)}"
        )
    seed_mask = np.zeros(corpus.n_nodes, dtype=bool)
    seed_mask[np.asarray(list(seeds), dtype=np.int64)] = True
    flat, offsets = corpus.flat()
    bounds = offsets[start : l + 1]
    lo, end = int(bounds[0]), int(bounds[-1])
    hit = seed_mask[flat[lo:end]]
    sizes = np.diff(bounds)
    covered = np.zeros(l - start, dtype=bool)
    nonempty = sizes > 0
    if end > lo and nonempty.any():
        # reduceat needs one start index per non-empty segment; empty
        # samples stay uncovered.
        starts = bounds[:-1][nonempty] - lo
        covered[nonempty] = np.logical_or.reduceat(hit, starts)
    return covered


def reference_lb_est(
    network: GeoSocialNetwork,
    weights: np.ndarray,
    k: int,
    w_max: float | None = None,
) -> float:
    """The pre-vectorization :func:`repro.ris.lower_bound.lb_est`: dict loops."""
    weights = np.asarray(weights, dtype=float)
    n = network.n
    if weights.shape != (n,):
        raise QueryError(f"weights must have shape ({n},), got {weights.shape}")
    if not 0 < k <= n:
        raise QueryError(f"k must be in [1, {n}], got {k}")
    if w_max is None:
        w_max = float(weights.max()) if len(weights) else 1.0
    if w_max <= 0:
        raise QueryError(f"w_max must be positive, got {w_max}")

    # Line 1-2: rank by weight x out-degree and take the top k as seeds.
    out_deg = np.asarray(network.out_degree(), dtype=float)
    score = weights * out_deg / w_max
    seeds = np.argpartition(score, n - k)[n - k :]
    seed_set = set(int(s) for s in seeds)

    # Line 4: the seeds themselves are activated with probability 1.
    lower = float(weights[seeds].sum())

    # Lines 5-6: influence to the two-hop neighbourhood through edge-
    # disjoint paths of length <= 2.
    #
    # survive[v] = prod over retained paths P of (1 - Pr(P));
    # the activation lower bound for v is 1 - survive[v].
    survive: Dict[int, float] = {}
    # best_via[x] = the strongest one-hop entry Pr(s, x) into intermediate x
    best_via: Dict[int, float] = {}
    for s in seed_set:
        targets = network.out_neighbors(s)
        probs = network.out_probabilities(s)
        for v, p in zip(targets, probs):
            v = int(v)
            p = float(p)
            if v in seed_set or p <= 0.0:
                continue
            # Direct path s -> v: always edge-disjoint from other retained
            # paths to v (distinct source edge).
            survive[v] = survive.get(v, 1.0) * (1.0 - p)
            if p > best_via.get(v, 0.0):
                best_via[v] = p

    for x, p_in in best_via.items():
        targets = network.out_neighbors(x)
        probs = network.out_probabilities(x)
        for v, p2 in zip(targets, probs):
            v = int(v)
            p2 = float(p2)
            if v in seed_set or v == x or p2 <= 0.0:
                continue
            # Best length-2 path through x; one per intermediate keeps the
            # retained set edge-disjoint.
            survive[v] = survive.get(v, 1.0) * (1.0 - p_in * p2)

    for v, s in survive.items():
        lower += weights[v] * (1.0 - s)
    return float(lower)


def reference_lb_est_lt(
    network: GeoSocialNetwork,
    weights: np.ndarray,
    k: int,
    w_max: float | None = None,
) -> float:
    """The pre-vectorization :func:`repro.ris.lower_bound.lb_est_lt`: a
    per-source ``np.add.at`` loop."""
    weights = np.asarray(weights, dtype=float)
    n = network.n
    if weights.shape != (n,):
        raise QueryError(f"weights must have shape ({n},), got {weights.shape}")
    if not 0 < k <= n:
        raise QueryError(f"k must be in [1, {n}], got {k}")
    if w_max is None:
        w_max = float(weights.max()) if len(weights) else 1.0
    if w_max <= 0:
        raise QueryError(f"w_max must be positive, got {w_max}")

    out_deg = np.asarray(network.out_degree(), dtype=float)
    score = weights * out_deg / w_max
    seeds = np.argpartition(score, n - k)[n - k :]
    seed_set = set(int(s) for s in seeds)

    # a_u: one-hop activation lower bounds (seeds pinned at 1).
    a = np.zeros(n, dtype=float)
    for s in seed_set:
        targets = network.out_neighbors(s)
        probs = network.out_probabilities(s)
        np.add.at(a, targets, probs)
    np.clip(a, 0.0, 1.0, out=a)
    for s in seed_set:
        a[s] = 1.0

    lower = float(weights[seeds].sum())
    # Two-hop push: v gains sum_u Pr(u, v) * a_u; accumulate over sources
    # with positive a (seeds and their out-neighbours).
    gain = np.zeros(n, dtype=float)
    for u in np.flatnonzero(a > 0.0):
        u = int(u)
        targets = network.out_neighbors(u)
        probs = network.out_probabilities(u)
        np.add.at(gain, targets, probs * a[u])
    np.clip(gain, 0.0, 1.0, out=gain)
    gain[list(seed_set)] = 0.0  # seeds already counted at weight 1
    lower += float(np.dot(gain, weights))
    return lower
