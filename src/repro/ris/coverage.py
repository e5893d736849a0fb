"""Weighted greedy maximum coverage over RR samples (Algorithm 2).

Given a sample prefix and per-sample weights ``omega_i = w(v_i, q)`` (the
weight of sample i's root under the query), the greedy repeatedly selects
the node covering the largest uncovered weight.  The covered weight yields
the unbiased DAIM spread estimate (Eq. 9)::

    I_hat_q(S) = n * (sum of omega_i over samples covered by S) / l

Two objectives share one residual-score state (:class:`_Residual`): the
top-``k`` cover picks the argmax score, the budgeted cover the affordable
argmax ``score / cost``.  The state is built from flat numpy kernels
(this is the hot online path — see DESIGN.md, "Selection kernels"):

* the initial score array is one weighted ``np.bincount`` over the flat
  member prefix (not ``np.add.at``, which takes a slow generalized
  ufunc path); the per-entry weights are one gather through the
  corpus's cached entry -> sample array
  (:meth:`~repro.ris.corpus.RRCorpus.entry_samples`);
* when a seed is chosen, all samples it newly covers are decremented in
  a single batch: the flat positions of their member slices are gathered
  through the CSR offsets, and members and entry weights read at those
  positions are subtracted with one weighted ``bincount``;
* the per-iteration submodular certification bound (a ``np.partition``
  over all ``n`` scores) is **opt-in** via ``compute_bound`` — the
  default serving path runs without it, certification requests it.

Float caveat: the batched decrement subtracts each node's pre-summed
total where the old per-sample loop subtracted one weight at a time, so
residual scores may differ from the historical kernel by ~1 ulp per
covered sample — including drifting slightly *positive* where the
sequential order happened to land at or below zero.  Selection therefore
stops once the best gain falls to ``<= 1e-12`` of the covered weight
(``_DRIFT_RTOL``): drift seeds are never selected, and a genuine gain
that small changes the estimate by less than 1e-12 relative anyway.
Seed sets agree with the historical kernel on every pinned corpus (see
``tests/ris/test_kernel_parity.py``); an exact-tie flip on an unpinned
corpus would still yield an equally valid greedy solution.

The loop stays linear in the total member entries of the prefix: each
sample's members are visited once at initialisation (score build) and
once when the sample first becomes covered (batched decrement).  A
zero-weight sample starts covered — its decrement would subtract nothing
— so a targeted query, whose mask zeroes most roots, skips that work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.exceptions import QueryError, SamplingError
from repro.ris.corpus import RRCorpus

#: Stop selecting once the best residual gain is below this fraction of
#: the covered weight: batched float decrements can leave exhausted
#: residuals ~1 ulp above zero, and a real gain this small is estimator
#: noise (it moves the Eq. 9 estimate by < 1e-12 relative).
_DRIFT_RTOL = 1e-12


@dataclass(frozen=True)
class SelectionTimings:
    """Per-stage wall-clock seconds of one greedy-cover run.

    ``score_build`` covers the per-entry weight gather, the weighted
    ``bincount`` and (on a cold corpus) the lazy entry -> sample and
    inverted-index builds;
    ``selection`` is the pick/decrement loop excluding bound work;
    ``bound`` is the submodular upper-bound computation (0 when
    ``compute_bound=False``); ``total`` the whole call.
    """

    score_build: float
    selection: float
    bound: float
    total: float

    def as_dict(self) -> dict:
        return {
            "score_build": self.score_build,
            "selection": self.selection,
            "bound": self.bound,
            "total": self.total,
        }


@dataclass(frozen=True)
class CoverageResult:
    """Output of the weighted greedy cover.

    ``seeds`` in selection order; ``gains[i]`` the covered-weight increment
    of ``seeds[i]``; ``estimate`` the unbiased spread estimate of Eq. 9 for
    the full seed set; ``samples_used`` the prefix length.  When the sample
    prefix is exhausted before ``k`` seeds — every positive-weight sample
    already covered — selection stops early: ``seeds`` is then shorter than
    ``k`` and the trailing ``gains`` stay 0 (a larger seed set could not
    cover more of this prefix).
    ``optimal_coverage_upper`` a deterministic upper bound on the covered
    weight of the *best possible* k-set over the same sample prefix (the
    standard submodular bound ``min_i covered(S_i) + top-k residual
    scores``), used by a-posteriori certification.  It is only computed
    when the caller asks for it (``compute_bound``); otherwise it stays
    ``inf`` (a trivially valid bound).
    ``timings`` the per-stage wall-clock breakdown of the run.
    """

    seeds: List[int]
    gains: np.ndarray
    estimate: float
    samples_used: int
    optimal_coverage_upper: float = float("inf")
    timings: SelectionTimings | None = None

    def estimate_for_prefix(self, j: int, n_nodes: int) -> float:
        """Spread estimate for the first ``j`` seeds (greedy is nested).

        ``j`` may exceed ``len(seeds)`` up to the requested ``k``: past an
        early stop the extra gains are exactly 0, so the curve is flat
        (and non-decreasing in ``j`` overall).
        """
        if not 0 <= j <= len(self.gains):
            raise QueryError(f"prefix {j} out of range [0, {len(self.gains)}]")
        covered = float(self.gains[:j].sum())
        return n_nodes * covered / self.samples_used


@dataclass(frozen=True)
class BudgetedCoverageResult:
    """Output of the cost-aware (budgeted) greedy cover.

    ``seeds`` in selection order; ``gains[i]`` the covered-weight
    increment of ``seeds[i]``; ``cost_spent`` the total cost of the
    selected seeds (always ``<= budget``); ``estimate`` the Eq. 9 spread
    estimate of the selected set; ``samples_used`` the prefix length.
    """

    seeds: List[int]
    gains: np.ndarray
    estimate: float
    samples_used: int
    cost_spent: float
    timings: SelectionTimings | None = None


def _topk_residual(score: np.ndarray, n: int, k: int) -> float:
    """Sum of the k largest positive residual scores."""
    if k < n:
        part = np.partition(score, n - k)[n - k:]
        return float(part[part > 0].sum())
    return float(score[score > 0].sum())


def _gather_slices(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Flat positions of the member slices of the samples in ``ids``.

    The concatenation of ``arange(offsets[i], offsets[i+1])`` for each
    ``i`` in ``ids`` — the ragged gather done entirely with array ops (no
    per-sample Python loop).  Indexing ``flat`` with it yields the
    members; indexing the per-entry weights yields their weights.
    """
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    # Within block j the flat position runs starts[j] .. starts[j]+counts[j)-1:
    # a global arange shifted back to each block's start.
    shift = np.repeat(starts - (cum - counts), counts)
    return np.arange(total, dtype=np.int64) + shift


def _checked_prefix(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    prefix: int | None,
    backend: str,
) -> tuple[int, np.ndarray]:
    """Validate the arguments both covers share; ``(l, weights)``."""
    l = len(corpus) if prefix is None else int(prefix)
    if l <= 0:
        raise SamplingError("cannot run coverage over zero samples")
    if l > len(corpus):
        raise SamplingError(f"prefix {l} exceeds corpus size {len(corpus)}")
    if backend not in ("numpy", "numba"):
        raise QueryError(
            f"backend must be a resolved kernel backend ('numpy' or "
            f"'numba'), got {backend!r}"
        )
    weights = np.asarray(sample_weights, dtype=float)
    if len(weights) < l:
        raise SamplingError(f"need at least {l} sample weights, got {len(weights)}")
    return l, weights


class _Residual:
    """Residual per-node scores over a weighted sample prefix.

    ``score[u]`` is the uncovered weight node ``u`` would still cover;
    :meth:`take` selects ``u`` and batch-decrements every sample it
    newly covers.  Both numpy covers run on this one state and differ
    only in their pick rule.
    """

    def __init__(self, corpus: RRCorpus, weights: np.ndarray, l: int) -> None:
        self.l = l
        self.flat, self.offsets = corpus.flat()
        end = int(self.offsets[l])
        # Per-entry weight: each member entry of sample i carries omega_i.
        # The batched decrement reuses it, indexed by flat position.
        self.entry_weight = weights[corpus.entry_samples()[:end]]
        self.score = np.bincount(
            self.flat[:end], weights=self.entry_weight, minlength=corpus.n_nodes
        )
        # Inverted index (node -> ascending sample ids) is cached
        # corpus-wide; per-node prefix restriction is one binary search.
        self.inv_samples, self.inv_offsets = corpus.inverted()
        # A zero-weight sample changes no score, so it starts covered: a
        # targeted mask zeroes most roots, and their decrements would
        # subtract nothing (exactly: ``s - 0.0 == s``).
        self.covered = weights[:l] == 0.0

    def take(self, u: int) -> None:
        """Cover every prefix sample of ``u`` and retire ``u``.

        The flat positions of the newly covered samples' member slices
        are gathered through the CSR offsets, and one weighted
        ``bincount`` of the members and entry weights there is
        subtracted — no per-sample Python loop.
        """
        u_samples = self.inv_samples[self.inv_offsets[u] : self.inv_offsets[u + 1]]
        candidates = u_samples[: int(np.searchsorted(u_samples, self.l))]
        newly = candidates[~self.covered[candidates]]
        if len(newly):
            self.covered[newly] = True
            pos = _gather_slices(self.offsets, newly)
            self.score -= np.bincount(
                self.flat[pos], weights=self.entry_weight[pos],
                minlength=len(self.score),
            )
        # Guard against float drift leaving the seed positive.
        self.score[u] = -np.inf


def _timings(
    t_start: float, t_built: float, bound_seconds: float = 0.0
) -> SelectionTimings:
    """The stage split of a cover that started at ``t_start`` and ends now."""
    t_end = time.perf_counter()
    return SelectionTimings(
        score_build=t_built - t_start,
        selection=(t_end - t_built) - bound_seconds,
        bound=bound_seconds,
        total=t_end - t_start,
    )


def _compiled_scores(corpus: RRCorpus, weights: np.ndarray, l: int):
    """The numba kernel set plus the flat inputs and built score array."""
    from repro.kernels import kernels

    ks = kernels("numba")
    flat, offsets = corpus.flat()
    inv_samples, inv_offsets = corpus.inverted()
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    score = ks.score_build(flat, offsets, weights, l, corpus.n_nodes)
    return ks, (flat, offsets, inv_samples, inv_offsets, weights, score)


def weighted_greedy_cover(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    k: int,
    prefix: int | None = None,
    *,
    compute_bound: bool = True,
    backend: str = "numpy",
) -> CoverageResult:
    """Algorithm 2: greedy seed selection over a weighted sample prefix.

    Parameters
    ----------
    corpus:
        The RR-sample corpus.
    sample_weights:
        ``(len(corpus),)`` (or at least ``(prefix,)``) array of per-sample
        root weights ``w(v_i, q)``.
    k:
        Number of seeds.
    prefix:
        Use only the first ``prefix`` samples (default: all).  This is how
        RIS-DA answers online queries with fewer samples than indexed.
    compute_bound:
        ``True`` (default): track the submodular upper bound on the best
        k-set's coverage at every iteration (k partitions).  ``False``:
        skip it — ``optimal_coverage_upper`` stays ``inf``.  Selection
        is identical either way; only the bound (and its cost) changes.
        The RIS-DA serving path passes ``False``;
        :mod:`repro.ris.certify` keeps the default.
    backend:
        ``"numpy"`` (default) runs the vectorized kernels in this
        module; ``"numba"`` runs the JIT-compiled loops from
        :mod:`repro.kernels` (the host's backend is
        :func:`repro.kernels.resolve_backend`).  The compiled path is
        seed-for-seed and bit-for-bit gain-identical to numpy (pinned by
        ``tests/kernels``) and only engages when ``compute_bound=False``
        — the serving hot path; bound-requesting (certification) calls
        always run numpy.
    """
    t_start = time.perf_counter()
    l, weights = _checked_prefix(corpus, sample_weights, prefix, backend)
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    n = corpus.n_nodes
    if k > n:
        raise QueryError(f"k={k} exceeds node count {n}")
    if compute_bound not in (True, False):
        raise QueryError(
            f"compute_bound must be True or False, got {compute_bound!r}"
        )

    if backend == "numba" and not compute_bound:
        ks, args = _compiled_scores(corpus, weights, l)
        t_built = time.perf_counter()
        seed_arr, gains, n_sel, covered_weight = ks.greedy_select(
            *args, l, k, _DRIFT_RTOL
        )
        return CoverageResult(
            seeds=[int(s) for s in seed_arr[:n_sel]],
            gains=gains,
            estimate=n * covered_weight / l,
            samples_used=l,
            timings=_timings(t_start, t_built),
        )

    res = _Residual(corpus, weights, l)
    score = res.score
    t_built = time.perf_counter()
    seeds: List[int] = []
    gains = np.zeros(k, dtype=float)
    covered_weight = 0.0
    opt_upper = float("inf")
    bound_seconds = 0.0
    for it in range(k + 1):
        if compute_bound:
            # Submodular upper bound at this state: any k-set covers at
            # most the current coverage plus the k largest residuals.
            # The pass after the last pick bounds the final state.
            tb = time.perf_counter()
            opt_upper = min(
                opt_upper, covered_weight + _topk_residual(score, n, k)
            )
            bound_seconds += time.perf_counter() - tb
        if it == k:
            break
        u = int(np.argmax(score))
        gain = float(score[u])
        if gain <= _DRIFT_RTOL * covered_weight:
            # Prefix exhausted: every positive-weight sample is covered.
            # Residual scores are 0 only up to float drift (batched
            # decrements can leave them ~1 ulp either side of zero), so
            # selecting further would record drift-noise gains and make
            # the estimate non-monotone in k.
            break
        seeds.append(u)
        gains[it] = gain
        covered_weight += gain
        res.take(u)
    return CoverageResult(
        seeds=seeds,
        gains=gains,
        estimate=n * covered_weight / l,
        samples_used=l,
        optimal_coverage_upper=opt_upper,
        timings=_timings(t_start, t_built, bound_seconds),
    )


def weighted_budgeted_cover(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    costs: np.ndarray,
    budget: float,
    prefix: int | None = None,
    *,
    backend: str = "numpy",
) -> BudgetedCoverageResult:
    """Cost-aware greedy max coverage: pick by gain/cost ratio, stop at budget.

    The classic budgeted-maximum-coverage ratio greedy: each iteration
    selects the *affordable* node with the largest ``gain / cost`` ratio
    (exact ratio ties toward the lowest node id), spends its cost, and
    stops when no affordable node remains (or the best affordable node's
    gain has fallen to drift noise, mirroring the top-``k`` kernel's
    ``_DRIFT_RTOL`` stop).  Scores are maintained with the same flat
    batched kernels as :func:`weighted_greedy_cover`.

    With uniform costs ``c`` and budget ``k * c`` the ratio ordering is
    the gain ordering (division by a common positive constant — exact
    when ``c`` is a power of two), so the selection is identical to the
    top-``k`` greedy: this is the degenerate parity the test suite pins.

    ``backend="numba"`` runs the JIT-compiled ratio loop (same
    contract as :func:`weighted_greedy_cover`'s ``backend``): seeds,
    gains and cost accounting are bit-identical to numpy.
    """
    t_start = time.perf_counter()
    l, weights = _checked_prefix(corpus, sample_weights, prefix, backend)
    if not budget > 0:
        raise QueryError(f"budget must be positive, got {budget}")
    n = corpus.n_nodes
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise QueryError(f"costs must have shape ({n},), got {costs.shape}")
    if not np.all(costs > 0):
        raise QueryError("all node costs must be positive")

    if backend == "numba":
        ks, args = _compiled_scores(corpus, weights, l)
        t_built = time.perf_counter()
        seed_arr, gain_arr, n_sel, covered_weight, cost_spent = (
            ks.budgeted_eager_select(
                *args, np.ascontiguousarray(costs, dtype=np.float64),
                float(budget), l, _DRIFT_RTOL,
            )
        )
        return BudgetedCoverageResult(
            seeds=[int(s) for s in seed_arr[:n_sel]],
            gains=np.asarray(gain_arr[:n_sel], dtype=float),
            estimate=n * covered_weight / l,
            samples_used=l,
            cost_spent=float(cost_spent),
            timings=_timings(t_start, t_built),
        )

    res = _Residual(corpus, weights, l)
    score = res.score
    t_built = time.perf_counter()
    seeds: List[int] = []
    gains: List[float] = []
    covered_weight = 0.0
    remaining = float(budget)
    cost_spent = 0.0
    while True:
        affordable = costs <= remaining
        if not affordable.any():
            break
        ratio = np.where(affordable, score / costs, -np.inf)
        u = int(np.argmax(ratio))
        gain = float(score[u])
        if not np.isfinite(ratio[u]):
            break
        if gain <= _DRIFT_RTOL * covered_weight:
            # The best-ratio affordable node covers only drift noise;
            # with uniform costs this is exactly the top-k kernel's stop.
            break
        seeds.append(u)
        gains.append(gain)
        covered_weight += gain
        cost_spent += float(costs[u])
        remaining -= float(costs[u])
        res.take(u)
    return BudgetedCoverageResult(
        seeds=seeds,
        gains=np.asarray(gains, dtype=float),
        estimate=n * covered_weight / l,
        samples_used=l,
        cost_spent=cost_spent,
        timings=_timings(t_start, t_built),
    )


def covered_sample_mask(
    corpus: RRCorpus,
    seeds: np.ndarray | List[int],
    prefix: int | None = None,
) -> np.ndarray:
    """Boolean mask over the first ``prefix`` samples hit by ``seeds``.

    One flat gather (``seed_mask[flat]``) segment-reduced with
    ``np.logical_or.reduceat`` over the CSR offsets — no per-sample loop.
    Shared by :func:`estimate_spread` and the certification path.
    """
    l = len(corpus) if prefix is None else int(prefix)
    if l <= 0 or l > len(corpus):
        raise SamplingError(f"invalid prefix {l} for corpus of {len(corpus)}")
    seed_mask = np.zeros(corpus.n_nodes, dtype=bool)
    seed_mask[np.asarray(list(seeds), dtype=np.int64)] = True
    flat, offsets = corpus.flat()
    end = int(offsets[l])
    hit = seed_mask[flat[:end]]
    sizes = np.diff(offsets[: l + 1])
    covered = np.zeros(l, dtype=bool)
    nonempty = sizes > 0
    if end and nonempty.any():
        # reduceat needs one start index per non-empty segment; empty
        # samples (possible via from_arrays, never from real RR sets)
        # stay uncovered.
        starts = offsets[:l][nonempty]
        covered[nonempty] = np.logical_or.reduceat(hit, starts)
    return covered


def estimate_spread(
    corpus: RRCorpus,
    seeds: np.ndarray | List[int],
    sample_weights: np.ndarray,
    prefix: int | None = None,
) -> float:
    """Eq. 9 for a *given* seed set (no selection).

    Used by tests to validate unbiasedness and by ablations to score seed
    sets chosen by other methods on an independent sample pool.
    """
    l = len(corpus) if prefix is None else int(prefix)
    covered = covered_sample_mask(corpus, seeds, prefix)
    weights = np.asarray(sample_weights, dtype=float)
    if len(weights) < l:
        raise SamplingError(f"need at least {l} sample weights, got {len(weights)}")
    covered_weight = float(weights[:l][covered].sum())
    return corpus.n_nodes * covered_weight / l
