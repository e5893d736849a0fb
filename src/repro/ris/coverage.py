"""Weighted greedy maximum coverage over RR samples (Algorithm 2).

Given a sample prefix and per-sample weights ``omega_i = w(v_i, q)`` (the
weight of sample i's root under the query), the greedy repeatedly selects
the node covering the largest uncovered weight.  The covered weight yields
the unbiased DAIM spread estimate (Eq. 9)::

    I_hat_q(S) = n * (sum of omega_i over samples covered by S) / l

Two objectives share one residual-score state (:class:`_Residual`): the
top-``k`` cover picks the argmax score, the budgeted cover the affordable
argmax ``score / cost``.  This is the hot online path (DESIGN.md,
"Selection kernels"):

* the scores start as one weighted ``np.bincount`` over the flat member
  prefix, each entry weighted through the corpus's cached entry -> sample
  array (:meth:`~repro.ris.corpus.RRCorpus.entry_samples`);
* a pick of ``u`` is one inlined step of about fifteen array calls: its
  prefix samples are a slice of its inverted list up to the corpus's
  prefix cut (:meth:`~repro.ris.corpus.RRCorpus.prefix_cut`), the
  uncovered ones among them are marked, their member slices are
  gathered as one shifted ``arange`` from the prefix's sample sizes
  (computed once per cover), and the members there, each repeating its
  sample's weight, are subtracted with one weighted ``bincount``;
* :func:`covered_sample_mask` reads the seeds' inverted lists between
  two prefix cuts, so validating k seeds on a slot range touches their
  own entries there, not every member entry of the range;
* the per-iteration submodular certification bound (a ``np.partition``
  over all ``n`` scores) is **opt-in** via ``compute_bound``.

The work stays linear in the prefix's member entries: each sample's
members are read once by the score build and once when first covered.  A
zero-weight sample starts covered and its entries are left out of the
score build, and without a bound the k-th pick's decrement is skipped;
both skips are bit-identical to doing the work (a ``+0.0`` term never
changes a sum).  Float caveat: the batched decrement subtracts pre-summed
per-node totals where the historical kernel subtracted weight by weight,
so residuals may differ from it by ~1 ulp per covered sample; selection
stops once the best gain is ``<= 1e-12`` of the covered weight
(``_DRIFT_RTOL``), so drift is never selected
(``tests/ris/test_kernel_parity.py`` pins the seed sets).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
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
    ``bincount`` and (on a cold corpus) the lazy entry -> sample,
    inverted-index and prefix-cut builds;
    ``selection`` is the pick/decrement loop excluding bound work;
    ``bound`` is the submodular upper-bound computation (0 when
    ``compute_bound=False``); ``total`` the whole call.
    """

    score_build: float
    selection: float
    bound: float
    total: float

    def as_dict(self) -> dict:
        return dict(vars(self))


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


def _gather_runs(ends: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(ends[j] - counts[j], ends[j])``: a
    ragged gather of CSR slices with no per-slice Python loop."""
    cum = counts.cumsum()
    # Block j of a global arange runs cum[j] - counts[j] .. cum[j] - 1;
    # shifting it by ends[j] - cum[j] lands it on its own slice.
    pos = (ends - cum).repeat(counts)
    pos += np.arange(cum[-1] if len(cum) else 0)
    return pos


def _checked_prefix(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    prefix: int | None,
) -> tuple[int, np.ndarray]:
    """Validate the arguments both covers share; ``(l, weights)``."""
    l = len(corpus) if prefix is None else int(prefix)
    if l <= 0:
        raise SamplingError("cannot run coverage over zero samples")
    if l > len(corpus):
        raise SamplingError(f"prefix {l} exceeds corpus size {len(corpus)}")
    weights = np.asarray(sample_weights, dtype=float)
    if len(weights) < l:
        raise SamplingError(f"need at least {l} sample weights, got {len(weights)}")
    return l, weights


class _Residual:
    """Residual per-node scores over a weighted sample prefix.

    ``score[u]`` is the uncovered weight node ``u`` would still cover;
    :meth:`take` selects ``u`` and batch-decrements every sample it
    newly covers.  Both covers run on this one state and differ only in
    their pick rule.
    """

    def __init__(self, corpus: RRCorpus, weights: np.ndarray, l: int) -> None:
        self.weights = weights
        self.flat, offsets = corpus.flat()
        self.offsets = offsets[: l + 1]
        self.ends = offsets[1 : l + 1]
        # A zero-weight sample changes no score, so it starts covered: a
        # targeted mask zeroes most roots, and their decrements would
        # subtract nothing (exactly: ``s - 0.0 == s``).
        self.uncovered = weights[:l] != 0.0
        if self.uncovered.all():
            # Per-entry weight: each member entry of sample i carries
            # omega_i, one gather through the cached entry -> sample map.
            end = int(offsets[l])
            members = self.flat[:end]
            entry_weight = weights[corpus.entry_samples()[:end]]
        else:
            # Build the scores from the positive-weight samples' entries
            # only.  Bit-identical to the full build: bincount sums each
            # node's terms in entry order from +0.0, and skipping a
            # ``+0.0`` term never changes such a sum.
            ids = np.flatnonzero(self.uncovered)
            sizes = self.sizes[ids]
            members = self.flat[_gather_runs(self.ends[ids], sizes)]
            entry_weight = np.repeat(weights[ids], sizes)
        self.score = np.bincount(
            members, weights=entry_weight, minlength=corpus.n_nodes
        )
        # Inverted index (node -> ascending sample ids) is cached
        # corpus-wide; node u's prefix samples end at cut[u].
        self.inv_samples, self.inv_offsets = corpus.inverted()
        self.cut = corpus.prefix_cut(l)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Member count of every prefix sample, computed on first use."""
        return np.diff(self.offsets)

    def take(self, u: int) -> None:
        """Cover every prefix sample of ``u`` and retire ``u``.

        One inlined step of array calls, no helper: the newly covered
        samples' member slices are gathered as one shifted ``arange``
        (the body of :func:`_gather_runs`), and one weighted ``bincount``
        of the members there, each repeating its sample's weight, is
        subtracted.
        """
        candidates = self.inv_samples[self.inv_offsets[u] : self.cut[u]]
        newly = candidates[self.uncovered[candidates]]
        if len(newly):
            self.uncovered[newly] = False
            sizes = self.sizes[newly]
            cum = sizes.cumsum()
            pos = np.repeat(self.ends[newly] - cum, sizes)
            pos += np.arange(cum[-1])
            self.score -= np.bincount(
                self.flat[pos], weights=np.repeat(self.weights[newly], sizes),
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


def weighted_greedy_cover(
    corpus: RRCorpus,
    sample_weights: np.ndarray,
    k: int,
    prefix: int | None = None,
    *,
    compute_bound: bool = True,
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
    """
    t_start = time.perf_counter()
    l, weights = _checked_prefix(corpus, sample_weights, prefix)
    if k <= 0:
        raise QueryError(f"k must be positive, got {k}")
    n = corpus.n_nodes
    if k > n:
        raise QueryError(f"k={k} exceeds node count {n}")
    if compute_bound not in (True, False):
        raise QueryError(
            f"compute_bound must be True or False, got {compute_bound!r}"
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
        u = int(score.argmax())
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
        if compute_bound or it + 1 < k:
            # After the k-th pick only the bound reads the residuals.
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
    """
    t_start = time.perf_counter()
    l, weights = _checked_prefix(corpus, sample_weights, prefix)
    if not budget > 0:
        raise QueryError(f"budget must be positive, got {budget}")
    n = corpus.n_nodes
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise QueryError(f"costs must have shape ({n},), got {costs.shape}")
    if not np.all(costs > 0):
        raise QueryError("all node costs must be positive")

    res = _Residual(corpus, weights, l)
    score = res.score
    t_built = time.perf_counter()
    seeds: List[int] = []
    gains: List[float] = []
    covered_weight = 0.0
    remaining = float(budget)
    cost_spent = 0.0
    while True:
        # No affordable node left leaves every ratio at -inf.
        ratio = np.where(costs <= remaining, score / costs, -np.inf)
        u = int(ratio.argmax())
        gain = float(score[u])
        if not math.isfinite(ratio[u]):
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


def _seed_ids(seeds, n: int) -> np.ndarray:
    """``seeds`` as int64 node ids; :class:`QueryError` unless each is an
    integer in ``[0, n)`` (numpy would read id -1 as node ``n - 1``)."""
    try:
        ids = np.asarray(list(seeds))
    except (TypeError, ValueError) as exc:
        raise QueryError(f"seed ids must be integers: {exc}") from None
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise QueryError(f"seed ids must be integers, got {ids.dtype} {ids.shape}")
    ids = ids.astype(np.int64, copy=False)
    # Viewed as unsigned, a negative id is huge: one max checks both ends.
    if ids.size and ids.view(np.uint64).max() >= n:
        raise QueryError(
            f"seed ids must be node ids in [0, {n}), got range "
            f"[{int(ids.min())}, {int(ids.max())}]"
        )
    return ids


def covered_sample_mask(
    corpus: RRCorpus,
    seeds: np.ndarray | List[int],
    prefix: int | None = None,
    start: int = 0,
) -> np.ndarray:
    """Boolean mask over the slots ``[start, prefix)`` hit by ``seeds``.

    Each seed's samples in the range are the part of its inverted list
    between the corpus's prefix cuts at ``start`` and ``prefix``
    (:meth:`~repro.ris.corpus.RRCorpus.prefix_cut`): one ragged gather
    over those parts, scattered into the mask.  The work is the seeds'
    own entries, not every member entry of the range.  A seed id that
    is not an integer in ``[0, n)`` raises :class:`QueryError`.  Shared by
    :func:`estimate_spread`, the certification path and RIS-DA's
    certified early stop, which validates on a slot range disjoint from
    the greedy's prefix.
    """
    l = len(corpus) if prefix is None else int(prefix)
    if not 0 <= start < l <= len(corpus):
        raise SamplingError(
            f"invalid slot range [{start}, {l}) for corpus of {len(corpus)}"
        )
    ids = _seed_ids(seeds, corpus.n_nodes)
    lo = corpus.prefix_cut(start)[ids]
    hi = corpus.prefix_cut(l)[ids]
    inv_samples, _ = corpus.inverted()
    covered = np.zeros(l - start, dtype=bool)
    covered[inv_samples[_gather_runs(hi, hi - lo)] - start] = True
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
    covered = covered_sample_mask(corpus, seeds, prefix)
    l, weights = _checked_prefix(corpus, sample_weights, prefix)
    covered_weight = float(weights[:l][covered].sum())
    return corpus.n_nodes * covered_weight / l
