"""A-posteriori certification of DAIM seed sets.

The Lemma 7 sample size is a *worst-case* requirement; in practice a seed
set is often much better than ``1 - 1/e - eps`` of optimal.  Following the
online-processing idea of OPIM-C (Tang et al., SIGMOD'18) adapted to the
distance-weighted estimator, :func:`certify_seed_set` measures how good a
*given* seed set provably is:

* draw **fresh** RR samples (independent of however the seeds were found);
* lower-bound ``I_q(S)`` with a one-sided Chernoff bound on the observed
  covered weight;
* upper-bound ``OPT_q^k``: the weighted greedy on the fresh samples covers
  at least ``(1 - 1/e)`` of the best sample coverage, and the optimal
  set's true mean is Chernoff-bounded above by its (unknown but dominated)
  sample coverage;
* report ``ratio = LCB(I_q(S)) / UCB(OPT_q^k)``, valid with probability
  at least ``1 - delta`` (a union bound over the two one-sided events).

The standard one-sided bounds for b i.i.d. variables in [0, 1] with
observed sum X and ``a = ln(2/delta)``::

    mean >= ((sqrt(X + 2a/9) - sqrt(a/2))^2 - a/18) / b        (lower)
    mean <= ((sqrt(X + a/2) + sqrt(a/2))^2) / b                (upper)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import QueryError, SamplingError
from repro.geo.point import PointLike, as_point
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler
from repro.ris.coverage import _seed_ids, covered_sample_mask, weighted_greedy_cover
from repro.ris.sample_size import GREEDY_FACTOR
from repro.rng import RandomLike, as_int_seed


@dataclass(frozen=True)
class Certificate:
    """The outcome of :func:`certify_seed_set`.

    ``ratio`` is a certified lower bound on ``I_q(S) / OPT_q^k`` holding
    with probability at least ``1 - delta``; ``spread_lcb`` and
    ``opt_ucb`` are the two sides it is built from; ``samples`` the
    fresh-sample count used; ``elapsed`` wall-clock seconds.
    """

    ratio: float
    spread_lcb: float
    opt_ucb: float
    samples: int
    delta: float
    elapsed: float


def mean_lower_bound(x: float, b: int, a: float) -> float:
    """One-sided Chernoff LCB of the mean of b [0,1]-variables summing x."""
    if b <= 0:
        raise SamplingError(f"need a positive sample count, got {b}")
    if x < 0 or a <= 0:
        raise SamplingError(f"invalid bound inputs x={x}, a={a}")
    root = math.sqrt(x + 2.0 * a / 9.0) - math.sqrt(a / 2.0)
    value = (root * root - a / 18.0) / b
    return max(value, 0.0)


def mean_upper_bound(x: float, b: int, a: float) -> float:
    """One-sided Chernoff UCB of the mean of b [0,1]-variables summing x."""
    if b <= 0:
        raise SamplingError(f"need a positive sample count, got {b}")
    if x < 0 or a <= 0:
        raise SamplingError(f"invalid bound inputs x={x}, a={a}")
    root = math.sqrt(x + a / 2.0) + math.sqrt(a / 2.0)
    return min((root * root) / b, 1.0)


def certify_seed_set(
    network: GeoSocialNetwork,
    query_location: PointLike,
    seeds: Sequence[int],
    decay: DistanceDecay | None = None,
    k: int | None = None,
    n_samples: int = 20_000,
    delta: float = 0.01,
    diffusion: str = "ic",
    seed: RandomLike = None,
) -> Certificate:
    """Certify the quality of ``seeds`` for the query at ``query_location``.

    ``k`` defaults to ``len(seeds)``; pass a larger ``k`` to certify
    against a larger-budget optimum (a stricter test).  ``seeds`` must
    have been selected *without* looking at this function's fresh samples
    — any seed set qualifies, including ones from MIA-DA or heuristics.
    A seed id that is not an integer in ``[0, n)`` raises
    :class:`QueryError`.
    """
    seed_list = sorted(set(_seed_ids(seeds, network.n).tolist()))
    if not seed_list:
        raise QueryError("cannot certify an empty seed set")
    if k is None:
        k = len(seed_list)
    if k < len(seed_list):
        raise QueryError(
            f"k={k} is smaller than the seed set ({len(seed_list)})"
        )
    if not 0 < delta < 1:
        raise SamplingError(f"delta must be in (0, 1), got {delta}")
    if n_samples <= 1:
        raise SamplingError(f"need at least 2 samples, got {n_samples}")
    decay = decay if decay is not None else DistanceDecay()

    start = time.perf_counter()
    q = as_point(query_location)
    corpus = RRCorpus(
        CoupledRRSampler(network, seed=as_int_seed(seed), diffusion=diffusion)
    )
    corpus.ensure(n_samples)
    # Node-space weights gathered per sample: w(v_i, q) depends only on
    # the root, so evaluate it once per node.
    omega = decay.weights(network.coords, q)[corpus.roots]
    w_max = decay.w_max
    n = network.n
    a = math.log(2.0 / delta)  # each one-sided event gets delta / 2

    # --- LCB of I_q(S): observed normalised covered weight of S. ---------
    covered_mask = covered_sample_mask(corpus, seed_list, n_samples)
    covered = float(omega[:n_samples][covered_mask].sum())
    spread_lcb = n * w_max * mean_lower_bound(covered / w_max, n_samples, a)

    # --- UCB of OPT_q^k via the fresh-sample greedy. ----------------------
    # Two deterministic bounds on the best k-set's sample coverage: the
    # (1 - 1/e) inflation of the greedy's coverage, and the tighter
    # submodular "coverage + top-k residuals" bound tracked per iteration.
    # Certification explicitly requests the bound the serving path skips.
    greedy = weighted_greedy_cover(corpus, omega, k, compute_bound=True)
    opt_cov_samples = min(
        float(greedy.gains.sum()) / GREEDY_FACTOR,
        greedy.optimal_coverage_upper,
    )
    opt_ucb = n * w_max * mean_upper_bound(
        opt_cov_samples / w_max, n_samples, a
    )

    ratio = spread_lcb / opt_ucb if opt_ucb > 0 else 0.0
    return Certificate(
        ratio=min(ratio, 1.0),
        spread_lcb=spread_lcb,
        opt_ucb=opt_ucb,
        samples=n_samples,
        delta=delta,
        elapsed=time.perf_counter() - start,
    )
