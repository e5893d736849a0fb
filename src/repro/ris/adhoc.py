"""Ad-hoc (index-free) RIS-DA queries.

RIS-DA's index amortises sampling over many queries, but a one-off query
does not need Algorithm 5's worst-case Voronoi sizing: Lemma 7 with the
LB-EST lower bound for *this* query location suffices.  This module runs
that pipeline directly — Algorithm 3 for the bound, Lemma 7 for the
sample size, fresh sampling, Algorithm 2 for selection — trading index
reuse for zero offline cost.  It is the natural reference point for the
index-amortization analysis (see ``examples/index_amortization.py``).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.query import SeedResult
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler
from repro.ris.coverage import weighted_greedy_cover
from repro.ris.lower_bound import lb_est
from repro.ris.sample_size import required_sample_size
from repro.rng import RandomLike, as_int_seed


def adhoc_ris_query(
    network: GeoSocialNetwork,
    query_location: Sequence[float],
    k: int,
    decay: DistanceDecay | None = None,
    epsilon: float = 0.5,
    delta: float | None = None,
    max_samples: int = 500_000,
    seed: RandomLike = None,
) -> SeedResult:
    """Answer one DAIM query without an index, with the full guarantee.

    Returns a ``1 - 1/e - epsilon`` approximate seed set with probability
    at least ``1 - delta`` (default ``delta = 1/n``), unless the Lemma 7
    size exceeds ``max_samples`` — then the sample pool is truncated and
    the guarantee weakens accordingly (``samples_used`` tells the caller).
    """
    if not 0 < k <= network.n:
        raise QueryError(f"k must be in [1, {network.n}], got {k}")
    decay = decay if decay is not None else DistanceDecay()
    if delta is None:
        delta = 1.0 / network.n

    start = time.perf_counter()
    q = tuple(query_location)
    weights = decay.weights(network.coords, q)
    lower = lb_est(network, weights, k, decay.w_max)
    l = required_sample_size(network.n, k, decay.w_max, epsilon, delta, lower)
    l = min(l, max_samples)

    corpus = RRCorpus(CoupledRRSampler(network, seed=as_int_seed(seed)))
    corpus.ensure(l)
    sample_weights = weights[corpus.roots]
    cover = weighted_greedy_cover(corpus, sample_weights, k)
    return SeedResult(
        seeds=cover.seeds,
        estimate=cover.estimate,
        method="RIS-adhoc",
        elapsed=time.perf_counter() - start,
        samples_used=l,
    )
