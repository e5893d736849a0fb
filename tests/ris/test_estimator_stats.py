"""Statistical validation of the Eq. 9 weighted RIS estimator.

The weighted estimator ``I_hat_q(S) = n * sum(omega_i covered by S) / l``
is unbiased for the distance-aware spread ``I_q(S)`` (Lemma 5), so for a
fixed seed set the RIS estimate and an independent Monte-Carlo estimate
of ``I_q(S)`` must agree within their combined sampling error.  These
tests check that for several (q, k) pairs on a fixed-seed graph, using a
z-bound wide enough (4 sigma of the *combined* standard error) that the
fixed seeds make the outcome deterministic yet a genuinely biased
estimator would still fail.
"""

import math

import numpy as np
import pytest

from repro.diffusion.spread import monte_carlo_weighted_spread
from repro.geo.weights import DistanceDecay
from repro.ris.corpus import RRCorpus
from repro.ris.coverage import estimate_spread, weighted_greedy_cover
from repro.ris.coupled import CoupledRRSampler

N_SAMPLES = 4000
MC_ROUNDS = 2000
Z = 4.0

QK_PAIRS = [
    ((50.0, 50.0), 1),
    ((50.0, 50.0), 5),
    ((20.0, 80.0), 3),
    ((85.0, 15.0), 8),
]


@pytest.fixture(scope="module")
def decay():
    return DistanceDecay(c=1.0, alpha=0.02)


@pytest.fixture(scope="module")
def corpus(small_net):
    corpus = RRCorpus(CoupledRRSampler(small_net, seed=101))
    corpus.ensure(N_SAMPLES)
    return corpus


def _ris_standard_error(corpus, seeds, weights, n_nodes):
    """Empirical standard error of the Eq. 9 estimator for this seed set.

    Per-sample contribution ``x_i = n * omega_i * [S covers sample i]``;
    the estimate is ``mean(x)`` so its standard error is
    ``std(x) / sqrt(l)``.
    """
    seed_mask = np.zeros(n_nodes, dtype=bool)
    seed_mask[np.asarray(seeds, dtype=np.int64)] = True
    flat, offsets = corpus.flat()
    l = len(corpus)
    x = np.zeros(l, dtype=float)
    for i in range(l):
        members = flat[offsets[i]: offsets[i + 1]]
        if bool(seed_mask[members].any()):
            x[i] = n_nodes * weights[i]
    return float(x.std(ddof=1) / math.sqrt(l))


@pytest.mark.parametrize("q,k", QK_PAIRS)
def test_eq9_estimate_within_monte_carlo_ci(small_net, corpus, decay, q, k):
    weights = decay.weights(small_net.coords[corpus.roots], q)
    cover = weighted_greedy_cover(corpus, weights, k)
    assert cover.seeds, "greedy must select at least one seed"

    mc = monte_carlo_weighted_spread(
        small_net, cover.seeds, decay=decay, query=q,
        rounds=MC_ROUNDS, seed=777,
    )
    ris_se = _ris_standard_error(
        corpus, cover.seeds, weights, small_net.n
    )
    combined_se = math.sqrt(mc.std_error ** 2 + ris_se ** 2)
    assert abs(cover.estimate - mc.value) <= Z * combined_se, (
        f"Eq. 9 estimate {cover.estimate:.3f} vs MC {mc.value:.3f} "
        f"(+/- {mc.std_error:.3f}) at q={q}, k={k}: gap exceeds "
        f"{Z} combined sigma ({combined_se:.3f})"
    )


@pytest.mark.parametrize("q,k", QK_PAIRS)
def test_greedy_estimate_matches_reevaluation(small_net, corpus, decay, q, k):
    """The greedy's internal estimate equals Eq. 9 recomputed from scratch."""
    weights = decay.weights(small_net.coords[corpus.roots], q)
    cover = weighted_greedy_cover(corpus, weights, k)
    recomputed = estimate_spread(corpus, cover.seeds, weights)
    assert cover.estimate == pytest.approx(recomputed, rel=1e-12)


@pytest.mark.parametrize("q,k", [((50.0, 50.0), 5), ((20.0, 80.0), 3)])
def test_targeted_eq9_within_monte_carlo_ci(small_net, corpus, decay, q, k):
    """The masked (targeted/bichromatic) Eq. 9 estimator is unbiased for
    the spread restricted to the target subset.

    The RIS side masks the per-sample weights by the root's target
    membership (exactly what ``RisDaIndex.query_masked`` does); the
    Monte-Carlo side hands the simulator the masked node weights
    directly, so only influence landing on target nodes counts.  The two
    must agree within their combined sampling error.
    """
    targets = np.arange(0, small_net.n, 3)  # every third node
    mask = np.zeros(small_net.n)
    mask[targets] = 1.0

    node_weights = decay.weights(small_net.coords, q)
    sample_weights = node_weights[corpus.roots] * mask[corpus.roots]
    cover = weighted_greedy_cover(corpus, sample_weights, k)
    assert cover.seeds, "masked greedy must select at least one seed"

    mc = monte_carlo_weighted_spread(
        small_net, cover.seeds, node_weights=node_weights * mask,
        rounds=MC_ROUNDS, seed=777,
    )
    ris_se = _ris_standard_error(
        corpus, cover.seeds, sample_weights, small_net.n
    )
    combined_se = math.sqrt(mc.std_error ** 2 + ris_se ** 2)
    assert abs(cover.estimate - mc.value) <= Z * combined_se, (
        f"targeted Eq. 9 estimate {cover.estimate:.3f} vs MC {mc.value:.3f} "
        f"(+/- {mc.std_error:.3f}) at q={q}, k={k}: gap exceeds "
        f"{Z} combined sigma ({combined_se:.3f})"
    )
    # And the targeted estimate is genuinely restricted: it cannot exceed
    # the unmasked estimate of the same seed set.
    unmasked = estimate_spread(corpus, cover.seeds, node_weights[corpus.roots])
    assert cover.estimate <= unmasked + 1e-9


def test_estimator_is_location_sensitive(small_net, corpus, decay):
    """Weighting by a far query must not inflate the estimate of a near one."""
    q_near = (50.0, 50.0)
    q_far = (500.0, 500.0)  # far outside the extent: all weights tiny
    k = 5
    w_near = decay.weights(small_net.coords[corpus.roots], q_near)
    w_far = decay.weights(small_net.coords[corpus.roots], q_far)
    near = weighted_greedy_cover(corpus, w_near, k).estimate
    far = weighted_greedy_cover(corpus, w_far, k).estimate
    assert far < near
