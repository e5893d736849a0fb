"""Lower bounds on the optimal DAIM spread ``OPT_q^k``.

RIS-DA's sample size is inversely proportional to a lower bound of
``OPT_q^k`` (Lemma 7), so tighter bounds mean exponentially cheaper
indexes.  Two estimators, matching the paper's Figure 5 comparison:

* :func:`topk_sum` — the naive bound: the weight sum of the ``k``
  heaviest nodes (any k-set's spread at least covers its own seeds);
* :func:`lb_est` — Algorithm 3: pick ``k`` promising seeds (by weight x
  out-degree), then add the influence they push to their two-hop
  neighbourhood through paths of length <= 2.

Our :func:`lb_est` keeps only pairwise *edge-disjoint* paths per target
(at most one length-2 path per intermediate node, the strongest one), so
the independent-union formula ``1 - prod(1 - Pr(path))`` is exactly the
probability that some retained path is live — a genuine lower bound on the
activation probability, making ``L_p^k <= I_p(S) <= OPT_p^k`` hold with
certainty, as the paper requires ("the algorithm returns a lower bound of
``OPT_p^k`` with 100% probability").

Both bounds are array ops over the forward CSR (``out_offsets`` /
``out_targets`` / ``out_probs``) — a ragged row gather per hop and one
``bincount`` per sum — cheap enough to run per online query.  The
per-node dict loops they replaced stay in :mod:`repro.ris.reference` as
the parity oracle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import QueryError
from repro.network.graph import GeoSocialNetwork
from repro.ris.coverage import _gather_runs


def topk_sum(weights: np.ndarray, k: int) -> float:
    """TOPK-SUM baseline: the sum of the ``k`` largest node weights."""
    weights = np.asarray(weights, dtype=float)
    if not 0 < k <= len(weights):
        raise QueryError(f"k must be in [1, {len(weights)}], got {k}")
    if k == len(weights):
        return float(weights.sum())
    part = np.partition(weights, len(weights) - k)
    return float(part[len(weights) - k :].sum())


def _two_hop_seeds(
    network: GeoSocialNetwork,
    weights: np.ndarray,
    k: int,
    w_max: float | None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated ``(weights, seeds, is_seed)``: Algorithm 3 lines 1-2.

    The seeds are the top ``k`` nodes by weight x out-degree (``w_max``
    only scales that ranking); ``is_seed`` is their ``(n,)`` mask.
    """
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
    score = weights * np.diff(network.out_offsets) / w_max
    seeds = np.argpartition(score, n - k)[n - k :]
    is_seed = np.zeros(n, dtype=bool)
    is_seed[seeds] = True
    return weights, seeds, is_seed


def _out_edges(
    network: GeoSocialNetwork, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sources, targets, probabilities)`` of every out-edge of ``rows``.

    One ragged gather over the forward CSR, no per-node Python loop.
    """
    ends = network.out_offsets[rows + 1]
    counts = ends - network.out_offsets[rows]
    pos = _gather_runs(ends, counts)
    return np.repeat(rows, counts), network.out_targets[pos], network.out_probs[pos]


def _node_sums(targets: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``(n,)`` float per-target sums (``bincount`` of no edges is int)."""
    return np.bincount(targets, values, minlength=n).astype(float, copy=False)


def lb_est(
    network: GeoSocialNetwork,
    weights: np.ndarray,
    k: int,
    w_max: float | None = None,
) -> float:
    """Algorithm 3 (LB-EST): two-hop lower bound for ``OPT_q^k``.

    Parameters
    ----------
    network:
        The geo-social network.
    weights:
        Node weights ``w(v, q)`` for the pivot/query location.
    k:
        Seed budget.
    w_max:
        Maximum possible weight (the paper's ``c``); only used to scale the
        seed-ranking score, so it may be omitted.

    Returns the lower bound ``L_q^k``; 0.0 for all-zero weights (pass
    ``w_max`` then, since their own maximum cannot scale the ranking).

    Array ops over the forward CSR: a retained path's survival factor
    ``1 - Pr(P)`` enters as ``log1p(-Pr(P))``, one ``bincount`` per hop
    sums them per target, and ``1 - prod`` is ``-expm1`` of the sum
    (``p = 1`` edges give ``-inf`` and a certain activation).
    """
    weights, seeds, is_seed = _two_hop_seeds(network, weights, k, w_max)
    n = network.n

    # Line 4: the seeds themselves are activated with probability 1.
    lower = float(weights[seeds].sum())

    # Lines 5-6: influence to the two-hop neighbourhood through edge-
    # disjoint paths of length <= 2.  A direct path s -> v is always
    # edge-disjoint from the other retained paths to v (distinct source
    # edge).
    _, hop1, p1 = _out_edges(network, seeds)
    keep = ~is_seed[hop1] & (p1 > 0.0)
    hop1, p1 = hop1[keep], p1[keep]
    # best_via[x] = the strongest one-hop entry Pr(s, x) into intermediate x
    best_via = np.zeros(n, dtype=float)
    np.maximum.at(best_via, hop1, p1)
    # Best length-2 path through each x; one per intermediate keeps the
    # retained set edge-disjoint (x -> x cannot occur: no self-loops).
    via, hop2, p2 = _out_edges(network, np.flatnonzero(best_via))
    keep = ~is_seed[hop2] & (p2 > 0.0)
    hop2, p_path = hop2[keep], best_via[via[keep]] * p2[keep]

    # log_survive[v] = sum over retained paths P to v of log(1 - Pr(P));
    # the activation lower bound for v is 1 - exp(log_survive[v]).
    with np.errstate(divide="ignore"):
        log_survive = _node_sums(hop1, np.log1p(-p1), n)
        log_survive += _node_sums(hop2, np.log1p(-p_path), n)
    return lower + float(np.dot(weights, -np.expm1(log_survive)))


def lb_est_lt(
    network: GeoSocialNetwork,
    weights: np.ndarray,
    k: int,
    w_max: float | None = None,
) -> float:
    """Two-hop lower bound of ``OPT_q^k`` under the *linear threshold* model.

    Under LT's live-edge view each node selects at most one in-neighbour,
    with probability ``Pr(u, v)`` for ``u`` — selections of different
    nodes are independent, and a node's alternatives are mutually
    exclusive.  Hence, for seeds ``S``::

        P(u activated) >= a_u := 1                      if u in S
                               sum_{s in S} Pr(s, u)    otherwise
        P(v activated) >= sum_{u in N_in(v)} Pr(u, v) * a_u

    (the outer sum is over mutually exclusive selection events, each
    intersected with an independent event of probability ``a_u``), giving
    a certain lower bound analogous to Algorithm 3's IC version.  Both
    sums are one ``bincount`` each over the forward CSR.
    """
    weights, seeds, is_seed = _two_hop_seeds(network, weights, k, w_max)
    n = network.n

    # a_u: one-hop activation lower bounds (seeds pinned at 1).
    _, hop1, p1 = _out_edges(network, seeds)
    a = _node_sums(hop1, p1, n)
    np.clip(a, 0.0, 1.0, out=a)
    a[seeds] = 1.0

    # Two-hop push: v gains sum_u Pr(u, v) * a_u over the sources with
    # positive a (seeds and their out-neighbours).
    via, hop2, p2 = _out_edges(network, np.flatnonzero(a > 0.0))
    gain = _node_sums(hop2, p2 * a[via], n)
    np.clip(gain, 0.0, 1.0, out=gain)
    gain[is_seed] = 0.0  # seeds already counted at weight 1
    return float(weights[seeds].sum()) + float(np.dot(gain, weights))


def tightness_ratio(
    network: GeoSocialNetwork, weights: np.ndarray, k: int
) -> Tuple[float, float, float]:
    """``(lb_est, topk_sum, ratio)`` — the Figure 5 metric.

    ``ratio = lb_est / topk_sum``; values above 1 mean LB-EST is tighter
    (sample sizes shrink proportionally).
    """
    est = lb_est(network, weights, k)
    naive = topk_sum(weights, k)
    ratio = est / naive if naive > 0 else float("inf")
    return est, naive, ratio
