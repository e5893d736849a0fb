"""Cheap heuristic baselines for DAIM seed selection.

The influence-maximization literature the paper builds on (Section 6)
compares against degree-style heuristics; these are their distance-aware
counterparts.  None carries an approximation guarantee — they exist as
fast baselines and as candidate generators for the exact methods.

* :func:`top_degree` — highest out-degree, geography-blind;
* :func:`top_weighted_degree` — ``w(v, q) * outdeg(v)``, the ranking
  Algorithm 3 (LB-EST) uses for its seed guess;
* :func:`degree_discount` — Chen et al.'s degree-discount heuristic
  (KDD'09) generalised to per-node weights and heterogeneous edge
  probabilities;
* :func:`single_discount` — Chen et al.'s cheaper single-discount: one
  weighted-degree unit removed per edge into an already-chosen seed;
* :func:`top_weight` — the ``k`` users closest to the promoted location
  (the "just ask the neighbours" strawman).

:func:`heuristic_ladder` grades three of these into an overload ladder —
``degree-discount`` → ``single-discount`` → ``high-degree`` — picking
the most accurate rung whose predicted cost fits a wall-clock budget.
The ``high-degree`` rung is the distance-aware variant
(:func:`top_weighted_degree`): pure vector work, the cheapest answer
that still respects the query location.

A fallback must cost less than the index query it replaces, so every
rung is a few array passes over the network's CSR, with no per-node
Python loop: a base score in one vector pass (one weighted ``bincount``
over the out-edges for degree discount), then per pick one ``argmax``
and one fancy-index discount of the pick's CSR row.  That row update is
exact: :class:`~repro.network.graph.GeoSocialNetwork` rejects
duplicate edges and self-loops, so a row never repeats a neighbour, and
an already chosen neighbour sits at ``-inf``, which a finite discount
leaves there — no mask of chosen nodes is needed.  In-process at
``k=10`` (best of 3x20 on a shared 2-vCPU x86-64 container; the ranges
span repeated runs) degree discount takes 0.12-0.14 ms on brightkite
x0.5 (n=500, m=3,700) and 0.19-0.30 ms on gowalla (n=2,000, m=19,200),
against 1.0-2.1 and 4.0-7.5 ms for the per-node loop it replaced and
1.5-1.9 and 2.8-4.3 ms for a RIS-DA point query.
:func:`ladder_cost_estimates` predicts each rung from the same work
counts.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.query import SeedResult
from repro.core.querykind import LADDER_RUNGS
from repro.exceptions import QueryError
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork


def _validate(network: GeoSocialNetwork, k: int) -> None:
    if not 0 < k <= network.n:
        raise QueryError(f"k must be in [1, {network.n}], got {k}")


def _result(scores: np.ndarray, k: int, method: str, start: float) -> SeedResult:
    seeds = np.argpartition(scores, len(scores) - k)[len(scores) - k:]
    order = np.argsort(scores[seeds])[::-1]
    ranked = [int(s) for s in seeds[order]]
    return SeedResult(
        seeds=ranked,
        estimate=float(scores[ranked].sum()),
        method=method,
        elapsed=time.perf_counter() - start,
    )


def top_degree(network: GeoSocialNetwork, k: int) -> SeedResult:
    """The ``k`` highest out-degree nodes (geography-blind)."""
    _validate(network, k)
    start = time.perf_counter()
    deg = np.asarray(network.out_degree(), dtype=float)
    return _result(deg, k, "TopDegree", start)


def top_weight(
    network: GeoSocialNetwork,
    query_location: Sequence[float],
    k: int,
    decay: DistanceDecay | None = None,
) -> SeedResult:
    """The ``k`` nodes with the largest weight (closest to the query)."""
    _validate(network, k)
    start = time.perf_counter()
    decay = decay if decay is not None else DistanceDecay()
    w = decay.weights(network.coords, tuple(query_location))
    return _result(w, k, "TopWeight", start)


def top_weighted_degree(
    network: GeoSocialNetwork,
    query_location: Sequence[float],
    k: int,
    decay: DistanceDecay | None = None,
) -> SeedResult:
    """The ``k`` nodes maximising ``w(v, q) * outdeg(v)``.

    This is the ranking LB-EST (Algorithm 3) seeds its lower bound with.
    """
    _validate(network, k)
    start = time.perf_counter()
    decay = decay if decay is not None else DistanceDecay()
    w = decay.weights(network.coords, tuple(query_location))
    deg = np.asarray(network.out_degree(), dtype=float)
    return _result(w * deg, k, "TopWeightedDegree", start)


def degree_discount(
    network: GeoSocialNetwork,
    query_location: Sequence[float],
    k: int,
    decay: DistanceDecay | None = None,
) -> SeedResult:
    """Distance-aware degree discount (after Chen et al., KDD'09).

    Classic degree discount assumes a constant probability ``p``; here
    each selected seed ``s`` discounts its out-neighbours ``v`` by the
    expected overlap ``Pr(s, v)``-weighted degree mass, all scaled by the
    node weights ``w(., q)``.

    Two array passes over the out-edge CSR: the base score is one
    weighted ``bincount`` over all ``m`` edges, and each pick discounts
    its out-row with one fancy-index update — ``O(m + k * (n +
    outdeg))``, no per-node Python loop.  The discounts are exact (no
    row repeats a node, see the module docstring); the base score's row
    sums accumulate in CSR order, so they can differ from a BLAS
    ``np.dot`` per row in the last ulp.  Seeds match a per-node loop
    except at such last-ulp near-ties; with exactly representable sums
    (dyadic probabilities, unit weights) results are bit-identical.
    """
    _validate(network, k)
    start = time.perf_counter()
    decay = decay if decay is not None else DistanceDecay()
    w = decay.weights(network.coords, tuple(query_location))
    offsets, targets = network.out_offsets, network.out_targets

    # Base score: the weighted mass a node can activate in one hop, plus
    # its own weight.  ``mass[e] = Pr(u, v) * w(v)`` for out-edge e = u -> v
    # is also exactly what u's pick later takes off v.
    mass = network.out_probs * w[targets]
    working = w + np.bincount(
        network.out_sources, weights=mass, minlength=network.n
    )

    chosen: list[int] = []
    estimate = 0.0
    for _ in range(k):
        u = int(np.argmax(working))
        chosen.append(u)
        # The heuristic's own objective is the sum of *discounted* scores
        # at selection time — the base score would double-count mass that
        # earlier seeds already claimed.
        estimate += float(working[u])
        working[u] = -np.inf
        # Discount: u's neighbours lose the share of their score that u
        # will already have claimed (their own weight times Pr(u, v)).
        # A chosen neighbour sits at -inf, which a finite discount keeps.
        lo, hi = offsets[u], offsets[u + 1]
        working[targets[lo:hi]] -= mass[lo:hi]
    return SeedResult(
        seeds=chosen,
        estimate=estimate,
        method="DegreeDiscount",
        elapsed=time.perf_counter() - start,
    )


def single_discount(
    network: GeoSocialNetwork,
    query_location: Sequence[float],
    k: int,
    decay: DistanceDecay | None = None,
) -> SeedResult:
    """Distance-aware single discount (after Chen et al., KDD'09).

    Classic single discount scores a node by its degree and, whenever a
    seed is chosen, knocks one unit off each neighbour that has an edge
    into it (that edge can no longer activate anyone new).  Here the
    score is the weighted out-degree ``w(v, q) * outdeg(v)``, so an edge
    ``v -> u`` into a chosen seed ``u`` costs ``v`` exactly ``w(v, q)``.
    The base score is one vector pass over the nodes; each pick
    discounts its in-row with one fancy-index update — ``O(n + k * (n +
    indeg))``, cheaper than :func:`degree_discount`, which also passes
    over every edge.  Every operation matches a per-neighbour loop
    exactly, so results are bit-identical to one.
    """
    _validate(network, k)
    start = time.perf_counter()
    decay = decay if decay is not None else DistanceDecay()
    w = decay.weights(network.coords, tuple(query_location))
    offsets, sources = network.in_offsets, network.in_sources

    chosen: list[int] = []
    working = w * np.diff(network.out_offsets)
    estimate = 0.0
    for _ in range(k):
        u = int(np.argmax(working))
        chosen.append(u)
        estimate += float(working[u])
        working[u] = -np.inf
        # Each in-neighbour v loses the edge v -> u from its usable
        # out-degree: one w(v, q) of score (a chosen v stays at -inf).
        v = sources[offsets[u] : offsets[u + 1]]
        working[v] -= w[v]
    return SeedResult(
        seeds=chosen,
        estimate=estimate,
        method="SingleDiscount",
        elapsed=time.perf_counter() - start,
    )


#: Per-unit seconds of the ladder's cost model, least-squares fitted
#: (relative error) to best-of-3x20 in-process timings on a 2-vCPU x86-64
#: container: seven synthetic graphs (n = 150 .. 4,000, m = 1.1k .. 44k,
#: k in {1, 10, 30}); the top-k terms to brightkite x0.5 and gowalla.
_CALL_S = 3.5e-5   # one call: weight vector setup, result assembly
_NODE_S = 4e-8     # per node: the Eq. 9 weight (an exp) and vector passes
_EDGE_S = 6e-9     # per edge: the degree-discount base-score bincount
_PICK_S = 6e-6     # per pick: argmax plus one fancy-index row update
_ROW_S = 1.5e-7    # per row entry a pick discounts
_TOPK_S = 2e-5     # per top-k call: argpartition, argsort of the k, list
_PART_S = 2e-9     # per node the top-k's argpartition passes over


def ladder_cost_estimates(network: GeoSocialNetwork, k: int) -> dict:
    """Predicted wall-clock seconds of each ladder rung on this network.

    Work counts times per-unit constants measured from the array code
    (``_CALL_S`` .. ``_PART_S``): ``degree-discount`` pays the nodes, a
    pass over all ``m`` edges, and ``k`` picks each discounting one
    out-row; ``single-discount`` the nodes and ``k`` in-row picks;
    ``high-degree`` the nodes and its top-k selection (dearer than one
    pick at ``k = 1``).  An average row holds ``m / n`` entries, in or
    out.  Used to *order* rungs against a latency budget, never to
    report timings: it orders them as measured on brightkite x0.5
    (n=500, m=3,700) and gowalla (n=2,000, m=19,200) at k in {1, 10,
    30}.  At ``k=1`` it predicts 0.084 / 0.062 / 0.076 ms and 0.24 /
    0.12 / 0.14 ms there (degree / single / high) against 0.038 / 0.026
    / 0.033 and 0.12 / 0.046 / 0.055 ms measured (best of 5x20 CPU time
    on a shared 2-vCPU host up to 2x faster than the fitting host, where
    every prediction was within 1.32x).
    """
    n, m = network.n, network.m
    nodes = _CALL_S + _NODE_S * n
    picks = k * (_PICK_S + _ROW_S * m / n)
    return {
        "degree-discount": nodes + _EDGE_S * m + picks,
        "single-discount": nodes + picks,
        "high-degree": nodes + _TOPK_S + _PART_S * n,
    }


def ladder_rung_for(
    network: GeoSocialNetwork, k: int, budget_s: Optional[float]
) -> str:
    """The most accurate rung whose predicted cost fits ``budget_s``.

    ``None`` means no budget pressure: take the top rung.  When even the
    cheapest rung does not fit, it is still returned — the ladder always
    answers with *something* location-aware.
    """
    if budget_s is None:
        return LADDER_RUNGS[0]
    estimates = ladder_cost_estimates(network, k)
    for rung in LADDER_RUNGS:
        if estimates[rung] <= budget_s:
            return rung
    return LADDER_RUNGS[-1]


def heuristic_ladder(
    network: GeoSocialNetwork,
    query_location: Sequence[float],
    k: int,
    decay: DistanceDecay | None = None,
    *,
    budget_s: Optional[float] = None,
    level: Optional[str] = None,
) -> Tuple[SeedResult, str]:
    """Answer with the graded heuristic ladder; returns ``(result, rung)``.

    ``level`` pins a rung explicitly (one of :data:`LADDER_RUNGS`);
    otherwise :func:`ladder_rung_for` picks from the remaining latency
    budget ``budget_s``.  The returned rung name is what serving tags
    into metrics (``heuristic_rung_total{rung=...}``) and fallback rows.
    """
    if level is not None:
        if level not in LADDER_RUNGS:
            raise QueryError(
                f"ladder level must be one of {LADDER_RUNGS}, got {level!r}"
            )
        rung = level
    else:
        rung = ladder_rung_for(network, k, budget_s)
    if rung == "degree-discount":
        result = degree_discount(network, query_location, k, decay)
    elif rung == "single-discount":
        result = single_discount(network, query_location, k, decay)
    else:
        result = top_weighted_degree(network, query_location, k, decay)
    return result, rung
