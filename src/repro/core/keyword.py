"""Keyword-constrained DAIM (the influential-cover-set extension).

Section 4 of the paper notes that MIA-DA's per-node index makes it "easy
to adopt new constraints over the selected nodes", citing the influential
cover set problem (Feng et al., SIGMOD'14): each user carries a keyword
set ``A(u)`` (abilities, interests); given required keywords ``Q`` and a
budget ``k``, find a ``k``-node seed set that *covers* ``Q``
(``Q ⊆ ∪ A(u)``) with maximum influence.

The selection here is a two-phase greedy heuristic over the exact MIA
marginals (covering the constraint is set-cover-hard, so no polynomial
method guarantees feasibility-optimal trade-offs):

1. while keywords remain uncovered, pick — among nodes covering at least
   one uncovered keyword — the node maximising
   ``(newly covered keywords, marginal influence)`` lexicographically
   weighted, which is the standard cost-effective set-cover rule;
2. spend the remaining budget on pure influence greedy.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Mapping, Sequence

import numpy as np

from repro.core.query import SeedResult
from repro.exceptions import QueryError
from repro.geo.point import PointLike
from repro.geo.weights import DistanceDecay
from repro.mia.pmia import MiaGreedyState, MiaModel


def keyword_cover_query(
    model: MiaModel,
    decay: DistanceDecay,
    query_location: PointLike,
    k: int,
    required_keywords: AbstractSet[str],
    node_keywords: Mapping[int, AbstractSet[str]] | Sequence[AbstractSet[str]],
) -> SeedResult:
    """Select ``k`` seeds covering the required keywords, influence-greedy.

    Parameters
    ----------
    model:
        A pre-built :class:`~repro.mia.pmia.MiaModel`.
    decay:
        The node-weight function.
    query_location:
        The promoted location ``q``.
    k:
        Seed budget.
    required_keywords:
        The keyword set ``Q`` that must be covered.
    node_keywords:
        Per-node keyword sets (dict or sequence indexed by node id; nodes
        absent from a dict have no keywords).

    Raises :class:`QueryError` when no ``k``-node cover exists under the
    greedy cover rule (in particular when some keyword appears on no
    node).
    """
    n = model.n
    if not 0 < k <= n:
        raise QueryError(f"k must be in [1, {n}], got {k}")
    required = list(set(required_keywords))
    column = {word: j for j, word in enumerate(required)}
    # has[u, j]: node u carries required keyword j (other keywords never
    # matter), built from per-node frozensets normalised once.
    if isinstance(node_keywords, Mapping):
        sets = [frozenset(node_keywords.get(u, ())) for u in range(n)]
    else:
        sets = [frozenset(node_keywords[u]) for u in range(n)]
    wanted = frozenset(required)
    pairs = [(u, column[w]) for u, words in enumerate(sets) for w in words & wanted]
    has = np.zeros((n, len(required)), dtype=bool)
    if pairs:
        has[tuple(np.asarray(pairs).T)] = True
    missing = [required[j] for j in np.flatnonzero(~has.any(axis=0))]
    if missing:
        raise QueryError(
            f"keywords {sorted(missing)} appear on no node; no cover exists"
        )

    start = time.perf_counter()
    weights = decay.weights(model.network.coords, query_location)
    state = MiaGreedyState(model, weights)
    seeds: list[int] = []
    chosen = np.zeros(n, dtype=bool)
    uncovered = np.ones(len(required), dtype=bool)
    total = 0.0

    while len(seeds) < k:
        if uncovered.any():
            # Cover phase: the cost-effective rule — the largest
            # (newly covered, marginal gain), lowest node id on ties.
            newly = np.count_nonzero(has[:, uncovered], axis=1)
            newly[chosen] = 0
            most = newly.max()
            if most == 0:
                raise QueryError(
                    f"cannot cover {_names(required, uncovered)} with the "
                    f"remaining budget of {k - len(seeds)}"
                )
            tied = np.flatnonzero(newly == most)
            u = int(tied[np.argmax(state.gain[tied])])
        else:
            # Influence phase: plain greedy.
            u = state.best_candidate()
        uncovered &= ~has[u]
        total += state.add_seed(u)
        seeds.append(u)
        chosen[u] = True

    if uncovered.any():
        raise QueryError(
            f"budget k={k} exhausted with {_names(required, uncovered)} "
            f"uncovered"
        )
    return SeedResult(
        seeds=seeds,
        estimate=total,
        method="MIA-DA-keyword",
        elapsed=time.perf_counter() - start,
    )


def _names(required: list, uncovered: np.ndarray) -> list:
    return sorted(required[j] for j in np.flatnonzero(uncovered))
