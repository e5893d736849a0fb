"""DAIM query and result types."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import QueryError
from repro.geo.point import Point, as_point


@dataclass(frozen=True)
class DaimQuery:
    """A distance-aware influence maximization query.

    ``location`` is the promoted location ``q`` in the plane and ``k`` the
    seed budget.  The weight function lives on the index (it is part of the
    offline configuration), not on the query.
    """

    location: Point
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "location", as_point(self.location))
        if self.k <= 0:
            raise QueryError(f"k must be positive, got {self.k}")


@dataclass(frozen=True)
class SeedResult:
    """The answer to a DAIM query.

    Attributes
    ----------
    seeds:
        The selected seed nodes, in selection (greedy) order.
    estimate:
        The method's own estimate of ``I_q(S)`` — under the MIA surrogate
        for MIA-based methods, the Eq. 9 estimator for RIS-DA, a
        Monte-Carlo mean for the naive greedy.  Evaluate seed sets with
        :func:`repro.diffusion.monte_carlo_weighted_spread` for a
        method-independent comparison.
    method:
        Human-readable method name ("MIA-DA", "RIS-DA", "PMIA", ...).
    elapsed:
        Online query latency in seconds; index construction is always
        excluded, the rest depends on the family.  RIS-DA (every kind,
        multi-location included): the whole online query — nearest-pivot
        lookup, Lemma 8 / Lemma 7 sizing, weight evaluation and
        selection (``QueryTimings.total``).  MIA-DA: seed *selection*
        only; its per-query bound setup is reported separately as
        ``MiaQueryDiagnostics.setup_seconds``.  Ad-hoc RIS, the naive
        greedy and the heuristics: the whole call, sampling or scoring
        included.
    samples_used:
        RIS prefix length used (RIS methods only).
    evaluations:
        Number of exact marginal evaluations performed (MIA methods only;
        measures pruning effectiveness).
    """

    seeds: List[int]
    estimate: float
    method: str
    elapsed: float = 0.0
    samples_used: Optional[int] = None
    evaluations: Optional[int] = None

    def __post_init__(self) -> None:
        if len(set(self.seeds)) != len(self.seeds):
            raise QueryError(f"duplicate seeds in result: {self.seeds}")

    @property
    def k(self) -> int:
        return len(self.seeds)


def validate_mask(mask, n_nodes: int) -> np.ndarray:
    """A targeted query's per-node weight mask as a float ``(n,)`` array.

    Shared by both index families' ``query_masked``.  Raises
    :class:`~repro.exceptions.QueryError` on a wrong shape or on any
    negative or non-finite entry: an ``inf`` weight turns the Eq. 9
    estimate into ``nan`` and the greedy's picks into noise.
    """
    try:
        mask = np.asarray(mask, dtype=float)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"mask must be numeric: {exc}") from None
    if mask.shape != (n_nodes,):
        raise QueryError(f"mask must have shape ({n_nodes},), got {mask.shape}")
    if not np.all(np.isfinite(mask)):
        raise QueryError("mask entries must be finite")
    if not np.all(mask >= 0):
        raise QueryError("mask entries must be >= 0")
    return mask


def validate_costs(costs, n_nodes: int) -> np.ndarray:
    """A budgeted query's per-node costs as a float ``(n,)`` array.

    Shared by both index families' ``query_budgeted``.  Raises
    :class:`~repro.exceptions.QueryError` on a wrong shape or on any
    cost that is not positive.
    """
    try:
        costs = np.asarray(costs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"costs must be numeric: {exc}") from None
    if costs.shape != (n_nodes,):
        raise QueryError(f"costs must have shape ({n_nodes},), got {costs.shape}")
    if not np.all(costs > 0):
        raise QueryError("all node costs must be positive")
    return costs


def validate_k(k, k_max: int) -> None:
    """Check a top-``k`` query's seed count against ``[1, k_max]``.

    Shared by both index families' top-``k`` kinds.  Raises
    :class:`~repro.exceptions.QueryError` unless ``k`` is an integer in
    range: a float (even ``3.0``) or a ``bool`` is refused, numpy
    integers are accepted as they are.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise QueryError(f"k must be an integer, got {k!r}")
    if not 0 < k <= k_max:
        raise QueryError(f"k must be in [1, {k_max}], got {k}")


def validate_budget(budget) -> float:
    """A budgeted query's total budget as a finite positive float.

    Shared by both index families' ``query_budgeted``.  Raises
    :class:`~repro.exceptions.QueryError` on a non-numeric, non-finite
    or non-positive budget: an infinite budget would buy every node.
    """
    try:
        budget = float(budget)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"budget must be numeric: {exc}") from None
    if not math.isfinite(budget):
        raise QueryError(f"budget must be finite, got {budget}")
    if not budget > 0:
        raise QueryError(f"budget must be positive, got {budget}")
    return budget
