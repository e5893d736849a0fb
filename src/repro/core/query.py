"""DAIM query and result types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

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
