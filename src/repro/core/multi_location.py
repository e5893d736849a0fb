"""Multi-location DAIM queries (the Appendix E extension).

A chain with several stores promotes all locations ``Q = {q_1, ..., q_j}``
at once; a user attends the *closest* store, so the natural node weight is

    w(v, Q) = max_i w(v, q_i)  =  c * exp(-alpha * min_i d(v, q_i))

Both indexes consume per-node/per-sample weight vectors, so the extension
needs only (1) the weight kernel below, and (2) a sound lower bound on
``OPT_Q^k`` for RIS-DA's sample sizing: since ``w(v, Q) >= w(v, q_i)`` for
every ``i`` pointwise, ``OPT_Q^k >= max_i OPT_{q_i}^k``, and Lemma 8's
per-location bounds transfer — :func:`multi_location_query` takes the max,
and the max of that with Algorithm 3 (LB-EST) at ``w(., Q)`` itself.

MIA-DA's anchor bounds also transfer (``I_Q^m({u}) <= sum over the best
anchor per location`` is loose); for simplicity and exactness we answer
multi-location MIA queries through the PMIA engine with the combined
weight vector, which stays polynomial.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.query import SeedResult
from repro.exceptions import QueryError
from repro.geo.point import PointLike, as_point
from repro.geo.weights import DistanceDecay

# Not called here any more (the shared RIS-DA body sizes and selects);
# kept because the benchmark's span recorder wraps these module names.
from repro.ris.coverage import weighted_greedy_cover  # noqa: F401
from repro.ris.sample_size import required_sample_size  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.ris_da import RisDaIndex


def multi_location_weights(
    decay: DistanceDecay,
    coords: np.ndarray,
    locations: Sequence[PointLike],
) -> np.ndarray:
    """``w(v, Q) = max_i w(v, q_i)`` for every node.

    ``coords`` is the ``(n, 2)`` node-location array.  With one location
    this is bit-identical to ``decay.weights(coords, q)``.
    """
    locs = [as_point(q) for q in locations]
    if not locs:
        raise QueryError("need at least one promoted location")
    weights = decay.weights(coords, locs[0])
    for q in locs[1:]:
        np.maximum(weights, decay.weights(coords, q), out=weights)
    return weights


def multi_location_query(
    index: "RisDaIndex",
    locations: Sequence[PointLike],
    k: int,
) -> SeedResult:
    """Answer a multi-store DAIM query from an existing RIS-DA index.

    One plan of the shared RIS-DA body: sample sizing uses the larger of
    ``max_i L_{q_i}^k`` and LB-EST at ``w(., Q)`` (both valid lower bounds
    of ``OPT_Q^k``), the weights
    are :func:`multi_location_weights`, and the greedy runs once under
    the index's kernel backend.
    """
    # Deferred: repro.core.ris_da imports this module.
    from repro.core.ris_da import _Plan

    locs = tuple(as_point(q) for q in locations)
    if not locs:
        raise QueryError("need at least one promoted location")
    plan = _Plan(locs, k, method="RIS-DA-multi")
    return index._answer([plan], return_diagnostics=False)[0]
