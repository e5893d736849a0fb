"""Edge-probability assignment models for the IC diffusion process.

The paper's experiments use the *weighted cascade* (WC) model:
``Pr(u, v) = 1 / indeg(v)`` — every node is, in expectation, activated by
exactly one in-neighbour attempt.  Trivalency (random small probabilities)
and constant probability are the other two standard IC parameterisations and
are provided for completeness and ablation.

All functions take a network (possibly with placeholder probabilities) and
return a *new* network — :class:`~repro.network.graph.GeoSocialNetwork` is
immutable by design.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.network.graph import GeoSocialNetwork
from repro.rng import RandomLike, as_generator

#: The classic trivalency probability levels (Chen et al., KDD'10).
TRIVALENCY_LEVELS = (0.1, 0.01, 0.001)


def assign_weighted_cascade(network: GeoSocialNetwork) -> GeoSocialNetwork:
    """Weighted-cascade probabilities: ``Pr(u, v) = 1 / indeg(v)``.

    This is the model used throughout the paper's evaluation (Section 5.1).
    """
    edges, _ = network.edge_array()
    indeg = np.asarray(network.in_degree(), dtype=float)
    # Every edge's target has indegree >= 1 by construction.
    probs = 1.0 / indeg[edges[:, 1]]
    return network.with_probabilities(probs)


def assign_trivalency(
    network: GeoSocialNetwork,
    levels: Sequence[float] = TRIVALENCY_LEVELS,
    seed: RandomLike = None,
) -> GeoSocialNetwork:
    """Trivalency probabilities: each edge gets a uniform choice of ``levels``."""
    if not levels:
        raise GraphError("trivalency needs at least one probability level")
    lv = np.asarray(levels, dtype=float)
    if lv.min() < 0.0 or lv.max() > 1.0:
        raise GraphError(f"trivalency levels must lie in [0, 1], got {levels}")
    rng = as_generator(seed)
    probs = rng.choice(lv, size=network.m)
    return network.with_probabilities(probs)


def assign_constant(network: GeoSocialNetwork, p: float) -> GeoSocialNetwork:
    """Constant probability ``p`` on every edge."""
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"constant probability must lie in [0, 1], got {p}")
    return network.with_probabilities(np.full(network.m, p, dtype=float))


def is_weighted_cascade(network: GeoSocialNetwork, tol: float = 1e-12) -> bool:
    """True when every edge satisfies ``Pr(u, v) == 1 / indeg(v)``.

    Confirms a network carries the paper's edge model (Section 5.1).
    """
    if network.m == 0:
        return True
    indeg = np.asarray(network.in_degree(), dtype=float)
    expected = np.zeros(network.m)
    # in-CSR order groups edges by target, so expected prob is constant per group
    targets = np.repeat(np.arange(network.n), np.diff(network.in_offsets))
    expected = 1.0 / indeg[targets]
    return bool(np.allclose(network.in_probs, expected, atol=tol, rtol=0.0))
