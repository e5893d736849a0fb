"""Linear threshold (LT) diffusion — the paper's "other" classical model.

The DAIM paper focuses on IC, but defines its framework over a generic
propagation model and cites LT as the standard alternative.  We implement LT
so that downstream users can weight LT spreads with the same
distance-decay machinery (the diffusion model only affects ``I(S, v)``; the
distance weighting is orthogonal).

LT semantics: each node ``v`` draws a threshold ``theta_v ~ U[0, 1]``; the
in-edge weights are ``b(u, v)`` with ``sum_u b(u, v) <= 1``; ``v`` activates
once the active in-neighbour weight reaches its threshold.  Our edge
probabilities double as LT weights; weighted-cascade probabilities
(``1/indeg``) sum to exactly 1 per node, the canonical LT setting.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import GraphError
from repro.network.graph import GeoSocialNetwork
from repro.rng import RandomLike, as_generator


def simulate_lt(
    network: GeoSocialNetwork,
    seeds: Iterable[int],
    seed: RandomLike = None,
) -> np.ndarray:
    """Run one LT cascade; returns a boolean ``(n,)`` activation mask.

    Raises :class:`GraphError` when any node's in-edge weights exceed 1
    (the model requires ``sum_u b(u, v) <= 1``).
    """
    validate_lt_weights(network)
    rng = as_generator(seed)
    active = np.zeros(network.n, dtype=bool)
    frontier = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if frontier.size == 0:
        return active
    if frontier.min() < 0 or frontier.max() >= network.n:
        raise GraphError("seed ids out of range")
    active[frontier] = True

    thresholds = rng.random(network.n)
    # Accumulated active in-neighbour weight per node.
    pressure = np.zeros(network.n, dtype=float)

    while frontier.size:
        # Push each frontier node's out-edge weights onto its targets.
        starts = network.out_offsets[frontier]
        ends = network.out_offsets[frontier + 1]
        counts = ends - starts
        if int(counts.sum()) == 0:
            break
        idx = np.concatenate(
            [np.arange(s, e) for s, e in zip(starts, ends) if e > s]
        ) if counts.max() > 0 else np.empty(0, dtype=np.int64)
        targets = network.out_targets[idx]
        weights = network.out_probs[idx]
        np.add.at(pressure, targets, weights)
        crossed = (~active) & (pressure >= thresholds)
        newly = np.flatnonzero(crossed)
        active[newly] = True
        frontier = newly
    return active


def lt_spread(
    network: GeoSocialNetwork,
    seeds: Iterable[int],
    rounds: int = 1000,
    node_weights: np.ndarray | None = None,
    seed: RandomLike = None,
) -> float:
    """Monte-Carlo (optionally distance-weighted) LT spread."""
    if rounds <= 0:
        raise GraphError(f"rounds must be positive, got {rounds}")
    rng = as_generator(seed)
    seed_list = list(seeds)
    if node_weights is not None:
        node_weights = np.asarray(node_weights, dtype=float)
        if node_weights.shape != (network.n,):
            raise GraphError(
                f"node_weights must have shape ({network.n},), got {node_weights.shape}"
            )
    total = 0.0
    for _ in range(rounds):
        mask = simulate_lt(network, seed_list, rng)
        if node_weights is None:
            total += float(mask.sum())
        else:
            total += float(node_weights[mask].sum())
    return total / rounds


#: Enumeration cap for exact LT computation: the live-edge space has
#: prod(indeg(v) + 1) instances; 200k keeps tests instant.
MAX_LT_INSTANCES = 200_000


def exact_lt_activation_probabilities(
    network: GeoSocialNetwork, seeds: Iterable[int]
) -> np.ndarray:
    """Exact per-node LT activation probabilities by live-edge enumeration.

    Kempe et al.'s equivalence: LT is distributed identically to the
    live-edge model where each node independently selects at most one
    in-edge (edge ``(u, v)`` with probability ``Pr(u, v)``, none with the
    remaining mass).  For tiny graphs we enumerate the full product space
    — the ground truth the LT simulator and LT RR sets are tested against.
    """
    validate_lt_weights(network)
    seed_arr = sorted(set(int(s) for s in seeds))
    if seed_arr and (min(seed_arr) < 0 or max(seed_arr) >= network.n):
        raise GraphError("seed ids out of range")
    n = network.n
    choices: list[list[tuple[int | None, float]]] = []
    total_instances = 1
    for v in range(n):
        opts: list[tuple[int | None, float]] = []
        srcs = network.in_neighbors(v)
        probs = network.in_probabilities(v)
        mass = 0.0
        for u, p in zip(srcs, probs):
            if p > 0:
                opts.append((int(u), float(p)))
                mass += float(p)
        opts.append((None, max(1.0 - mass, 0.0)))
        choices.append(opts)
        total_instances *= len(opts)
        if total_instances > MAX_LT_INSTANCES:
            raise GraphError(
                f"exact LT enumeration exceeds {MAX_LT_INSTANCES} instances"
            )

    result = np.zeros(n, dtype=float)
    if not seed_arr:
        return result

    def recurse(v: int, prob: float, selected: list[int | None]) -> None:
        if prob == 0.0:
            return
        if v == n:
            # Live-edge instance fixed: forward reachability from seeds
            # along the selected edges (selected[x] -> x).
            mask = np.zeros(n, dtype=bool)
            mask[seed_arr] = True
            changed = True
            while changed:
                changed = False
                for x in range(n):
                    u = selected[x]
                    if not mask[x] and u is not None and mask[u]:
                        mask[x] = True
                        changed = True
            result[mask] += prob
            return
        for u, p in choices[v]:
            selected.append(u)
            recurse(v + 1, prob * p, selected)
            selected.pop()

    recurse(0, 1.0, [])
    return result


def exact_lt_spread(network: GeoSocialNetwork, seeds: Iterable[int]) -> float:
    """Exact unweighted LT spread (tiny graphs only)."""
    return float(exact_lt_activation_probabilities(network, seeds).sum())


def validate_lt_weights(network: GeoSocialNetwork, tol: float = 1e-9) -> None:
    """Raise :class:`GraphError` unless every node's in-weights sum to <= 1."""
    incoming = np.zeros(network.n, dtype=float)
    targets = np.repeat(np.arange(network.n), np.diff(network.in_offsets))
    np.add.at(incoming, targets, network.in_probs)
    worst = float(incoming.max()) if network.n else 0.0
    if worst > 1.0 + tol:
        raise GraphError(
            f"LT requires per-node in-weights <= 1; max is {worst:.6f}. "
            "Use weighted-cascade probabilities or rescale."
        )
