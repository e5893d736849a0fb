"""Parity between the CSR-vectorized LB-EST bounds and the dict-loop oracle.

:func:`repro.ris.lower_bound.lb_est` and :func:`~repro.ris.lower_bound.lb_est_lt`
are array ops over the forward CSR (a ragged row gather, ``bincount`` of
``log1p(-p)`` for the IC survival product, ``np.maximum.at`` for the best
one-hop entry).  The per-node loops they replaced live on in
:mod:`repro.ris.reference`; both must pick the same seeds and agree to
rounding (``rel 1e-12``) on every graph shape, including ``p = 1`` edges
(``log1p(-1) = -inf``, which must not warn), zero-probability edges,
zero or masked weights, isolated nodes and ``k = n``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.ris.lower_bound import lb_est, lb_est_lt
from repro.ris.reference import reference_lb_est, reference_lb_est_lt

PAIRS = [(lb_est, reference_lb_est), (lb_est_lt, reference_lb_est_lt)]
IDS = ["ic", "lt"]


def _random_graph(rng: np.random.Generator, lt: bool) -> GeoSocialNetwork:
    """A random graph with isolated nodes, p = 0 and p = 1 edges."""
    n = int(rng.integers(2, 40))
    n_live = int(rng.integers(1, n + 1))  # nodes past n_live stay isolated
    pairs = [(u, v) for u in range(n_live) for v in range(n_live) if u != v]
    m = int(rng.integers(0, min(len(pairs), 4 * n_live) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False) if m else []
    edges = np.asarray([pairs[i] for i in chosen], dtype=np.int64).reshape(-1, 2)
    probs = rng.choice([0.0, 1.0, 0.5], size=m)
    probs = np.where(rng.random(m) < 0.6, rng.uniform(0.0, 1.0, m), probs)
    if lt and m:
        # LT needs each node's in-weights to sum to at most 1.
        in_sum = np.bincount(edges[:, 1], probs, minlength=n)
        probs = probs / np.maximum(in_sum[edges[:, 1]], 1.0)
    coords = rng.uniform(0.0, 10.0, (n, 2))
    return GeoSocialNetwork.from_edges(edges, coords, probs, n=n)


def _weight_vectors(rng: np.random.Generator, net: GeoSocialNetwork):
    """Distance-decay, masked, sparse and all-zero weight vectors."""
    decay = DistanceDecay(alpha=0.3)
    w = decay.weights(net.coords, tuple(rng.uniform(0.0, 10.0, 2)))
    mask = (rng.random(net.n) < 0.3).astype(float)
    sparse = np.where(rng.random(net.n) < 0.5, 0.0, rng.uniform(0, 2, net.n))
    return [w, w * mask, sparse, np.zeros(net.n)]


def _assert_parity(fn, ref, net, w, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # p = 1 edges: no log1p warning
        got = fn(net, w, k, 1.0)
    want = ref(net, w, k, 1.0)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (net.n, k)


@pytest.mark.parametrize("fn, ref", PAIRS, ids=IDS)
def test_random_graphs(fn, ref):
    rng = np.random.default_rng(20)
    for _ in range(120):
        net = _random_graph(rng, lt=fn is lb_est_lt)
        for w in _weight_vectors(rng, net):
            for k in sorted({1, int(rng.integers(1, net.n + 1)), net.n}):
                _assert_parity(fn, ref, net, w, k)


@pytest.mark.parametrize("fn, ref", PAIRS, ids=IDS)
def test_dataset_graph(fn, ref, medium_net):
    decay = DistanceDecay(alpha=0.02)
    rng = np.random.default_rng(21)
    for _ in range(40):
        w = decay.weights(medium_net.coords, tuple(rng.uniform(0, 100, 2)))
        _assert_parity(fn, ref, medium_net, w, int(rng.integers(1, 51)))


@pytest.mark.parametrize("fn, ref", PAIRS, ids=IDS)
def test_certain_edges(fn, ref):
    """Every edge live: seed 0 reaches 1 and 2 with certainty."""
    net = GeoSocialNetwork.from_edges(
        [(0, 1), (1, 2), (0, 3)], np.zeros((4, 2)), [1.0, 1.0, 1.0]
    )
    w = np.array([1.0, 0.5, 0.25, 0.0])
    _assert_parity(fn, ref, net, w, 1)
    assert fn(net, w, 1, 1.0) == pytest.approx(1.75)


@pytest.mark.parametrize("fn, ref", PAIRS, ids=IDS)
def test_edgeless_graph(fn, ref):
    net = GeoSocialNetwork.from_edges([], np.zeros((3, 2)), n=3)
    w = np.array([0.2, 0.7, 0.1])
    for k in (1, 2, 3):
        _assert_parity(fn, ref, net, w, k)
