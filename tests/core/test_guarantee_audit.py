"""Audit of RIS-DA's ``guarantee_met`` flag against exact optima.

On graphs of at most 14 edges every quantity the certificate speaks
about is computable exactly: ``I_q(S)`` by possible-world enumeration
(:mod:`repro.diffusion.possible_world`) and ``OPT_q^k`` by brute force
over all k-subsets (``k <= 3``).  The audit runs point, masked,
multi-location and uniform-cost budgeted queries at pivots and far from
them, before and after an :meth:`~repro.core.ris_da.RisDaIndex.update`,
and checks

* **LB-EST soundness**: Algorithm 3 at the query's own weights never
  exceeds the exact optimum (it is a certain bound), and neither does
  the sizing bound of a masked or post-update query, which is LB-EST
  alone;
* **the certificate**: among answers flagged ``guarantee_met``, the
  share with ``I_q(S) < (1 - 1/e - epsilon) * OPT`` is consistent with a
  failure rate ``<= delta`` (one-sided binomial test).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from repro.core.multi_location import multi_location_weights
from repro.core.ris_da import RisDaConfig, RisDaIndex, _Plan
from repro.diffusion.possible_world import (
    exact_activation_probabilities,
    exact_weighted_spread,
)
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.ris.lower_bound import lb_est

K_MAX = 3
N_NODES = 8
N_EDGES = 10
GRAPH_SEEDS = (1, 2, 3)
#: Reject the certificate when P(Binomial(certified, delta) >= failures)
#: falls below this.
ALPHA = 1e-3


def _graph(seed: int) -> GeoSocialNetwork:
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(N_NODES) for v in range(N_NODES) if u != v]
    chosen = rng.choice(len(pairs), size=N_EDGES, replace=False)
    return GeoSocialNetwork.from_edges(
        [pairs[i] for i in chosen],
        rng.uniform(0.0, 10.0, (N_NODES, 2)),
        rng.uniform(0.2, 0.9, N_EDGES),
    )


class _Exact:
    """Exact activation vectors of every seed set of size <= K_MAX.

    ``I_q(S) = act(S) . w`` for any weights, so one enumeration per set
    serves every query on the graph.
    """

    def __init__(self, net: GeoSocialNetwork) -> None:
        self.act = {
            s: exact_activation_probabilities(net, s)
            for r in range(1, K_MAX + 1)
            for s in combinations(range(net.n), r)
        }

    def spread(self, seeds, w: np.ndarray) -> float:
        if not seeds:
            return 0.0
        return float(self.act[tuple(sorted(seeds))] @ w)

    def opt(self, w: np.ndarray, k: int) -> float:
        return max(float(a @ w) for s, a in self.act.items() if len(s) == k)


def _locations(index: RisDaIndex, rng: np.random.Generator):
    """Pivots (near) plus the box's corners and random points (far)."""
    box = index.network.bounding_box()
    x0, y0, x1, y1 = box.xmin, box.ymin, box.xmax, box.ymax
    locs = [tuple(map(float, p)) for p in index.pivots]
    locs += [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    locs += [tuple(rng.uniform((x0, y0), (x1, y1))) for _ in range(4)]
    return locs


def _audit_index(index: RisDaIndex, rng: np.random.Generator, kinds):
    """``(kind, certified, I_q(S), OPT, LB-EST, sizing L)`` per query."""
    net, decay = index.network, index.decay
    exact = _Exact(net)
    locs = _locations(index, rng)
    rows = []

    def record(kind, res, diag, w, k):
        rows.append((
            kind, bool(diag.guarantee_met), exact.spread(res.seeds, w),
            exact.opt(w, k), lb_est(net, w, k, decay.w_max),
            diag.lower_bound,
        ))

    for loc in locs:
        w = decay.weights(net.coords, loc)
        for k in range(1, K_MAX + 1):
            record("point", *index.query(loc, k, return_diagnostics=True), w, k)
            if "masked" in kinds:
                mask = (rng.random(net.n) < 0.6).astype(float)
                res, diag = index.query_masked(
                    loc, k, mask, return_diagnostics=True
                )
                record("masked", res, diag, w * mask, k)
            if "budgeted" in kinds:
                costs = np.full(net.n, 0.5)
                res, diag = index.query_budgeted(
                    loc, 0.5 * k, costs, return_diagnostics=True
                )
                record("budgeted", res, diag, w, k)
    if "multi" in kinds:
        for a, b in zip(locs[::2], locs[1::2]):
            w = multi_location_weights(decay, net.coords, (a, b))
            for k in range(1, K_MAX + 1):
                [(res, diag)] = index._answer(
                    [_Plan((a, b), k)], return_diagnostics=True
                )
                record("multi", res, diag, w, k)
    return rows


def _binomial_tail(failures: int, trials: int, p: float) -> float:
    """``P(Binomial(trials, p) >= failures)``."""
    return float(sum(
        math.comb(trials, i) * p**i * (1.0 - p) ** (trials - i)
        for i in range(failures, trials + 1)
    ))


def run_audit():
    """``(rows, delta, epsilon)`` over every audit graph and query."""
    rows = []
    for seed in GRAPH_SEEDS:
        net = _graph(seed)
        index = RisDaIndex(net, DistanceDecay(alpha=0.3), RisDaConfig(
            k_max=K_MAX, n_pivots=4, epsilon_pivot=0.3,
            max_index_samples=30_000, seed=seed,
        ))
        rng = np.random.default_rng(seed)
        rows += _audit_index(
            index, rng, ("masked", "budgeted", "multi")
        )
        # A delta that weakens and drops edges and moves a check-in:
        # OPT can fall below the build's pivot estimates.
        edges, probs = index.network.edge_array()
        index.update(
            edges=edges[1:4], probabilities=probs[1:4] / 2.0,
            removed=edges[:1], checkins=[(0, 5.0, 5.0)],
        )
        rows += [("updated",) + r[1:] for r in _audit_index(index, rng, ())]
    return rows, 1.0 / N_NODES, index.config.epsilon


@pytest.fixture(scope="module")
def audit():
    return run_audit()


def test_enumeration_matches_exact_weighted_spread():
    net = _graph(GRAPH_SEEDS[0])
    w = DistanceDecay(alpha=0.3).weights(net.coords, (5.0, 5.0))
    assert _Exact(net).spread([0, 3], w) == pytest.approx(
        exact_weighted_spread(net, [0, 3], w), rel=1e-12
    )


def test_lb_est_never_exceeds_opt(audit):
    rows, _, _ = audit
    assert all(lb <= opt + 1e-9 for *_, opt, lb, _ in rows)


@pytest.mark.parametrize("kind", ["masked", "updated"])
def test_lb_est_sized_kinds_never_overshoot(audit, kind):
    """Masked and post-update plans are sized by LB-EST alone, so their
    ``L`` is a certain bound on the optimum they are judged against
    (the unmasked or build-time Lemma 8 transfer need not be)."""
    rows, _, _ = audit
    assert all(L <= opt + 1e-9 for r in rows if r[0] == kind
               for opt, L in [(r[3], r[5])])


@pytest.mark.parametrize(
    "kind", ["point", "masked", "multi", "budgeted", "updated"]
)
def test_every_kind_is_certified_somewhere(audit, kind):
    rows, _, _ = audit
    assert any(r[1] for r in rows if r[0] == kind)


def test_certified_answers_meet_the_ratio(audit):
    rows, delta, epsilon = audit
    ratio = 1.0 - 1.0 / math.e - epsilon
    certified = [(s, opt) for _, met, s, opt, *_ in rows if met]
    failures = sum(s < ratio * opt - 1e-12 for s, opt in certified)
    assert len(certified) >= 100
    assert _binomial_tail(failures, len(certified), delta) >= ALPHA, (
        failures, len(certified),
    )
