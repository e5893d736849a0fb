"""Audit of RIS-DA's ``guarantee_met`` flag against exact optima.

On graphs of at most 14 edges every quantity the certificate speaks
about is computable exactly: ``I_q(S)`` by possible-world enumeration
(:mod:`repro.diffusion.possible_world` under IC, live-edge enumeration
in :mod:`repro.diffusion.lt` under LT) and ``OPT_q^k`` by brute force
over all k-subsets (``k <= 3``).  For each diffusion model the audit
runs point, masked, multi-location and uniform-cost budgeted queries at
pivots and far from them, before and after an
:meth:`~repro.core.ris_da.RisDaIndex.update`, plus point and
multi-location queries on indexes whose ``max_index_samples`` cuts
every pivot's Algorithm 4 prefix short, and the same kinds again on
indexes large enough (``epsilon = 0.25``) for the certified early stop,
and checks

* **LB-EST soundness**: Algorithm 3 at the query's own weights never
  exceeds the exact optimum (it is a certain bound), and neither does
  the sizing bound of a masked or post-update query, which is LB-EST
  alone, nor that of any query on a capped index, where Lemma 8's
  premise fails;
* **the certificate**: among answers flagged ``guarantee_met``, the
  share with ``I_q(S) < (1 - 1/e - epsilon) * OPT`` is consistent with a
  failure rate ``<= delta`` (one-sided binomial test);
* **the certified early stop**: among answers it certified, both the
  ratio and its reported Chernoff LCB (``lower_bound > OPT``) fail no
  more often than ``delta`` allows, against that index's stricter
  ``epsilon``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from repro.core.multi_location import multi_location_weights
from repro.core.ris_da import RisDaConfig, RisDaIndex, _Plan, certify_rounds
from repro.diffusion.lt import exact_lt_activation_probabilities
from repro.diffusion.possible_world import (
    exact_activation_probabilities,
    exact_weighted_spread,
)
from repro.geo.weights import DistanceDecay
from repro.network.graph import GeoSocialNetwork
from repro.ris.lower_bound import lb_est, lb_est_lt

K_MAX = 3
N_NODES = 8
N_EDGES = 10
GRAPH_SEEDS = (1, 2, 3)
#: ``max_index_samples`` of the capped indexes, below every pivot's
#: Lemma 7 size (2k-3.4k samples here): one cut deep enough that the
#: pivots' greedy estimates are noise, one shallow enough to certify.
CAPS = (32, 1500)
#: Online ``epsilon`` of the indexes the certified early stop runs on:
#: their Lemma 7 sizes reach 10k-16k samples, past ``2 * CERTIFY_SAMPLES``.
EARLY_STOP_EPSILON = 0.25
#: Reject the certificate when P(Binomial(certified, delta) >= failures)
#: falls below this.
ALPHA = 1e-3


def _graph(seed: int, diffusion: str = "ic") -> GeoSocialNetwork:
    """A random 8-node graph; under LT each node's in-weights are
    rescaled to sum to at most 1."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(N_NODES) for v in range(N_NODES) if u != v]
    chosen = rng.choice(len(pairs), size=N_EDGES, replace=False)
    net = GeoSocialNetwork.from_edges(
        [pairs[i] for i in chosen],
        rng.uniform(0.0, 10.0, (N_NODES, 2)),
        rng.uniform(0.2, 0.9, N_EDGES),
    )
    if diffusion == "lt":
        edges, probs = net.edge_array()
        heads = edges[:, 1]
        load = np.bincount(heads, weights=probs, minlength=net.n)
        net = net.with_probabilities(probs / np.maximum(load[heads], 1.0))
    return net


class _Exact:
    """Exact activation vectors of every seed set of size <= K_MAX.

    ``I_q(S) = act(S) . w`` for any weights, so one enumeration per set
    serves every query on the graph.
    """

    def __init__(self, net: GeoSocialNetwork, diffusion: str = "ic") -> None:
        activation = (
            exact_activation_probabilities if diffusion == "ic"
            else exact_lt_activation_probabilities
        )
        self.act = {
            s: activation(net, s)
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


def _audit_index(
    index: RisDaIndex, exact: _Exact, rng: np.random.Generator, kinds
):
    """``(kind, certified, I_q(S), OPT, LB-EST, reported L, certified
    ratio)`` per query; ``exact`` must enumerate ``index.network`` as it
    is now."""
    net, decay = index.network, index.decay
    bound = lb_est if index.config.diffusion == "ic" else lb_est_lt
    locs = _locations(index, rng)
    rows = []

    def record(kind, res, diag, w, k):
        rows.append((
            kind, bool(diag.guarantee_met), exact.spread(res.seeds, w),
            exact.opt(w, k), bound(net, w, k, decay.w_max),
            diag.lower_bound, diag.certified_ratio,
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
    """``P(Binomial(trials, p) >= failures)``, each term in log space
    (``math.comb`` times a float overflows past ~1,000 trials)."""
    return float(sum(
        math.exp(
            math.lgamma(trials + 1) - math.lgamma(i + 1)
            - math.lgamma(trials - i + 1)
            + i * math.log(p) + (trials - i) * math.log1p(-p)
        )
        for i in range(failures, trials + 1)
    ))


def _index(net, diffusion, seed, cap=30_000, epsilon=0.5) -> RisDaIndex:
    return RisDaIndex(net, DistanceDecay(alpha=0.3), RisDaConfig(
        k_max=K_MAX, n_pivots=4, epsilon_pivot=0.3, epsilon=epsilon,
        max_index_samples=cap, diffusion=diffusion, seed=seed,
    ))


def _weaken(index: RisDaIndex) -> None:
    """A delta that weakens and drops edges and moves a check-in: OPT
    can fall below the build's pivot estimates."""
    edges, probs = index.network.edge_array()
    index.update(
        edges=edges[1:4], probabilities=probs[1:4] / 2.0,
        removed=edges[:1], checkins=[(0, 5.0, 5.0)],
    )


def run_audit(diffusion: str = "ic"):
    """``(rows, delta, epsilon)`` over every audit graph and query."""
    rows = []
    for seed in GRAPH_SEEDS:
        net = _graph(seed, diffusion)
        exact = _Exact(net, diffusion)
        index = _index(net, diffusion, seed)
        rng = np.random.default_rng(seed)
        rows += _audit_index(
            index, exact, rng, ("masked", "budgeted", "multi")
        )
        for cap in CAPS:
            capped = _index(net, diffusion, seed, cap)
            assert capped.truncated and not capped.lemma8_ok.any()
            rows += [
                ("capped-" + r[0],) + r[1:]
                for r in _audit_index(capped, exact, rng, ("multi",))
            ]
        _weaken(index)
        updated = _Exact(index.network, diffusion)
        rows += [
            ("updated",) + r[1:]
            for r in _audit_index(index, updated, rng, ())
        ]
        large = _index(net, diffusion, seed, epsilon=EARLY_STOP_EPSILON)
        assert certify_rounds(len(large.corpus))
        rows += [
            ("early-" + r[0],) + r[1:]
            for r in _audit_index(
                large, exact, rng, ("masked", "budgeted", "multi")
            )
        ]
        _weaken(large)
        rows += [
            ("early-updated",) + r[1:]
            for r in _audit_index(large, updated, rng, ())
        ]
    return rows, 1.0 / N_NODES, index.config.epsilon


@pytest.fixture(scope="module")
def audit():
    return run_audit("ic")


def test_enumeration_matches_exact_weighted_spread():
    net = _graph(GRAPH_SEEDS[0])
    w = DistanceDecay(alpha=0.3).weights(net.coords, (5.0, 5.0))
    assert _Exact(net).spread([0, 3], w) == pytest.approx(
        exact_weighted_spread(net, [0, 3], w), rel=1e-12
    )


def test_lb_est_never_exceeds_opt(audit):
    rows, _, _ = audit
    assert all(r[4] <= r[3] + 1e-9 for r in rows)


@pytest.mark.parametrize(
    "kind", ["masked", "updated", "capped-point", "capped-multi"]
)
def test_lb_est_sized_kinds_never_overshoot(audit, kind):
    """Masked, post-update and capped-index plans are sized without
    Lemma 8, so their ``L`` is a certain bound on the optimum they are
    judged against.  The unmasked or build-time transfer need not be,
    and neither is a transfer from a pivot whose greedy ran on fewer
    samples than Lemma 8 presumes: at the deep cap its estimates
    overshoot the exact optimum."""
    rows, _, _ = audit
    sized = [(r[3], r[5]) for r in rows if r[0] == kind]
    assert sized
    assert all(L <= opt + 1e-9 for opt, L in sized)


@pytest.mark.parametrize(
    "kind",
    ["point", "masked", "multi", "budgeted", "updated", "capped-point",
     "capped-multi"],
)
def test_every_kind_is_certified_somewhere(audit, kind):
    rows, _, _ = audit
    assert any(r[1] for r in rows if r[0] == kind)


def _assert_ratio_met(rows, delta, epsilon):
    ratio = 1.0 - 1.0 / math.e - epsilon
    certified = [(s, opt) for _, met, s, opt, *_ in rows if met]
    failures = sum(s < ratio * opt - 1e-12 for s, opt in certified)
    assert len(certified) >= 100
    assert _binomial_tail(failures, len(certified), delta) >= ALPHA, (
        failures, len(certified),
    )


def test_certified_answers_meet_the_ratio(audit):
    _assert_ratio_met(*audit)


def _early_stopped(rows):
    return [r for r in rows if r[6] is not None]


@pytest.mark.parametrize("kind", ["point", "masked", "multi", "updated"])
def test_early_stop_certifies_every_top_k_kind(audit, kind):
    """The early stop runs on the large indexes only, for every top-k
    kind; budgeted plans keep the Lemma 7 path."""
    rows, _, _ = audit
    early = _early_stopped(rows)
    assert any(r[0] == "early-" + kind for r in early)
    assert {r[0] for r in early} <= {
        "early-point", "early-masked", "early-multi", "early-updated",
    }
    assert all(r[1] for r in early)


def test_early_stopped_answers_meet_the_ratio(audit):
    rows, delta, _ = audit
    _assert_ratio_met(_early_stopped(rows), delta, EARLY_STOP_EPSILON)


def test_early_stop_lcb_rarely_exceeds_opt(audit):
    """A certified answer reports its spread LCB as ``lower_bound``: it
    may exceed the exact optimum only as often as delta allows."""
    rows, delta, _ = audit
    early = _early_stopped(rows)
    failures = sum(r[5] > r[3] + 1e-9 for r in early)
    assert len(early) >= 100
    assert _binomial_tail(failures, len(early), delta) >= ALPHA, (
        failures, len(early),
    )


def test_capped_certified_answers_meet_the_ratio(audit):
    rows, delta, epsilon = audit
    _assert_ratio_met(
        [r for r in rows if r[0].startswith("capped-")], delta, epsilon
    )


class TestLinearThreshold:
    """Every audit check above, on LT indexes over the same graphs with
    each node's in-weights rescaled to sum to at most 1."""

    @pytest.fixture(scope="class")
    def audit(self):
        return run_audit("lt")

    test_lb_est_never_exceeds_opt = staticmethod(test_lb_est_never_exceeds_opt)
    test_lb_est_sized_kinds_never_overshoot = staticmethod(
        test_lb_est_sized_kinds_never_overshoot
    )
    test_every_kind_is_certified_somewhere = staticmethod(
        test_every_kind_is_certified_somewhere
    )
    test_certified_answers_meet_the_ratio = staticmethod(
        test_certified_answers_meet_the_ratio
    )
    test_capped_certified_answers_meet_the_ratio = staticmethod(
        test_capped_certified_answers_meet_the_ratio
    )
    test_early_stop_certifies_every_top_k_kind = staticmethod(
        test_early_stop_certifies_every_top_k_kind
    )
    test_early_stopped_answers_meet_the_ratio = staticmethod(
        test_early_stopped_answers_meet_the_ratio
    )
    test_early_stop_lcb_rarely_exceeds_opt = staticmethod(
        test_early_stop_lcb_rarely_exceeds_opt
    )
