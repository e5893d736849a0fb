"""Record the golden RIS-DA answers that ``test_golden_answers.py`` pins.

Builds one small fixed RIS-DA index (a 150-node synthetic network, a
20,000-sample pool, so the certified early stop runs two rounds) and
answers 70 fixed queries of every kind: point at k = 1, 10 and 30,
masked, budgeted with random costs and with uniform power-of-two costs,
trajectory and multi-location.  Each answer is stored with its seeds,
its Eq. 9 estimate, its diagnostics and the per-seed gains of the cover
it ran (re-run through :mod:`repro.ris.coverage` on the same prefix, with
the certification bound on), every float as ``float.hex``.  The build's
Algorithm 4 pivot estimates are pinned too (NaN rows for the pivots the
cap cuts short, whose greedy the build skips).

Run from the repository root to rewrite ``golden_answers.json``::

    PYTHONPATH=src python tests/ris/data/make_golden_answers.py

The file must only ever be rewritten by a change that means to change
answers; a kernel rewrite must reproduce it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.multi_location import multi_location_query, multi_location_weights
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.ris.certify import certify_seed_set
from repro.ris.coverage import (
    estimate_spread,
    weighted_budgeted_cover,
    weighted_greedy_cover,
)

GOLDEN = Path(__file__).with_name("golden_answers.json")
DECAY = DistanceDecay(alpha=0.02)
#: Off the map: small weights certify in the second round or not at all.
FAR = [(150.0, 150.0), (200.0, 200.0), (205.0, 205.0), (230.0, 230.0),
       (-120.0, 40.0), (400.0, 400.0)]


def build_index() -> RisDaIndex:
    network = generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=5.0, n_cities=3, extent=100.0,
                        city_std=9.0),
        seed=29,
    )
    return RisDaIndex(network, DECAY, RisDaConfig(
        k_max=30, n_pivots=6, epsilon_pivot=0.4, max_index_samples=20_000,
        seed=5,
    ))


def _hex(values) -> list:
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _answer(result, diag) -> dict:
    return {
        "seeds": [int(s) for s in result.seeds],
        "estimate": float(result.estimate).hex(),
        "samples_used": int(diag.samples_used),
        "samples_required": diag.samples_required,
        "lower_bound": float(diag.lower_bound).hex(),
        "certified_ratio": (None if diag.certified_ratio is None
                            else float(diag.certified_ratio).hex()),
        "guarantee_met": bool(diag.guarantee_met),
    }


def _top_k_cover(index, w_node, k, l) -> dict:
    cover = weighted_greedy_cover(
        index.corpus, w_node[index.corpus.roots[:l]], k, prefix=l,
    )
    return {"gains": _hex(cover.gains), "cover_estimate": float(cover.estimate).hex(),
            "bound": float(cover.optimal_coverage_upper).hex()}


def _budgeted_cover(index, w_node, costs, budget, l) -> dict:
    cover = weighted_budgeted_cover(
        index.corpus, w_node[index.corpus.roots[:l]], costs, budget, prefix=l,
    )
    return {"gains": _hex(cover.gains), "cover_estimate": float(cover.estimate).hex(),
            "cost_spent": float(cover.cost_spent).hex()}


def record(index: RisDaIndex) -> dict:
    """Every golden answer of ``index`` as a JSON-ready dict."""
    net = index.network
    n = net.n
    rng = np.random.default_rng(2016)
    locs = [tuple(p) for p in rng.uniform(0.0, 100.0, size=(44, 2)).tolist()]
    coords = net.coords
    out: dict = {
        "corpus_size": len(index.corpus),
        "pivot_estimates": _digest(index.pivot_estimates),
        "pivot_lower_bounds": _digest(index.pivot_lower_bounds),
        "answers": [],
    }
    answers = out["answers"]

    def point(loc, k):
        result, diag = index.query(loc, k, return_diagnostics=True)
        w_node = DECAY.weights(coords, loc)
        answers.append({"kind": f"point{k}", **_answer(result, diag),
                        **_top_k_cover(index, w_node, k, diag.samples_used)})

    for loc in locs[:8]:
        point(loc, 1)
    for loc in locs[8:18]:
        point(loc, 10)
    for loc in locs[18:26]:
        point(loc, 30)
    for loc in FAR:
        point(loc, 10)
    masked = []
    for loc in locs[26:32]:
        mask = np.zeros(n)
        mask[rng.choice(n, size=n // 4, replace=False)] = 1.0
        masked.append((loc, mask))
    every7th = np.zeros(n)
    every7th[::7] = 1.0
    masked += [((185.0, 50.0), every7th), ((215.0, 50.0), every7th)]
    for loc, mask in masked:
        result, diag = index.query_masked(loc, 10, mask, return_diagnostics=True)
        w_node = DECAY.weights(coords, loc) * mask
        answers.append({"kind": "masked", **_answer(result, diag),
                        **_top_k_cover(index, w_node, 10, diag.samples_used)})
    budgeted = [(rng.uniform(0.5, 2.0, size=n), 10.0) for _ in range(6)]
    budgeted += [(np.full(n, 0.5), 5.0), (np.full(n, 2.0), 20.0),
                 (np.full(n, 0.25), 0.75), (np.full(n, 1.0), 30.0)]
    for loc, (costs, budget) in zip(locs[32:42], budgeted):
        result, diag = index.query_budgeted(loc, budget, costs,
                                            return_diagnostics=True)
        w_node = DECAY.weights(coords, loc)
        answers.append({"kind": "budgeted", **_answer(result, diag),
                        **_budgeted_cover(index, w_node, costs, budget,
                                          diag.samples_used)})
    for start in locs[:3]:
        path = [start] + [tuple(p) for p in
                          (np.asarray(start) + rng.normal(0.0, 8.0, size=(3, 2))
                           ).tolist()]
        for result, diag in index.query_trajectory(path, 10,
                                                   return_diagnostics=True):
            answers.append({"kind": "trajectory", **_answer(result, diag)})
    for i in range(5):
        stores = [tuple(p) for p in rng.uniform(0.0, 100.0, size=(3, 2)).tolist()]
        result = multi_location_query(index, stores, 10)
        w_node = multi_location_weights(DECAY, coords, stores)
        answers.append({
            "kind": "multi",
            "seeds": [int(s) for s in result.seeds],
            "estimate": float(result.estimate).hex(),
            "samples_used": int(result.samples_used),
            **_top_k_cover(index, w_node, 10, result.samples_used),
        })
    # Given seed sets: Eq. 9 on the whole pool and a fresh-sample certificate.
    for entry, loc in zip(answers[8:11], locs[8:11]):
        omega = DECAY.weights(coords, loc)[index.corpus.roots]
        cert = certify_seed_set(net, loc, entry["seeds"], decay=DECAY,
                                n_samples=3000, seed=17)
        answers.append({
            "kind": "given",
            "seeds": entry["seeds"],
            "estimate": float(estimate_spread(index.corpus, entry["seeds"],
                                              omega)).hex(),
            "certificate": _hex([cert.ratio, cert.spread_lcb, cert.opt_ucb]),
        })
    return out


def main() -> None:
    GOLDEN.write_text(json.dumps(record(build_index()), indent=1) + "\n")


if __name__ == "__main__":
    main()
