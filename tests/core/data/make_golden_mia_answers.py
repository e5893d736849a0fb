"""Record the golden MIA-DA answers that ``test_golden_mia_answers.py`` pins.

Builds one MIA-DA index (100 anchors) over each of the ``brightkite``
and ``gowalla`` stand-ins at scale 0.5 and answers fixed queries of
every kind the index serves: point at k = 1, 10 and 30, masked (0/1 and
graded masks), budgeted with random costs and with uniform power-of-two
costs, and trajectories.  Each answer is stored with its seeds, its
estimate as ``float.hex`` and the search's ``evaluations`` and
``heap_pops``.

Run from the repository root to rewrite ``golden_mia_answers.json``::

    PYTHONPATH=src python tests/core/data/make_golden_mia_answers.py

The file must only ever be rewritten by a change that means to change
answers; a rewrite of the priority search must reproduce it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.geo.weights import DistanceDecay
from repro.network.datasets import load_dataset

GOLDEN = Path(__file__).with_name("golden_mia_answers.json")
DATASETS = ("brightkite", "gowalla")
SCALE = 0.5
DECAY = DistanceDecay(c=1.0, alpha=0.01)


def build_index(name: str) -> MiaDaIndex:
    network = load_dataset(name, scale=SCALE, cache=False)
    return MiaDaIndex(network, DECAY, MiaDaConfig(n_anchors=100, seed=3))


def _answer(kind: str, result, diag) -> dict:
    return {
        "kind": kind,
        "seeds": [int(s) for s in result.seeds],
        "estimate": float(result.estimate).hex(),
        "evaluations": int(diag.evaluations),
        "heap_pops": int(diag.heap_pops),
    }


def record(index: MiaDaIndex) -> list:
    """Every golden answer of ``index`` as a JSON-ready list."""
    n = index.network.n
    box = index.network.bounding_box()
    rng = np.random.default_rng(2016)

    def loc():
        return (float(rng.uniform(box.xmin, box.xmax)),
                float(rng.uniform(box.ymin, box.ymax)))

    out = []
    for k, count in ((1, 10), (10, 20), (30, 10)):
        for _ in range(count):
            out.append(_answer(
                "point", *index.query(loc(), k, return_diagnostics=True)
            ))
    for i in range(20):
        if i % 2:
            mask = rng.uniform(0.0, 1.0, size=n)
        else:
            mask = np.zeros(n)
            mask[rng.choice(n, size=n // 4, replace=False)] = 1.0
        out.append(_answer("masked", *index.query_masked(
            loc(), 10, mask, return_diagnostics=True
        )))
    budgeted = [(rng.uniform(0.5, 2.0, size=n), 10.0) for _ in range(8)]
    budgeted += [(rng.uniform(1.0, 4.0, size=n), 3.5) for _ in range(4)]
    budgeted += [(np.full(n, 0.5), 5.0), (np.full(n, 2.0), 20.0),
                 (np.full(n, 0.25), 0.75), (np.full(n, 1.0), 30.0)]
    for costs, budget in budgeted:
        out.append(_answer("budgeted", *index.query_budgeted(
            loc(), budget, costs, return_diagnostics=True
        )))
    for _ in range(4):
        start = np.asarray(loc())
        path = [tuple(start)] + [
            tuple(p) for p in (start + rng.normal(0.0, 20.0, size=(3, 2))).tolist()
        ]
        for result, diag in index.query_trajectory(path, 10,
                                                   return_diagnostics=True):
            out.append(_answer("trajectory", result, diag))
    return out


def main() -> None:
    GOLDEN.write_text(json.dumps(
        {name: record(build_index(name)) for name in DATASETS}, indent=1
    ) + "\n")


if __name__ == "__main__":
    main()
