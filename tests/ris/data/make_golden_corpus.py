"""Record the golden RR corpora that ``test_golden_corpus.py`` pins.

Builds one fixed 400-node graph from a seeded edge list (independent of
:mod:`repro.network.generators`, whose output ``golden_networks.json``
pins separately) and draws RR sets from it with
:class:`~repro.ris.coupled.CoupledRRSampler` under IC (uniform random
edge probabilities) and LT (weighted-cascade in-weights).  Each case is
stored as the sha256 digests of the ``(roots, flat, offsets)`` arrays:

* keys ``0 .. N_KEYS - 1``, which cross two chunk boundaries of the
  batched traversal;
* an unsorted key array with repeats;
* an empty key array;
* single slots through ``regenerate(key)``.

Run from the repository root to rewrite ``golden_corpus.json``::

    PYTHONPATH=src python tests/ris/data/make_golden_corpus.py

The file must only ever be rewritten by a change that means to change
the sampler's law or its hashing; a faster traversal must reproduce it
bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.network.graph import GeoSocialNetwork
from repro.network.probability import assign_weighted_cascade
from repro.ris.coupled import CoupledRRSampler

GOLDEN = Path(__file__).with_name("golden_corpus.json")
#: Two full 2,048-slot chunks and a short third one.
N_KEYS = 4100
#: Unsorted, with repeats, reaching past ``N_KEYS``.
SHUFFLED_KEYS = [4099, 7, 7, 2048, 0, 2047, 9000, 7, 2049, 3, 4099, 1 << 40]
REGENERATED_KEYS = [0, 1, 2047, 2048, 4099, 123_456]
SEED = 2016


def build_graph() -> GeoSocialNetwork:
    """The fixed IC graph: 400 nodes, ~3,200 random edges."""
    rng = np.random.default_rng(1410)
    n = 400
    codes = np.unique(rng.integers(0, n * n, size=3400))
    src, dst = np.divmod(codes, n)
    keep = src != dst
    edges = np.column_stack((src[keep], dst[keep]))
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    probs = rng.uniform(0.02, 0.2, size=len(edges))
    return GeoSocialNetwork.from_edges(edges, coords, probabilities=probs)


def _digest(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.int64).tobytes()
    ).hexdigest()


def _case(roots, flat, offsets) -> dict:
    return {
        "slots": int(len(roots)),
        "members": int(len(flat)),
        "roots": _digest(roots),
        "flat": _digest(flat),
        "offsets": _digest(offsets),
    }


def record_model(network: GeoSocialNetwork, diffusion: str) -> dict:
    sampler = CoupledRRSampler(network, seed=SEED, diffusion=diffusion)
    out = {
        "range": _case(*sampler._traverse(np.arange(N_KEYS, dtype=np.int64))),
        "shuffled": _case(
            *sampler._traverse(np.asarray(SHUFFLED_KEYS, dtype=np.int64))
        ),
        "empty": _case(*sampler._traverse(np.empty(0, dtype=np.int64))),
    }
    _, roots, flat, offsets = sampler.sample_batch(N_KEYS)
    out["sample_batch"] = _case(roots, flat, offsets)
    out["regenerate"] = {}
    for key in REGENERATED_KEYS:
        root, members = sampler.regenerate(key)
        out["regenerate"][str(key)] = {"root": root, "members": _digest(members)}
    return out


def record() -> dict:
    ic = build_graph()
    return {"ic": record_model(ic, "ic"),
            "lt": record_model(assign_weighted_cascade(ic), "lt")}


def main() -> None:
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")


if __name__ == "__main__":
    main()
