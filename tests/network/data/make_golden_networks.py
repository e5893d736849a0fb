"""Record the golden dataset networks that ``test_golden_networks.py`` pins.

Generates the four synthetic dataset stand-ins (``brightkite``,
``gowalla``, ``twitter``, ``foursquare``) at scales 0.15 and 0.5 and
stores the sha256 digests of each network's ``coords``, ``in_sources``,
``in_offsets`` and ``in_probs`` arrays, with its node and edge counts.

Run from the repository root to rewrite ``golden_networks.json``::

    PYTHONPATH=src python tests/network/data/make_golden_networks.py

The file must only ever be rewritten by a change that means to change
the generated graphs; a faster generator must reproduce it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.network.datasets import DATASET_RECIPES, load_dataset

GOLDEN = Path(__file__).with_name("golden_networks.json")
SCALES = (0.15, 0.5)
ARRAYS = ("coords", "in_sources", "in_offsets", "in_probs")


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def record_network(name: str, scale: float) -> dict:
    net = load_dataset(name, scale=scale, cache=False)
    out = {"n": int(net.n), "m": int(net.m)}
    for attr in ARRAYS:
        out[attr] = _digest(getattr(net, attr))
    return out


def record() -> dict:
    return {
        f"{name}@{scale}": record_network(name, scale)
        for name in sorted(DATASET_RECIPES)
        for scale in SCALES
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")


if __name__ == "__main__":
    main()
