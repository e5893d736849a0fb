"""Record the golden MIIA forests that ``test_golden_forests.py`` pins.

Builds :class:`~repro.mia.pmia.MiaModel` over the four synthetic dataset
stand-ins (``brightkite``, ``gowalla``, ``twitter``, ``foursquare``) at
the golden-network scales 0.15 and 0.5, at ``theta`` 0.05 and 0.01, and
stores the sha256 digest of each of the five :data:`FlatTrees` arrays
(``members``, ``parents``, ``edge_probs``, ``path_probs``, ``offsets``)
prefixed by its dtype, with the entry count.

Run from the repository root to rewrite ``golden_forests.json``::

    PYTHONPATH=src python tests/mia/data/make_golden_forests.py

The file must only ever be rewritten by a change that means to change
the trees; a faster tree builder must reproduce it bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.mia.pmia import MiaModel
from repro.network.datasets import DATASET_RECIPES, load_dataset

GOLDEN = Path(__file__).with_name("golden_forests.json")
#: The scales of ``tests/network/data/golden_networks.json``, so a forest
#: mismatch can be told apart from a network one.
SCALES = (0.15, 0.5)
THETAS = (0.05, 0.01)
ARRAYS = ("members", "parents", "edge_probs", "path_probs", "offsets")


def _digest(values: np.ndarray) -> str:
    data = np.ascontiguousarray(values)
    return f"{data.dtype.str}:{hashlib.sha256(data.tobytes()).hexdigest()}"


def record_forest(name: str, scale: float, theta: float) -> dict:
    net = load_dataset(name, scale=scale, cache=False)
    flat = MiaModel(net, theta).flat_trees()
    out = {"entries": int(len(flat[0]))}
    for key, values in zip(ARRAYS, flat):
        out[key] = _digest(values)
    return out


def record() -> dict:
    return {
        f"{name}@{scale}@{theta}": record_forest(name, scale, theta)
        for name in sorted(DATASET_RECIPES)
        for scale in SCALES
        for theta in THETAS
    }


def main() -> None:
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")


if __name__ == "__main__":
    main()
