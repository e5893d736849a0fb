"""Golden dataset networks: the generator, bit for bit, against a recorded file.

``data/golden_networks.json`` holds the sha256 digests of ``coords``,
``in_sources``, ``in_offsets`` and ``in_probs`` of the four dataset
stand-ins at two scales; ``data/make_golden_networks.py`` wrote it.  A
generator rewrite must reproduce every array exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).parent / "data"


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_golden_networks", _DATA / "make_golden_networks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MAKER = _maker()
_RECORDED = json.loads((_DATA / "golden_networks.json").read_text())


def test_every_dataset_and_scale_is_recorded():
    assert set(_RECORDED) == {
        f"{name}@{scale}" for name in ("brightkite", "gowalla", "twitter",
                                       "foursquare")
        for scale in _MAKER.SCALES
    }


@pytest.mark.parametrize("key", sorted(_RECORDED))
def test_network_matches(key):
    name, scale = key.split("@")
    assert _MAKER.record_network(name, float(scale)) == _RECORDED[key]
