"""Golden MIIA forests: the tree builder, bit for bit, against a recorded file.

``data/golden_forests.json`` holds the sha256 digests (dtype included) of
the five flat-tree arrays of :class:`~repro.mia.pmia.MiaModel` over the
four dataset stand-ins at two scales and two ``theta`` values;
``data/make_golden_forests.py`` wrote it.  A builder rewrite must
reproduce every array exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).parent / "data"


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_golden_forests", _DATA / "make_golden_forests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MAKER = _maker()
_RECORDED = json.loads((_DATA / "golden_forests.json").read_text())


def test_every_dataset_scale_and_theta_is_recorded():
    assert set(_RECORDED) == {
        f"{name}@{scale}@{theta}"
        for name in ("brightkite", "gowalla", "twitter", "foursquare")
        for scale in _MAKER.SCALES
        for theta in _MAKER.THETAS
    }


@pytest.mark.parametrize("key", sorted(_RECORDED))
def test_forest_matches(key):
    name, scale, theta = key.split("@")
    assert _MAKER.record_forest(name, float(scale), float(theta)) == _RECORDED[key]
