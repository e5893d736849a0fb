"""Golden MIA-DA answers: every kind, against a recorded file.

``data/golden_mia_answers.json`` holds the seeds, estimates (as
``float.hex``), ``evaluations`` and ``heap_pops`` of point, masked,
budgeted and trajectory queries on two dataset stand-ins;
``data/make_golden_mia_answers.py`` builds the indexes, asks the queries
and wrote the file.  Every kind must reproduce its seeds, estimate and
evaluations exactly.  Point, masked and trajectory answers must also pop
the heap exactly as often; a budgeted search may stop sooner, never
later.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).parent / "data"


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_golden_mia_answers", _DATA / "make_golden_mia_answers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MAKER = _maker()
_RECORDED = json.loads((_DATA / "golden_mia_answers.json").read_text())


def test_every_dataset_and_kind_is_recorded():
    assert set(_RECORDED) == set(_MAKER.DATASETS)
    for answers in _RECORDED.values():
        assert {a["kind"] for a in answers} == {
            "point", "masked", "budgeted", "trajectory"
        }


@pytest.mark.parametrize("name", _MAKER.DATASETS)
def test_answers_match(name):
    replayed = _MAKER.record(_MAKER.build_index(name))
    recorded = _RECORDED[name]
    assert len(replayed) == len(recorded)
    for i, (got, want) in enumerate(zip(replayed, recorded)):
        what = f"{name} answer {i} ({want['kind']})"
        for key in ("kind", "seeds", "estimate", "evaluations"):
            assert got[key] == want[key], f"{what}: {key}"
        if want["kind"] == "budgeted":
            assert got["heap_pops"] <= want["heap_pops"], what
        else:
            assert got["heap_pops"] == want["heap_pops"], what
