"""Golden RIS-DA answers: every kind, bit for bit, against a recorded file.

``data/golden_answers.json`` holds the seeds, Eq. 9 estimates,
diagnostics (certified ratios included), per-seed cover gains and the
Algorithm 4 pivot estimates of one small fixed index, every float as
``float.hex``; ``data/make_golden_answers.py`` builds the index, asks the
queries and wrote the file.  A selection-kernel rewrite must reproduce it
exactly: same seeds, same floats, same certification outcome.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_DATA = Path(__file__).parent / "data"


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_golden_answers", _DATA / "make_golden_answers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recorded():
    return json.loads((_DATA / "golden_answers.json").read_text())


@pytest.fixture(scope="module")
def replayed():
    maker = _maker()
    return maker.record(maker.build_index())


def test_build_matches(recorded, replayed):
    for key in ("corpus_size", "pivot_estimates", "pivot_lower_bounds"):
        assert replayed[key] == recorded[key], key


def test_every_kind_is_covered(recorded):
    answers = recorded["answers"]
    kinds = {a["kind"] for a in answers}
    assert kinds == {"point1", "point10", "point30", "masked", "budgeted",
                     "trajectory", "multi", "given"}
    used = {a.get("samples_used") for a in answers
            if a.get("certified_ratio") is not None}
    # Certified in the first and in the second round, and Lemma 7 answers.
    assert {4096, 8192} <= used
    assert any(a.get("certified_ratio") is None and
               a["kind"] in ("point10", "masked") for a in answers)


def test_answers_match(recorded, replayed):
    assert len(replayed["answers"]) == len(recorded["answers"])
    for i, (got, want) in enumerate(
        zip(replayed["answers"], recorded["answers"])
    ):
        assert got == want, f"answer {i} ({want['kind']})"
