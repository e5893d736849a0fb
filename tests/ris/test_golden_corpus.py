"""Golden RR corpora: the coupled sampler, bit for bit, against a recorded file.

``data/golden_corpus.json`` holds the sha256 digests of ``(roots, flat,
offsets)`` for IC and LT slots drawn on one fixed graph: a key range
that crosses chunk boundaries, an unsorted key array with repeats, an
empty one, ``sample_batch`` and single-slot ``regenerate``.
``data/make_golden_corpus.py`` wrote the file.  A traversal rewrite must
reproduce it exactly.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.ris import coupled

_DATA = Path(__file__).parent / "data"


def _maker():
    spec = importlib.util.spec_from_file_location(
        "make_golden_corpus", _DATA / "make_golden_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def maker():
    return _maker()


@pytest.fixture(scope="module")
def recorded():
    return json.loads((_DATA / "golden_corpus.json").read_text())


@pytest.fixture(scope="module")
def replayed(maker):
    return maker.record()


def test_keys_cross_chunk_boundaries(maker):
    assert maker.N_KEYS > 2 * coupled._CHUNK_SLOTS


@pytest.mark.parametrize("diffusion", ["ic", "lt"])
@pytest.mark.parametrize(
    "case", ["range", "shuffled", "empty", "sample_batch", "regenerate"]
)
def test_corpus_matches(recorded, replayed, diffusion, case):
    assert replayed[diffusion][case] == recorded[diffusion][case]


def test_cases_are_not_trivial(maker, recorded):
    for diffusion in ("ic", "lt"):
        cases = recorded[diffusion]
        assert cases["range"]["members"] > 5 * cases["range"]["slots"]
        assert cases["shuffled"]["slots"] == len(maker.SHUFFLED_KEYS)
