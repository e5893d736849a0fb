"""Shared fixtures and helpers for the figure-reproduction benchmarks.

Every benchmark writes its paper-shaped output (the same rows/series the
paper plots) to ``benchmarks/results/<name>.txt`` *and* prints it, so the
tables survive pytest's output capture.  ``REPRO_RESULTS_DIR`` sends the
files elsewhere, leaving the committed results as they are.  Index
construction is done once per session and shared across figures.

Scaling: graphs are laptop-scaled stand-ins for the paper's datasets (see
DESIGN.md).  The ``REPRO_SCALE`` environment variable stretches them.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.mia.pmia import MiaModel, PmiaDa
from repro.network.datasets import load_dataset

RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR") or Path(__file__).parent / "results"
)

#: The paper's four datasets, smallest to largest.
DATASETS = ("brightkite", "gowalla", "twitter", "foursquare")

#: The two datasets the paper uses for parameter studies (Figures 5-8).
PARAM_DATASETS = ("gowalla", "twitter")

#: Paper defaults (Section 5.1).
DEFAULT_ALPHA = 0.01
DEFAULT_K = 30
K_RANGE = (10, 20, 30, 40, 50)
THETA = 0.05

#: Laptop-scaled index parameters (paper: 300 anchors, 2000 pivots).
N_ANCHORS = 60
N_PIVOTS = 24
EPS_PIVOT = 0.35
MAX_SAMPLES = 80_000

#: Monte-Carlo rounds for spread evaluation (paper: 10000).
MC_ROUNDS = int(os.environ.get("REPRO_MC_ROUNDS", "200"))

#: Queries averaged per data point (paper averages over its query set).
N_QUERIES = int(os.environ.get("REPRO_N_QUERIES", "3"))


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under :data:`RESULTS_DIR`."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n=== {name} ===\n{text}\n")


@pytest.fixture(scope="session")
def decay() -> DistanceDecay:
    return DistanceDecay(c=1.0, alpha=DEFAULT_ALPHA)


@pytest.fixture(scope="session")
def networks() -> Dict[str, object]:
    return {name: load_dataset(name) for name in DATASETS}


@pytest.fixture(scope="session")
def mia_models(networks) -> Dict[str, MiaModel]:
    return {
        name: MiaModel(net, theta=THETA) for name, net in networks.items()
    }


@pytest.fixture(scope="session")
def pmia_baselines(networks, mia_models) -> Dict[str, PmiaDa]:
    return {
        name: PmiaDa(networks[name], model=mia_models[name])
        for name in DATASETS
    }


@pytest.fixture(scope="session")
def mia_indexes(networks, mia_models, decay) -> Dict[str, MiaDaIndex]:
    cfg = MiaDaConfig(theta=THETA, n_anchors=N_ANCHORS, tau=200, seed=0)
    return {
        name: MiaDaIndex(networks[name], decay, cfg, model=mia_models[name])
        for name in DATASETS
    }


@pytest.fixture(scope="session")
def ris_indexes(networks, decay) -> Dict[str, RisDaIndex]:
    out = {}
    for name in DATASETS:
        cfg = RisDaConfig(
            k_max=max(K_RANGE),
            n_pivots=N_PIVOTS,
            epsilon_pivot=EPS_PIVOT,
            max_index_samples=MAX_SAMPLES,
            seed=1,
        )
        out[name] = RisDaIndex(networks[name], decay, cfg)
    return out
