"""Shared fixtures for the test suite.

Naming convention for graph fixtures:

* ``line_net`` — a 3-node directed path, the smallest interesting cascade;
* ``diamond_net`` — 4 nodes with two parallel length-2 paths (tests path
  combination and MIA's single-path approximation);
* ``example_net`` — the 5-node graph used by the paper's running examples;
* ``small_net`` — a seeded 120-node synthetic geo-social network, big
  enough for index behaviour, small enough for exhaustive checks;
* ``medium_net`` — a seeded 600-node network for integration tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.network.graph import GeoSocialNetwork


@pytest.fixture
def line_net() -> GeoSocialNetwork:
    """0 -> 1 -> 2, probabilities 0.5 each, unit-spaced on the x axis."""
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    return GeoSocialNetwork.from_edges(
        [(0, 1), (1, 2)], coords, [0.5, 0.5]
    )


@pytest.fixture
def diamond_net() -> GeoSocialNetwork:
    """0 -> {1, 2} -> 3: two parallel two-hop paths of probability 0.25."""
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 0.0]])
    return GeoSocialNetwork.from_edges(
        [(0, 1), (0, 2), (1, 3), (2, 3)], coords, [0.5, 0.5, 0.5, 0.5]
    )


@pytest.fixture
def example_net() -> GeoSocialNetwork:
    """The 5-node example graph used throughout the paper's figures.

    v3 -> v1 -> v2 -> {v4, v5}, v4 -> v5 (ids 2, 0, 1, 3, 4 here), all
    probabilities 0.5.
    """
    coords = np.array(
        [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [3.0, 1.0], [3.0, -1.0]]
    )
    edges = [(2, 0), (0, 1), (1, 3), (1, 4), (3, 4)]
    probs = [0.5, 0.5, 0.5, 0.5, 0.5]
    return GeoSocialNetwork.from_edges(edges, coords, probs)


@pytest.fixture(scope="session")
def small_net() -> GeoSocialNetwork:
    config = GeoSocialConfig(n=120, avg_out_degree=4.0, n_cities=2, extent=100.0,
                             city_std=8.0)
    return generate_geo_social_network(config, seed=7)


@pytest.fixture(scope="session")
def medium_net() -> GeoSocialNetwork:
    config = GeoSocialConfig(n=600, avg_out_degree=6.0, n_cities=3, extent=200.0,
                             city_std=10.0)
    return generate_geo_social_network(config, seed=11)


@pytest.fixture
def decay() -> DistanceDecay:
    """The paper's default weight function: c = 1, alpha = 0.01."""
    return DistanceDecay(c=1.0, alpha=0.01)


@pytest.fixture
def strong_decay() -> DistanceDecay:
    """A fast-decaying weight function for small-extent test graphs."""
    return DistanceDecay(c=1.0, alpha=0.05)


@pytest.fixture
def lemma7_sizing(monkeypatch):
    """Answer every RIS-DA query on the paper's Lemma 7 path.

    The certified early stop runs only on indexes of at least
    ``2 * CERTIFY_SAMPLES`` samples; a first round larger than any test
    corpus leaves every plan to the Lemma 7 sizing, with the full
    ``delta - delta_pivot``, exactly as an index too small for the
    schedule answers.  Patched on the module, so forked pool workers see
    it too.
    """
    import repro.core.ris_da as ris_da

    monkeypatch.setattr(ris_da, "CERTIFY_SAMPLES", 1 << 40)
