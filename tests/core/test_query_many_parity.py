"""Parity: a many-waypoint ``query_trajectory`` must equal looping ``query``.

``query_trajectory`` is the batch form of a point query (the serving
engine answers trajectories with it), so it must never drift from the
single-query path — same seeds, same estimates, same diagnostics — for
both index families, with and without ``return_diagnostics``.
"""

import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex, MiaQueryDiagnostics
from repro.core.ris_da import QueryDiagnostics, RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network

LOCATIONS = [(20.0, 20.0), (50.0, 50.0), (80.0, 30.0), (10.0, 90.0)]
K = 4


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=180, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=37,
    )


@pytest.fixture(scope="module")
def ris_index(net):
    cfg = RisDaConfig(
        k_max=6, n_pivots=8, epsilon_pivot=0.4, max_index_samples=10_000,
        seed=5,
    )
    return RisDaIndex(net, DistanceDecay(alpha=0.02), cfg)


@pytest.fixture(scope="module")
def mia_index(net):
    return MiaDaIndex(
        net, DistanceDecay(alpha=0.02), MiaDaConfig(n_anchors=12, tau=32, seed=5)
    )


class TestRisParity:
    def test_without_diagnostics(self, ris_index):
        batch = ris_index.query_trajectory(LOCATIONS, K)
        singles = [ris_index.query(q, K) for q in LOCATIONS]
        for b, s in zip(batch, singles):
            assert b.seeds == s.seeds
            assert b.estimate == s.estimate
            assert b.samples_used == s.samples_used
            assert b.method == s.method

    def test_with_diagnostics(self, ris_index):
        batch = ris_index.query_trajectory(LOCATIONS, K, return_diagnostics=True)
        singles = [
            ris_index.query(q, K, return_diagnostics=True) for q in LOCATIONS
        ]
        for (br, bd), (sr, sd) in zip(batch, singles):
            assert isinstance(bd, QueryDiagnostics)
            assert br.seeds == sr.seeds
            assert br.estimate == sr.estimate
            assert bd == sd  # diagnostics are deterministic, compare whole


class TestMiaParity:
    def test_without_diagnostics(self, mia_index):
        batch = mia_index.query_trajectory(LOCATIONS, K)
        singles = [mia_index.query(q, K) for q in LOCATIONS]
        for b, s in zip(batch, singles):
            assert b.seeds == s.seeds
            assert b.estimate == s.estimate
            assert b.evaluations == s.evaluations
            assert b.method == s.method

    def test_with_diagnostics(self, mia_index):
        batch = mia_index.query_trajectory(LOCATIONS, K, return_diagnostics=True)
        singles = [
            mia_index.query(q, K, return_diagnostics=True) for q in LOCATIONS
        ]
        for (br, bd), (sr, sd) in zip(batch, singles):
            assert isinstance(bd, MiaQueryDiagnostics)
            assert br.seeds == sr.seeds
            assert br.estimate == sr.estimate
            assert bd.evaluations == sd.evaluations
            assert bd.heap_pops == sd.heap_pops
