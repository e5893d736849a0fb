"""Tests for repro.core.query."""

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.query import DaimQuery, SeedResult, validate_mask
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import GeometryError, QueryError


class TestDaimQuery:
    def test_construction(self):
        q = DaimQuery((1.0, 2.0), 5)
        assert q.location == (1.0, 2.0)
        assert q.k == 5

    def test_location_coerced(self):
        q = DaimQuery([3, 4], 1)
        assert q.location == (3.0, 4.0)

    def test_bad_k_rejected(self):
        with pytest.raises(QueryError):
            DaimQuery((0, 0), 0)
        with pytest.raises(QueryError):
            DaimQuery((0, 0), -3)

    def test_bad_location_rejected(self):
        with pytest.raises(GeometryError):
            DaimQuery((0, 0, 0), 1)

    def test_frozen(self):
        q = DaimQuery((0, 0), 1)
        with pytest.raises(AttributeError):
            q.k = 2


class TestSeedResult:
    def test_k_property(self):
        r = SeedResult(seeds=[1, 2, 3], estimate=5.0, method="X")
        assert r.k == 3

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(QueryError):
            SeedResult(seeds=[1, 1], estimate=0.0, method="X")

    def test_optional_fields_default(self):
        r = SeedResult(seeds=[0], estimate=1.0, method="X")
        assert r.samples_used is None
        assert r.evaluations is None
        assert r.elapsed == 0.0


BAD_MASKS = ("short", "2-d", "negative", "nan", "inf", "non-numeric")


def _bad_mask(name, n):
    """A length-``n`` mask every targeted query must reject."""
    if name == "short":
        return np.ones(n - 1)
    if name == "2-d":
        return np.ones((1, n))
    if name == "non-numeric":
        return ["a"] * n
    mask = np.ones(n)
    mask[n // 2] = {"negative": -0.5, "nan": np.nan, "inf": np.inf}[name]
    return mask


class TestValidateMask:
    def test_returns_float_array(self):
        mask = validate_mask([0, 1, 2], 3)
        assert mask.dtype == float
        assert mask.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("name", BAD_MASKS)
    def test_rejected(self, name):
        with pytest.raises(QueryError):
            validate_mask(_bad_mask(name, 6), 6)


@pytest.fixture(scope="module")
def ris_index(small_net):
    cfg = RisDaConfig(
        k_max=5, n_pivots=4, epsilon_pivot=0.4, max_index_samples=4000,
        seed=5,
    )
    return RisDaIndex(small_net, None, cfg)


@pytest.fixture(scope="module")
def mia_index(small_net):
    return MiaDaIndex(small_net, None, MiaDaConfig(n_anchors=6, tau=16, seed=5))


@pytest.fixture(params=["ris_index", "mia_index"])
def any_index(request):
    return request.getfixturevalue(request.param)


class TestIndexMaskValidation:
    """Both index families reject bad targeted-query masks with a
    QueryError before any work — an ``inf`` entry used to slip through
    and return a ``nan`` estimate over arbitrary seeds."""

    @pytest.mark.parametrize("name", BAD_MASKS)
    def test_bad_mask_rejected(self, any_index, small_net, name):
        with pytest.raises(QueryError):
            any_index.query_masked(
                (50.0, 50.0), 3, _bad_mask(name, small_net.n)
            )

    def test_valid_mask_answers(self, any_index, small_net):
        mask = np.zeros(small_net.n)
        mask[::2] = 1.0
        res = any_index.query_masked((50.0, 50.0), 3, mask)
        assert len(res.seeds) == 3
        assert np.isfinite(res.estimate)
