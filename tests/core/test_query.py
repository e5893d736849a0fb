"""Tests for repro.core.query."""

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.multi_location import multi_location_query
from repro.core.query import (
    DaimQuery,
    SeedResult,
    validate_budget,
    validate_k,
    validate_mask,
)
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


#: Seed counts every top-k query must refuse with a QueryError, for an
#: index of ``k_max = 5``: floats (integral ones too), bools, strings and
#: integers out of range.
BAD_KS = {
    "float": 2.5, "integral-float": 3.0, "numpy-float": np.float64(2.0),
    "true": True, "false": False, "numpy-bool": np.bool_(True),
    "string": "3", "zero": 0, "negative": -1, "above-k-max": 6,
}

#: Budgets both indexes' ``query_budgeted`` must refuse with a QueryError.
BAD_BUDGETS = {"inf": np.inf, "nan": np.nan, "zero": 0, "negative": -1}


class TestValidateK:
    @pytest.mark.parametrize("k", [1, 5, np.int64(3), np.int32(5)])
    def test_accepted(self, k):
        validate_k(k, 5)

    @pytest.mark.parametrize("name", sorted(BAD_KS))
    def test_rejected(self, name):
        with pytest.raises(QueryError):
            validate_k(BAD_KS[name], 5)


class TestValidateBudget:
    def test_returns_float(self):
        budget = validate_budget(np.int64(3))
        assert type(budget) is float and budget == 3.0

    @pytest.mark.parametrize("name", sorted(BAD_BUDGETS) + ["non-numeric"])
    def test_rejected(self, name):
        with pytest.raises(QueryError):
            validate_budget(BAD_BUDGETS.get(name, "a lot"))


def _top_k_kinds(index, small_net):
    """Every top-k query kind of ``index`` as ``k -> SeedResult``."""
    loc = (50.0, 50.0)
    mask = np.zeros(small_net.n)
    mask[::2] = 1.0
    kinds = {
        "point": lambda k: index.query(loc, k),
        "masked": lambda k: index.query_masked(loc, k, mask),
        "trajectory": lambda k: index.query_trajectory([loc, (20.0, 80.0)], k)[-1],
    }
    if isinstance(index, RisDaIndex):
        kinds["multi"] = lambda k: multi_location_query(
            index, [loc, (20.0, 80.0)], k
        )
    return kinds


class TestIndexInputContract:
    """Both index families decide one library input the same way: a k
    that is not an integer in range, or a budget that is not a finite
    positive number, is a QueryError before any work.  RIS-DA used to
    fail deep in the selection with a raw TypeError on ``k = 2.5``,
    ``3.0`` or ``True``, MIA-DA answered ``k = True`` with one seed, and
    MIA-DA answered ``budget = inf`` with every node."""

    @pytest.mark.parametrize("name", sorted(BAD_KS))
    def test_bad_k_rejected_by_every_top_k_kind(self, any_index, small_net, name):
        k = BAD_KS[name]
        if isinstance(any_index, MiaDaIndex) and name == "above-k-max":
            k = small_net.n + 1  # MIA-DA's k ranges over the nodes
        for kind, ask in _top_k_kinds(any_index, small_net).items():
            with pytest.raises(QueryError):
                ask(k)

    def test_numpy_integer_k_answers_like_int(self, any_index, small_net):
        for kind, ask in _top_k_kinds(any_index, small_net).items():
            a, b = ask(3), ask(np.int64(3))
            assert a.seeds == b.seeds, kind
            assert a.estimate == b.estimate, kind

    @pytest.mark.parametrize("name", sorted(BAD_BUDGETS))
    def test_bad_budget_rejected(self, any_index, small_net, name):
        with pytest.raises(QueryError):
            any_index.query_budgeted(
                (50.0, 50.0), BAD_BUDGETS[name], np.ones(small_net.n)
            )

    def test_finite_budget_answers(self, any_index, small_net):
        res = any_index.query_budgeted((50.0, 50.0), 3.0, np.ones(small_net.n))
        assert len(res.seeds) == 3
