"""Degenerate-case parity: every new query kind collapses to the point path.

Each rich query kind has a degenerate parameterisation that is *by
construction* the standard point query, and the implementations are
written so those cases stay bit-identical, not merely close:

* a 1-waypoint trajectory — one plan of the same RIS-DA body, whose
  node-space weights gathered per sample are the point path's floats;
* an all-ones target mask — multiplying sample weights (RIS) or node
  weights and bounds (MIA) by 1.0 is exact in IEEE arithmetic;
* uniform power-of-two costs ``c`` with budget ``k * c`` — dividing every
  gain by the same power of two preserves the argmax ordering exactly,
  and ``k`` exact subtractions of ``c`` drain the budget to exactly 0.0.

Checked on both index families, at the index level and through the
serving engine (where the 1-waypoint trajectory must also *hit* the
point query's cache entry — they share the point keyspace).
"""

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.querykind import BudgetedQuery, TargetedQuery, TrajectoryQuery
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.serve.engine import QueryEngine

QK_PAIRS = [
    ((50.0, 50.0), 1),
    ((50.0, 50.0), 5),
    ((20.0, 80.0), 3),
]

#: Powers of two: gain / c is exact, so ratio ordering == gain ordering.
UNIFORM_COSTS = (1.0, 0.5, 2.0)


@pytest.fixture(scope="module")
def ris_eager(small_net):
    cfg = RisDaConfig(
        k_max=8, n_pivots=6, epsilon_pivot=0.4, max_index_samples=8000,
        seed=5,
    )
    return RisDaIndex(small_net, None, cfg)


@pytest.fixture(scope="module")
def mia(small_net):
    cfg = MiaDaConfig(theta=0.05, n_anchors=10, tau=24, seed=5)
    return MiaDaIndex(small_net, None, cfg)


@pytest.fixture(params=["ris_eager", "mia"])
def index(request):
    return request.getfixturevalue(request.param)


def _assert_identical(a, b, what):
    assert list(a.seeds) == list(b.seeds), f"{what}: seed sets differ"
    assert a.estimate == b.estimate, (
        f"{what}: estimates differ ({a.estimate!r} vs {b.estimate!r})"
    )


class TestIndexLevelParity:
    @pytest.mark.parametrize("q,k", QK_PAIRS)
    def test_one_waypoint_trajectory_is_point(self, index, q, k):
        point = index.query(q, k)
        [traj] = index.query_trajectory([q], k)
        _assert_identical(traj, point, "1-waypoint trajectory")

    @pytest.mark.parametrize("q,k", QK_PAIRS)
    def test_all_ones_mask_is_standard(self, index, small_net, q, k):
        point = index.query(q, k)
        masked = index.query_masked(q, k, np.ones(small_net.n))
        _assert_identical(masked, point, "all-ones mask")

    @pytest.mark.parametrize("q,k", QK_PAIRS)
    @pytest.mark.parametrize("c", UNIFORM_COSTS)
    def test_uniform_cost_budget_is_topk(self, index, small_net, q, k, c):
        point = index.query(q, k, return_diagnostics=True)
        budgeted = index.query_budgeted(
            q, budget=k * c, costs=np.full(small_net.n, c),
            return_diagnostics=True,
        )
        _assert_identical(budgeted[0], point[0], f"uniform cost {c}")
        if isinstance(index, MiaDaIndex):
            # One search: top-k is the unit-cost budget, work included.
            assert budgeted[1].evaluations == point[1].evaluations
            assert budgeted[1].heap_pops == point[1].heap_pops

    def test_trajectory_slices_match_separate_queries(self, index):
        """Every waypoint of a trajectory equals its standalone query —
        batching must not perturb later waypoints either."""
        waypoints = [(10.0, 10.0), (50.0, 50.0), (90.0, 90.0)]
        results = index.query_trajectory(waypoints, 3)
        for wp, res in zip(waypoints, results):
            _assert_identical(res, index.query(wp, 3), f"waypoint {wp}")

    def test_proper_subset_mask_differs_from_standard(self, ris_eager,
                                                      small_net):
        """Sanity: the mask is actually applied — a half mask changes the
        objective (estimates must differ; it only counts half the mass)."""
        q, k = (50.0, 50.0), 5
        mask = np.zeros(small_net.n)
        mask[::2] = 1.0
        masked = ris_eager.query_masked(q, k, mask)
        assert masked.estimate < ris_eager.query(q, k).estimate


class TestEngineLevelParity:
    @pytest.mark.parametrize("q,k", QK_PAIRS)
    def test_engine_parity_all_kinds(self, index, small_net, q, k):
        engine = QueryEngine(index)
        point = engine.query(q, k=k)
        assert point.ok, point.error

        traj = engine.query(TrajectoryQuery(waypoints=(q,), k=k))
        assert traj.ok, traj.error
        _assert_identical(traj.result, point.result, "engine trajectory")
        # A waypoint shares the point keyspace: this was a cache hit.
        assert traj.cached

        targeted = engine.query(
            TargetedQuery(location=q, k=k, targets=tuple(range(small_net.n)))
        )
        assert targeted.ok, targeted.error
        _assert_identical(targeted.result, point.result, "engine targeted")
        # ... but it must NOT have come from the point cache entry.
        assert not targeted.cached

        budgeted = engine.query(BudgetedQuery(location=q, budget=float(k)))
        assert budgeted.ok, budgeted.error
        _assert_identical(budgeted.result, point.result, "engine budgeted")
        assert not budgeted.cached

    def test_point_path_unperturbed_by_other_kinds(self, index):
        """Serving the new kinds leaves the point path bit-identical and
        its cache warm."""
        q, k = (20.0, 80.0), 3
        engine = QueryEngine(index)
        before = engine.query(q, k=k)
        engine.query(TargetedQuery(location=q, k=k, targets=(0, 1, 2)))
        engine.query(BudgetedQuery(location=q, budget=2.0))
        after = engine.query(q, k=k)
        _assert_identical(after.result, before.result, "point after kinds")
        assert after.cached
