"""Tests for repro.geo.kdtree (validated against brute force)."""

import math

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geo.kdtree import KDTree

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def brute_nearest(points: np.ndarray, q) -> tuple[int, float]:
    d = np.hypot(points[:, 0] - q[0], points[:, 1] - q[1])
    i = int(np.argmin(d))
    return i, float(d[i])


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            KDTree(np.empty((0, 2)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(GeometryError):
            KDTree(np.zeros((3, 3)))

    def test_len(self):
        assert len(KDTree(np.zeros((5, 2)) + np.arange(5)[:, None])) == 5


class TestNearest:
    def test_single_point(self):
        t = KDTree(np.array([[1.0, 2.0]]))
        idx, d = t.nearest((4.0, 6.0))
        assert idx == 0
        assert d == pytest.approx(5.0)

    def test_exact_hit_distance_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        idx, d = KDTree(pts).nearest((1.0, 1.0))
        assert idx == 1
        assert d == 0.0

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-100, 100, size=(500, 2))
        tree = KDTree(pts)
        for _ in range(200):
            q = tuple(rng.uniform(-120, 120, size=2))
            ti, td = tree.nearest(q)
            bi, bd = brute_nearest(pts, q)
            assert td == pytest.approx(bd)
            # Index may differ only under exact distance ties.
            if ti != bi:
                assert td == pytest.approx(bd, abs=1e-12)

    def test_duplicate_points_ok(self):
        pts = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]])
        idx, d = KDTree(pts).nearest((4.0, 4.0))
        assert idx == 10
        assert d == pytest.approx(np.sqrt(2))

    def test_collinear_points(self):
        pts = np.column_stack([np.arange(50, dtype=float), np.zeros(50)])
        tree = KDTree(pts)
        idx, d = tree.nearest((17.4, 3.0))
        assert idx == 17
        assert d == pytest.approx(np.hypot(0.4, 3.0))

    def test_nearest_many(self):
        rng = np.random.default_rng(3)
        pts = rng.random((100, 2))
        qs = rng.random((20, 2))
        tree = KDTree(pts)
        idx, dist = tree.nearest_many(qs)
        assert idx.shape == (20,)
        for row, q in enumerate(qs):
            _, bd = brute_nearest(pts, q)
            assert dist[row] == pytest.approx(bd)


class TestWithinRadius:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 10, size=(300, 2))
        tree = KDTree(pts)
        for _ in range(50):
            q = tuple(rng.uniform(0, 10, size=2))
            r = rng.uniform(0.5, 4.0)
            got = set(tree.within_radius(q, r).tolist())
            d = np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])
            want = set(np.flatnonzero(d <= r).tolist())
            assert got == want

    def test_zero_radius(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        got = KDTree(pts).within_radius((0.0, 0.0), 0.0)
        assert got.tolist() == [0]

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            KDTree(np.array([[0.0, 0.0]])).within_radius((0, 0), -1.0)


class TestVectorisedNearestMatchesWalk:
    """``nearest`` is one vectorised argmin that hands exact ties to the
    tree walk, so index and distance bits are the walk's everywhere."""

    @staticmethod
    def _check(tree, queries):
        idx, dist = tree.nearest_many(queries)
        for row, q in enumerate(queries):
            want = tree._walk(float(q[0]), float(q[1]))
            got = tree.nearest((q[0], q[1]))
            assert got == want
            assert math.copysign(1.0, got[1]) == 1.0
            assert (int(idx[row]), float(dist[row])) == want

    def test_duplicates_and_queries_on_points(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 6, size=(40, 2)).astype(float)
        pts = np.vstack([base, base[:15]])
        tree = KDTree(pts)
        queries = np.vstack([pts, rng.integers(0, 6, size=(30, 2)) + 0.5,
                             rng.uniform(-2, 8, size=(30, 2))])
        self._check(tree, queries)

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            KDTree(np.array([[0.0, np.nan]]))
        tree = KDTree(np.zeros((2, 2)) + [[0.0], [1.0]])
        with pytest.raises(GeometryError):
            tree.nearest_many(np.array([[0.0, np.inf]]))
        with pytest.raises(GeometryError):
            tree.nearest_many(np.zeros((2, 3)))

    if HAVE_HYPOTHESIS:

        @settings(max_examples=150, deadline=None)
        @given(
            grid=st.integers(1, 6),
            n=st.integers(1, 30),
            dup=st.integers(0, 10),
            seed=st.integers(0, 2**32 - 1),
        )
        def test_matches_walk(self, grid, n, dup, seed):
            rng = np.random.default_rng(seed)
            # Coarse integer grids force exact distance ties.
            pts = rng.integers(0, grid, size=(n, 2)).astype(float)
            pts = np.vstack([pts, pts[rng.integers(0, n, size=dup)]])
            queries = np.vstack([
                pts[rng.integers(0, len(pts), size=5)],
                rng.integers(-1, grid + 1, size=(5, 2)) / 2.0,
                rng.uniform(-1, grid, size=(5, 2)),
            ])
            self._check(KDTree(pts), queries)
