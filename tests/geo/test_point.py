"""Tests for repro.geo.point."""

import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

from repro.exceptions import GeometryError
from repro.geo.point import (
    BoundingBox,
    as_point,
    euclidean,
    manhattan,
    pairwise_distances,
    resolve_metric,
)


class TestAsPoint:
    def test_tuple_passthrough(self):
        assert as_point((1.0, 2.0)) == (1.0, 2.0)

    def test_list_coerced(self):
        assert as_point([3, 4]) == (3.0, 4.0)

    def test_numpy_row(self):
        assert as_point(np.array([1.5, -2.5])) == (1.5, -2.5)

    def test_wrong_arity_rejected(self):
        with pytest.raises(GeometryError):
            as_point((1.0, 2.0, 3.0))

    def test_nan_rejected(self):
        with pytest.raises(GeometryError):
            as_point((float("nan"), 0.0))

    def test_inf_rejected(self):
        with pytest.raises(GeometryError):
            as_point((float("inf"), 0.0))


class TestMetrics:
    def test_euclidean_345(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_manhattan(self):
        assert manhattan(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 7.0

    def test_broadcast(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        d = euclidean(pts, np.array([0.0, 0.0]))
        assert d.tolist() == [0.0, 1.0]

    def test_resolve_by_name(self):
        assert resolve_metric("euclidean") is euclidean
        assert resolve_metric("manhattan") is manhattan

    def test_resolve_callable_passthrough(self):
        fn = lambda a, b: euclidean(a, b)  # noqa: E731
        assert resolve_metric(fn) is fn

    def test_resolve_unknown_raises(self):
        with pytest.raises(GeometryError, match="unknown metric"):
            resolve_metric("chebyshev")

    def test_pairwise_shape(self):
        pts = np.random.default_rng(0).random((7, 2))
        qs = np.random.default_rng(1).random((3, 2))
        d = pairwise_distances(pts, qs)
        assert d.shape == (3, 7)
        assert d[1, 2] == pytest.approx(
            math.hypot(qs[1, 0] - pts[2, 0], qs[1, 1] - pts[2, 1])
        )


class TestBoundingBox:
    def test_of_points(self):
        box = BoundingBox.of_points(np.array([[0, 0], [2, 3], [1, -1]]))
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (0, -1, 2, 3)

    def test_of_points_pad(self):
        box = BoundingBox.of_points(np.array([[0, 0], [1, 1]]), pad=0.5)
        assert (box.xmin, box.ymax) == (-0.5, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            BoundingBox.of_points(np.empty((0, 2)))

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            BoundingBox(1.0, 0.0, 0.0, 1.0)

    def test_dimensions(self):
        box = BoundingBox(0, 0, 3, 4)
        assert box.width == 3
        assert box.height == 4
        assert box.diagonal == 5
        assert box.center == (1.5, 2.0)

    def test_contains(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.contains((0.5, 0.5))
        assert box.contains((0.0, 1.0))  # boundary counts
        assert not box.contains((1.1, 0.5))

    def test_clamp(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.clamp((2.0, -1.0)) == (1.0, 0.0)
        assert box.clamp((0.3, 0.7)) == (0.3, 0.7)

    def test_min_distance_inside_is_zero(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.min_distance((0.5, 0.5)) == 0.0

    def test_min_distance_outside(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.min_distance((4.0, 5.0)) == pytest.approx(5.0)

    def test_max_distance(self):
        box = BoundingBox(0, 0, 1, 1)
        # Farthest corner from (0, 0) is (1, 1).
        assert box.max_distance((0.0, 0.0)) == pytest.approx(math.sqrt(2))

    def test_max_ge_min_everywhere(self):
        rng = np.random.default_rng(2)
        box = BoundingBox(0, 0, 5, 3)
        for _ in range(50):
            p = tuple(rng.uniform(-10, 10, size=2))
            assert box.max_distance(p) >= box.min_distance(p)

    def test_corners_ccw(self):
        corners = BoundingBox(0, 0, 2, 1).corners()
        assert corners.shape == (4, 2)
        # Shoelace area positive => counter-clockwise.
        x, y = corners[:, 0], corners[:, 1]
        area = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert area == pytest.approx(2.0)

    def test_expanded(self):
        box = BoundingBox(0, 0, 1, 1).expanded(1.0)
        assert (box.xmin, box.ymin, box.xmax, box.ymax) == (-1, -1, 2, 2)


class TestPlanarEuclideanKernel:
    """The last-dimension-2 path of :func:`euclidean` is the generic
    axis sum bit for bit; other widths keep the generic path."""

    @staticmethod
    def _generic(a, b):
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return np.sqrt(np.sum(diff * diff, axis=-1))

    def _same(self, a, b):
        got = euclidean(a, b)
        want = self._generic(a, b)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_other_widths_keep_the_generic_path(self):
        rng = np.random.default_rng(2)
        for width in (1, 3, 5):
            a, b = rng.normal(size=(4, width)), rng.normal(size=(1, width))
            self._same(a, b)

    if HAVE_HYPOTHESIS:

        @settings(max_examples=200, deadline=None)
        @given(
            m=st.integers(1, 4),
            n=st.integers(1, 40),
            scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e3, 1e150]),
            seed=st.integers(0, 2**32 - 1),
        )
        def test_bit_identical(self, m, n, scale, seed):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(m, n, 2)) * scale
            q = rng.normal(size=(1, 2)) * scale
            self._same(pts[0], q)
            self._same(pts[0, 0], q[0])
            self._same(pts, q)
            self._same(pts, pts[:, :1, :])
