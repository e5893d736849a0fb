"""Tests for repro.geo.sampling."""

import numpy as np
import pytest

from repro.exceptions import GeometryError
from repro.geo.point import BoundingBox
from repro.geo.sampling import sample_density_pivots, sample_uniform_points


@pytest.fixture
def box() -> BoundingBox:
    return BoundingBox(-5, 0, 5, 20)


class TestUniform:
    def test_shape_and_bounds(self, box):
        pts = sample_uniform_points(box, 500, seed=0)
        assert pts.shape == (500, 2)
        assert pts[:, 0].min() >= box.xmin and pts[:, 0].max() <= box.xmax
        assert pts[:, 1].min() >= box.ymin and pts[:, 1].max() <= box.ymax

    def test_deterministic(self, box):
        a = sample_uniform_points(box, 10, seed=1)
        b = sample_uniform_points(box, 10, seed=1)
        assert np.array_equal(a, b)

    def test_covers_box_roughly(self, box):
        pts = sample_uniform_points(box, 2000, seed=2)
        # Mean should be near the center for a uniform sample.
        assert pts[:, 0].mean() == pytest.approx(0.0, abs=0.5)
        assert pts[:, 1].mean() == pytest.approx(10.0, abs=1.0)

    def test_zero_rejected(self, box):
        with pytest.raises(GeometryError):
            sample_uniform_points(box, 0)


class TestDensityPivots:
    def test_draws_from_given_coords(self):
        coords = np.array([[0.0, 0.0], [10.0, 10.0]])
        pts = sample_density_pivots(coords, 50, seed=0)
        for p in pts:
            assert tuple(p) in {(0.0, 0.0), (10.0, 10.0)}

    def test_jitter_moves_points(self):
        coords = np.array([[0.0, 0.0]])
        pts = sample_density_pivots(coords, 20, seed=1, jitter=1.0)
        assert not np.allclose(pts, 0.0)

    def test_empty_coords_rejected(self):
        with pytest.raises(GeometryError):
            sample_density_pivots(np.empty((0, 2)), 5)

    def test_density_bias(self):
        """Pivots should concentrate where nodes concentrate."""
        rng = np.random.default_rng(3)
        cluster = rng.normal(0, 1, size=(900, 2))
        outliers = rng.normal(50, 1, size=(100, 2))
        coords = np.vstack([cluster, outliers])
        pts = sample_density_pivots(coords, 200, seed=4)
        near_cluster = np.sum(np.hypot(pts[:, 0], pts[:, 1]) < 10)
        assert near_cluster > 140  # ~90% expected
