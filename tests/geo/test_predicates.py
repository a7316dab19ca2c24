"""Tests for repro.geo.predicates."""

import numpy as np
import pytest

from repro.geo.predicates import (
    is_ccw,
    on_segment,
    point_in_ring,
    points_in_ring,
    ring_area_signed,
    segments_intersect,
)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
CONCAVE = [(0, 0), (4, 0), (4, 4), (2, 1.5), (0, 4)]  # notch at top


class TestPointInRing:
    def test_center_inside(self):
        assert point_in_ring(0.5, 0.5, SQUARE)

    def test_outside(self):
        assert not point_in_ring(1.5, 0.5, SQUARE)
        assert not point_in_ring(0.5, -0.1, SQUARE)

    def test_boundary_counts_inside(self):
        assert point_in_ring(0.0, 0.5, SQUARE)
        assert point_in_ring(0.5, 1.0, SQUARE)

    def test_vertex_counts_inside(self):
        assert point_in_ring(0.0, 0.0, SQUARE)

    def test_concave_notch_excluded(self):
        # the notch region above (2, 1.5) is outside the polygon
        assert not point_in_ring(2.0, 3.0, CONCAVE)
        assert point_in_ring(2.0, 1.0, CONCAVE)
        assert point_in_ring(0.5, 2.0, CONCAVE)

    def test_closed_ring_accepted(self):
        closed = SQUARE + [SQUARE[0]]
        assert point_in_ring(0.5, 0.5, closed)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            point_in_ring(0.0, 0.0, [(0, 0), (1, 1)])


class TestPointsInRing:
    def test_matches_scalar_on_grid(self):
        xs, ys = np.meshgrid(np.linspace(-0.5, 1.5, 21),
                             np.linspace(-0.5, 1.5, 21))
        xs = xs.ravel()
        ys = ys.ravel()
        vec = points_in_ring(xs, ys, SQUARE)
        for i in range(len(xs)):
            # skip exact-boundary points where the scalar test treats
            # on-edge as inside but the crossing rule may differ
            on_edge = (abs(xs[i]) < 1e-12 or abs(xs[i] - 1) < 1e-12
                       or abs(ys[i]) < 1e-12 or abs(ys[i] - 1) < 1e-12)
            if on_edge:
                continue
            assert vec[i] == point_in_ring(xs[i], ys[i], SQUARE), \
                (xs[i], ys[i])

    def test_concave(self):
        xs = np.array([2.0, 2.0, 0.5])
        ys = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            points_in_ring(xs, ys, CONCAVE), [False, True, True])

    def test_empty_input(self):
        out = points_in_ring(np.array([]), np.array([]), SQUARE)
        assert out.shape == (0,)


class TestSegments:
    def test_crossing(self):
        assert segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_touching_endpoint(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_overlap(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_on_segment(self):
        assert on_segment(0.5, 0.5, 0, 0, 1, 1)
        assert not on_segment(0.5, 0.6, 0, 0, 1, 1)
        assert not on_segment(1.5, 1.5, 0, 0, 1, 1)


class TestAreaWinding:
    def test_ccw_square_positive(self):
        assert ring_area_signed(SQUARE) == pytest.approx(1.0)
        assert is_ccw(SQUARE)

    def test_cw_square_negative(self):
        assert ring_area_signed(SQUARE[::-1]) == pytest.approx(-1.0)
        assert not is_ccw(SQUARE[::-1])

    def test_concave_area(self):
        # big square 16 minus notch triangle area 5
        assert ring_area_signed(CONCAVE) == pytest.approx(11.0)
