"""Exact geometric primitives."""

import pytest

from oracles import ccw_sign, polygon_area2, sort_by_angle, winding_number
from shellcert.geometry import angle_less, on_segment, segment_intersection


def test_ccw_sign():
    assert ccw_sign((0, 0), (1, 0), (0, 1)) == 1
    assert ccw_sign((0, 0), (0, 1), (1, 0)) == -1
    assert ccw_sign((0, 0), (1, 1), (2, 2)) == 0


def test_disjoint_segments():
    assert segment_intersection((0, 0), (1, 0), (3, 0), (4, 0)) is None
    assert segment_intersection((4, 2), (3, 1), (0, -2), (2, 0)) is None


def test_pieces_off_one_line_are_refused():
    # the planarizer decides pieces that are not collinear on its own
    for pieces in (((0, 0), (4, 4), (0, 4), (4, 0)), ((0, 0), (1, 0), (0, 1), (1, 1)),
                   ((0, 0), (2, 0), (2, 0), (3, 1)), ((1, 1), (1, 1), (0, 0), (2, 2))):
        with pytest.raises(ValueError):
            segment_intersection(*pieces)


def test_collinear_overlap():
    kind, a, b = segment_intersection((0, 0), (4, 0), (2, 0), (6, 0))
    assert kind == "overlap"
    assert {a, b} == {(2, 0), (4, 0)}


def test_collinear_point_touch():
    res = segment_intersection((0, 0), (2, 0), (2, 0), (6, 0))
    assert res[0] == "point" and res[1] == (2, 0)


def test_on_segment():
    assert on_segment((1, 1), (0, 0), (2, 2))
    assert on_segment((0, 0), (0, 0), (2, 2))
    assert not on_segment((3, 3), (0, 0), (2, 2))
    assert not on_segment((1, 0), (0, 0), (2, 2))


def test_angle_order_counterclockwise():
    dirs = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    shuffled = list(reversed(dirs))
    assert sort_by_angle(shuffled, key=lambda v: v) == dirs
    for a, b in zip(dirs, dirs[1:]):
        assert angle_less(a, b)


def test_angle_order_rejects_ties():
    with pytest.raises(ValueError):
        sort_by_angle([(1, 1), (2, 2)], key=lambda v: v)


def test_winding_number_square():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert winding_number((2, 2), square) == 1
    assert winding_number((2, 2), list(reversed(square))) == -1
    assert winding_number((9, 9), square) == 0
    assert polygon_area2(square) == 32
    assert polygon_area2(list(reversed(square))) == -32
