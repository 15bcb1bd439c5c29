"""SVG polyline formatting against the vertex-by-vertex reference."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monge4 import svgplot

from oracles import polyline_reference

# plain coordinates plus the edge cases of "%.4f": signed zeros, values that
# round to -0.0000 once mapped, and magnitudes near 1e-9 and 1e12
EDGE = [0.0, -0.0, -4e-5, -5e-5, 4e-5, 1e-9, -1e-9, 3e-10, 1e12, -1e12,
        999999999999.99]
coord = st.one_of(st.floats(-1e12, 1e12), st.sampled_from(EDGE))
points = st.lists(st.tuples(coord, coord), min_size=0, max_size=40)


def _assert_same(mapper, pts):
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    for closed in (False, True):
        assert (mapper.polyline(arr, closed=closed)
                == polyline_reference(mapper, arr, closed=closed))


@given(st.tuples(coord, st.floats(0.0, 1e12), coord, st.floats(0.0, 1e12)),
       points)
@example((0.0, 1e-9, 0.0, 1e-9), [])
@example((-1.0, 2.0, -1.0, 2.0), [(0.0, 0.0)])
@example((-1e12, 2e12, 3.0, 1e-9), [(-0.0, -0.0), (1e12, -1e12)])
@settings(max_examples=300, deadline=None)
def test_polyline_matches_reference_on_random_boxes(box, pts):
    xmin, w, ymin, h = box
    _assert_same(svgplot._Mapper((xmin, xmin + w, ymin, ymin + h)), pts)


@given(st.sampled_from([0.0, -0.0, 1.0, -3e-5, 2.5e-9]),
       st.sampled_from([0.0, -0.0, 800.0, 3e-5, -1e-9]),
       st.sampled_from([1.0, 1e-9, 1e9, 0.3]), points)
@example(0.0, 0.0, 1.0, [(-0.0, 800.0), (-4e-5, 800.00004)])
# (p - y0) * scale and p * scale - y0 * scale print differently here
@example(-8.127107877363251, -8.127107877363251, 621.1913117417037,
         [(160719.5507117142, 160719.5507117142)])
@settings(max_examples=200, deadline=None)
def test_polyline_matches_reference_on_set_mappings(x0, y0, scale, pts):
    """Mappings chosen so that vertices land on -0.0 and on values that
    print as -0.0000 in both coordinates, and one whose last mapped bit
    shows in the fourth decimal."""
    mapper = svgplot._Mapper((0.0, 1.0, 0.0, 1.0))
    mapper.x0, mapper.y0, mapper.scale = x0, y0, scale
    _assert_same(mapper, pts)


def test_polyline_prints_negative_zero():
    mapper = svgplot._Mapper((0.0, 1.0, 0.0, 1.0))
    mapper.x0, mapper.y0, mapper.scale = 0.0, 0.0, 1.0
    coords, tag = mapper.polyline(np.array([[-0.0, 800.0], [-4e-5, 800.00004]]))
    assert coords == "-0.0000,0.0000 -0.0000,-0.0000"
    assert tag == "polyline"
    assert mapper.polyline(np.zeros((0, 2)), closed=True) == ("", "polygon")
