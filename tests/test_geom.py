import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rngswarm.geom import (
    Polygon,
    clamp_fraction,
    clamp_point_xy,
    segments_blocked,
    segments_intersect_xy,
)
from rngswarm.graphs import effective_graph, pairwise_distances, visibility_graph
from rngswarm.properties import bisect_clamp_fraction, random_clamp_instance

from helpers import naive_lune_occupants, scalar_blocks, scalar_contains, scalar_segments_intersect

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def in_lens(k, i, j):
    """Whether point k lies strictly inside the lens of the pair (i, j): the
    trim then drops the edge (i, j)."""
    xy = np.array([i, j, k], dtype=float)
    return not effective_graph(visibility_graph(xy, 100.0), xy, 0).has_edge(0, 1)


class TestPoints:
    def test_distance(self):
        # lengths are sqrt(dx*dx + dy*dy): a 3-4-5 triangle is exact
        d = pairwise_distances(np.array([(0.0, 0.0), (3.0, 4.0), (-1.0, -1.0), (-1.0, -1.0)]))
        assert d[0, 1] == 5.0
        assert d[2, 3] == 0.0

    def test_disc_contains_is_closed(self):
        # a clamp disc includes its rim: a target on it is reached, one just
        # beyond it is cut back to the rim
        assert clamp_fraction((0, 0), (1.0, 0.0), [(0.0, 0.0)], [1.0]) == 1.0
        assert clamp_fraction((0, 0), (1.0 + 1e-6, 0.0), [(0.0, 0.0)], [1.0]) < 1.0


class TestLune:
    def test_point_inside(self):
        assert in_lens((0.5, 0.1), (0, 0), (1, 0))

    def test_midpoint_inside(self):
        assert in_lens((0.5, 0.0), (0, 0), (1, 0))

    def test_boundary_point_excluded(self):
        # (3, 4) is at distance exactly 5 from (0, 0) — on the lens rim of a
        # pair at distance 5, and well inside the disc around the other end
        assert not in_lens((3, 4), (0, 0), (5, 0))
        # nudged one step inward it counts
        assert in_lens((3, 3.9999999), (0, 0), (5, 0))

    def test_endpoints_excluded(self):
        assert not in_lens((0, 0), (0, 0), (1, 0))
        assert not in_lens((1, 0), (0, 0), (1, 0))

    def test_far_point_excluded(self):
        assert not in_lens((2.0, 0.0), (0, 0), (1, 0))

    def test_coincident_pair_raises(self):
        # the lens of a coincident pair is undefined; the trim keeps its edge
        with pytest.raises(ValueError, match="coincident"):
            naive_lune_occupants([(1.0, 1.0), (1.0, 1.0), (0.3, 0.3)], 0, 1)
        assert not in_lens((0.3, 0.3), (1, 1), (1, 1))

    def test_symmetric_in_pair_order(self):
        k, a, b = (0.4, -0.2), (0, 0), (1, 0)
        assert in_lens(k, a, b) == in_lens(k, b, a)


class TestClampFraction:
    def test_single_disc_frozen_example(self):
        # ray (0,0)->(3,0) leaves the disc centred (0.5,0) r=1 at x=1.5
        s = clamp_fraction((0, 0), (3, 0), [(0.5, 0.0)], [1.0])
        assert s == pytest.approx(0.5, abs=1e-12)
        q = clamp_point_xy((0, 0), (3, 0), [(0.5, 0.0)], [1.0])
        assert q == pytest.approx((1.5, 0.0), abs=1e-9)

    def test_no_constraints_returns_target(self):
        assert clamp_fraction((0, 0), (3, 7), np.empty((0, 2)), []) == 1.0
        q = clamp_point_xy((0, 0), (3, 7), np.empty((0, 2)), [])
        assert tuple(q) == (3.0, 7.0)

    def test_target_already_feasible(self):
        assert clamp_fraction((0, 0), (0.2, 0.0), [(0.0, 0.0)], [1.0]) == 1.0

    def test_zero_length_segment(self):
        assert clamp_fraction((0.5, 0.5), (0.5, 0.5), [(0.0, 0.0)], [1.0]) == 1.0

    def test_two_discs_take_the_tighter_one(self):
        s = clamp_fraction((0, 0), (4, 0), [(0.0, 0.0), (1.0, 0.0)], [3.0, 1.5])
        # second disc exits at x=2.5, first at x=3
        assert s == pytest.approx(2.5 / 4.0, abs=1e-12)

    def test_infeasible_start_raises(self):
        with pytest.raises(ValueError, match="violates"):
            clamp_fraction((5, 5), (0, 0), [(0.0, 0.0)], [1.0])

    def test_start_on_boundary_gives_zero_forward_motion(self):
        s = clamp_fraction((1.0, 0.0), (2.0, 0.0), [(0.0, 0.0)], [1.0])
        assert s == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_bisection_oracle(self, rng):
        for _ in range(1000):
            cur, tgt, centers, radii = random_clamp_instance(rng)
            s = clamp_fraction(cur, tgt, centers, radii)
            s_ref = bisect_clamp_fraction(cur, tgt, centers, radii)
            assert abs(s - s_ref) <= 1e-7

    def test_clamped_point_feasible_and_maximal(self, rng):
        for _ in range(500):
            cur, tgt, centers, radii = random_clamp_instance(rng)
            if len(centers) == 0:
                continue
            s = clamp_fraction(cur, tgt, centers, radii)
            q = clamp_point_xy(cur, tgt, centers, radii)
            d = np.sqrt(((q - centers) ** 2).sum(axis=1))
            assert np.all(d <= np.asarray(radii) + 1e-9)
            if s < 1.0 - 1e-9:
                # one part in 1e6 further along the segment breaks some disc
                q2 = cur + (s + 1e-6) * (np.asarray(tgt, float) - cur)
                d2 = np.sqrt(((q2 - centers) ** 2).sum(axis=1))
                assert np.any(d2 > np.asarray(radii))

    def test_rows_match_single_point_calls(self, rng):
        # one call over many rows, each with its own discs (some with none),
        # gives each row's single-point clamp byte for byte
        cases = [random_clamp_instance(rng) for _ in range(300)]
        cur = np.array([c[0] for c in cases])
        tgt = np.array([c[1] for c in cases])
        centers = np.concatenate([c[2] for c in cases])
        radii = np.concatenate([c[3] for c in cases])
        indptr = np.concatenate(([0], np.cumsum([len(c[2]) for c in cases])))
        rows = clamp_point_xy(cur, tgt, centers, radii, indptr=indptr)
        single = np.array([clamp_point_xy(*c) for c in cases])
        assert rows.tobytes() == single.tobytes()


class TestSegmentIntersection:
    def test_proper_crossing(self):
        assert segments_intersect_xy(0, 0, 1, 1, 0, 1, 1, 0)

    def test_disjoint(self):
        assert not segments_intersect_xy(0, 0, 1, 0, 0, 1, 1, 1)

    def test_shared_endpoint_counts(self):
        assert segments_intersect_xy(0, 0, 1, 0, 1, 0, 2, 5)

    def test_t_junction_counts(self):
        assert segments_intersect_xy(0, 0, 2, 0, 1, 0, 1, 1)

    def test_collinear_overlap_counts(self):
        assert segments_intersect_xy(0, 0, 2, 0, 1, 0, 3, 0)

    def test_collinear_disjoint(self):
        assert not segments_intersect_xy(0, 0, 1, 0, 2, 0, 3, 0)

    @given(finite, finite, finite, finite, finite, finite, finite, finite)
    @settings(max_examples=200)
    def test_symmetric_in_argument_order(self, ax, ay, bx, by, cx, cy, dx, dy):
        first = segments_intersect_xy(ax, ay, bx, by, cx, cy, dx, dy)
        second = segments_intersect_xy(cx, cy, dx, dy, ax, ay, bx, by)
        assert first == second


SQUARE = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))


class TestPolygon:
    def test_accepts_bare_pairs(self):
        p = Polygon(((0, 0), (1, 0), (0, 1)))
        assert p.vertices[1] == (1.0, 0.0)

    def test_clockwise_input_is_reversed(self):
        ccw = Polygon(((0, 0), (1, 0), (0, 1)))
        cw = Polygon(((0, 1), (1, 0), (0, 0)))
        assert set(ccw.vertices) == set(cw.vertices)
        assert cw.contains_xy(0.25, 0.25)

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            Polygon(((0, 0), (1, 0)))

    def test_coincident_consecutive_vertices(self):
        with pytest.raises(ValueError, match="coincident"):
            Polygon(((0, 0), (0, 0), (1, 1)))

    def test_rejects_non_finite_vertices(self):
        with pytest.raises(ValueError, match="finite"):
            Polygon(((0, 0), (math.nan, 0.0), (1, 1)))
        with pytest.raises(ValueError, match="finite"):
            Polygon(((0, 0), (1, 0), (0.0, math.inf)))

    def test_zero_area(self):
        with pytest.raises(ValueError, match="degenerate"):
            Polygon(((0, 0), (1, 1), (2, 2)))

    def test_self_intersection(self):
        # asymmetric bowtie: nonzero area, edges 1 and 3 cross at (1.2, 0.6)
        with pytest.raises(ValueError, match="not simple"):
            Polygon(((0, 0), (3, 0), (0, 1), (2, 1)))

    def test_contains_interior_and_exterior(self):
        assert SQUARE.contains_xy(1.0, 1.0)
        assert not SQUARE.contains_xy(3.0, 1.0)
        assert not SQUARE.contains_xy(-0.001, 1.0)

    def test_boundary_counts_as_contained(self):
        assert SQUARE.contains_xy(2.0, 1.0)  # edge
        assert SQUARE.contains_xy(0.0, 0.0)  # vertex
        assert SQUARE.contains_xy(1.0, 2.0)

    def test_concave_polygon_containment(self):
        # L-shape: the notch around (1.5, 1.5) is outside
        ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
        assert ell.contains_xy(0.5, 1.5)
        assert not ell.contains_xy(1.5, 1.5)
        assert ell.contains_xy(1.5, 0.5)

    def test_blocks_crossing_segment(self):
        assert SQUARE.blocks_segment_xy(-1, 1, 3, 1)

    def test_blocks_segment_fully_inside(self):
        assert SQUARE.blocks_segment_xy(0.5, 0.5, 1.5, 1.5)

    def test_blocks_grazing_segment(self):
        # running exactly along the top edge counts as contact
        assert SQUARE.blocks_segment_xy(-1.0, 2.0, 3.0, 2.0)

    def test_blocks_vertex_touch(self):
        assert SQUARE.blocks_segment_xy(-1.0, -1.0, 0.0, 0.0)

    def test_does_not_block_clear_segment(self):
        assert not SQUARE.blocks_segment_xy(-1.0, 3.0, 3.0, 3.0)
        assert not SQUARE.blocks_segment_xy(2.1, 0.0, 2.1, 2.0)

    @given(st.floats(min_value=-3, max_value=5), st.floats(min_value=-3, max_value=5))
    @settings(max_examples=200)
    def test_contains_matches_winding_free_reference(self, x, y):
        # for an axis-aligned square the answer is the box test
        expected = 0.0 <= x <= 2.0 and 0.0 <= y <= 2.0
        # skip hair-thin boundary disagreements: the polygon test is
        # deliberately tolerant within 1e-12 of an edge
        on_edge = min(abs(x), abs(x - 2), abs(y), abs(y - 2)) < 1e-9
        if not on_edge:
            assert SQUARE.contains_xy(x, y) == expected


# grid values put points and segment ends on edges and vertices; free floats
# give everything in between
_COORD = st.one_of(
    st.integers(-4, 12).map(lambda k: k * 0.25),
    st.floats(min_value=-1, max_value=3, allow_nan=False, allow_subnormal=False),
)
POLYGONS = (
    SQUARE,
    Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))),  # non-convex
    Polygon(((0.25, 0.25), (1.75, 0.5), (0.5, 1.5))),
)


class TestElementwisePredicates:
    """The array predicates are the scalar ones of `helpers`, element by element."""

    @settings(max_examples=300)
    @given(st.sampled_from(POLYGONS), st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=30))
    def test_arrays_match_the_scalar_oracle(self, poly, segments):
        a = np.array(segments)
        other = np.roll(a, 1, axis=0)
        assert poly.contains_xy(a[:, 0], a[:, 1]).tolist() == [scalar_contains(poly, *s[:2]) for s in segments]
        assert poly.blocks_segment_xy(*a.T).tolist() == [scalar_blocks(poly, *s) for s in segments]
        assert segments_intersect_xy(*a.T, *other.T).tolist() == [
            scalar_segments_intersect(*s, *t) for s, t in zip(segments, other.tolist())
        ]
        blocked = segments_blocked(a[:, :2], a[:, 2:], POLYGONS)
        assert blocked.tolist() == [any(scalar_blocks(p, *s) for p in POLYGONS) for s in segments]

    def test_a_scalar_call_is_the_0d_case(self):
        assert SQUARE.contains_xy(1.0, 1.0).shape == ()
        assert SQUARE.blocks_segment_xy(-1.0, 1.0, 3.0, 1.0).shape == ()
        assert segments_intersect_xy(0, 0, 1, 1, 0, 1, 1, 0).shape == ()

    def test_no_obstacles_block_nothing(self):
        assert segments_blocked(np.zeros((3, 2)), np.ones((3, 2)), ()).tolist() == [False] * 3
